"""lucene_solr_ray — a Ray-Data-native full-text indexing and query engine.

A from-scratch re-expression of Apache Lucene/Solr's query and
data-processing capabilities (reference: Lucene 7.0.0-SNAPSHOT) on top of
``ray.data.Dataset`` pipelines over zero-copy Arrow batches:

- ``analysis``  — StandardAnalyzer-equivalent chain (UAX#29 tokenizer,
  per-codepoint lowercase, 33-word English stop filter with position holes).
- ``index``     — distributed inverted-index build: doc_id assignment,
  SPIMI-style per-partition runs via an actor pool, term groupby shuffle,
  delta+varint encoded postings,
  doc-sharded segments plus a versioned manifest (resume support).
- ``search``    — BM25 (k1=1.2, b=0.75, Lucene's Okapi variant, float32)
  top-k over sharded segments served from Ray actor pools; boolean
  AND/OR/NOT and exact phrase queries; single-process oracle for testing.
- ``pipelines`` — the Solr streaming-expression operator surface (joins,
  rollups, facets, dedup, top-k, set ops) and training-data-pipeline
  operators (MinHash/SimHash dedup, ANN search, text quality stats)
  expressed as Ray Data transforms.
"""

__version__ = "0.1.0"
