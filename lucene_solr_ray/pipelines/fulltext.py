"""Full-text pipelines over the test tables: the flagship engine applied to
the ``documents`` table and the synthesized transcripts."""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..index.build import build_index
from ..search.searcher import IndexSearcher

#: query set exercising term/boolean/phrase shapes over the documents vocab
DOC_QUERIES = (
    "table", "hash join", "query AND plan", "scan OR merge",
    '"group by"', "+filter -window", "data pipeline batch",
    "zzznotfound", "the value",
)


def _docs_index_dir(sf_dir: str) -> str:
    from ..index.segment import FORMAT_VERSION

    key = hashlib.md5(str(Path(sf_dir).resolve()).encode()).hexdigest()[:12]
    return f"/tmp/lsr_cache/docs_index_v{FORMAT_VERSION}_{key}"


def docs_index(sf_dir: str, num_shards: int = 4) -> str:
    """Build (once, cached) the inverted index over documents.text.

    doc_id order: documents are keyed ``conv_id = f"doc-{doc_id:08d}"``,
    turn_idx = 0, so the engine's rank-assigned doc_id equals the table's
    doc_id (zero-padded lexicographic order == numeric order).
    """
    out = _docs_index_dir(sf_dir)
    if not (Path(out) / "manifest.json").exists():
        docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

        def to_schema(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            # vectorized "doc-%08d" (no per-row f-strings): zero-pad the
            # cast id string and prepend the literal prefix
            ids = pc.utf8_lpad(
                pc.cast(batch.column("doc_id"), pa.string()), 8, "0")
            conv = pc.binary_join_element_wise(
                pa.repeat("doc-", batch.num_rows), ids, "")
            return pa.table({
                "conv_id": conv,
                "turn_idx": pa.nulls(batch.num_rows, pa.int32()).fill_null(0),
                "text": batch.column("text"),
            })

        ds = docs.map_batches(to_schema, batch_format="pyarrow")
        build_index(ds, out, num_shards=num_shards, assume_sorted=False)
    return out


def bm25_topk_docs(sf_dir: str, k: int = 10) -> pa.Table:
    """BM25 top-k for the fixed query set (rows-only correctness check;
    rank/score identity vs the oracle is asserted in pytest)."""
    idx = docs_index(sf_dir)
    searcher = IndexSearcher(idx)
    rows = []
    for q in DOC_QUERIES:
        for rank, (doc_id, score) in enumerate(searcher.search(q, k=k)):
            rows.append((q, rank, doc_id, float(score)))
    return pa.table({
        "query": pa.array([r[0] for r in rows]),
        "rank": pa.array([r[1] for r in rows], type=pa.int64()),
        "doc_id": pa.array([r[2] for r in rows], type=pa.int64()),
        "score": pa.array([r[3] for r in rows], type=pa.float64()),
    })


def query_language_topk_docs(sf_dir: str, k: int = 10) -> pa.Table:
    """Top-k over the documents index through the three non-classic
    query languages (surround / complex-phrase / XML), rows-only:
    each language's semantics are engine-vs-oracle verified in pytest
    (tests/test_surround.py, test_complex_phrase.py, test_xmlparser.py);
    this surfaces them on the driver contract."""
    from ..search.surround import parse_surround
    from ..search.xmlparser import parse_xml_query

    idx = docs_index(sf_dir)
    searcher = IndexSearcher(idx)
    queries = [
        ("surround", "hash w join", parse_surround("hash w join")),
        ("surround", "or(table, sc*) and merge",
         parse_surround("or(table, sc*) and merge")),
        ("complexphrase", '"ha* join"',
         searcher.parse_complex('"ha* join"')),
        ("xml", "SpanNear(table,scan)", parse_xml_query(
            "<SpanNear slop='2' inOrder='true'><SpanTerm>table</SpanTerm>"
            "<SpanTerm>scan</SpanTerm></SpanNear>")),
    ]
    rows = []
    for lang, label, q in queries:
        for rank, (doc_id, score) in enumerate(searcher.search(q, k=k)):
            rows.append((lang, label, rank, doc_id, float(score)))
    return pa.table({
        "syntax": pa.array([r[0] for r in rows]),
        "query": pa.array([r[1] for r in rows]),
        "rank": pa.array([r[2] for r in rows], type=pa.int64()),
        "doc_id": pa.array([r[3] for r in rows], type=pa.int64()),
        "score": pa.array([r[4] for r in rows], type=pa.float64()),
    })


def edismax_topk_docs(sf_dir: str, k: int = 10) -> pa.Table:
    """Top-k over the documents index through the edismax parser
    (ExtendedDismaxQParser.java semantics: mm spec, phrase boosts,
    lenient syntax), rows-only: the mm arithmetic and engine==oracle
    score identity are pytest-verified (tests/test_edismax.py); this
    surfaces the parser on the driver contract."""
    from ..search.edismax import parse_edismax

    idx = docs_index(sf_dir)
    searcher = IndexSearcher(idx)
    cases = [
        ("mm=50%", dict(text="hash join merge table", mm="50%")),
        ("mm-cond", dict(text="hash join merge table scan",
                         mm="2<-25% 4<-2")),
        ("pf", dict(text="hash join", pf=2.0, ps=1)),
        ("lenient", dict(text='hash [join "scan', mm="1")),
        ("lowerops", dict(text="hash and join", lowercase_operators=True)),
    ]
    rows = []
    for label, params in cases:
        q = parse_edismax(**params)
        for rank, (doc_id, score) in enumerate(searcher.search(q, k=k)):
            rows.append((label, rank, doc_id, float(score)))
    return pa.table({
        "case": pa.array([r[0] for r in rows]),
        "rank": pa.array([r[1] for r in rows], type=pa.int64()),
        "doc_id": pa.array([r[2] for r in rows], type=pa.int64()),
        "score": pa.array([r[3] for r in rows], type=pa.float64()),
    })


def transcripts_flagship(size: str = "tiny", k: int = 10) -> pd.DataFrame:
    """The flagship pipeline: synthesize transcripts, build the sharded
    index, serve a query batch from the actor pool, return ranked hits."""
    from ..data.transcripts import transcripts_path
    from ..search.actors import DistributedSearcher

    src = transcripts_path(size)
    from ..index.segment import FORMAT_VERSION

    out = f"/tmp/lsr_cache/transcripts_index_v{FORMAT_VERSION}_{size}"
    if not (Path(out) / "manifest.json").exists():
        build_index(src, out, num_shards=4)

    queries = ["ray", "data index", "ray AND data", '"ray data"',
               "+index -error", "engine scale batch"]
    dist = DistributedSearcher(out, num_actors=2)
    try:
        results = dist.search_batch(queries, k=k)
    finally:
        dist.close()
    rows = []
    for q, hits in zip(queries, results):
        for rank, (doc_id, score) in enumerate(hits):
            rows.append((q, rank, doc_id, float(score)))
    return pd.DataFrame(rows, columns=["query", "rank", "doc_id", "score"])


def bm25_filtered_docs(sf_dir: str, k: int = 10) -> pa.Table:
    """BM25 composed with docvalue range filters and search-side field
    sort (PointRangeQuery / TopFieldCollector analogs), plus sloppy-phrase
    and regexp query shapes — rows-only driver check; semantics are
    oracle-tested in tests/test_query_features.py."""
    idx = docs_index(sf_dir)
    searcher = IndexSearcher(idx)
    specs = [
        ("table", {"filter_range":
                   {"conv_id": ("doc-00000050", "doc-00000250")}}),
        ("hash join", {"filter_range": {"conv_id": (None, "doc-00000300")}}),
        ("scan OR merge", {"sort": [("conv_id", True)]}),
        ("data pipeline", {"sort": [("conv_id", False)],
                           "filter_range": {"conv_id": ("doc-00000100",
                                                        None)}}),
        ('"hash join"~2', {}),
        ("/qu.*/", {}),
    ]
    rows = []
    for q, kw in specs:
        for rank, (doc_id, score) in enumerate(searcher.search(q, k=k, **kw)):
            rows.append((q, rank, doc_id, float(score)))
    return pa.table({
        "query": pa.array([r[0] for r in rows]),
        "rank": pa.array([r[1] for r in rows], type=pa.int64()),
        "doc_id": pa.array([r[2] for r in rows], type=pa.int64()),
        "score": pa.array([r[3] for r in rows], type=pa.float64()),
    })


def docfreq_boost_docs(sf_dir: str, term: str = "data") -> pa.Table:
    """ValueSource index-statistics accessors as a driver query
    (DocFreqValueSource.java:35, NumDocsValueSource, MaxDocValueSource):
    every doc matching ``term`` with the bound boost value
    ``ln(1 + numdocs()/docfreq(term))`` — the accessors resolve against
    the live index and the DuckDB oracle recomputes the same statistics
    from the raw corpus."""
    from ..functions import parse_func
    from ..functions.valuesource import bind_index_stats, eval_expr, \
        stats_terms
    from ..search.features import index_stats

    idx = docs_index(sf_dir)
    searcher = IndexSearcher(idx)
    ast = parse_func(f"ln(sum(1,div(numdocs(),docfreq({term}))))")
    ast = bind_index_stats(ast, index_stats(searcher, stats_terms(ast)))
    docs, _ = searcher.all_hits(term)
    boost = eval_expr(ast, pa.table({"__d": pa.array([0.0])}))
    val = round(float(boost.as_py() if isinstance(boost, pa.Scalar)
                      else boost[0].as_py()), 6)
    docs = np.sort(docs)
    return pa.table({
        "doc_id": pa.array(docs, type=pa.int64()),
        "boost": pa.array(np.full(len(docs), val), type=pa.float64()),
    })


def cluster_topk_docs(sf_dir: str, query: str = "table scan merge",
                      top_n: int = 60, n_clusters: int = 4) -> pa.Table:
    """Search-result clustering over the documents index
    (ClusteringComponent / Carrot2 Lingo analog,
    ``solr/contrib/clustering/.../CarrotClusteringEngine.java:103``):
    one row per (cluster, member) with the cluster's centroid label and
    cohesion. Deterministic (seed=0) — rows-only driver check; the
    kmeans/labeling kernels are oracle-tested in tests/test_clustering.py."""
    from ..search.clustering import cluster_results

    idx = docs_index(sf_dir)
    searcher = IndexSearcher(idx)
    clusters = cluster_results(searcher, query, top_n=top_n,
                               n_clusters=n_clusters, seed=0)
    rows = []
    for ci, cl in enumerate(clusters):
        for rank, (doc_id, score) in enumerate(cl["docs"]):
            rows.append((ci, cl["label"], round(cl["score"], 6),
                         rank, doc_id, float(score)))
    return pa.table({
        "cluster": pa.array([r[0] for r in rows], type=pa.int64()),
        "label": pa.array([r[1] for r in rows]),
        "cohesion": pa.array([r[2] for r in rows], type=pa.float64()),
        "rank": pa.array([r[3] for r in rows], type=pa.int64()),
        "doc_id": pa.array([r[4] for r in rows], type=pa.int64()),
        "score": pa.array([r[5] for r in rows], type=pa.float64()),
    })


def elevated_topk_docs(sf_dir: str, k: int = 8) -> pa.Table:
    """QueryElevationComponent on the driver surface (rows-only; the
    elevation semantics — config-order pinning, exclusion, force,
    exclusive — are pytest-verified in tests/test_elevate.py): a fixed
    query with two editorially elevated docs and one excluded doc."""
    from ..search.elevate import ElevationConfig, elevated_search

    idx = docs_index(sf_dir)
    searcher = IndexSearcher(idx)
    organic = [d for d, _ in searcher.search("hash join", k=6)]
    cfg = ElevationConfig({"hash join": {
        "elevate": [organic[-1], organic[-2]] if len(organic) >= 2 else [],
        "exclude": [organic[0]] if organic else [],
    }})
    out = elevated_search(searcher, "hash join", cfg, k=k)
    return pa.table({
        "rank": pa.array(range(len(out)), type=pa.int64()),
        "doc_id": pa.array([r["doc_id"] for r in out], type=pa.int64()),
        "elevated": pa.array([bool(r["elevated"]) for r in out]),
        "score": pa.array([round(float(r["score"]), 6) for r in out],
                          type=pa.float64()),
    })
