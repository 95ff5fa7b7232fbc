"""check_index: full-index invariant validation (CheckIndex analog,
``lucene/core/src/java/org/apache/lucene/index/CheckIndex.java``).

Validates, per shard: terms sorted and unique; doc_ids strictly ascending
within each posting list and inside the shard's [doc_lo, doc_hi) range;
df == decoded list length; ttf == sum of freqs; per-doc positions strictly
ascending with counts matching freqs; the manifest row's ``doc_count`` ==
the distinct doc ids of the decoded postings and its
``sum_total_term_freq`` == the sum of the ``ttf`` column. Globally:
manifest stats equal the sum of the rows, the norms (``doc_len``) agree
with them independently, the norms docmap covers every doc_id
exactly once, and the manifest's ``deleted_count``/``expunged_count``
(0 when absent) equal the sizes of ``_DELETES.json``/``_EXPUNGED.json``.

Shards are checked in PARALLEL as Ray tasks when a Ray session is active
(single-process CheckIndex over a 13M-doc index takes tens of minutes;
at 100 TB it must fan out like everything else); the per-term position
validation is vectorized (one boundary-masked diff per posting list, not
a Python loop per document).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from . import segment
from .build import collection_stats, read_manifest


def _check_shard(index_dir: str, sh: dict, docs_per_shard: int,
                 codec: str = "varint") -> dict:
    index_path = Path(index_dir)
    sid = sh["shard_id"]
    base = sid * docs_per_shard
    terms_file = (index_path / "shards" / f"shard={sid:05d}"
                  / "terms.parquet")
    if not terms_file.exists():
        # a shard whose every doc was expunged has no segment at all
        assert (sh["term_count"], sh["posting_count"], sh["doc_count"],
                sh["sum_total_term_freq"]) == (0, 0, 0, 0), \
            f"shard {sid}: segment missing but manifest row non-empty"
        return {"postings": 0, "terms": 0}
    t = pq.read_table(terms_file)
    terms = t.column("term").to_pylist()
    assert terms == sorted(terms), f"shard {sid}: terms not sorted"
    assert len(set(terms)) == len(terms), f"shard {sid}: duplicate terms"
    assert len(terms) == sh["term_count"], f"shard {sid}: term_count mismatch"
    df = t.column("df").to_numpy(zero_copy_only=False)
    ttf = t.column("ttf").to_numpy(zero_copy_only=False)
    doc_enc = t.column("doc_ids_enc").to_pylist()
    freq_enc = t.column("freqs_enc").to_pylist()
    pos_enc = t.column("positions_enc").to_pylist()
    postings_here = 0
    has_postings = np.zeros(docs_per_shard, dtype=bool)
    for i in range(len(terms)):
        docs = segment.decode_doc_ids(doc_enc[i], base, codec)
        freqs = segment.decode_freqs(freq_enc[i], codec)
        assert len(docs) == df[i], f"shard {sid} term {terms[i]}: df != list length"
        assert len(freqs) == df[i]
        assert np.all(np.diff(docs) > 0), \
            f"shard {sid} term {terms[i]}: doc_ids not strictly ascending"
        assert docs[0] >= base and docs[-1] < base + docs_per_shard, \
            f"shard {sid} term {terms[i]}: doc_id outside shard range"
        assert int(freqs.sum()) == int(ttf[i]), \
            f"shard {sid} term {terms[i]}: ttf != sum(freqs)"
        assert np.all(freqs > 0)
        pos_flat, offs = segment.decode_positions(pos_enc[i], freqs, codec)
        assert len(pos_flat) == int(freqs.sum())
        # positions strictly ascending within each doc, all >= 0 — one
        # boundary-masked diff over the flat stream
        assert np.all(pos_flat >= 0), \
            f"shard {sid} term {terms[i]}: negative position"
        if len(pos_flat) > 1:
            diffs = np.diff(pos_flat)
            boundary = np.zeros(len(diffs), dtype=bool)
            b = offs[1:-1] - 1
            b = b[(b >= 0) & (b < len(diffs))]
            boundary[b] = True
            assert np.all(diffs[~boundary] > 0), \
                f"shard {sid} term {terms[i]}: positions not ascending"
        postings_here += len(docs)
        has_postings[docs - base] = True
    assert postings_here == sh["posting_count"], f"shard {sid}: posting_count"
    assert int(has_postings.sum()) == sh["doc_count"], \
        f"shard {sid}: doc_count != distinct doc ids of its postings"
    assert int(ttf.sum()) == sh["sum_total_term_freq"], \
        f"shard {sid}: sum_total_term_freq != sum of ttf"
    return {"postings": postings_here, "terms": len(terms)}


def check_index(index_dir: str, parallel: bool | None = None) -> dict:
    """Raises AssertionError on any violation; returns a summary report.

    ``parallel=None`` auto-detects an active Ray session and fans the
    per-shard checks out as tasks; pass False to force in-process."""
    index_path = Path(index_dir)
    manifest = read_manifest(index_dir)
    docs_per_shard = manifest["params"]["docs_per_shard"]
    codec = manifest["params"].get("postings_codec", "varint")

    use_ray = parallel
    if use_ray is None:
        try:
            import ray

            use_ray = ray.is_initialized()
        except ImportError:
            use_ray = False

    if use_ray:
        import ray

        task = ray.remote(_check_shard)
        partials = ray.get([
            task.remote(str(index_dir), sh, docs_per_shard, codec)
            for sh in manifest["shards"]])
    else:
        partials = [_check_shard(str(index_dir), sh, docs_per_shard, codec)
                    for sh in manifest["shards"]]

    total_postings = sum(p["postings"] for p in partials)
    total_terms = sum(p["terms"] for p in partials)

    # norms / docmap coverage
    norms = pads.dataset(str(index_path / "norms"), format="parquet",
                         partitioning="hive").to_table(
        columns=["doc_id", "doc_len"])
    doc_ids = np.sort(norms.column("doc_id").to_numpy(zero_copy_only=False))
    stats = manifest["stats"]
    assert stats == collection_stats(stats["num_docs"], manifest["shards"]), \
        "manifest stats != the sum of the shard rows"
    expunged = segment.read_expunged(index_path)
    for key, ids in (("deleted_count", segment.read_deletes(index_path)),
                     ("expunged_count", expunged)):
        assert manifest.get(key, 0) == len(ids), \
            f"manifest {key} != the ids of its tombstone file"
    expunged = np.asarray(sorted(expunged), dtype=np.int64)
    assert len(doc_ids) + len(expunged) == stats["num_docs"], \
        "docmap rows + expunged != num_docs"
    want_ids = np.setdiff1d(np.arange(stats["num_docs"], dtype=np.int64),
                            expunged, assume_unique=True)
    np.testing.assert_array_equal(
        doc_ids, want_ids,
        err_msg="doc_ids != dense 0..N-1 range minus expunged set")
    doc_len = norms.column("doc_len").to_numpy(zero_copy_only=False)
    assert int(doc_len.sum()) == stats["sum_total_term_freq"], \
        "sum(doc_len) != sumTotalTermFreq"
    assert int((doc_len > 0).sum()) == stats["doc_count"]

    return {
        "shards": len(manifest["shards"]),
        "terms": total_terms,
        "postings": total_postings,
        "docs": int(len(doc_ids)),
        "status": "ok",
    }


def luke(index_dir: str, top_n: int = 10) -> dict:
    """LukeRequestHandler analog (``solr/core/src/java/org/apache/solr/
    handler/admin/LukeRequestHandler.java:109`` getIndexedFieldsInfo /
    topTerms): index introspection — schema fields with per-field
    docvalue presence, index-level statistics, and the EXACT global
    top-``top_n`` terms by docFreq (tie -> term asc).

    Terms are doc-range-sharded so a term's postings may live in every
    shard; a per-shard top-N merge would be approximate. Instead the
    segment DICTIONARIES (term, df, ttf — already aggregated per shard,
    far smaller than postings) stream through one bucketed sum, exactly
    the pushdown shape term statistics use everywhere else in this
    engine; only ``top_n`` rows reach the driver."""
    import pandas as pd
    import pyarrow.dataset as pads

    import ray.data as rd

    from ..pipelines.util import bucketed_group_agg

    m = read_manifest(index_dir)
    index_path = Path(index_dir)
    term_files = sorted(
        str(p) for p in (index_path / "shards").glob("shard=*/terms.parquet"))
    top = []
    n_terms_total = 0
    if term_files:
        ds = rd.read_parquet(term_files, columns=["term", "df", "ttf"])
        n_terms_total = ds.count()

        def merge(g: pd.DataFrame) -> pd.DataFrame:
            out = (g.groupby("term", sort=False)[["df", "ttf"]].sum()
                   .reset_index())
            # per-bucket pre-prune: the global top-N by df must be in
            # some bucket's local top-N
            out = out.sort_values(["df", "term"],
                                  ascending=[False, True]).head(top_n)
            for c in ("df", "ttf"):
                out[c] = out[c].astype(np.int64)
            return out

        agg = bucketed_group_agg(ds, ["term"], merge).to_pandas()
        agg = agg.sort_values(["df", "term"],
                              ascending=[False, True]).head(top_n)
        top = [{"term": r.term, "df": int(r.df), "ttf": int(r.ttf)}
               for r in agg.itertuples()]

    norms = pads.dataset(str(index_path / "norms"), format="parquet",
                         partitioning="hive")
    reserved = {"doc_id", "doc_shard", "norm_byte", "doc_len"}
    fields = {
        "text": {"type": "text", "indexed": True, "docValues": False,
                 "analyzer": m["params"]["analyzer"]},
        **{n: {"type": str(norms.schema.field(n).type), "indexed": False,
               "docValues": True}
           for n in norms.schema.names if n not in reserved},
    }
    return {
        "index": {**m["stats"], "version": m["version"],
                  "num_shards": len(m["shards"]),
                  "num_terms_sharded": int(n_terms_total),
                  "deleted_docs": m.get("deleted_count", 0),
                  "postings_codec": m["params"].get("postings_codec",
                                                    "varint")},
        "fields": fields,
        "top_terms": top,
    }
