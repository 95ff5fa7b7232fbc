"""Atomic partial updates (AtomicUpdateDocumentMerger.java:44) and
real-time get (RealTimeGetComponent.java:78)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.data.transcripts import generate_transcripts
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.index.update import atomic_update, realtime_get
from lucene_solr_ray.search.searcher import IndexSearcher


@pytest.fixture()
def built(ray_session, tmp_path):
    t = generate_transcripts(30, seed=11)
    # add the numeric docvalue slot (Solr popularity-field analog)
    t = t.append_column(
        "score", pa.array(np.arange(t.num_rows, dtype=np.int64) % 7,
                          type=pa.int64()))
    src = tmp_path / "src.parquet"
    pq.write_table(t, str(src))
    idx = tmp_path / "idx"
    build_index(str(src), str(idx), num_shards=3)
    return str(idx), t


def _row(t, i):
    return {c: t.column(c)[i].as_py() for c in t.column_names}


def test_realtime_get_by_key_and_doc_id(built):
    idx, t = built
    r5 = _row(t, 5)
    by_key = realtime_get(idx, keys=[(r5["conv_id"], r5["turn_idx"])])
    assert by_key.num_rows == 1
    assert by_key.column("role")[0].as_py() == r5["role"]
    assert by_key.column("score")[0].as_py() == r5["score"]
    doc_id = by_key.column("doc_id")[0].as_py()
    by_id = realtime_get(idx, doc_ids=[doc_id])
    assert by_id.num_rows == 1
    assert by_id.column("conv_id")[0].as_py() == r5["conv_id"]


def test_atomic_inc_set_remove_docvalues(built):
    idx, t = built
    r = _row(t, 8)
    key = {"conv_id": r["conv_id"], "turn_idx": r["turn_idx"]}
    atomic_update(idx, [{**key, "score": {"inc": 100},
                         "role": {"set": "overridden"},
                         "tool": {"remove": True}}])
    got = realtime_get(idx, keys=[(r["conv_id"], r["turn_idx"])])
    assert got.column("score")[0].as_py() == r["score"] + 100
    assert got.column("role")[0].as_py() == "overridden"
    assert got.column("tool")[0].as_py() is None
    # old value unreachable through a fresh searcher's docvalues
    s = IndexSearcher(idx)
    doc_id = got.column("doc_id")[0].as_py()
    assert s.docvalues("score")[doc_id] == r["score"] + 100
    assert s.docvalues("role")[doc_id] == "overridden"


def test_atomic_inc_reflected_in_stats_and_boost(built):
    idx, t = built
    s0 = IndexSearcher(idx)
    term = next(w.lower() for w in t.column("text")[0].as_py().split()
                if len(w) > 3 and w.isalpha())
    hits = s0.search(term, k=5)
    assert hits
    doc_id = hits[0][0]
    row = realtime_get(idx, doc_ids=[doc_id])
    key = {"conv_id": row.column("conv_id")[0].as_py(),
           "turn_idx": row.column("turn_idx")[0].as_py()}
    before = s0.field_stats(term, "score")
    atomic_update(idx, [{**key, "score": {"inc": 1000}}])
    s1 = IndexSearcher(idx)
    after = s1.field_stats(term, "score")
    assert after["count"] == before["count"]
    assert after["sum"] == pytest.approx(before["sum"] + 1000)
    # boost by score now prefers the inc'd doc
    top = s1.boosted_search(term, "score", k=1)
    assert top[0][0] == doc_id


def test_atomic_set_text_reindexes(built):
    idx, t = built
    r = _row(t, 3)
    key = {"conv_id": r["conv_id"], "turn_idx": r["turn_idx"]}
    m = atomic_update(
        idx, [{**key, "text": {"set": "zzzatomic unique replacement text"},
               "score": {"inc": 5}}])
    s = IndexSearcher(idx)
    hits = s.search("zzzatomic", k=5)
    assert len(hits) == 1
    new_doc = hits[0][0]
    got = realtime_get(idx, doc_ids=[new_doc])
    assert got.column("conv_id")[0].as_py() == r["conv_id"]
    assert got.column("score")[0].as_py() == r["score"] + 5
    # the old version is tombstoned: key lookup returns exactly one row
    by_key = realtime_get(idx, keys=[(r["conv_id"], r["turn_idx"])])
    assert by_key.num_rows == 1
    assert by_key.column("doc_id")[0].as_py() == new_doc
    assert m["version"] > 1


def test_atomic_update_errors(built):
    idx, t = built
    r = _row(t, 0)
    key = {"conv_id": r["conv_id"], "turn_idx": r["turn_idx"]}
    with pytest.raises(KeyError):
        atomic_update(idx, [{"conv_id": "missing-conv", "turn_idx": 0,
                             "score": {"inc": 1}}])
    with pytest.raises(ValueError, match="add"):
        atomic_update(idx, [{**key, "role": {"add": "x"}}])
    with pytest.raises(ValueError, match="unknown stored"):
        atomic_update(idx, [{**key, "nosuch": {"set": 1}}])
    with pytest.raises(ValueError, match="set"):
        atomic_update(idx, [{**key, "text": {"inc": 1}}])


def test_atomic_update_empty_and_key_guard(built):
    idx, t = built
    from lucene_solr_ray.index.update import read_manifest

    before = read_manifest(idx)["version"]
    m = atomic_update(idx, [])
    assert m["version"] == before  # no-op, no version bump
    with pytest.raises(ValueError, match="cannot be atomically"):
        atomic_update(idx, [{"conv_id": {"set": "x"}, "turn_idx": 0,
                             "score": {"inc": 1}}])
    with pytest.raises(ValueError, match="cannot be atomically"):
        r = _row(t, 0)
        atomic_update(idx, [{"conv_id": r["conv_id"],
                             "turn_idx": {"inc": 1}}])


def test_atomic_update_dv_rewrite_crash_recovery(built):
    """A crash mid-swap leaves the aside partition; the next update
    recovers it and applies cleanly with no duplicate rows."""
    import os
    import shutil
    from pathlib import Path

    idx, t = built
    r = _row(t, 2)
    key = {"conv_id": r["conv_id"], "turn_idx": r["turn_idx"]}
    atomic_update(idx, [{**key, "score": {"inc": 10}}])
    got = realtime_get(idx, keys=[(r["conv_id"], r["turn_idx"])])
    sid = got.column("doc_shard")[0].as_py()
    part = Path(idx) / "norms" / f"doc_shard={sid}"
    aside = part.parent / f".dvold-{part.name}"
    # simulate: crash after the old partition was set aside
    shutil.copytree(part, aside)
    shutil.rmtree(part)
    atomic_update(idx, [{**key, "score": {"inc": 5}}])
    got2 = realtime_get(idx, keys=[(r["conv_id"], r["turn_idx"])])
    assert got2.num_rows == 1
    assert got2.column("score")[0].as_py() == r["score"] + 15
    assert not aside.exists()


def test_searcher_open_heals_crashed_dv_swap(built):
    """ADVICE r3: a searcher opened after a crash mid partition-swap
    must recover the .dvold aside (not silently read zero norms), and
    must refuse to open when a norms partition is gone for good."""
    import shutil
    from pathlib import Path

    import pytest as _pytest

    from lucene_solr_ray.search.searcher import IndexSearcher

    idx, t = built
    before = IndexSearcher(idx).search("ray", k=5)
    part = sorted((Path(idx) / "norms").glob("doc_shard=*"))[0]
    aside = part.parent / f".dvold-{part.name}"
    shutil.copytree(part, aside)
    shutil.rmtree(part)
    s = IndexSearcher(idx)  # open heals the swap
    assert not aside.exists() and part.exists()
    assert s.search("ray", k=5) == before
    # partition missing with NO aside -> corrupt, opening must raise
    backup = part.parent / "backup"
    shutil.copytree(part, backup)
    shutil.rmtree(part)
    with _pytest.raises(FileNotFoundError, match="norms partition"):
        IndexSearcher(idx)
    shutil.copytree(backup, part)
    shutil.rmtree(backup)
    assert IndexSearcher(idx).search("ray", k=5) == before


def test_realtime_get_mixed_keys_and_doc_ids_fills_doc_shard(built):
    """ADVICE r3: keys+doc_ids in one call must not null-fill doc_shard
    on the doc_id-path rows."""
    idx, t = built
    r0, r5 = _row(t, 0), _row(t, 5)
    got = realtime_get(idx, keys=[(r0["conv_id"], r0["turn_idx"])],
                       doc_ids=[5])
    assert got.num_rows == 2
    shards = got.column("doc_shard").to_pylist()
    ids = got.column("doc_id").to_pylist()
    assert None not in shards
    from lucene_solr_ray.index.update import read_manifest
    dps = read_manifest(idx)["params"]["docs_per_shard"]
    assert shards == [d // dps for d in ids]
