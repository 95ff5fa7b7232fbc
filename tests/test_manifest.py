"""The manifest: one writer, one reader, and collection statistics summed
from the shard rows (IndexSearcher.collectionStatistics sums each leaf's
``Terms``; no index-wide total is stored beside them)."""

import json
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.data.transcripts import generate_transcripts
from lucene_solr_ray.index.build import (build_index, collection_stats,
                                         read_manifest)
from lucene_solr_ray.index.check import check_index, luke
from lucene_solr_ray.index.update import (add_indexes, atomic_update,
                                          delete_documents, expunge_deletes,
                                          read_deletes, read_expunged,
                                          split_index, update_index)

TIMINGS = ("build_seconds", "phases", "task_cpu_s")


def _assert_manifest_matches_files(index_dir):
    """``stats`` equals the rows' sums, each row's ``sum_total_term_freq``
    equals its segment's summed ``ttf`` column, and the tombstone counts
    (0 when absent) equal the ids of the tombstone files."""
    m = read_manifest(index_dir)
    dels = len(read_deletes(index_dir))
    assert (m.get("deleted_count", 0), m.get("expunged_count", 0)) == \
        (dels, len(read_expunged(index_dir)))
    assert luke(index_dir)["index"]["deleted_docs"] == dels
    assert m["stats"] == collection_stats(m["stats"]["num_docs"],
                                          m["shards"])
    for row in m["shards"]:
        f = (Path(index_dir) / "shards" / f"shard={row['shard_id']:05d}"
             / "terms.parquet")
        ttf = pc.sum(pq.read_table(f, columns=["ttf"]).column("ttf")).as_py() \
            if f.exists() else 0
        assert row["sum_total_term_freq"] == ttf
    assert check_index(index_dir)["status"] == "ok"
    return m


@pytest.fixture()
def sources(tmp_path):
    t = generate_transcripts(80, seed=5)
    cut = sorted(set(t.column("conv_id").to_pylist()))[50]
    first = t.filter(pc.less(t.column("conv_id"), pa.scalar(cut)))
    later = t.filter(pc.greater_equal(t.column("conv_id"), pa.scalar(cut)))
    other = generate_transcripts(40, seed=6)
    other = other.set_column(
        other.schema.get_field_index("conv_id"), "conv_id",
        pa.array([f"zz-{c}" for c in other.column("conv_id").to_pylist()]))
    for name, table in (("first", first), ("later", later), ("other", other)):
        pq.write_table(table, tmp_path / f"{name}.parquet")
    return tmp_path


def test_operation_timings_belong_to_their_operation(ray_session, sources):
    """Only ``build_index`` and ``update_index`` measure their phases, and
    each manifest generation carries the timings of the operation that
    published it or none: a later generation never inherits them. The
    tombstone counts follow the tombstone files through every step,
    ``add_indexes`` of an index with deletes and ``split_index`` too."""
    idx, other = str(sources / "idx"), str(sources / "other_idx")
    m_build = build_index(str(sources / "first.parquet"), idx, num_shards=3)
    build_index(str(sources / "other.parquet"), other, num_shards=2)
    delete_documents(other, doc_ids=[2, 7])
    assert all(k in m_build for k in TIMINGS)
    _assert_manifest_matches_files(idx)

    update_index(idx, str(sources / "later.parquet"))
    m_update = _assert_manifest_matches_files(idx)
    assert all(k in m_update for k in TIMINGS)
    assert m_update["phases"] != m_build["phases"]
    assert m_update["build_seconds"] != m_build["build_seconds"]

    docs = read_manifest(idx)["stats"]["num_docs"]
    key = pq.read_table(sources / "first.parquet").slice(3, 1).to_pylist()[0]
    for op in (
            lambda: delete_documents(idx, doc_ids=[1, 4, docs - 2]),
            lambda: add_indexes(idx, other),
            lambda: expunge_deletes(idx),
            lambda: atomic_update(idx, [{"conv_id": key["conv_id"],
                                         "turn_idx": key["turn_idx"],
                                         "role": {"set": "tool"}}])):
        before = read_manifest(idx)["version"]
        op()
        m = _assert_manifest_matches_files(idx)
        assert m["version"] == before + 1
        assert not any(k in m for k in TIMINGS), sorted(m)

    halves = [str(sources / "split_a"), str(sources / "split_b")]
    split_index(idx, *halves)
    for half in halves:
        m = _assert_manifest_matches_files(half)
        assert m["version"] == 1
        assert not any(k in m for k in TIMINGS)


def test_collection_stats_need_every_row_key():
    """A shard row written before rows carried ``sum_total_term_freq``
    raises; it never counts as 0."""
    row = {"shard_id": 0, "doc_lo": 0, "doc_hi": 10, "term_count": 3,
           "posting_count": 5, "doc_count": 4}
    with pytest.raises(KeyError, match="sum_total_term_freq"):
        collection_stats(10, [row])
    assert collection_stats(10, [{**row, "sum_total_term_freq": 9}]) == {
        "num_docs": 10, "doc_count": 4, "sum_total_term_freq": 9,
        "avgdl": 2.25}


@pytest.mark.parametrize("field,error", [
    ("doc_count", "shard 1: doc_count"),
    ("sum_total_term_freq", "shard 1: sum_total_term_freq"),
    (None, "manifest stats != the sum of the shard rows")])
def test_check_index_catches_a_miscounted_row(ray_session, sources, field,
                                              error):
    """``check_index`` recounts each row from its segment's postings, so a
    row off by one fails it even when ``stats`` agree with the rows; and
    ``stats`` off the rows' sum fails it too."""
    idx = str(sources / "idx")
    build_index(str(sources / "first.parquet"), idx, num_shards=3)
    m = read_manifest(idx)
    if field is None:
        m["stats"]["doc_count"] += 1
    else:
        m["shards"][1][field] += 1
        m["stats"] = collection_stats(m["stats"]["num_docs"], m["shards"])
    (Path(idx) / "manifest.json").write_text(json.dumps(m))
    with pytest.raises(AssertionError, match=error):
        check_index(idx, parallel=False)


@pytest.mark.parametrize("key", ["deleted_count", "expunged_count"])
def test_check_index_catches_a_miscounted_tombstone(ray_session, sources,
                                                    key):
    """``check_index`` compares the manifest's tombstone counts with the
    tombstone files: one off fails it, and an absent key counts as 0."""
    idx = str(sources / "idx")
    build_index(str(sources / "first.parquet"), idx, num_shards=3)
    delete_documents(idx, doc_ids=[1, 4])
    expunge_deletes(idx)
    assert check_index(idx, parallel=False)["status"] == "ok"
    m = read_manifest(idx)
    m[key] += 1
    (Path(idx) / "manifest.json").write_text(json.dumps(m))
    with pytest.raises(AssertionError, match=f"manifest {key} != "):
        check_index(idx, parallel=False)
    del m[key]
    (Path(idx) / "manifest.json").write_text(json.dumps(m))
    with pytest.raises(AssertionError, match=f"manifest {key} != "):
        check_index(idx, parallel=False)
