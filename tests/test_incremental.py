"""Incremental update == from-scratch rebuild (NRT/TopicStream semantics)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.data.transcripts import generate_transcripts
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.index.check import check_index
from lucene_solr_ray.index.update import update_index
from lucene_solr_ray.search.searcher import IndexSearcher

QUERIES = ["ray", "data index", "ray AND data", '"ray data"', "t00001",
           "+index -error", "engine OR merge"]


@pytest.fixture(scope="module")
def split_sources(tmp_path_factory):
    root = tmp_path_factory.mktemp("incr")
    table = generate_transcripts(120, seed=11)
    # split on a conversation boundary to keep (conv_id, turn_idx) append-only
    convs = table.column("conv_id").to_pylist()
    cut_conv = sorted(set(convs))[80]
    import pyarrow.compute as pc

    first = table.filter(pc.less(table.column("conv_id"), pa.scalar(cut_conv)))
    second = table.filter(
        pc.greater_equal(table.column("conv_id"), pa.scalar(cut_conv)))
    pq.write_table(table, root / "all.parquet")
    pq.write_table(first, root / "first.parquet")
    pq.write_table(second, root / "second.parquet")
    return root


def test_update_equals_rebuild(ray_session, split_sources, tmp_path):
    full_dir = tmp_path / "full"
    incr_dir = tmp_path / "incr"
    m_full = build_index(str(split_sources / "all.parquet"), str(full_dir),
                         docs_per_shard=150)
    m_first = build_index(str(split_sources / "first.parquet"),
                          str(incr_dir), docs_per_shard=150)
    m_incr = update_index(str(incr_dir), str(split_sources / "second.parquet"))

    assert m_incr["stats"] == pytest.approx(m_full["stats"])
    assert m_incr["version"] == 2
    assert check_index(str(incr_dir))["status"] == "ok"

    s_full = IndexSearcher(str(full_dir))
    s_incr = IndexSearcher(str(incr_dir))
    for q in QUERIES:
        rf = [(d, float(s)) for d, s in s_full.search(q, k=10)]
        ri = [(d, float(s)) for d, s in s_incr.search(q, k=10)]
        assert rf == ri, f"query={q!r}"

    # the append writes the same bytes a rebuild of all rows does
    assert m_incr["shards"] == m_full["shards"]
    assert m_incr["stats"] == m_full["stats"]
    assert _segment_bytes(incr_dir) == _segment_bytes(full_dir)
    assert _norms_rows(incr_dir).equals(_norms_rows(full_dir))
    assert not list(incr_dir.glob("runs_update_*"))

    # the manifest tells the update's own story: its phases and timing,
    # and lineage covering every doc exactly once, in order
    assert set(m_incr["phases"]) == {"plan", "tokenize_runs",
                                     "term_group_encode"}
    assert m_incr["build_seconds"] != m_first["build_seconds"]
    hi = 0
    for entry in m_incr["lineage"]:
        assert entry["doc_lo"] == hi
        hi = entry["doc_hi"]
    assert hi == m_incr["stats"]["num_docs"]
    assert len(m_incr["lineage"]) > len(m_first["lineage"])


def _segment_bytes(index_dir):
    return {p.relative_to(index_dir).as_posix(): p.read_bytes()
            for p in sorted(index_dir.glob("shards/*/terms.parquet"))}


def _norms_rows(index_dir):
    import pyarrow.dataset as pads

    return pads.dataset(str(index_dir / "norms"), format="parquet",
                        partitioning="hive").to_table().sort_by("doc_id")


def test_update_after_expunge_keeps_expunged_partition(ray_session,
                                                      split_sources,
                                                      tmp_path):
    """An append into a norms partition that ``expunge_deletes`` rewrote
    (as one ``run-00000.parquet``) adds its rows beside that file instead
    of overwriting it."""
    from lucene_solr_ray.index.update import (delete_documents,
                                              expunge_deletes,
                                              read_expunged)

    idx = tmp_path / "exp"
    m = build_index(str(split_sources / "first.parquet"), str(idx),
                    docs_per_shard=150)
    tail = m["shards"][-1]
    assert m["stats"]["num_docs"] < tail["doc_hi"]  # the delta lands here
    delete_documents(str(idx), doc_ids=[tail["doc_lo"], tail["doc_lo"] + 1])
    expunge_deletes(str(idx))
    part = idx / "norms" / f"doc_shard={tail['shard_id']}"
    assert [p.name for p in part.iterdir()] == ["run-00000.parquet"]

    m2 = update_index(str(idx), str(split_sources / "second.parquet"))
    assert check_index(str(idx))["status"] == "ok"
    rows = _norms_rows(idx).num_rows
    assert rows == m2["stats"]["num_docs"] - len(read_expunged(str(idx)))
    assert rows == m2["stats"]["num_docs"] - 2


def test_update_rejects_stale_input(ray_session, split_sources, tmp_path,
                                    index_digest):
    incr_dir = tmp_path / "incr2"
    build_index(str(split_sources / "first.parquet"), str(incr_dir),
                docs_per_shard=150)
    update_index(str(incr_dir), str(split_sources / "second.parquet"))
    before = index_digest(incr_dir)
    with pytest.raises(ValueError, match="checkpoint"):
        update_index(str(incr_dir), str(split_sources / "second.parquet"))
    assert index_digest(incr_dir) == before
    assert not list(incr_dir.glob("runs_update_*"))


def test_update_rejects_files_out_of_order(ray_session, split_sources,
                                           tmp_path, index_digest):
    """Two files, each sorted, the second starting before the first ends:
    only the cross-task key check sees it, after wave A has run, so the
    live index must still be untouched when it fails."""
    idx = tmp_path / "ooo"
    build_index(str(split_sources / "first.parquet"), str(idx),
                docs_per_shard=150)
    delta = tmp_path / "delta"
    delta.mkdir()
    for name, convs in (("a", ["zz-1", "zz-3"]), ("b", ["zz-2", "zz-4"])):
        pq.write_table(pa.table({
            "conv_id": pa.array(convs),
            "turn_idx": pa.array([0, 0], type=pa.int32()),
            "text": pa.array(["ray data", "index merge"]),
        }), delta / f"{name}.parquet")
    before = index_digest(idx)
    with pytest.raises(ValueError, match="order"):
        update_index(str(idx), str(delta))
    assert index_digest(idx) == before
    assert not list(idx.glob("runs_update_*"))


def test_kill_and_resume_mid_build(ray_session, split_sources, tmp_path):
    """FIXTURES §5: simulate a build killed mid-flight — some wave-A task
    outputs and some shard segments lost — and resume to a state identical
    to an uninterrupted build."""
    src = str(split_sources / "all.parquet")
    ref_dir = tmp_path / "ref"
    crash_dir = tmp_path / "crash"
    m_ref = build_index(src, str(ref_dir), docs_per_shard=150)
    build_index(src, str(crash_dir), docs_per_shard=150, keep_runs=True)

    # crash simulation: drop the manifest, half the shards, and one wave-A
    # task's outputs (marker + run files)
    (crash_dir / "manifest.json").unlink()
    shards = sorted((crash_dir / "shards").iterdir())
    for sh in shards[::2]:
        import shutil

        shutil.rmtree(sh)
    markers = sorted((crash_dir / "runs").glob("_task*_SUCCESS"))
    markers[0].unlink()
    tid = markers[0].name[len("_task"):-len("_SUCCESS")]
    runs = sorted((crash_dir / "runs").glob(f"shard=*/run-{tid}.arrow"))
    assert runs
    for f in runs:
        f.unlink()
    for f in (crash_dir / "norms").glob(f"doc_shard=*/run-{tid}.parquet"):
        f.unlink()

    m2 = build_index(src, str(crash_dir), docs_per_shard=150, resume=True)
    assert m2["stats"] == m_ref["stats"]
    assert m2["shards"] == m_ref["shards"]
    sref, sres = IndexSearcher(str(ref_dir)), IndexSearcher(str(crash_dir))
    for q in QUERIES:
        assert [(d, float(s)) for d, s in sres.search(q, k=10)] == \
            [(d, float(s)) for d, s in sref.search(q, k=10)], q
    assert check_index(str(crash_dir))["status"] == "ok"


def test_merge_recovery_aside_is_authoritative(ray_session, split_sources,
                                               tmp_path):
    """A crash AFTER the tail-shard merge wrote a (possibly complete)
    replacement but BEFORE the aside cleanup must not duplicate postings
    on retry: the aside copy is authoritative, the partial shard_dir is
    discarded, and re-merging yields an index identical to a clean
    update."""
    import shutil
    from pathlib import Path

    clean_dir = tmp_path / "clean"
    crash_dir = tmp_path / "crash"
    build_index(str(split_sources / "first.parquet"), str(clean_dir),
                docs_per_shard=150)
    shutil.copytree(clean_dir, crash_dir)
    update_index(str(clean_dir), str(split_sources / "second.parquet"))

    # simulate the crash window on the copy: the tail shard has been
    # set aside AND a (here: fully merged, worst case) replacement exists
    tail = sorted((Path(crash_dir) / "shards").iterdir())[-1]
    aside = tail.parent / f".merging-{tail.name}"
    # pre-update tail contents = the aside (pristine old segment)
    shutil.copytree(tail, aside)
    # replacement = the post-merge segment from the clean run (already
    # contains the incoming group: re-merging INTO it would duplicate)
    shutil.rmtree(tail)
    shutil.copytree(Path(clean_dir) / "shards" / tail.name, tail)

    update_index(str(crash_dir), str(split_sources / "second.parquet"))
    assert check_index(str(crash_dir))["status"] == "ok"

    s_clean = IndexSearcher(str(clean_dir))
    s_crash = IndexSearcher(str(crash_dir))
    for q in QUERIES:
        assert [(d, float(x)) for d, x in s_crash.search(q, k=20)] == \
            [(d, float(x)) for d, x in s_clean.search(q, k=20)], q
    assert not aside.exists()
