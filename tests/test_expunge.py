"""expunge_deletes: forceMergeDeletes analog (IndexWriter.java:1742).

Tombstones stay (liveness mask, no doc renumber); postings + norms rows
physically go; stats shrink like a reference merge."""

import json
from pathlib import Path

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.data.transcripts import generate_transcripts
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.index.check import check_index
from lucene_solr_ray.index.update import (
    delete_documents,
    expunge_deletes,
    read_expunged,
    realtime_get,
)
from lucene_solr_ray.search.query import MatchAllDocsQuery, TermQuery
from lucene_solr_ray.search.searcher import IndexSearcher


@pytest.fixture()
def idx(ray_session, tmp_path):
    src = tmp_path / "src.parquet"
    pq.write_table(generate_transcripts(150, seed=11), src)
    out = tmp_path / "idx"
    build_index(str(src), str(out), num_shards=3)
    return str(out)


def test_expunge_preserves_masked_results(idx):
    dels = [2, 5, 9, 100, 300]
    delete_documents(idx, doc_ids=dels)
    before = {q: IndexSearcher(idx).search(q, k=1000)
              for q in ["ray", "data OR index"]}
    r = expunge_deletes(idx)
    assert r["expunged_now"] == len(dels)
    assert r["removed_rows"] == len(dels)
    after_s = IndexSearcher(idx)
    for q, hits in before.items():
        got = after_s.search(q, k=1000)
        # same docs survive; scores shift because collection stats
        # shrank (reference merge semantics) — doc sets must be equal
        assert {d for d, _ in got} == {d for d, _ in hits}, q
        assert not ({d for d, _ in got} & set(dels))
    assert check_index(idx)["status"] == "ok"


def test_expunge_physically_removes_rows(idx):
    import pyarrow.dataset as pads

    delete_documents(idx, doc_ids=[0, 1, 2, 3])
    n_before = pads.dataset(str(Path(idx) / "norms"), format="parquet",
                            partitioning="hive").count_rows()
    expunge_deletes(idx)
    n_after = pads.dataset(str(Path(idx) / "norms"), format="parquet",
                           partitioning="hive").count_rows()
    assert n_after == n_before - 4
    assert read_expunged(idx) == {0, 1, 2, 3}
    # postings for those docs are gone from every shard
    s = IndexSearcher(idx)
    assert len(s.segment._docs)
    assert not set(s.segment._docs.tolist()) & {0, 1, 2, 3}


def test_expunge_idempotent_and_incremental(idx):
    delete_documents(idx, doc_ids=[7, 8])
    r1 = expunge_deletes(idx)
    assert r1["expunged_now"] == 2
    r2 = expunge_deletes(idx)  # no-op
    assert r2["expunged_now"] == 0
    delete_documents(idx, doc_ids=[20])
    r3 = expunge_deletes(idx)  # only the new tombstone moves
    assert r3["expunged_now"] == 1
    assert read_expunged(idx) == {7, 8, 20}
    assert check_index(idx)["status"] == "ok"


def test_expunged_docs_stay_dead_everywhere(idx):
    delete_documents(idx, doc_ids=[4, 6])
    expunge_deletes(idx)
    s = IndexSearcher(idx)
    all_docs = {d for d, _ in s.search(MatchAllDocsQuery(), k=10**6)}
    assert not ({4, 6} & all_docs)
    got = realtime_get(idx, doc_ids=[4, 6])
    assert got is None or len(got) == 0


def test_bounded_conversations_after_expunge(idx):
    """An expunged doc has no doc-value row, so a segment's first docs
    can read null conv_id; the bounded conversation and collapse
    partials (limit=k) must still find the segment's edge conversations
    among its present docs and give the unbounded top-k."""
    from lucene_solr_ray.search.actors import DistributedSearcher

    dps = json.loads((Path(idx) / "manifest.json").read_text()
                     )["params"]["docs_per_shard"]
    delete_documents(idx, doc_ids=[s * dps + i for s in range(3)
                                   for i in range(3)])
    expunge_deletes(idx)
    local = IndexSearcher(idx)
    dist = DistributedSearcher(idx, num_actors=3)
    try:
        for s in (local, dist):
            for q in ("ray", "data OR index"):
                full = s.search_conversations(q, k=10**6)
                assert len(full) > 3, q
                for mode in ("max", "total"):
                    assert s.search_conversations(q, k=3, score_mode=mode) \
                        == s.search_conversations(
                            q, k=10**6, score_mode=mode)[:3], (q, mode)
                assert s.collapse(q, k=3) == s.collapse(q, k=10**6)[:3], q
    finally:
        dist.close()


def test_expunge_updates_stats(idx):
    m0 = json.loads((Path(idx) / "manifest.json").read_text())
    delete_documents(idx, doc_ids=list(range(50)))
    expunge_deletes(idx)
    m1 = json.loads((Path(idx) / "manifest.json").read_text())
    assert m1["stats"]["num_docs"] == m0["stats"]["num_docs"]  # maxDoc
    assert m1["stats"]["doc_count"] < m0["stats"]["doc_count"]
    assert m1["stats"]["sum_total_term_freq"] < \
        m0["stats"]["sum_total_term_freq"]
    assert m1["expunged_count"] == 50


def test_expire_documents_ttl(idx):
    """DocExpiration reaper: docs with ts before the cutoff die."""
    import pyarrow.dataset as pads

    from lucene_solr_ray.index.update import expire_documents

    nt = pads.dataset(str(Path(idx) / "norms"), format="parquet",
                      partitioning="hive").to_table(
        columns=["doc_id", "ts"]).to_pandas().sort_values("ts")
    cutoff = nt["ts"].iloc[len(nt) // 3]  # expire the oldest third
    want_dead = set(nt[nt["ts"] < cutoff]["doc_id"])
    assert want_dead

    r = expire_documents(idx, cutoff, expunge=True)
    assert r["expired_now"] == len(want_dead)
    assert r["expunge"]["expunged_now"] == len(want_dead)
    s = IndexSearcher(idx)
    alive = {d for d, _ in s.search(MatchAllDocsQuery(), k=10**6)}
    assert not (alive & want_dead)
    assert check_index(idx)["status"] == "ok"
    # idempotent: nothing else expires at the same cutoff
    r2 = expire_documents(idx, cutoff)
    assert r2["expired_now"] == 0


def test_expunge_crash_recovery_aside(idx):
    """A crash that left the pristine segment set aside recovers: the
    aside copy is authoritative, the rewrite redoes idempotently."""
    import os
    import shutil

    delete_documents(idx, doc_ids=[10, 11])
    shard_dir = Path(idx) / "shards" / "shard=00000"
    aside = shard_dir.parent / ".merging-shard=00000"
    shutil.copytree(shard_dir, aside)  # simulate crash-after-set-aside
    (shard_dir / "terms.parquet").write_bytes(b"torn")  # partial write
    r = expunge_deletes(idx)
    assert r["expunged_now"] == 2
    assert not aside.exists()
    assert check_index(idx)["status"] == "ok"


def test_expire_everything_leaves_valid_empty_index(idx):
    from lucene_solr_ray.index.update import expire_documents

    r = expire_documents(idx, "2100-01-01T00:00:00", expunge=True)
    assert r["expired_now"] > 0
    assert check_index(idx)["status"] == "ok"
    s = IndexSearcher(idx)
    assert s.search("ray", k=5) == []
    assert s.search(MatchAllDocsQuery(), k=10**6) == []


def test_norms_swap_crash_recovers(idx):
    """Crash between the two norms renames: the .dvold aside restores
    the partition on the next open (recover_norms_partitions)."""
    import os
    import shutil

    from lucene_solr_ray.index.segment import recover_norms_partitions

    part = Path(idx) / "norms" / "doc_shard=1"
    aside = part.parent / ".dvold-doc_shard=1"
    # simulate: part renamed aside, staging rename never happened
    os.rename(part, aside)
    recover_norms_partitions(Path(idx))
    assert part.exists() and not aside.exists()
    assert check_index(idx)["status"] == "ok"
