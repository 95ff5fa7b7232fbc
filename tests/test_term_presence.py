"""Exact group pruning from the coordinator's term table: a query batch
whose terms a group does not hold skips that group, and pruned results
are identical to the unpruned in-process searcher."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.data.transcripts import generate_transcripts
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.search.actors import DistributedSearcher
from lucene_solr_ray.search.searcher import IndexSearcher

RARE = "zzyzxuniq"


@pytest.fixture(scope="module")
def idx(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("presence")
    t = generate_transcripts(600, seed=5)
    texts = t.column("text").to_pylist()
    texts[-1] += f" {RARE}"
    t = t.set_column(t.column_names.index("text"), "text",
                     pa.array(texts))
    src = base / "src.parquet"
    pq.write_table(t, src)
    out = base / "idx"
    build_index(str(src), str(out), num_shards=4)
    return str(out)


@pytest.fixture(scope="module")
def dist(idx):
    ds = DistributedSearcher(idx, num_actors=4)
    yield ds
    ds.close()


def test_presence_mask_is_exact(idx, dist):
    """Group g is marked for a term iff one of its shards' terms.parquet
    holds the term."""
    held = [set().union(*(pq.read_table(
        f"{idx}/shards/shard={sid:05d}/terms.parquet",
        columns=["term"]).column("term").to_pylist() for sid in sids))
        for sids in dist.actor_shards]
    for term, row in dist._terms.items():
        assert [term in h for h in held] == \
            dist._present[row].tolist(), term
    assert len(dist._terms) == len(set().union(*held))


def test_rare_term_prunes_to_owning_group(dist):
    dist.search(RARE, k=10)
    assert dist.last_fanout == 1
    owner = dist._present[dist._terms[RARE]].nonzero()[0].tolist()
    # the last doc is on the last shard, dealt to the last actor
    assert owner == [len(dist.actors) - 1]


def test_results_identical_and_fanout_pruned(idx, dist):
    unpruned = IndexSearcher(idx)
    n_actors = len(dist.actors)
    for q in (RARE, "ray AND data", '"ray data"', "missingtermxyzq",
              f"{RARE} OR lake"):
        assert dist.search(q, k=10) == unpruned.search(q, k=10), q
    dist.search("missingtermxyzq", k=10)
    assert dist.last_fanout == 0
    # non-prunable shapes fall back to full fan-out
    dist.search("ra*", k=10)
    assert dist.last_fanout == n_actors


def test_presence_fresh_after_update(ray_session, tmp_path):
    """A searcher opened after update_index prunes to the group holding
    the appended term, with no rebuild step."""
    from lucene_solr_ray.index.update import update_index

    t = generate_transcripts(300, seed=7)
    src = tmp_path / "src.parquet"
    pq.write_table(t, src)
    out = tmp_path / "idx"
    build_index(str(src), str(out), num_shards=3)
    extra = pa.table({
        "conv_id": ["zzz-new-conv"], "turn_idx": [0],
        "role": ["user"], "text": ["freshterm appears here"],
        "tool": [""],
        "ts": pa.array([t.column("ts")[0].as_py()],
                       type=t.schema.field("ts").type),
    })
    inc = tmp_path / "inc.parquet"
    pq.write_table(extra, inc)
    update_index(str(out), str(inc))

    ds = DistributedSearcher(str(out), num_actors=3)
    try:
        hits = ds.search("freshterm", k=5)
        assert len(hits) == 1
        assert ds.last_fanout == 1
        assert hits == IndexSearcher(str(out)).search("freshterm", k=5)
    finally:
        ds.close()
