"""One top-k per shard group: ties at the k-th score that span shards
resolve to the lowest doc ids, equal to the oracle rank for rank, in
process (shards 0 and 2 in one segment) and over a 2-actor pool (shards
dealt in contiguous runs, so shards 0 and 2 sit in different groups and
the coordinator merges the tie)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.data.transcripts import generate_transcripts
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.search.actors import DistributedSearcher
from lucene_solr_ray.search.oracle import OracleIndex
from lucene_solr_ray.search.searcher import IndexSearcher

DOCS_PER_SHARD = 10
TIED = list(range(0, 8)) + list(range(20, 28))  # shards 0 and 2


def _text(doc: int) -> str:
    if doc in TIED:
        return "alpha beta gamma"
    if doc // DOCS_PER_SHARD in (0, 2):
        return "alpha beta gamma delta epsilon"
    return "alpha delta epsilon zeta eta" if doc % 2 else "omega psi"


@pytest.fixture(scope="module")
def setup(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("group_topk")
    table = generate_transcripts(20, seed=3).slice(0, 4 * DOCS_PER_SHARD)
    texts = [_text(d) for d in range(table.num_rows)]
    table = table.set_column(table.schema.get_field_index("text"), "text",
                             pa.array(texts, type=pa.string()))
    pq.write_table(table, root / "t.parquet")
    idx = str(root / "idx")
    build_index(str(root / "t.parquet"), idx,
                docs_per_shard=DOCS_PER_SHARD)
    oracle = OracleIndex()
    oracle.add_all(enumerate(texts))
    turn_idx = np.asarray(table.column("turn_idx").to_pylist())
    local = IndexSearcher(idx)
    dist = DistributedSearcher(idx, num_actors=2)
    assert dist.actor_shards == [[0, 1], [2, 3]]
    yield local, dist, oracle, turn_idx
    dist.close()


def _expected(oracle, turn_idx, q, k, filter_range, after):
    hits = oracle.search(q, k=10_000)
    if filter_range:
        lo, hi = filter_range["turn_idx"]
        hits = [(d, s) for d, s in hits if lo <= turn_idx[d] <= hi]
    if after is not None:
        a_s, a_d = np.float32(after[0]), after[1]
        hits = [(d, s) for d, s in hits
                if s < a_s or (s == a_s and d > a_d)]
    return [(d, float(s)) for d, s in hits[:k]]


@pytest.mark.parametrize("k", [1, 3, 10])
@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("paged", [False, True])
def test_ties_at_the_cut_take_lowest_doc_ids(setup, k, filtered, paged):
    local, dist, oracle, turn_idx = setup
    q = "alpha"
    tied_score = float(oracle.search(q, k=1)[0][1])
    filter_range = {"turn_idx": (1, 6)} if filtered else None
    after = (tied_score, 3) if paged else None
    want = _expected(oracle, turn_idx, q, k, filter_range, after)
    assert len(want) == k
    assert all(s == tied_score for _, s in want)  # the cut is in the tie
    for searcher in (local, dist):
        got = searcher.search(q, k=k, filter_range=filter_range,
                              after=after)
        assert [(d, float(s)) for d, s in got] == want
    if not filtered and not paged:
        assert [d for d, _ in want] == TIED[:k]
