"""Results do not depend on how shards are grouped into segments.

Five shards (four built, the fifth made by ``update_index``) served by
``IndexSearcher`` (one segment) and by ``DistributedSearcher`` over 1-4
actors, so some actor counts do not divide the shard count. One doc is
tombstoned. Two conversations straddle the shard edges that the 2-, 3-
and 4-actor layouts cut between groups, and carry a term whose
conversation totals only come out right if both sides are merged."""

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.data.transcripts import generate_transcripts
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.index.update import delete_documents, update_index
from lucene_solr_ray.search.actors import DistributedSearcher
from lucene_solr_ray.search.query import (MatchAllDocsQuery,
                                          parse_complex_phrase)
from lucene_solr_ray.search.searcher import IndexSearcher
from lucene_solr_ray.search.surround import parse_surround

EDGE_TERM = "zzedge"
QUERIES = ["ray", "ray AND data", "ray OR rank", '"ray data"',
           '"data ray"~3', EDGE_TERM]


def _straddles(convs: list, edge: int) -> bool:
    return convs[edge - 1] == convs[edge]


@pytest.fixture(scope="module")
def layout(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("group_layout")
    table = generate_transcripts(80, seed=11).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")])
    convs = table.column("conv_id").to_pylist()
    cut = sorted(set(convs))[64]
    n_base = sum(c < cut for c in convs)
    # the base build spans four shards, the update reaches a fifth; edges
    # 2*dps and 3*dps must each fall inside a conversation
    dps = math.ceil(n_base / 3.6)
    while not (_straddles(convs, 2 * dps) and _straddles(convs, 3 * dps)):
        dps += 1
    assert 3 * dps < n_base <= 4 * dps < len(convs)
    texts = table.column("text").to_pylist()
    for edge in (2 * dps, 3 * dps):
        # one occurrence left of the edge, three in every turn right of
        # it; an inner conversation left of it wins locally with two
        conv = convs[edge]
        texts[edge - 1] += f" {EDGE_TERM}"
        for d in range(edge, len(convs)):
            if convs[d] != conv:
                break
            texts[d] += f" {EDGE_TERM}" * 3
        inner = next(d for d in range(edge - 2, edge - dps, -1)
                     if convs[d] != convs[edge] and convs[d - 1] == convs[d])
        texts[inner] += f" {EDGE_TERM}" * 2
    table = table.set_column(table.schema.get_field_index("text"), "text",
                             pa.array(texts, type=pa.string()))
    conv = table.column("conv_id")
    pq.write_table(table.filter(pc.less(conv, cut)), root / "a.parquet")
    pq.write_table(table.filter(pc.greater_equal(conv, cut)),
                   root / "b.parquet")
    idx = str(root / "idx")
    build_index(str(root / "a.parquet"), idx, docs_per_shard=dps)
    update_index(idx, str(root / "b.parquet"))
    local = IndexSearcher(idx)
    assert sorted(s["shard_id"] for s in local.manifest["shards"]) == \
        [0, 1, 2, 3, 4]
    tombstoned = int(local.search("ray", k=1)[0][0])
    delete_documents(idx, doc_ids=[tombstoned])
    return idx, dps, tombstoned


@pytest.fixture(scope="module")
def searchers(layout):
    idx, _, _ = layout
    dists = [DistributedSearcher(idx, num_actors=n) for n in (1, 2, 3, 4)]
    yield IndexSearcher(idx), dists
    for d in dists:
        d.close()


def test_actor_runs_are_contiguous_and_balanced(searchers):
    _, dists = searchers
    for n, dist in zip((1, 2, 3, 4), dists):
        runs = dist.actor_shards
        assert len(runs) == n and all(runs), runs
        assert [s for r in runs for s in r] == [0, 1, 2, 3, 4]
        assert max(map(len, runs)) - min(map(len, runs)) <= 1


def test_hits_identical_for_every_layout(layout, searchers):
    _, _, tombstoned = layout
    local, dists = searchers
    queries = [local.parse(q) for q in QUERIES] + [
        parse_complex_phrase('"ra* data"'),
        parse_surround("3w(ra*, data)"),
        MatchAllDocsQuery()]
    want = local.search_batch(queries, k=40)
    assert all(want), "every query must match"
    assert tombstoned not in {d for hits in want for d, _ in hits}
    assert tombstoned not in local.all_hits(MatchAllDocsQuery())[0]
    for dist in dists:
        got = dist.search_batch(queries, k=40)
        for q, g, w in zip(queries, got, want):
            assert g == w, (len(dist.actors), q)
        for q, w in zip(queries, want):
            for d, _ in w[:3]:
                assert dist.explain(q, d) == local.explain(q, d), \
                    (len(dist.actors), q, d)


@pytest.mark.parametrize("mode", ["max", "total"])
def test_conversations_straddling_group_edges(layout, searchers, mode):
    idx, dps, _ = layout
    local, dists = searchers
    docmap = local.docmap()
    edge_convs = {docmap[2 * dps], docmap[3 * dps]}
    # brute force from every matching turn
    docs, scores = local.all_hits(EDGE_TERM)
    agg: dict[str, float] = {}
    for d, s in zip(docs, scores.astype(np.float64)):
        c = docmap[d]
        agg[c] = max(agg.get(c, -np.inf), s) if mode == "max" \
            else agg.get(c, 0.0) + s
    k = 2
    want = [(c, np.float32(s)) for c, s in sorted(
        agg.items(), key=lambda kv: (-np.float32(kv[1]), kv[0]))[:k]]
    if mode == "total":
        assert {c for c, _ in want} == edge_convs
    assert local.search_conversations(EDGE_TERM, k=k, score_mode=mode) \
        == want
    for dist in dists:
        assert dist.search_conversations(EDGE_TERM, k=k,
                                         score_mode=mode) == want, \
            len(dist.actors)
