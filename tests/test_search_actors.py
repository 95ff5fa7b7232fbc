"""Actor-pool serving == in-process searcher; check_index passes."""

import pytest

from lucene_solr_ray.data.transcripts import transcripts_path
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.index.check import check_index
from lucene_solr_ray.search.actors import DistributedSearcher
from lucene_solr_ray.search.searcher import IndexSearcher

QUERIES = ["ray", "data index", "ray AND data", '"ray data"', "+index -error",
           "the", "zzzmissing"]


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    src = transcripts_path("tiny")
    out = tmp_path_factory.mktemp("aidx") / "idx"
    build_index(src, str(out), num_shards=4)
    return str(out)


def test_actor_pool_matches_local(built):
    local = IndexSearcher(built)
    dist = DistributedSearcher(built, num_actors=2)
    try:
        batch = dist.search_batch(QUERIES, k=10)
        for q, got in zip(QUERIES, batch):
            expected = local.search(q, k=10)
            assert [(d, float(s)) for d, s in got] == \
                [(d, float(s)) for d, s in expected], f"query={q!r}"
    finally:
        dist.close()


def test_check_index_passes(built):
    report = check_index(built)
    assert report["status"] == "ok"
    assert report["docs"] > 0 and report["postings"] > 0


def test_check_index_detects_corruption(built, tmp_path):
    import shutil
    from pathlib import Path

    bad = tmp_path / "bad"
    shutil.copytree(built, bad)
    # corrupt: truncate one shard's terms file
    shard = sorted((bad / "shards").iterdir())[0]
    import pyarrow.parquet as pq

    t = pq.read_table(shard / "terms.parquet")
    pq.write_table(t.slice(0, max(1, t.num_rows // 2)), shard / "terms.parquet")
    with pytest.raises(AssertionError):
        check_index(str(bad))


@pytest.fixture(scope="module")
def dist_pair(built):
    local = IndexSearcher(built)
    dist = DistributedSearcher(built, num_actors=2)
    yield local, dist
    dist.close()


FEATURE_QUERIES = ["ray", "data index", "ray AND data", "the"]


def test_distributed_block_join_matches_local(dist_pair):
    local, dist = dist_pair
    for q in FEATURE_QUERIES:
        for mode in ("max", "total"):
            want = local.search_conversations(q, k=8, score_mode=mode)
            got = dist.search_conversations(q, k=8, score_mode=mode)
            assert [c for c, _ in got] == [c for c, _ in want], (q, mode)
            for (gc, gs), (wc, ws) in zip(got, want):
                assert abs(float(gs) - float(ws)) < 1e-5


def test_distributed_collapse_matches_local(dist_pair):
    local, dist = dist_pair
    for q in FEATURE_QUERIES:
        want = local.collapse(q, k=8)
        got = dist.collapse(q, k=8)
        assert [(d, c) for d, _, c in got] == [(d, c) for d, _, c in want], q
        for (gd, gs, gc), (wd, ws, wc) in zip(got, want):
            assert abs(float(gs) - float(ws)) < 1e-5


def test_distributed_field_stats_matches_local(dist_pair):
    local, dist = dist_pair
    for q in FEATURE_QUERIES:
        want = local.field_stats(q, "turn_idx")
        got = dist.field_stats(q, "turn_idx")
        assert got["count"] == want["count"], q
        for key in ("min", "max", "sum", "mean"):
            if want[key] is None:
                assert got[key] is None
            else:
                assert abs(got[key] - want[key]) < 1e-9, (q, key)


def test_distributed_rerank_matches_local(dist_pair):
    local, dist = dist_pair
    want = local.rerank("ray", '"ray data"', k=8, top_n=20)
    got = dist.rerank("ray", '"ray data"', k=8, top_n=20)
    assert [d for d, _ in got] == [d for d, _ in want]
    for (gd, gs), (wd, ws) in zip(got, want):
        assert abs(float(gs) - float(ws)) < 1e-5


def test_distributed_boosted_search_matches_local(dist_pair):
    local, dist = dist_pair
    expr = "recip(turn_idx,1,10,10)"
    want = local.boosted_search("ray", expr, k=8)
    got = dist.boosted_search("ray", expr, k=8)
    assert [d for d, _ in got] == [d for d, _ in want]
    for (gd, gs), (wd, ws) in zip(got, want):
        assert abs(float(gs) - float(ws)) < 1e-9


def test_distributed_terms_spellcheck_suggest(dist_pair):
    local, dist = dist_pair
    assert dist.terms(prefix="ra", limit=10) == \
        local.terms(prefix="ra", limit=10)
    assert dist.terms(regex="r.*", limit=5, sort="index") == \
        local.terms(regex="r.*", limit=5, sort="index")
    assert dist.spellcheck("rey", k=5) == local.spellcheck("rey", k=5)
    assert dist.suggest("da", k=5) == local.suggest("da", k=5)


def test_distributed_range_facet_over_hits(dist_pair):
    local, dist = dist_pair
    got = dict(dist.range_facet("ray", "turn_idx", start=0, end=6, gap=2))
    # recompute from the in-process full hit set
    import numpy as np

    docs, _ = local.all_hits("ray")
    vals = np.asarray([v for v in local.docvalues("turn_idx")[docs]
                       if v is not None], dtype=np.float64)
    assert got["before"] == int((vals < 0).sum())
    assert got["after"] == int((vals >= 6).sum())
    assert got["between"] == int(((vals >= 0) & (vals < 6)).sum())
    for i, lo in enumerate([0, 2, 4]):
        assert got[str(lo)] == int(((vals >= lo) & (vals < lo + 2)).sum())


def test_distributed_more_like_this(dist_pair):
    """more_like_this runs against the distributed searcher (global_df
    shim) and matches the in-process result."""
    import pyarrow.parquet as pq

    from lucene_solr_ray.data.transcripts import transcripts_path
    from lucene_solr_ray.search.features import more_like_this

    local, dist = dist_pair
    seed_text = pq.read_table(transcripts_path("tiny"),
                              columns=["text"]).column("text")[0].as_py()
    want = more_like_this(local, seed_text, k=8)
    got = more_like_this(dist, seed_text, k=8)
    assert [d for d, _ in got] == [d for d, _ in want]
    for (gd, gs), (wd, ws) in zip(got, want):
        assert abs(float(gs) - float(ws)) < 1e-5


def test_distributed_extended_stats_and_facet_query(dist_pair):
    import numpy as np

    local, dist = dist_pair
    got = dist.field_stats("ray", "turn_idx")
    docs, _ = local.all_hits("ray")
    vals = np.asarray([v for v in local.docvalues("turn_idx")[docs]
                       if v is not None], dtype=np.float64)
    assert got["count"] == len(vals)
    assert got["sumOfSquares"] == pytest.approx(float((vals ** 2).sum()))
    assert got["stddev"] == pytest.approx(float(np.std(vals, ddof=1)))
    assert got["missing"] == len(docs) - len(vals)
    # facet.query: counts per arbitrary sub-query
    fq = dist.facet_query(["ray", "ray AND data", "zzzmissing"])
    assert fq["ray"] == len(docs)
    and_docs, _ = local.all_hits("ray AND data")
    assert fq["ray AND data"] == len(and_docs)
    assert fq["zzzmissing"] == 0


def test_distributed_search_after_pages(dist_pair):
    local, dist = dist_pair
    full = local.search("ray OR data", k=500)
    pages, cursor = [], None
    while True:
        hits, cursor = dist.search_after("ray OR data", k=9, cursor=cursor)
        pages.extend(hits)
        if cursor is None:
            break
    assert [(d, float(x)) for d, x in pages] == \
        [(d, float(x)) for d, x in full]


def test_expand_component_local_and_distributed(dist_pair):
    local, dist = dist_pair
    heads = local.collapse("ray", k=5)
    assert heads
    want = local.expand("ray", heads, per_group=3)
    got = dist.expand("ray", heads, per_group=3)
    assert set(got) == set(want)
    for c in want:
        assert [(d, round(s, 5)) for d, s in got[c]] == \
            [(d, round(s, 5)) for d, s in want[c]], c
    # heads never appear in their own expansion
    head_docs = {d for d, _, _ in heads}
    for rows in got.values():
        assert not head_docs & {d for d, _ in rows}


def test_conv_collapse_partials_are_bounded(dist_pair):
    """Stopword-adjacent query ('the' matches ~every conversation):
    each actor's shipped partial must stay O(k + boundary convs), never
    |matching conversations|, and bounded results == unbounded merge."""
    import ray as _ray

    local, dist = dist_pair
    q, stats = dist._prepare_one("ray")  # the query and its QueryStats
    k = 3
    for actor in dist.actors:
        full = _ray.get(actor.conv_partial.remote(q, stats, "total", None))
        bounded = _ray.get(actor.conv_partial.remote(q, stats, "total", k))
        # bound: k + score-ties at the cut + <=2 boundary convs per shard
        assert len(bounded) <= k + 2 + 2 * 4, (len(bounded), len(full))
        assert len(full) > len(bounded)  # the query really matches widely
        # every shipped entry carries the exact full-partial value
        for c, s in bounded.items():
            assert abs(s - full[c]) < 1e-9
        cfull = _ray.get(actor.collapse_partial.remote(q, stats, None))
        cbound = _ray.get(actor.collapse_partial.remote(q, stats, k))
        assert len(cbound) <= k + 2 + 2 * 4
        for c, v in cbound.items():
            assert v == cfull[c]
    # end-to-end: bounded top-k identical to an unbounded driver merge
    for mode in ("max", "total"):
        want = local.search_conversations("ray", k=k, score_mode=mode)
        got = dist.search_conversations("ray", k=k, score_mode=mode)
        assert [c for c, _ in got] == [c for c, _ in want], mode
    assert [(d, c) for d, _, c in dist.collapse("ray", k=k)] == \
        [(d, c) for d, _, c in local.collapse("ray", k=k)]


def test_unfiltered_terms_enumeration_is_bounded(dist_pair):
    """ADVICE r3: terms() with no prefix/regex must not ship whole
    vocabularies; bounded enumeration must match the local searcher."""
    import ray as _ray

    local, dist = dist_pair
    vocab = len(local.segment._terms)
    for sort in ("count", "index"):
        partials = _ray.get([
            a.terms_partial.remote("", None, 10 if sort == "index" else 56,
                                   sort)
            for a in dist.actors])
        for p in partials:
            assert len(p) <= 4 * 56  # shards_per_actor * shard_limit
            assert len(p) < vocab
        assert dist.terms(limit=10, sort=sort) == \
            local.terms(limit=10, sort=sort), sort


def _outcome(dist, queries):
    """search_batch result, or None when the call raised."""
    import ray

    try:
        return dist.search_batch(queries, k=10)
    except ray.exceptions.RayError:
        return None


def test_killed_actor_gives_same_result_or_raises(built):
    """A SearchActor killed between two batches or during one is
    restarted and the batch re-run: each call returns exactly the
    pre-kill result or raises, never a short or partial top-k."""
    import threading
    import time

    import ray

    queries = QUERIES * 20
    dist = DistributedSearcher(built, num_actors=2)
    try:
        want = dist.search_batch(queries, k=10)
        victim = dist.actors[0]
        ray.kill(victim, no_restart=False)
        outcomes = [_outcome(dist, queries)]
        during: dict = {}
        t = threading.Thread(
            target=lambda: during.update(out=_outcome(dist, queries)))
        t.start()
        time.sleep(0.02)
        ray.kill(victim, no_restart=False)
        t.join()
        outcomes.append(during["out"])
        for got in outcomes:
            assert got is None or got == want
        assert dist.search_batch(queries, k=10) == want
    finally:
        dist.close()


def test_call_deadline_raises_without_partial_result(built, monkeypatch):
    """A group call that outlasts CALL_TIMEOUT_S raises TimeoutError
    naming the method and the group, within the deadline plus a margin,
    and returns no hits."""
    import time

    import ray

    from lucene_solr_ray.search import actors
    from lucene_solr_ray.search.searcher import ShardSearcher

    class SlowGroup(ShardSearcher):
        def search_batch(self, *args):
            time.sleep(60)
            return super().search_batch(*args)

    monkeypatch.setattr(actors, "SearchActor", ray.remote(SlowGroup))
    dist = DistributedSearcher(built, num_actors=2)
    try:
        monkeypatch.setattr(actors, "CALL_TIMEOUT_S", 1.0)
        hits = None
        t0 = time.perf_counter()
        with pytest.raises(TimeoutError,
                           match=r"search_batch on group \d"):
            hits = dist.search("ray", k=10)
        assert time.perf_counter() - t0 < 1.0 + 5.0
        assert hits is None
    finally:
        dist.close()
