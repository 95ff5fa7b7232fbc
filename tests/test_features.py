"""Block join, rerank, MLT, highlight over a built tiny index."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.data.transcripts import transcripts_path
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.search.features import highlight, more_like_this
from lucene_solr_ray.search.searcher import IndexSearcher


@pytest.fixture(scope="module")
def built_index(ray_session, tmp_path_factory):
    src = transcripts_path("tiny")
    out = tmp_path_factory.mktemp("fidx") / "idx"
    build_index(src, str(out), num_shards=3)
    return str(out)


@pytest.fixture(scope="module")
def searcher(built_index):
    return IndexSearcher(built_index), transcripts_path("tiny")


def test_block_join_max(searcher):
    s, src = searcher
    hits = s.search_conversations("ray", k=5, score_mode="max")
    assert hits
    # oracle: group turn-level scores by conv, take max
    from collections import defaultdict

    docs, scores = s.all_hits("ray")
    dm = s.docmap()
    agg = defaultdict(lambda: np.float32(0.0))
    for d, sc in zip(docs, scores):
        agg[dm[d]] = max(agg[dm[d]], sc)
    expected = sorted(agg.items(), key=lambda kv: (-float(kv[1]), kv[0]))[:5]
    assert [(c, float(x)) for c, x in hits] == \
        [(c, float(x)) for c, x in expected]


def test_block_join_total(searcher):
    s, _ = searcher
    hits_max = s.search_conversations("ray data", k=5, score_mode="max")
    hits_tot = s.search_conversations("ray data", k=5, score_mode="total")
    assert hits_max and hits_tot
    # total >= max for any conversation
    tot = dict(hits_tot)
    for conv, m in hits_max:
        if conv in tot:
            assert float(tot[conv]) >= float(m) - 1e-6


def test_rerank_boosts_phrase_matches(searcher):
    s, _ = searcher
    base = s.search("ray data", k=10)
    rr = s.rerank("ray data", '"ray data"', k=10, top_n=20, weight=5.0)
    assert rr
    base_map = dict(base)
    for doc_id, score in rr:
        if doc_id in base_map:
            assert float(score) >= float(base_map[doc_id]) - 1e-6


def test_more_like_this(searcher):
    s, src = searcher
    texts = pq.read_table(src, columns=["text"]).column("text").to_pylist()
    seed = texts[3]
    hits = more_like_this(s, seed, k=5)
    assert hits
    assert all(isinstance(d, int) for d, _ in hits)


def test_highlight(searcher):
    out = highlight("The ray data engine builds an index quickly",
                    "ray AND index", window=15)
    assert "<b>ray</b>" in out
    out2 = highlight("nothing relevant here", "zzz")
    assert "<b>" not in out2


def test_highlight_respects_analysis(searcher):
    # query-side analysis lowercases; highlight matches original casing
    out = highlight("Ray Data rocks", "ray")
    assert "<b>Ray</b>" in out


# --- round 2: function-boosted search + search-side stats ---

def test_boosted_search_matches_recompute(searcher):
    import numpy as np
    import pyarrow.parquet as _pq

    s, src = searcher
    table = _pq.read_table(src, columns=["turn_idx"])
    turn = table.column("turn_idx").to_numpy(zero_copy_only=False)
    got = s.boosted_search("ray data", "recip(turn_idx,1,10,10)", k=8)
    docs, scores = s.all_hits("ray data")
    boost = 10.0 / (turn[docs].astype(np.float64) + 10.0)
    final = scores.astype(np.float64) * boost
    order = np.lexsort((docs, -final))[:8]
    want = [(int(docs[i]), float(final[i])) for i in order]
    assert got == want
    # boosting reorders vs plain BM25 for at least some rank
    plain = [d for d, _ in s.search("ray data", k=8)]
    assert [d for d, _ in got] != plain or len(plain) <= 1


def test_boosted_search_unknown_field(searcher):
    import pytest as _pytest

    s, _ = searcher
    with _pytest.raises(KeyError):
        s.boosted_search("ray", "recip(nonexistent,1,10,10)")


def test_field_stats(searcher):
    import numpy as np
    import pyarrow.parquet as _pq

    s, src = searcher
    table = _pq.read_table(src, columns=["turn_idx"])
    turn = table.column("turn_idx").to_numpy(zero_copy_only=False)
    st = s.field_stats("ray", "turn_idx")
    docs, _ = s.all_hits("ray")
    v = turn[docs].astype(np.float64)
    assert st["count"] == len(v)
    assert st["min"] == v.min() and st["max"] == v.max()
    assert st["sum"] == v.sum()
    assert abs(st["mean"] - v.mean()) < 1e-12


def test_valuesource_stats_accessors_recompute(built_index):
    """docfreq()/numdocs()/maxdoc()/norm() bind to real index statistics:
    recompute each from the raw index and compare (r3 verdict #8)."""
    import numpy as np
    import pyarrow as pa

    from lucene_solr_ray.functions import parse_func
    from lucene_solr_ray.functions.valuesource import (
        bind_index_stats, eval_expr, stats_terms, uses_norm)
    from lucene_solr_ray.search.features import decoded_norms, index_stats
    from lucene_solr_ray.search.searcher import IndexSearcher
    from lucene_solr_ray.util.smallfloat import NORM_TABLE

    s = IndexSearcher(built_index)
    st = index_stats(s, {"ray", "zzzmissing"})
    # recompute df by walking shard postings
    want_df = s.segment.local_df(["ray"]).get("ray", 0)
    assert st["docfreq"]["ray"] == want_df > 0
    assert st["docfreq"].get("zzzmissing", 0) == 0
    assert st["maxdoc"] == s.manifest["stats"]["num_docs"]
    assert st["numdocs"] == st["maxdoc"]  # no deletes in this fixture
    # boosted_search with accessors == manual recompute per hit
    expr = "mul(ln(sum(1,div(numdocs(),docfreq(ray)))),norm(text))"
    got = dict(s.boosted_search("ray", expr, k=1 << 20))
    docs, scores = s.all_hits("ray")
    idf_ish = np.log(1 + st["numdocs"] / st["docfreq"]["ray"])
    norms = decoded_norms(s, docs)
    for d, bm, nrm in zip(docs, scores, norms):
        want = float(bm) * idf_ish * float(nrm)
        assert abs(got[int(d)] - want) < 1e-6 * max(1.0, abs(want))
    # norm() equals the SmallFloat-decoded byte for each hit doc
    for d in docs[:20]:
        sh = s.segment
        assert norms[list(docs).index(d)] == \
            NORM_TABLE[sh.norms[int(d) - sh.base]]


def test_stats_accessors_distributed_parity(built_index, ray_session):
    from lucene_solr_ray.search.actors import DistributedSearcher
    from lucene_solr_ray.search.searcher import IndexSearcher

    s = IndexSearcher(built_index)
    dist = DistributedSearcher(built_index, num_actors=2)
    try:
        expr = "mul(ln(sum(1,div(numdocs(),docfreq(ray)))),norm(text))"
        want = s.boosted_search("ray", expr, k=8)
        got = dist.boosted_search("ray", expr, k=8)
        assert [d for d, _ in got] == [d for d, _ in want]
        for (gd, gs), (wd, ws) in zip(got, want):
            assert abs(float(gs) - float(ws)) < 1e-9
    finally:
        dist.close()


def test_best_fragments_scoring():
    """Highlighter.getBestFragments semantics: distinct-term fragment
    scores, contiguous merge, score-ordered output."""
    from lucene_solr_ray.search.features import best_fragments

    text = ("Ray schedules tasks across the cluster. " * 2
            + "Nothing relevant here at all in this sentence. " * 3
            + "The ray data engine shuffles data between ray workers. "
            + "Final filler sentence with no matches whatsoever here.")
    fr = best_fragments(text, "ray AND data", fragment_size=60,
                        max_fragments=2)
    assert fr
    # best fragment contains BOTH terms (score 2.0 > 1.0)
    best_text, best_score = fr[0]
    assert "<b>ray</b>" in best_text and "<b>data</b>" in best_text
    assert best_score == 2.0
    assert all(a >= b for (_, a), (_, b) in zip(fr, fr[1:]))
    # per-term weights change the winner
    fr_w = best_fragments(text, "schedules OR shuffles", fragment_size=60,
                          max_fragments=1,
                          weights={"schedules": 10.0, "shuffles": 0.1})
    assert "<b>schedules</b>" in fr_w[0][0]
    # no matches -> no fragments
    assert best_fragments(text, "zzzmissing", fragment_size=60) == []


def test_best_fragments_merge_contiguous():
    from lucene_solr_ray.search.features import best_fragments

    text = "alpha beta ray. data gamma delta. epsilon ray data zeta."
    merged = best_fragments(text, "ray OR data", fragment_size=18,
                            max_fragments=1, merge_contiguous=True)
    split = best_fragments(text, "ray OR data", fragment_size=18,
                           max_fragments=5, merge_contiguous=False)
    # merging contiguous scoring fragments yields one long fragment whose
    # score still counts each distinct term once
    assert merged[0][1] == 2.0
    assert len(split) >= 2


def test_highlight_hits_multi_fragment(searcher):
    from lucene_solr_ray.data.transcripts import transcripts_path
    from lucene_solr_ray.search.features import highlight_hits

    s, src = searcher
    hits = s.search("ray", k=3)
    rows = s.resolve(hits) if hasattr(s, "resolve") else [
        {"conv_id": c, "turn_idx": t}
        for c, t in (s.doc_keys([d for d, _ in hits])
                     if hasattr(s, "doc_keys") else [])]
    if not rows:
        import pyarrow.parquet as pq
        t = pq.read_table(src, columns=["conv_id", "turn_idx", "text"])
        rows = [{"conv_id": t.column("conv_id")[i].as_py(),
                 "turn_idx": t.column("turn_idx")[i].as_py()}
                for i in range(t.num_rows)
                if "ray" in t.column("text")[i].as_py().lower()][:3]
    out = highlight_hits(s, "ray", rows, src, fragments=2)
    assert all("snippet" in r for r in out)
    assert any("<b>" in r["snippet"] for r in out)


def test_termfreq_accessors_recompute(built_index):
    """termfreq()/totaltermfreq()/sumtotaltermfreq() bind to real index
    statistics (TermFreqValueSource.java:36, TotalTermFreqValueSource,
    SumTotalTermFreqValueSource — lucene/queries/.../valuesource/):
    recompute each from raw shard postings and compare."""
    from lucene_solr_ray.search.features import index_stats
    from lucene_solr_ray.search.searcher import IndexSearcher

    s = IndexSearcher(built_index)
    st = index_stats(s, {"ray", "zzzmissing"})
    # ttf recompute: sum of postings freqs per shard
    want_ttf = 0
    for sh in (s.segment,):
        p = sh._postings("ray")
        if p is not None:
            want_ttf += int(p[1].sum())
    assert st["ttf"]["ray"] == want_ttf > 0
    assert st["ttf"].get("zzzmissing", 0) == 0
    assert st["sumttf"] == s.manifest["stats"]["sum_total_term_freq"] > 0
    # boosted_search: score = bm25 * (1 + termfreq(ray)) per hit, with the
    # per-hit tf recomputed straight from the postings lists
    got = dict(s.boosted_search("ray", "sum(1,termfreq(ray))", k=1 << 20))
    docs, scores = s.all_hits("ray")
    tf_of = {}
    for sh in (s.segment,):
        p = sh._postings("ray")
        if p is not None:
            for d, f in zip(p[0], p[1]):
                tf_of[int(d)] = int(f)
    assert len(got) == len(docs)
    for d, bm in zip(docs, scores):
        want = float(bm) * (1.0 + tf_of.get(int(d), 0))
        assert abs(got[int(d)] - want) < 1e-6 * max(1.0, abs(want))
    # constant accessors: sumtotaltermfreq()/totaltermfreq(t) are
    # query-independent constants inside the boost
    got2 = dict(s.boosted_search(
        "ray", "div(totaltermfreq(ray),sumtotaltermfreq())", k=1 << 20))
    ratio = want_ttf / st["sumttf"]
    for d, bm in zip(docs, scores):
        want = float(bm) * ratio
        assert abs(got2[int(d)] - want) < 1e-6 * max(1.0, abs(want))


def test_termfreq_distributed_parity(built_index, ray_session):
    from lucene_solr_ray.search.actors import DistributedSearcher
    from lucene_solr_ray.search.searcher import IndexSearcher

    s = IndexSearcher(built_index)
    dist = DistributedSearcher(built_index, num_actors=2)
    try:
        expr = ("mul(sum(1,termfreq(ray)),"
                "div(totaltermfreq(ray),sumtotaltermfreq()))")
        want = s.boosted_search("ray", expr, k=8)
        got = dist.boosted_search("ray", expr, k=8)
        assert [d for d, _ in got] == [d for d, _ in want]
        for (gd, gs), (wd, ws) in zip(got, want):
            assert abs(float(gs) - float(ws)) < 1e-9
    finally:
        dist.close()


def test_exists_def_ms_ord_rord(built_index):
    """exists()/def()/ms()/ord()/rord() (Solr ValueSourceParser:
    exists → SimpleBoolFunction, def → DefFunction, ms →
    DateValueSourceParser, ord/rord → OrdFieldSource /
    ReverseOrdFieldSource): recompute each against raw doc values."""
    from lucene_solr_ray.functions import parse_func
    from lucene_solr_ray.functions.valuesource import bind_index_stats
    from lucene_solr_ray.search.features import global_uniques, index_stats
    from lucene_solr_ray.search.searcher import IndexSearcher

    s = IndexSearcher(built_index)
    docs, scores = s.all_hits("ray")
    tvals = s.docvalues("turn_idx")

    # exists(turn_idx) == 1 for docs carrying the docvalue
    got = dict(s.boosted_search("ray", "exists(turn_idx)", k=1 << 20))
    for d, bm in zip(docs, scores):
        want = float(bm) * (0.0 if tvals[int(d)] is None else 1.0)
        assert abs(got[int(d)] - want) < 1e-6

    # def() on an unindexed field falls back to the default, not KeyError
    got = dict(s.boosted_search("ray", "def(nosuchfield,2.5)", k=1 << 20))
    for d, bm in zip(docs, scores):
        assert abs(got[int(d)] - float(bm) * 2.5) < 1e-6

    # def() on an indexed field passes the value through
    got = dict(s.boosted_search("ray", "sum(1,def(turn_idx,99))",
                                k=1 << 20))
    for d, bm in zip(docs, scores):
        v = tvals[int(d)]
        want = float(bm) * (1.0 + (99.0 if v is None else float(v)))
        assert abs(got[int(d)] - want) < 1e-6 * max(1.0, abs(want))

    # ms(a, b) = a - b; ms() = request NOW in epoch millis
    got = dict(s.boosted_search("ray", "ms(turn_idx,turn_idx)", k=1 << 20))
    assert all(abs(v) < 1e-9 for v in got.values())
    import time
    st = index_stats(s, set())
    assert abs(st["now_ms"] - time.time() * 1000.0) < 60_000

    # ord/rord: rank among sorted distinct turn_idx values
    uniq = global_uniques(tvals)
    n = len(uniq)
    rank = {v: i + 1 for i, v in enumerate(uniq)}
    got_o = dict(s.boosted_search("ray", "ord(turn_idx)", k=1 << 20))
    got_r = dict(s.boosted_search("ray", "rord(turn_idx)", k=1 << 20))
    for d, bm in zip(docs, scores):
        v = tvals[int(d)]
        o = 0 if v is None else rank[v]
        r = 0 if o == 0 else n + 1 - o
        assert abs(got_o[int(d)] - float(bm) * o) < 1e-6 * max(1.0, o)
        assert abs(got_r[int(d)] - float(bm) * r) < 1e-6 * max(1.0, r)

    # arity validation: ms takes 0-2 args
    with pytest.raises(ValueError):
        parse_func("ms(a,b,c)")
    # exists/ord reject non-field args at bind time
    with pytest.raises(ValueError):
        bind_index_stats(parse_func("exists(sum(x,1))"), st)


def test_exists_ord_distributed_parity(built_index, ray_session):
    from lucene_solr_ray.search.actors import DistributedSearcher
    from lucene_solr_ray.search.searcher import IndexSearcher

    s = IndexSearcher(built_index)
    dist = DistributedSearcher(built_index, num_actors=2)
    try:
        for expr in ("sum(exists(turn_idx),def(nosuchfield,2.5))",
                     "sum(mul(ord(turn_idx),0.1),rord(turn_idx))"):
            want = s.boosted_search("ray", expr, k=8)
            got = dist.boosted_search("ray", expr, k=8)
            assert [d for d, _ in got] == [d for d, _ in want], expr
            for (gd, gs), (wd, ws) in zip(got, want):
                assert abs(float(gs) - float(ws)) < 1e-9
    finally:
        dist.close()


def test_idf_valuesource(built_index, ray_session):
    """idf(term) binds to the engine similarity's idf (IDFValueSource
    routed through BM25, bm25.py:29): recompute + distributed parity."""
    from lucene_solr_ray.search import bm25
    from lucene_solr_ray.search.actors import DistributedSearcher
    from lucene_solr_ray.search.features import index_stats
    from lucene_solr_ray.search.searcher import IndexSearcher

    s = IndexSearcher(built_index)
    st = index_stats(s, {"ray"})
    want_idf = float(bm25.idf(st["docfreq"]["ray"], st["numdocs"]))
    got = dict(s.boosted_search("ray", "idf(ray)", k=1 << 20))
    docs, scores = s.all_hits("ray")
    for d, bm in zip(docs, scores):
        assert abs(got[int(d)] - float(bm) * want_idf) < 1e-6
    dist = DistributedSearcher(built_index, num_actors=2)
    try:
        assert dist.boosted_search("ray", "idf(ray)", k=5) == \
            s.boosted_search("ray", "idf(ray)", k=5)
    finally:
        dist.close()


def test_interesting_terms(searcher):
    from lucene_solr_ray.search.features import (
        interesting_terms,
        more_like_this,
    )

    searcher, _ = searcher
    text = "ray data pipelines shuffle large blocks"
    det = interesting_terms(searcher, text, max_query_terms=5)
    assert det, "seed text must produce interesting terms"
    # best term normalized to 1.0, scores descending in (0, 1]
    assert det[0][1] == pytest.approx(1.0)
    scores = [s for _, s in det]
    assert scores == sorted(scores, reverse=True)
    assert all(0 < s <= 1.0 for s in scores)
    # LIST style: same terms, flat 1f boosts
    flat = interesting_terms(searcher, text, max_query_terms=5,
                             boost=False)
    assert [t for t, _ in flat] == [t for t, _ in det]
    assert all(s == 1.0 for _, s in flat)
    # the MLT query is built from exactly these terms (shared path)
    hits = more_like_this(searcher, text, k=5, max_query_terms=5)
    assert hits


def test_boosted_search_additive_bf(searcher):
    """mode='add' (dismax bf): score + f(doc), rank recomputed."""
    import numpy as np
    s, _ = searcher
    q = "ray data"
    docs, scores = s.all_hits(q)
    tvals = s.docvalues("turn_idx")
    f = np.asarray([0.0 if tvals[d] is None else float(tvals[d])
                    for d in docs])
    want = scores.astype(np.float64) + f
    order = np.lexsort((docs, -want))[:10]
    expect = [(int(docs[i]), float(want[i])) for i in order]
    got = s.boosted_search(q, "turn_idx", k=10, mode="add")
    assert got == expect
    # multiplicative default unchanged
    got_mul = s.boosted_search(q, "turn_idx", k=10)
    want_mul = scores.astype(np.float64) * f
    order2 = np.lexsort((docs, -want_mul))[:10]
    assert got_mul == [(int(docs[i]), float(want_mul[i]))
                       for i in order2]
