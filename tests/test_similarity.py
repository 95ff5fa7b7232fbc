"""Pluggable similarity: ClassicSimilarity (TFIDFSimilarity) vs BM25.

Reference math: ClassicSimilarity.java:109-140 (lengthNorm/tf/idf),
TFIDFSimilarity.java:712-716,755-763 (score = tf * boost*idf^2 * norm).
"""

import math

import numpy as np
import pytest

from lucene_solr_ray.data.transcripts import transcripts_path
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.search import bm25
from lucene_solr_ray.search.query import TermQuery
from lucene_solr_ray.search.searcher import IndexSearcher
from lucene_solr_ray.util.smallfloat import byte315_to_float


@pytest.fixture(scope="module")
def idx(ray_session, tmp_path_factory):
    src = transcripts_path("tiny")
    out = tmp_path_factory.mktemp("sim") / "idx"
    build_index(src, str(out), num_shards=3)
    return str(out)


def test_classic_term_scores_match_recount(idx):
    s = IndexSearcher(idx, similarity="classic")
    doc_count = s.manifest["stats"]["doc_count"]
    for term in ["ray", "data", "index"]:
        q = TermQuery(term)
        hits = dict(s.search(q, k=10_000))
        df = s.global_df(q)[term]
        idf = np.float32(math.log((doc_count + 1) / float(df + 1)) + 1.0)
        w = np.float32(idf * idf)
        want = {}
        for sh in s.shards:
            p = sh._postings(term)
            if p is None:
                continue
            docs, freqs, _ = p
            norms = byte315_to_float(
                sh.norms[docs - sh.base]).astype(np.float32)
            sc = (w * np.sqrt(freqs.astype(np.float32)).astype(np.float32)
                  * norms).astype(np.float32)
            d_live, s_live = sh._live(docs, sc)
            for d, v in zip(d_live, s_live):
                want[int(d)] = np.float32(v)
        want_top = dict(sorted(want.items(),
                               key=lambda kv: (-kv[1], kv[0]))[:10_000])
        assert hits.keys() == want_top.keys()
        for d in hits:
            assert np.float32(hits[d]) == want_top[d], (term, d)


def test_classic_vs_bm25_rankings_both_consistent(idx):
    """Same index, two similarities: both run, scores differ, and the
    classic disjunction path is exact."""
    s_b = IndexSearcher(idx, similarity="bm25")
    s_c = IndexSearcher(idx, similarity="classic")
    q = "ray OR data OR index"
    hb = s_b.search(q, k=20)
    hc = s_c.search(q, k=20)
    assert hb and hc
    assert dict(hb) != dict(hc)  # genuinely different scoring
    # classic disjunction == sum of classic per-term scores
    parsed = s_c.parse(q)
    per_term = [dict(s_c.search(TermQuery(t), k=100_000))
                for t in ["ray", "data", "index"]]
    for d, score in hc:
        want = np.float32(0.0)
        for pt in per_term:
            if d in pt:
                want = np.float32(want + np.float32(pt[d]))
        assert abs(float(score) - float(want)) < 5e-5, d


def test_unknown_similarity_rejected(idx):
    with pytest.raises(ValueError):
        IndexSearcher(idx, similarity="dfr")


def test_classic_idf_weight_values():
    sim = bm25.make_similarity("classic", np.float32(1.0))
    assert sim.idf(0, 0) == np.float32(1.0)
    assert float(sim.idf(9, 99)) == pytest.approx(math.log(10.0) + 1, 1e-6)
    i = sim.idf(3, 100)
    assert float(sim.weight(i, 2.0)) == pytest.approx(2.0 * float(i) ** 2,
                                                      rel=1e-6)


def test_sweetspot_tf_and_lengthnorm_vectors():
    """Published function shapes (SweetSpotSimilarity.java:136-216)."""
    sim = bm25.SweetSpotSim(np.float32(1.0), ln_min=3, ln_max=5,
                            steepness=0.5)
    # plateau: every norm byte whose QUANTIZED decoded length lands in
    # [min, max] scores norm 1.0 (and L=4 round-trips exactly)
    from lucene_solr_ray.util.smallfloat import NORM_TABLE, encode_norm
    for b in range(1, 256):
        if 3.0 <= float(NORM_TABLE[b]) <= 5.0:
            assert sim._norm_table[b] == np.float32(1.0), b
    assert float(NORM_TABLE[int(encode_norm(4))]) == 4.0
    assert sim._norm_table[int(encode_norm(4))] == np.float32(1.0)
    # outside the plateau the norm drops
    b1, b8 = int(encode_norm(1)), int(encode_norm(16))
    assert sim._norm_table[b1] < 1.0 and sim._norm_table[b8] < 1.0
    # baselineTf: degrades to sqrt with min=base=0; plateau with base
    s0 = bm25.SweetSpotSim(np.float32(1.0))
    assert s0._tf(np.array([4.0]))[0] == np.float32(2.0)
    sb = bm25.SweetSpotSim(np.float32(1.0), tf_min=6.0, tf_base=1.5)
    assert sb._tf(np.array([0.0]))[0] == 0.0
    assert sb._tf(np.array([3.0]))[0] == np.float32(1.5)  # f <= min
    assert float(sb._tf(np.array([9.0]))[0]) == pytest.approx(
        math.sqrt(9.0 + 1.5 * 1.5 - 6.0), rel=1e-6)
    # hyperbolicTf: min at 0-, midpoint at xoffset, max far right
    sh = bm25.SweetSpotSim(np.float32(1.0), tf_fn="hyperbolic",
                           hyper_min=0.0, hyper_max=2.0,
                           hyper_base=1.3, hyper_xoffset=10.0)
    assert float(sh._tf(np.array([10.0]))[0]) == pytest.approx(1.0, 1e-6)
    assert float(sh._tf(np.array([200.0]))[0]) == pytest.approx(2.0, 1e-6)


def test_sweetspot_searches(idx):
    """End-to-end: custom-parameter factory flows into the searcher."""
    s = IndexSearcher(idx, similarity=lambda avgdl: bm25.SweetSpotSim(
        avgdl, ln_min=5, ln_max=20, steepness=0.5))
    hits = s.search("ray OR data", k=10)
    assert hits
    # recompute one term's scores
    from lucene_solr_ray.search.query import TermQuery
    doc_count = s.manifest["stats"]["doc_count"]
    got = dict(s.search(TermQuery("ray"), k=100_000))
    sim = bm25.SweetSpotSim(np.float32(1.0), ln_min=5, ln_max=20,
                            steepness=0.5)
    df = s.global_df(TermQuery("ray"))["ray"]
    w = sim.weight(sim.idf(df, doc_count), 1.0)
    want = {}
    for sh in s.shards:
        p = sh._postings("ray")
        if p is None:
            continue
        docs, freqs, _ = p
        sc = sim.score(freqs, sh.norms[docs - sh.base], w)
        d_live, s_live = sh._live(docs, sc)
        want.update({int(d): np.float32(v)
                     for d, v in zip(d_live, s_live)})
    assert got.keys() == want.keys()
    for d in got:
        assert np.float32(got[d]) == want[d]


def test_distributed_classic_matches_inprocess(idx, ray_session):
    """Similarity flows into the actor pool: distributed == in-process."""
    from lucene_solr_ray.search.actors import DistributedSearcher

    qs = ["ray OR data OR index", "ray AND data", '"ray data"']
    local = IndexSearcher(idx, similarity="classic")
    dist = DistributedSearcher(idx, num_actors=2, similarity="classic")
    got = dist.search_batch(qs, k=15)
    for q, hits in zip(qs, got):
        assert hits == local.search(q, k=15), q
