"""Sloppy phrases, minShouldMatch, regexp queries, field sort, and numeric
range filtering — engine vs single-process oracle + hand-computed Lucene
SloppyPhraseScorer examples."""

import numpy as np
import pytest

from lucene_solr_ray.data.transcripts import transcripts_path
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.search.oracle import OracleIndex
from lucene_solr_ray.search.query import (
    BooleanQuery,
    PhraseQuery,
    RegexpQuery,
    TermQuery,
    parse_query,
    sloppy_phrase_freq,
)
from lucene_solr_ray.search.searcher import IndexSearcher


# --- parser -----------------------------------------------------------

def test_parse_sloppy_phrase():
    q = parse_query('"segments merge"~2')
    assert isinstance(q, PhraseQuery) and q.slop == 2
    q0 = parse_query('"segments merge"')
    assert isinstance(q0, PhraseQuery) and q0.slop == 0


def test_parse_regexp():
    q = parse_query("/seg.*ts/")
    assert q == RegexpQuery(pattern="seg.*ts")
    b = parse_query("ray AND /da.a/")
    assert isinstance(b, BooleanQuery)
    assert RegexpQuery(pattern="da.a") in b.must


# --- SloppyPhraseScorer kernel (hand-verified Lucene semantics) -------

def _freq(doc_words, phrase_words, slop):
    pos = {w: [] for w in set(phrase_words)}
    for i, w in enumerate(doc_words):
        if w in pos:
            pos[w].append(i)
    plists = [pos[w] for w in phrase_words]
    return sloppy_phrase_freq(plists, list(range(len(phrase_words))), slop)


def test_sloppy_exact_match():
    assert _freq(["a", "b", "c"], ["a", "b"], 0) == 1.0
    assert _freq(["a", "b", "a", "b"], ["a", "b"], 0) == 2.0


def test_sloppy_one_gap():
    # "a x b" vs "a b": edit distance 1 -> slop factor 1/2
    assert _freq(["a", "x", "b"], ["a", "b"], 0) == 0.0
    assert _freq(["a", "x", "b"], ["a", "b"], 1) == pytest.approx(0.5)
    assert _freq(["a", "x", "b"], ["a", "b"], 2) == pytest.approx(0.5)


def test_sloppy_transposed():
    # "b a" vs "a b": distance 2 (Lucene: requires slop >= 2, factor 1/3)
    assert _freq(["b", "a"], ["a", "b"], 1) == 0.0
    assert _freq(["b", "a"], ["a", "b"], 2) == pytest.approx(1 / 3)


def test_sloppy_no_term_missing():
    assert _freq(["a", "x"], ["a", "b"], 5) == 0.0


# --- engine vs oracle rank/score identity -----------------------------

@pytest.fixture(scope="module")
def indexed(ray_session, tmp_path_factory):
    src = transcripts_path("tiny")
    out = tmp_path_factory.mktemp("qfeat") / "idx"
    build_index(src, str(out), num_shards=3)
    s = IndexSearcher(str(out))
    import pyarrow.parquet as pq

    t = pq.read_table(src, columns=["text", "turn_idx", "role"])
    oi = OracleIndex()
    oi.add_all(enumerate(t.column("text").to_pylist()))
    return s, oi, t


FEATURE_QUERIES = [
    '"ray data"~1', '"ray data"~3', '"data index"~2',
    '"segments merge batch"~4', "/ra./", "/t0+[0-9]+/", "/zz.*/",
    "ray AND /da.a/",
]


@pytest.mark.parametrize("q", FEATURE_QUERIES)
def test_feature_query_rank_identity(indexed, q):
    s, oi, _ = indexed
    got = s.search(q, k=10)
    want = oi.search(q, k=10)
    assert [(d, float(sc)) for d, sc in got] == \
        [(d, float(sc)) for d, sc in want], q


def test_min_should_match_identity(indexed):
    s, oi, _ = indexed
    for msm in (0, 1, 2, 3):
        q = BooleanQuery(should=[TermQuery("ray"), TermQuery("data"),
                                 TermQuery("index")],
                         min_should_match=msm)
        got = s.search(q, k=20)
        want = oi.search(q, k=20)
        assert [(d, float(sc)) for d, sc in got] == \
            [(d, float(sc)) for d, sc in want], msm
    # msm filters: higher msm can only shrink the result set
    q1 = BooleanQuery(should=[TermQuery("ray"), TermQuery("data")],
                      min_should_match=2)
    hits2 = {d for d, _ in s.search(q1, k=1000)}
    q0 = BooleanQuery(should=[TermQuery("ray"), TermQuery("data")])
    hits_any = {d for d, _ in s.search(q0, k=1000)}
    assert hits2 <= hits_any


def test_min_should_match_with_must(indexed):
    s, oi, _ = indexed
    q = BooleanQuery(must=[TermQuery("ray")],
                     should=[TermQuery("data"), TermQuery("index")],
                     min_should_match=1)
    got = s.search(q, k=20)
    want = oi.search(q, k=20)
    assert [(d, float(sc)) for d, sc in got] == \
        [(d, float(sc)) for d, sc in want]


# --- search-side field sort (TopFieldCollector) -----------------------

def test_field_sort_matches_recompute(indexed):
    s, oi, t = indexed
    turn = t.column("turn_idx").to_numpy(zero_copy_only=False)
    docs, _ = s.all_hits("ray")
    for desc in (True, False):
        got = s.search("ray", k=15, sort=[("turn_idx", desc)])
        keyed = sorted(((int(turn[d]), d) for d in docs),
                       key=lambda kv: (-kv[0] if desc else kv[0], kv[1]))
        want_ids = [d for _, d in keyed[:15]]
        assert [d for d, _ in got] == want_ids, desc


def test_field_sort_string_key(indexed):
    s, oi, t = indexed
    roles = t.column("role").to_pylist()
    docs, _ = s.all_hits("data")
    got = s.search("data", k=12, sort=[("role", False), ("turn_idx", True)])
    turn = t.column("turn_idx").to_numpy(zero_copy_only=False)
    keyed = sorted(((roles[d], -int(turn[d]), d) for d in docs))
    want_ids = [k[2] for k in keyed[:12]]
    assert [d for d, _ in got] == want_ids


# --- numeric range filter composed with BM25 --------------------------

def test_numeric_filter_rank_identity(indexed):
    s, oi, t = indexed
    turn = t.column("turn_idx").to_numpy(zero_copy_only=False)
    lo, hi = 2, 6
    got = s.search("ray data", k=10, filter_range={"turn_idx": (lo, hi)})
    # oracle: score everything, filter by the same range, re-rank
    scores = oi._score_clause(oi_parse(oi, "ray data"))
    want = sorted(((d, float(sc)) for d, sc in scores.items()
                   if lo <= turn[d] <= hi),
                  key=lambda kv: (-kv[1], kv[0]))[:10]
    assert [(d, float(sc)) for d, sc in got] == want
    assert all(lo <= turn[d] <= hi for d, _ in got)


def oi_parse(oi, text):
    from lucene_solr_ray.search.query import parse_query

    return parse_query(text, oi.analyzer)


def test_filter_open_bounds(indexed):
    s, oi, t = indexed
    turn = t.column("turn_idx").to_numpy(zero_copy_only=False)
    got = s.search("ray", k=10, filter_range={"turn_idx": (5, None)})
    assert got and all(turn[d] >= 5 for d, _ in got)
    got2 = s.search("ray", k=10, filter_range={"turn_idx": (None, 3)})
    assert got2 and all(turn[d] <= 3 for d, _ in got2)


def test_actor_pool_sort_and_filter(ray_session, indexed, tmp_path_factory):
    """DistributedSearcher passes sort/filter through and merges equal to
    the single-process searcher."""
    s, _, _ = indexed
    from lucene_solr_ray.search.actors import DistributedSearcher

    dist = DistributedSearcher(s.index_dir, num_actors=2)
    try:
        for kwargs in ({"sort": [("turn_idx", True)]},
                       {"filter_range": {"turn_idx": (2, 6)}},
                       {"sort": [("role", False)],
                        "filter_range": {"turn_idx": (1, 8)}}):
            got = dist.search("ray data", k=10, **kwargs)
            want = s.search("ray data", k=10, **kwargs)
            assert [(d, float(sc)) for d, sc in got] == \
                [(d, float(sc)) for d, sc in want], kwargs
    finally:
        dist.close()


# --- DisjunctionMax + ConstantScore -----------------------------------

def test_dismax_identity_and_math(indexed):
    import numpy as np

    from lucene_solr_ray.search.query import DisMaxQuery

    s, oi, _ = indexed
    for tie in (0.0, 0.3, 1.0):
        q = DisMaxQuery([TermQuery("ray"), TermQuery("data"),
                         PhraseQuery(("ray", "data"), (0, 1))],
                        tie_breaker=tie)
        got = s.search(q, k=15)
        want = oi.search(q, k=15)
        assert [(d, float(sc)) for d, sc in got] == \
            [(d, float(sc)) for d, sc in want], tie
    # tie=1.0 equals the boolean sum-of-clauses ranking
    q1 = DisMaxQuery([TermQuery("ray"), TermQuery("data")], tie_breaker=1.0)
    qb = BooleanQuery(should=[TermQuery("ray"), TermQuery("data")])
    d1 = [d for d, _ in s.search(q1, k=20)]
    db = [d for d, _ in s.search(qb, k=20)]
    assert d1 == db
    # tie=0: score is exactly the max clause score
    q0 = DisMaxQuery([TermQuery("ray"), TermQuery("data")], tie_breaker=0.0)
    for d, sc in s.search(q0, k=5):
        sr = dict(oi._score_clause(TermQuery("ray"))).get(d, np.float32(0))
        sd = dict(oi._score_clause(TermQuery("data"))).get(d, np.float32(0))
        assert abs(sc - max(sr, sd)) < 1e-6


def test_constant_score_query(indexed):
    from lucene_solr_ray.search.query import ConstantScoreQuery

    s, oi, _ = indexed
    inner = BooleanQuery(must=[TermQuery("ray"), TermQuery("data")])
    q = ConstantScoreQuery(query=inner, boost=2.5)
    got = s.search(q, k=50)
    want = oi.search(q, k=50)
    assert [(d, float(sc)) for d, sc in got] == \
        [(d, float(sc)) for d, sc in want]
    assert got and all(float(sc) == 2.5 for _, sc in got)
    # same matching docs as the unwrapped query
    assert {d for d, _ in got} == {d for d, _ in s.search(inner, k=50)}


def test_span_first_identity_and_semantics(indexed):
    from lucene_solr_ray.search.query import SpanFirstQuery

    s, oi, t = indexed
    for end in (1, 3, 8):
        q = SpanFirstQuery(term="ray", end=end)
        got = s.search(q, k=30)
        want = oi.search(q, k=30)
        assert [(d, float(sc)) for d, sc in got] == \
            [(d, float(sc)) for d, sc in want], end
    # every hit actually has the term within the first `end` positions
    texts = t.column("text").to_pylist()
    q3 = SpanFirstQuery(term="ray", end=3)
    for d, _ in s.search(q3, k=50):
        terms, positions = oi.analyzer.analyze(texts[d])
        early = [p for tm, p in zip(terms, positions)
                 if tm == "ray" and p < 3]
        assert early, d
    # growing the window can only add matches
    h1 = {d for d, _ in s.search(SpanFirstQuery(term="ray", end=1), k=500)}
    h8 = {d for d, _ in s.search(SpanFirstQuery(term="ray", end=8), k=500)}
    assert h1 <= h8


def test_term_vectors_match_analysis(indexed):
    """Term vector of a hit doc == re-analysis of its source text."""
    s, _, t = indexed
    texts = t.column("text").to_pylist()
    from lucene_solr_ray.analysis import get_analyzer

    analyzer = get_analyzer(s.analyzer_name)
    hits = s.search("ray", k=3)
    assert hits
    tvs = s.term_vectors([d for d, _ in hits])
    for d, _ in hits:
        terms, positions = analyzer.analyze(texts[d])
        want = {}
        for t, p in zip(terms, positions):
            want.setdefault(t, []).append(p)
        got = {t: pos for t, f, pos in tvs[d]}
        assert got == want, d
        for t, f, pos in tvs[d]:
            assert f == len(pos)


def test_field_sort_with_missing_docvalues(ray_session, tmp_path):
    """Docs missing the sort field sort LAST in either direction (pinned
    missingValue semantics) instead of raising TypeError at the merge."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.data.transcripts import generate_transcripts

    t = generate_transcripts(12, seed=21)
    n = t.num_rows
    score = [float(i) if i % 3 else None for i in range(n)]
    t = t.append_column("score", pa.array(score, type=pa.float64()))
    src = tmp_path / "src.parquet"
    pq.write_table(t, str(src))
    idx = tmp_path / "idx"
    build_index(str(src), str(idx), num_shards=3)
    s = IndexSearcher(str(idx))
    term = next(w.lower() for w in t.column("text")[0].as_py().split()
                if len(w) > 3 and w.isalpha())
    for desc in (False, True):
        hits = s.search(term, k=50, sort=[("score", desc)])
        assert hits
        vals = [s.docvalues("score")[d] for d, _ in hits]
        present = [v for v in vals if v is not None]
        tail = vals[len(present):]
        assert all(v is None for v in tail), (desc, vals)
        if desc:
            assert present == sorted(present, reverse=True)
        else:
            assert present == sorted(present)


def test_search_after_pages_equal_full_ranking(indexed):
    """cursorMark paging: concatenated pages == one big top-k, no
    duplicates, exhaustion returns None."""
    s, _, _ = indexed
    full = s.search("ray OR data", k=500)
    pages, cursor = [], None
    while True:
        hits, cursor = s.search_after("ray OR data", k=7, cursor=cursor)
        pages.extend(hits)
        if cursor is None:
            break
    assert [(d, float(x)) for d, x in pages] == \
        [(d, float(x)) for d, x in full]
    assert len({d for d, _ in pages}) == len(pages)


def test_search_after_rejects_field_sort(indexed):
    s, _, _ = indexed
    import pytest as _pt

    with _pt.raises(ValueError):
        s.search("ray", k=5, sort=[("turn_idx", False)],
                 after=(1.0, 3))


def test_field_sort_desc_string_with_missing(ray_session, tmp_path):
    """Regression: descending sort on a STRING docvalue with missing
    values crashed in the coordinator's merge (a descending string key
    compared against the missing-value sentinel)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.data.transcripts import generate_transcripts

    t = generate_transcripts(12, seed=33)
    labels = [None if i % 4 == 0 else f"lab{i % 3}"
              for i in range(t.num_rows)]
    t = t.drop_columns(["tool"]).append_column(
        "tool", pa.array(labels, type=pa.string()))
    src = tmp_path / "src.parquet"
    pq.write_table(t, str(src))
    idx = tmp_path / "idx"
    build_index(str(src), str(idx), num_shards=3)
    s = IndexSearcher(str(idx))
    term = next(w.lower() for w in t.column("text")[0].as_py().split()
                if len(w) > 3 and w.isalpha())
    for desc in (True, False):
        hits = s.search(term, k=50, sort=[("tool", desc)])
        vals = [s.docvalues("tool")[d] for d, _ in hits]
        present = [v for v in vals if v is not None]
        assert all(v is None for v in vals[len(present):]), (desc, vals)
        assert present == sorted(present, reverse=desc)


def test_number_like_strings_order_as_strings(ray_session, tmp_path):
    """A string doc value sorts, ranges and merges in byte order (SORTED
    doc values) even when every value parses as a number: "10" < "9",
    in one segment and in the merge of three."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.data.transcripts import generate_transcripts
    from lucene_solr_ray.search.actors import DistributedSearcher
    from lucene_solr_ray.search.query import MatchAllDocsQuery

    t = generate_transcripts(12, seed=5)
    t = t.drop_columns(["tool"]).append_column("tool", pa.array(
        ["9" if i % 2 else "10" for i in range(t.num_rows)]))
    pq.write_table(t, str(tmp_path / "src.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "src.parquet"), idx, num_shards=3)
    local = IndexSearcher(idx)
    dist = DistributedSearcher(idx, num_actors=3)
    try:
        for s in (local, dist):
            tool = s.docvalues("tool")
            n = sum(v == "10" for v in tool)
            for desc in (False, True):
                hits = s.search(MatchAllDocsQuery(), k=len(tool),
                                sort=[("tool", desc)])
                vals = [tool[d] for d, _ in hits]
                assert len(vals) == len(tool)
                assert vals == sorted(vals, reverse=desc), desc
            hits = s.search(MatchAllDocsQuery(), k=len(tool),
                            filter_range={"tool": ("1", "5")})
            assert len(hits) == n
            assert {tool[d] for d, _ in hits} == {"10"}
    finally:
        dist.close()


def test_default_operator_and():
    """q.op=AND (QueryParserBase.java:43 AND_OPERATOR + addClause)."""
    from lucene_solr_ray.search.query import TermQuery

    def T(t):
        return TermQuery(t, 1.0)

    q = parse_query("segments merge", default_operator="AND")
    assert q == BooleanQuery(must=[T("segments"), T("merge")])
    # explicit OR demotes both adjacent clauses
    q2 = parse_query("segments OR merge", default_operator="AND")
    assert q2 == BooleanQuery(should=[T("segments"), T("merge")])
    # x OR y AND z -> x +y +z flat per classic addClause
    q3 = parse_query("alpha OR beta AND gamma", default_operator="AND")
    assert q3 == BooleanQuery(must=[T("beta"), T("gamma")],
                              should=[T("alpha")])
    # x OR y z -> x y +z
    q4 = parse_query("alpha OR beta gamma", default_operator="AND")
    assert q4 == BooleanQuery(must=[T("gamma")],
                              should=[T("alpha"), T("beta")])
    # default OR unchanged
    q5 = parse_query("segments merge")
    assert q5 == BooleanQuery(should=[T("segments"), T("merge")])
    # CONJ_OR demotes the preceding clause unconditionally under
    # AND_OPERATOR (QueryParserBase.addClause) — explicit '+' included
    q6 = parse_query("alpha AND beta OR gamma", default_operator="AND")
    assert q6 == BooleanQuery(must=[T("alpha")],
                              should=[T("beta"), T("gamma")])
    q7 = parse_query("+alpha OR beta", default_operator="AND")
    assert q7 == BooleanQuery(should=[T("alpha"), T("beta")])
    # prohibited clauses are exempt from the demotion
    q8 = parse_query("-alpha OR beta", default_operator="AND")
    assert q8 == BooleanQuery(must_not=[T("alpha")], should=[T("beta")])


def test_query_extension_registry():
    """ExtendableQueryParser (queryparser/ext): key:term dispatches to
    the registered ParserExtension with the RAW term."""
    from lucene_solr_ray.search.query import (
        QUERY_EXTENSIONS,
        TermQuery,
        register_query_extension,
    )

    seen = []

    def raw_ext(term, analyzer):
        seen.append(term)
        return TermQuery(term, 1.0)   # verbatim, no analysis

    register_query_extension("raw", raw_ext)
    try:
        q = parse_query("raw:SegMents AND merge")
        assert TermQuery("SegMents", 1.0) in q.must      # raw case kept
        assert TermQuery("merge", 1.0) in q.must
        assert seen == ["SegMents"]
        # boost applies around the extension query
        q2 = parse_query("raw:Abc^3")
        assert q2 == TermQuery("Abc", 3.0)
        # unregistered keys keep the colon-as-text behavior
        q3 = parse_query("unknownkey:zzz")
        assert not seen[1:] or seen == ["SegMents", "Abc"]
        assert q3 is not None
    finally:
        QUERY_EXTENSIONS.pop("raw", None)
