"""Query-time field facets, prefix suggest, collapse search."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.data.transcripts import transcripts_path
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.search.oracle import OracleIndex
from lucene_solr_ray.search.searcher import IndexSearcher


@pytest.fixture(scope="module")
def searcher(ray_session, tmp_path_factory):
    src = transcripts_path("tiny")
    out = tmp_path_factory.mktemp("facet") / "idx"
    build_index(src, str(out), num_shards=3)
    return IndexSearcher(str(out)), src


def test_facet_role_matches_recount(searcher):
    s, src = searcher
    table = pq.read_table(src, columns=["role", "text"])
    roles = table.column("role").to_pylist()
    texts = table.column("text").to_pylist()
    oi = OracleIndex()
    oi.add_all(enumerate(texts))

    for q in ["ray", "data OR index", "ray AND data"]:
        got = dict(s.facet(q, "role"))
        matching = oi._score_clause(s.parse(q))
        expected: dict[str, int] = {}
        for d in matching:
            expected[roles[d]] = expected.get(roles[d], 0) + 1
        assert got == expected, q


def test_facet_ordering(searcher):
    s, _ = searcher
    out = s.facet("ray OR data OR index", "role")
    counts = [c for _, c in out]
    assert counts == sorted(counts, reverse=True)
    lim = s.facet("ray OR data OR index", "role", limit=1)
    assert lim == out[:1]


def test_facet_unknown_field_raises(searcher):
    s, _ = searcher
    with pytest.raises(KeyError):
        s.facet("ray", "nonexistent_field")


def test_suggest_prefix(searcher):
    s, _ = searcher
    out = s.suggest("t0", k=5)
    assert out and all(t.startswith("t0") for t, _ in out)
    dfs = [df for _, df in out]
    assert dfs == sorted(dfs, reverse=True)
    # df values are the global docFreq
    from lucene_solr_ray.search.query import TermQuery

    top_term, top_df = out[0]
    assert s.global_df(TermQuery(top_term))[top_term] == top_df


def test_collapse_search(searcher):
    s, _ = searcher
    hits = s.collapse("ray data", k=5)
    assert hits
    convs = [c for _, _, c in hits]
    assert len(set(convs)) == len(convs)  # one head per conversation
    # head score equals max turn score within that conversation
    docs, scores = s.all_hits("ray data")
    dm = s.docmap()
    for doc_id, score, conv in hits:
        mask = np.array([dm[d] == conv for d in docs])
        assert float(score) == float(scores[mask].max())


def test_distributed_facet_matches_local(searcher):
    from lucene_solr_ray.search.actors import DistributedSearcher

    s, _ = searcher
    dist = DistributedSearcher(s.index_dir, num_actors=2)
    try:
        for q in ["ray", "data OR index"]:
            assert dist.facet(q, "role") == s.facet(q, "role"), q
    finally:
        dist.close()


def test_facet_missing_field_docs_omitted(searcher):
    """Docs without the field are omitted from facet counts, not bucketed
    under a literal 'None' (SimpleFacets missing-value semantics)."""
    s, _ = searcher
    full = dict(s.facet("ray", "role"))
    col = s.segment.docvalues.column("role")
    docs_hit, _ = s.all_hits("ray")
    # blank out the field for half the hit docs: a masked take nulls them
    blanked = docs_hit[::2]
    nulled = np.zeros(len(col), dtype=bool)
    nulled[blanked] = True
    s.segment.docvalues.cache["role"] = col.take(
        pa.array(np.arange(len(col)), mask=nulled))
    try:
        got = dict(s.facet("ray", "role"))
    finally:
        s.segment.docvalues.cache.pop("role", None)
    assert "None" not in got
    assert sum(got.values()) == sum(full.values()) - len(blanked)


def test_terms_component(searcher):
    s, src = searcher
    # count order: df desc, value asc ties; all terms carry positive df
    out = s.terms(limit=10)
    assert len(out) == 10
    dfs = [d for _, d in out]
    assert dfs == sorted(dfs, reverse=True)
    # prefix filter
    t0 = s.terms(prefix="t0", limit=50)
    assert t0 and all(t.startswith("t0") for t, _ in t0)
    # regex filter + index order
    rx = s.terms(regex="t0+1.*", limit=20, sort="index")
    assert rx and [t for t, _ in rx] == sorted(t for t, _ in rx)
    # global df equals the sum the suggester computes
    sug = dict(s.suggest("t0", k=5))
    for t, d in s.terms(prefix="t0", limit=5):
        if t in sug:
            assert sug[t] == d


def test_range_facet_semantics(ray_session, tmp_path):
    """Solr facet.range: include=lower buckets, empty buckets kept,
    before/after/between, hardend clamping."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from lucene_solr_ray.pipelines.relational import range_facet

    vals = [-5.0, 0.0, 5.0, 10.0, 10.0, 25.0, 30.0, 42.0]
    ds = rd.from_arrow(pa.table({"v": pa.array(vals, type=pa.float64())}))
    out = (range_facet(ds, "v", start=0, end=30, gap=10)
           .to_pandas().set_index("bucket")["cnt"].to_dict())
    assert out == {"0": 2, "10": 2, "20": 1, "before": 1, "after": 2,
                   "between": 5}

    # hardend: end=25 -> last bucket [20, 25), 25 and beyond are "after"
    ds2 = rd.from_arrow(pa.table({"v": pa.array(
        [0.0, 22.0, 24.9, 25.0, 29.0], type=pa.float64())}))
    out2 = (range_facet(ds2, "v", start=0, end=25, gap=10, hardend=True)
            .to_pandas().set_index("bucket")["cnt"].to_dict())
    assert out2 == {"0": 1, "10": 0, "20": 2, "before": 0, "after": 2,
                    "between": 3}

    # empty bucket emitted with 0 (mincount=0 default)
    ds3 = rd.from_arrow(pa.table({"v": pa.array([5.0], type=pa.float64())}))
    out3 = (range_facet(ds3, "v", start=0, end=30, gap=10)
            .to_pandas().set_index("bucket")["cnt"].to_dict())
    assert out3["10"] == 0 and out3["20"] == 0


def test_pivot_facet_tree(ray_session):
    """Pivot tree: per-level sort (count desc, value asc), limit,
    mincount pruning; counts recompute from raw pandas."""
    import pandas as pd
    import ray.data as rd

    from lucene_solr_ray.pipelines.relational import pivot_facet

    df = pd.DataFrame({
        "a": ["x"] * 5 + ["y"] * 3 + ["z"] * 1,
        "b": ["p", "p", "q", "q", "r", "p", "p", "q", "p"],
    })
    ds = rd.from_pandas(df)
    tree = pivot_facet(ds, ["a", "b"], limits=[2, 1])
    # level 1: x(5), y(3) — z cut by limit 2
    assert [b["value"] for b in tree] == ["x", "y"]
    assert [b["count"] for b in tree] == [5, 3]
    assert all(b["field"] == "a" for b in tree)
    # level 2 under x: p(2)/q(2) tie -> p first; limit 1 keeps only p
    assert [s["value"] for s in tree[0]["pivot"]] == ["p"]
    assert tree[0]["pivot"][0]["count"] == 2
    # mincount prunes
    tree2 = pivot_facet(ds, ["a", "b"], limits=[3, 3], mincount=2)
    assert [b["value"] for b in tree2] == ["x", "y"]  # z (1) pruned
    under_y = [s["value"] for s in tree2[1]["pivot"]]
    assert under_y == ["p"]  # q (1) pruned


def test_facet_prefix_filtering(ray_session, tmp_path_factory):
    """facet.prefix: buckets filtered by value prefix, counts exact."""
    from lucene_solr_ray.data.transcripts import transcripts_path
    from lucene_solr_ray.search.actors import DistributedSearcher
    from lucene_solr_ray.search.searcher import IndexSearcher

    src = transcripts_path("tiny")
    out = tmp_path_factory.mktemp("fpidx") / "idx"
    build_index(src, str(out), num_shards=3)
    s = IndexSearcher(str(out))
    full = dict(s.facet("ray", "tool"))
    pre = s.facet("ray", "tool", prefix="b")
    assert pre and all(v.startswith("b") for v, _ in pre)
    assert dict(pre) == {v: n for v, n in full.items()
                         if v.startswith("b")}
    d = DistributedSearcher(str(out), num_actors=2)
    try:
        assert d.facet("ray", "tool", prefix="b") == pre
    finally:
        d.close()
