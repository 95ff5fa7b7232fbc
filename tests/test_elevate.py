"""QueryElevationComponent: editorial pinning, exclusion, forceElevation,
exclusive, markExcludes — over a real built index."""

import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.data.transcripts import transcripts_path
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.search.elevate import ElevationConfig, elevated_search
from lucene_solr_ray.search.searcher import IndexSearcher


@pytest.fixture(scope="module")
def s(ray_session, tmp_path_factory):
    out = tmp_path_factory.mktemp("elev") / "idx"
    build_index(transcripts_path("tiny"), str(out), num_shards=2)
    return IndexSearcher(str(out))


def _organic(s, q, k=10):
    return [int(d) for d, _ in s.search(q, k=k)]


def test_elevation_pins_config_order(s):
    org = _organic(s, "ray data")
    assert len(org) >= 4
    # elevate two low-ranked organic hits, in a chosen order
    cfg = ElevationConfig({"ray data": {"elevate": [org[3], org[1]]}})
    got = elevated_search(s, "ray data", cfg, k=6)
    assert [r["doc_id"] for r in got[:2]] == [org[3], org[1]]
    assert got[0]["elevated"] and got[1]["elevated"]
    # organic remainder keeps score order, elevated ids deduped
    rest = [r["doc_id"] for r in got[2:]]
    assert rest == [d for d in org if d not in (org[3], org[1])][:4]


def test_analyzed_query_key(s):
    org = _organic(s, "ray data")
    cfg = ElevationConfig({"RAY   Data": {"elevate": [org[2]]}})
    got = elevated_search(s, "ray data", cfg, k=3)
    assert got[0]["doc_id"] == org[2] and got[0]["elevated"]


def test_exclusion_and_mark(s):
    org = _organic(s, "ray data")
    cfg = ElevationConfig({"ray data": {"elevate": [org[2]],
                                        "exclude": [org[0]]}})
    got = elevated_search(s, "ray data", cfg, k=8)
    ids = [r["doc_id"] for r in got]
    assert org[0] not in ids
    marked = elevated_search(s, "ray data", cfg, k=8, mark_excludes=True)
    row = next(r for r in marked if r["doc_id"] == org[0])
    assert row.get("excluded") is True


def test_force_elevation_injects_nonmatching(s):
    # a doc that does NOT match the query (from an unrelated query)
    other = _organic(s, "tool")
    org = _organic(s, "ray data")
    alien = next(d for d in other if d not in org)
    cfg = ElevationConfig({"ray data": {"elevate": [alien]}})
    got = elevated_search(s, "ray data", cfg, k=5)
    assert alien not in [r["doc_id"] for r in got]   # not forced
    forced = elevated_search(s, "ray data", cfg, k=5,
                             force_elevation=True)
    assert forced[0]["doc_id"] == alien and forced[0]["elevated"]


def test_exclusive_returns_only_elevated(s):
    org = _organic(s, "ray data")
    cfg = ElevationConfig({"ray data": {"elevate": [org[2], org[0]]}})
    got = elevated_search(s, "ray data", cfg, k=10, exclusive=True)
    assert [r["doc_id"] for r in got] == [org[2], org[0]]


def test_unconfigured_query_passthrough(s):
    org = _organic(s, "ray data", k=5)
    cfg = ElevationConfig({"other query": {"elevate": [1]}})
    got = elevated_search(s, "ray data", cfg, k=5)
    assert [r["doc_id"] for r in got] == org
    assert not any(r["elevated"] for r in got)


def test_pins_in_config_order_and_excludes(s):
    """Pinned docs first in config order, the organic rest in BM25 order
    minus the pinned docs; an excluded doc is removed entirely."""
    base = _organic(s, "ray")
    assert len(base) >= 3
    pin = [base[5] if len(base) > 5 else base[-1], base[2]]
    out = elevated_search(s, "ray", ElevationConfig({"ray": {"elevate": pin}}),
                          k=10)
    assert [r["doc_id"] for r in out[:2]] == pin
    rest = [r["doc_id"] for r in out[2:]]
    assert rest == [d for d in base if d not in pin][:len(rest)]
    cfg = ElevationConfig({"ray": {"elevate": pin[:1], "exclude": [pin[1]]}})
    out2 = elevated_search(s, "ray", cfg, k=10)
    assert pin[1] not in [r["doc_id"] for r in out2]
    assert out2[0]["doc_id"] == pin[0]


def test_deep_ranked_match_is_pinned_with_its_score(s):
    """An elevated doc that matches but ranks far below the over-fetch
    depth is still pinned, with its real score; only non-matching docs
    need forceElevation (and get score 0)."""
    full = s.search("ray data", k=10**6)
    deep, deep_score = full[-1]
    assert len(full) > 10
    cfg = ElevationConfig({"ray data": {"elevate": [int(deep)]}})
    got = elevated_search(s, "ray data", cfg, k=3)
    assert got[0] == {"doc_id": int(deep), "score": float(deep_score),
                      "elevated": True}
    assert [r["doc_id"] for r in got[1:]] == \
        [int(d) for d, _ in full[:2]]
    alien = next(d for d in _organic(s, "tool", k=10**6)
                 if d not in {int(x) for x, _ in full})
    cfg = ElevationConfig({"ray data": {"elevate": [alien]}})
    assert alien not in [r["doc_id"] for r in
                         elevated_search(s, "ray data", cfg, k=3)]
    forced = elevated_search(s, "ray data", cfg, k=3, force_elevation=True)
    assert forced[0] == {"doc_id": alien, "score": 0.0, "elevated": True}
