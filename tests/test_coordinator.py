"""One coordinator, three group layouts: the in-process searcher, a
2-actor pool and a federation of the split halves answer every query
method identically over the same data."""

import re
from datetime import datetime

import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.data.transcripts import generate_transcripts
from lucene_solr_ray.index.build import build_index, read_manifest
from lucene_solr_ray.index import segment, update
from lucene_solr_ray.index.update import delete_documents, split_index
from lucene_solr_ray.search.actors import (DistributedSearcher,
                                           SearchCoordinator)
from lucene_solr_ray.search.features import index_stats
from lucene_solr_ray.search.searcher import (IndexSearcher,
                                             MultiIndexSearcher,
                                             ShardSearcher)

QUERIES = ["ray", "data OR index", "ray AND data", '"ray data"',
           "tool AND NOT error", "the"]


@pytest.fixture(scope="module")
def searchers(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("coord")
    pq.write_table(generate_transcripts(240, seed=21), base / "in.parquet")
    build_index(str(base / "in.parquet"), str(base / "idx"), num_shards=4,
                store_offsets=True)
    split_index(str(base / "idx"), str(base / "a"), str(base / "b"))
    dist = DistributedSearcher(str(base / "idx"), num_actors=2)
    yield {"local": IndexSearcher(str(base / "idx")), "actors": dist,
           "federated": MultiIndexSearcher([str(base / "a"),
                                            str(base / "b")])}
    dist.close()


def _pages(s, q):
    out, cursor = [], None
    while True:
        hits, cursor = s.search_after(q, k=7, cursor=cursor)
        out.append(hits)
        if cursor is None:
            return out


def _explain(s, q):
    def norm(node):
        # weight descriptions name the sub-index doc id (Lucene's explain
        # is segment-local too); every value must match
        return {**node, "description": re.sub(r"in \d+", "in _",
                                              node["description"]),
                "details": [norm(c) for c in node.get("details", [])]}

    return [norm(s.explain(q, d)) for d, _ in s.search(q, k=5)] + \
        [s.explain(q, 0)]


def _offsets(s, doc_ids):
    return {d: (a.tolist(), b.tolist())
            for d, (a, b) in s.term_offsets(doc_ids).items()}


OPS = {
    "search": lambda s, q: s.search(q, k=15),
    "search_after": _pages,
    "explain": _explain,
    "hit_count": lambda s, q: s.hit_count(q),
    "facet": lambda s, q: s.facet(q, "role"),
    # turn_idx labels are numbers written as strings; tool is "" on
    # non-tool turns
    "facet_number_and_empty": lambda s, q: [
        s.facet(q, f) for f in ("turn_idx", "tool")],
    "field_stats": lambda s, q: s.field_stats(q, "turn_idx"),
    "collapse": lambda s, q: s.collapse(q, k=6),
    "search_conversations": lambda s, q: [
        s.search_conversations(q, k=6, score_mode=m)
        for m in ("max", "total")],
    "boosted_search": lambda s, q: [
        s.boosted_search(q, expr, k=8) for expr in
        ("recip(turn_idx,1,10,10)", "sum(1,termfreq(ray))",
         "sum(ord(turn_idx),norm(text))")],
    "boosted_ord": lambda s, q: [
        s.boosted_search(q, expr, k=8) for expr in
        ("ord(role)", "rord(role)", "sum(ord(role),rord(turn_idx))")],
    # tool is "" on non-tool turns; no_such_field is missing on every doc
    "field_sort": lambda s, q: [
        s.search(q, k=15, sort=srt) for srt in
        ([("turn_idx", True)], [("role", False), ("turn_idx", True)],
         [("tool", False)], [("tool", True)], [("no_such_field", False)])],
    "field_sort_string_time": lambda s, q: [
        s.search(q, k=15, sort=srt) for srt in
        ([("conv_id", False)], [("conv_id", True)], [("ts", False)],
         [("ts", True)], [("conv_id", True), ("ts", False)])],
    # a string range and a date range (datetime bounds), open and closed
    "filter_range": lambda s, q: [
        s.search(q, k=15, filter_range=fr) for fr in
        ({"conv_id": ("conv-00000040", "conv-00000180")},
         {"conv_id": (None, "conv-00000100")},
         {"ts": (datetime(2026, 1, 1, 2), datetime(2026, 1, 1, 6))},
         {"ts": (datetime(2026, 1, 1, 4), None),
          "conv_id": ("conv-00000050", None)})],
    "rerank": lambda s, q: s.rerank(q, "data", k=8, top_n=20),
    "term_vectors": lambda s, q: s.term_vectors(
        [d for d, _ in s.search(q, k=5)]),
    "expand": lambda s, q: s.expand(q, s.collapse(q, k=6), per_group=3),
    "range_facet": lambda s, q: s.range_facet(q, "turn_idx", 0, 12, 4),
    "facet_query": lambda s, q: s.facet_query([q, "data", "ray AND tool"]),
    "all_hits": lambda s, q: [a.tolist() for a in s.all_hits(q)],
    "resolve_hits": lambda s, q: s.resolve_hits(s.search(q, k=15)),
    # every value with its Python type; no_such_field is None
    "docvalues": lambda s, q: [
        None if (v := s.docvalues(f)) is None else
        [(x, type(x)) for x in v] for f in
        ("conv_id", "turn_idx", "role", "ts", "tool", "no_such_field")],
    "docmap": lambda s, q: s.docmap().tolist(),
    "term_offsets": lambda s, q: _offsets(s, [d for d, _ in
                                              s.search(q, k=5)]),
}


@pytest.mark.parametrize("op", sorted(OPS))
def test_backends_agree(searchers, op):
    for q in QUERIES:
        got = {name: OPS[op](s, q) for name, s in searchers.items()}
        assert got["actors"] == got["local"], (op, q)
        assert got["federated"] == got["local"], (op, q)


def test_coordinator_reads_no_index_files(searchers, monkeypatch):
    """Per-doc reads are group calls: with the driver's Parquet readers
    and tombstone reader broken, the actor pool still answers (its
    actors are other processes)."""
    dist, local = searchers["actors"], searchers["local"]

    def refuse(*args, **kwargs):
        raise AssertionError("the coordinator read an index file")

    for mod, name in ((pads, "dataset"), (pq, "ParquetFile"),
                      (pq, "read_table"), (update, "read_deletes"),
                      (segment, "read_deletes")):
        monkeypatch.setattr(mod, name, refuse)
    hits = dist.search("ray", k=10)
    assert len(dist.resolve_hits(hits)) == len(hits)
    assert len(dist.term_offsets([d for d, _ in hits])) == len(hits)
    assert len(dist.docvalues("turn_idx")) == \
        dist.manifest["stats"]["num_docs"]
    assert dist.boosted_search("ray", "numdocs()", k=5) == \
        local.boosted_search("ray", "numdocs()", k=5)


def test_groups_read_no_collection_statistics(searchers):
    """The collection statistics ship with each query: a group opened on
    a manifest whose ``stats`` holds only maxDoc scores, explains and
    batches exactly like ``IndexSearcher``."""
    local = searchers["local"]
    m = read_manifest(local.index_dir)
    group = ShardSearcher(local.index_dir,
                          [r["shard_id"] for r in m["shards"]],
                          {**m, "stats": {"num_docs": m["stats"]["num_docs"]}})
    coord = SearchCoordinator(m, [group])
    for q in QUERIES:
        assert coord.search(q, k=15) == local.search(q, k=15), q
        assert _explain(coord, q) == _explain(local, q), q
    assert coord.search_batch(QUERIES, k=15) == \
        local.search_batch(QUERIES, k=15)


def test_numdocs_counts_tombstones_as_of_open(ray_session, tmp_path):
    """numdocs() is maxdoc minus the tombstones the groups loaded at open,
    alike on every layout; a later delete leaves an open searcher's
    count alone, like its live-docs masks."""
    pq.write_table(generate_transcripts(60, seed=5), tmp_path / "in.parquet")
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "in.parquet"), idx, num_shards=4)
    delete_documents(idx, doc_ids=[3])
    split_index(idx, str(tmp_path / "a"), str(tmp_path / "b"))
    dist = DistributedSearcher(idx, num_actors=2)
    try:
        layouts = [IndexSearcher(idx), dist, MultiIndexSearcher(
            [str(tmp_path / "a"), str(tmp_path / "b")])]
        max_doc = layouts[0].manifest["stats"]["num_docs"]
        delete_documents(idx, doc_ids=[4])
        for s in layouts:
            st = index_stats(s, set())
            assert (st["maxdoc"], st["numdocs"]) == (max_doc, max_doc - 1)
    finally:
        dist.close()
