"""MultiIndexSearcher (MultiReader.java:43 analog): federated search over
standalone indexes must be bit-equal to the add_indexes-merged index, and
split -> federate must reproduce the original index."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.data.transcripts import generate_transcripts
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.index.update import add_indexes, split_index
from lucene_solr_ray.search.searcher import IndexSearcher, MultiIndexSearcher

QUERIES = ["ray", "data OR index", "ray AND data", '"ray data"',
           "tool AND NOT error"]


def _write(tmp_path, name, n, seed, prefix):
    t = generate_transcripts(n, seed=seed)
    cid = [f"{prefix}-{c}" for c in t.column("conv_id").to_pylist()]
    t = t.set_column(t.schema.get_field_index("conv_id"), "conv_id",
                     pa.array(cid))
    p = tmp_path / f"{name}.parquet"
    pq.write_table(t, p)
    return t, str(p)


@pytest.fixture()
def federation(ray_session, tmp_path):
    ta, pa_ = _write(tmp_path, "a", 110, 5, "aa")
    tb, pb = _write(tmp_path, "b", 80, 6, "bb")
    build_index(pa_, str(tmp_path / "idx_a"), num_shards=2)
    build_index(pb, str(tmp_path / "idx_b"), num_shards=3)
    both = pa.concat_tables([ta, tb])
    pq.write_table(both, tmp_path / "both.parquet")
    build_index(str(tmp_path / "both.parquet"),
                str(tmp_path / "idx_both"), num_shards=2)
    return tmp_path


def test_federated_equals_merged(federation):
    tmp_path = federation
    multi = MultiIndexSearcher([str(tmp_path / "idx_a"),
                                str(tmp_path / "idx_b")])
    # merged reference: addIndexes b onto a copy of a == single build
    single = IndexSearcher(str(tmp_path / "idx_both"))
    assert multi.manifest["stats"] == pytest.approx(
        single.manifest["stats"])
    for q in QUERIES:
        got = multi.search(q, k=10_000)
        want = single.search(q, k=10_000)
        assert got == want, q


def test_federated_sort_and_matchall(federation):
    tmp_path = federation
    multi = MultiIndexSearcher([str(tmp_path / "idx_a"),
                                str(tmp_path / "idx_b")])
    single = IndexSearcher(str(tmp_path / "idx_both"))
    assert (multi.search("*:*", k=10_000)
            == single.search("*:*", k=10_000))
    for sort in ([("turn_idx", True)], [("turn_idx", False)]):
        assert (multi.search("ray", k=50, sort=sort)
                == single.search("ray", k=50, sort=sort))


def test_federated_search_after_pages(federation):
    tmp_path = federation
    multi = MultiIndexSearcher([str(tmp_path / "idx_a"),
                                str(tmp_path / "idx_b")])
    single = IndexSearcher(str(tmp_path / "idx_both"))
    full = single.search("data OR ray", k=10_000)
    paged, cursor = [], None
    while True:
        page, cursor = multi.search_after("data OR ray", k=7,
                                          cursor=cursor)
        paged.extend(page)
        if cursor is None:
            break
    assert paged == full


def test_federated_explain_matches_merged(federation):
    tmp_path = federation
    multi = MultiIndexSearcher([str(tmp_path / "idx_a"),
                                str(tmp_path / "idx_b")])
    single = IndexSearcher(str(tmp_path / "idx_both"))
    hits = single.search("ray AND data", k=5)

    def norm(node):
        # the weight description embeds the SUB-READER-local doc id
        # (Lucene's explain is segment-local too); values must match
        import re
        out = {k: v for k, v in node.items() if k != "details"}
        out["description"] = re.sub(r"in \d+", "in _",
                                    node["description"])
        out["details"] = [norm(c) for c in node.get("details", [])]
        return out

    for d, s in hits:
        e1 = multi.explain("ray AND data", d)
        e2 = single.explain("ray AND data", d)
        assert norm(e1) == norm(e2)
        assert e1["value"] == s


def test_split_then_federate_equals_original(ray_session, tmp_path):
    t = generate_transcripts(240, seed=21)
    pq.write_table(t, tmp_path / "in.parquet")
    build_index(str(tmp_path / "in.parquet"), str(tmp_path / "idx"),
                num_shards=4)
    split_index(str(tmp_path / "idx"), str(tmp_path / "a"),
                str(tmp_path / "b"))
    orig = IndexSearcher(str(tmp_path / "idx"))
    multi = MultiIndexSearcher([str(tmp_path / "a"), str(tmp_path / "b")])
    assert multi.manifest["stats"] == pytest.approx(
        orig.manifest["stats"])
    for q in QUERIES + ["*:*"]:
        assert multi.search(q, k=10_000) == orig.search(q, k=10_000), q


def test_analyzer_mismatch_rejected(ray_session, tmp_path):
    _, pa_ = _write(tmp_path, "a", 30, 7, "aa")
    _, pb = _write(tmp_path, "b", 30, 8, "bb")
    build_index(pa_, str(tmp_path / "idx_a"), num_shards=1)
    build_index(pb, str(tmp_path / "idx_b"), num_shards=1,
                analyzer="simple")
    with pytest.raises(ValueError, match="analyzers must match"):
        MultiIndexSearcher([str(tmp_path / "idx_a"),
                            str(tmp_path / "idx_b")])


def test_federated_offsets_with_differing_layouts(ray_session, tmp_path):
    """Each sub-index reads its offsets sidecar with its own
    docs_per_shard: a 2-shard and an 8-shard index federated return every
    hit's spans as each index alone does."""
    dirs = []
    for name, n, seed, shards in (("a", 40, 5, 2), ("b", 60, 6, 8)):
        _, path = _write(tmp_path, name, n, seed, name * 2)
        dirs.append(str(tmp_path / f"idx_{name}"))
        build_index(path, dirs[-1], num_shards=shards, store_offsets=True)
    multi = MultiIndexSearcher(dirs)
    docs, _ = multi.all_hits("ray OR data")
    base = 0
    for d in dirs:
        alone = IndexSearcher(d)
        n = alone.manifest["stats"]["num_docs"]
        mine = [int(x) for x in docs if base <= x < base + n]
        want = alone.term_offsets([x - base for x in mine])
        got = multi.term_offsets(mine)
        assert len(want) == len(mine) > 0
        assert {x - base: (a.tolist(), b.tolist())
                for x, (a, b) in got.items()} == \
            {x: (a.tolist(), b.tolist()) for x, (a, b) in want.items()}
        base += n
