"""split_index (SPLITSHARD, SolrIndexSplitter.java:63): each half must be
search- and stats-identical to a from-scratch build of its doc range, and
split -> addIndexes must round-trip to the original."""

import json

import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.data.transcripts import generate_transcripts
from lucene_solr_ray.index.build import build_index, read_manifest
from lucene_solr_ray.index.check import check_index
from lucene_solr_ray.index.update import (
    add_indexes,
    delete_documents,
    split_index,
)
from lucene_solr_ray.search.searcher import IndexSearcher

QUERIES = ["ray", "data OR index", "ray AND data", '"ray data"', "tool"]


@pytest.fixture()
def built(ray_session, tmp_path):
    t = generate_transcripts(260, seed=17)
    src = tmp_path / "in.parquet"
    pq.write_table(t, src)
    build_index(str(src), str(tmp_path / "idx"), num_shards=4)
    return tmp_path, t


def test_split_matches_rebuild_of_each_half(built):
    tmp_path, t = built
    r = split_index(str(tmp_path / "idx"), str(tmp_path / "a"),
                    str(tmp_path / "b"))
    sd = r["split_doc"]
    assert r["a"]["num_docs"] + r["b"]["num_docs"] == t.num_rows
    assert check_index(str(tmp_path / "a"))["status"] == "ok"
    assert check_index(str(tmp_path / "b"))["status"] == "ok"

    pq.write_table(t.slice(0, sd), tmp_path / "in_a.parquet")
    pq.write_table(t.slice(sd), tmp_path / "in_b.parquet")
    build_index(str(tmp_path / "in_a.parquet"), str(tmp_path / "ra"),
                num_shards=2)
    build_index(str(tmp_path / "in_b.parquet"), str(tmp_path / "rb"),
                num_shards=2)
    for side, rebuilt in (("a", "ra"), ("b", "rb")):
        sp = IndexSearcher(str(tmp_path / side))
        rb = IndexSearcher(str(tmp_path / rebuilt))
        assert sp.manifest["stats"] == rb.manifest["stats"], side
        for q in QUERIES:
            assert sp.search(q, k=10_000) == rb.search(q, k=10_000), \
                (side, q)


def test_split_addindexes_roundtrip(built):
    tmp_path, t = built
    split_index(str(tmp_path / "idx"), str(tmp_path / "a"),
                str(tmp_path / "b"))
    r = add_indexes(str(tmp_path / "a"), str(tmp_path / "b"))
    assert r["num_docs"] == t.num_rows
    assert check_index(str(tmp_path / "a"))["status"] == "ok"
    orig = IndexSearcher(str(tmp_path / "idx"))
    back = IndexSearcher(str(tmp_path / "a"))
    assert back.manifest["stats"] == pytest.approx(orig.manifest["stats"])
    for q in QUERIES:
        assert back.search(q, k=10_000) == orig.search(q, k=10_000), q


def test_split_partitions_tombstones(built):
    tmp_path, t = built
    m = read_manifest(str(tmp_path / "idx"))
    dps = m["params"]["docs_per_shard"]
    # tombstone one doc per side of the default middle boundary
    sd = dps * (len(m["shards"]) // 2)
    delete_documents(str(tmp_path / "idx"), doc_ids=[3, sd + 5])
    r = split_index(str(tmp_path / "idx"), str(tmp_path / "a"),
                    str(tmp_path / "b"))
    assert r["a"]["deleted"] == 1 and r["b"]["deleted"] == 1
    a_dels = json.loads(
        (tmp_path / "a" / "_DELETES.json").read_text())["doc_ids"]
    b_dels = json.loads(
        (tmp_path / "b" / "_DELETES.json").read_text())["doc_ids"]
    assert a_dels == [3]
    assert b_dels == [5]  # shifted by split_doc
    # deleted docs are unreachable on both sides
    for side in ("a", "b"):
        s = IndexSearcher(str(tmp_path / side))
        hit_ids = {d for d, _ in s.search("ray OR data OR the", k=10_000)}
        dead = 3 if side == "a" else 5
        assert dead not in hit_ids


def test_split_rejects_unaligned_and_existing(built):
    tmp_path, _ = built
    with pytest.raises(ValueError, match="multiple of docs_per_shard"):
        split_index(str(tmp_path / "idx"), str(tmp_path / "x"),
                    str(tmp_path / "y"), split_doc=7)
    split_index(str(tmp_path / "idx"), str(tmp_path / "a"),
                str(tmp_path / "b"))
    with pytest.raises(ValueError, match="already holds an index"):
        split_index(str(tmp_path / "idx"), str(tmp_path / "a"),
                    str(tmp_path / "z"))


def test_split_at_each_boundary(built):
    tmp_path, t = built
    m = read_manifest(str(tmp_path / "idx"))
    dps = m["params"]["docs_per_shard"]
    n_shards = len(m["shards"])
    for k in (1, n_shards - 1):
        r = split_index(str(tmp_path / "idx"),
                        str(tmp_path / f"a{k}"), str(tmp_path / f"b{k}"),
                        split_doc=k * dps)
        assert r["split_doc"] == k * dps
        assert check_index(str(tmp_path / f"a{k}"))["status"] == "ok"
        assert check_index(str(tmp_path / f"b{k}"))["status"] == "ok"
        na = json.loads((tmp_path / f"a{k}" / "manifest.json")
                        .read_text())["stats"]["num_docs"]
        assert na == k * dps


def _offsets(s, doc_ids):
    return {d: (a.tolist(), b.tolist())
            for d, (a, b) in s.term_offsets(doc_ids).items()}


def test_split_carries_offsets_sidecar(ray_session, tmp_path):
    """Each side keeps the offsets sidecar of its docs (side B's doc ids
    shifted, its shards renumbered), in 32-row groups: the federation of
    the halves returns every hit's spans as the original index does."""
    from lucene_solr_ray.search.searcher import MultiIndexSearcher

    pq.write_table(generate_transcripts(120, seed=17),
                   tmp_path / "in.parquet")
    build_index(str(tmp_path / "in.parquet"), str(tmp_path / "idx"),
                num_shards=4, store_offsets=True)
    split_index(str(tmp_path / "idx"), str(tmp_path / "a"),
                str(tmp_path / "b"))
    orig = IndexSearcher(str(tmp_path / "idx"))
    multi = MultiIndexSearcher([str(tmp_path / "a"), str(tmp_path / "b")])
    docs = orig.all_hits("ray OR data")[0].tolist()
    want = _offsets(orig, docs)
    assert len(want) == len(docs) > 0
    assert _offsets(multi, docs) == want
    for side in ("a", "b"):
        files = list((tmp_path / side / "offsets").rglob("*.parquet"))
        assert files, side
        for f in files:
            md = pq.ParquetFile(f).metadata
            assert all(md.row_group(i).num_rows <= 32
                       for i in range(md.num_row_groups)), f
