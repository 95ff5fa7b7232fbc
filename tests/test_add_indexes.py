"""addIndexes: concatenate prebuilt indexes (IndexWriter.java:2680).

The composed index must be search-identical to one built over the
concatenated corpus in a single pass."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.data.transcripts import generate_transcripts
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.index.check import check_index
from lucene_solr_ray.index.update import add_indexes, delete_documents
from lucene_solr_ray.search.searcher import IndexSearcher


def _write(tmp_path, name, n, seed, prefix):
    t = generate_transcripts(n, seed=seed)
    cid = [f"{prefix}-{c}" for c in t.column("conv_id").to_pylist()]
    t = t.set_column(t.schema.get_field_index("conv_id"), "conv_id",
                     pa.array(cid))
    p = tmp_path / f"{name}.parquet"
    pq.write_table(t, p)
    return t, str(p)


@pytest.fixture()
def pair(ray_session, tmp_path):
    ta, pa_ = _write(tmp_path, "a", 120, 3, "aa")
    tb, pb = _write(tmp_path, "b", 90, 4, "bb")
    build_index(pa_, str(tmp_path / "idx_a"), num_shards=2)
    build_index(pb, str(tmp_path / "idx_b"), num_shards=2)
    # the single-pass reference: both corpora in one build, in the same
    # concatenation order (a then b)
    both = pa.concat_tables([ta, tb])
    pq.write_table(both, tmp_path / "both.parquet")
    # 'aa-*' sorts before 'bb-*', so the concatenation is already in
    # the global (conv_id, turn_idx) order — doc ids line up exactly
    build_index(str(tmp_path / "both.parquet"),
                str(tmp_path / "idx_both"), num_shards=2)
    return tmp_path


def test_add_indexes_matches_single_pass(pair):
    tmp_path = pair
    r = add_indexes(str(tmp_path / "idx_a"), str(tmp_path / "idx_b"))
    assert r["added_docs"] > 0
    assert check_index(str(tmp_path / "idx_a"))["status"] == "ok"

    merged = IndexSearcher(str(tmp_path / "idx_a"))
    single = IndexSearcher(str(tmp_path / "idx_both"))
    assert merged.manifest["stats"] == pytest.approx(
        single.manifest["stats"])
    for q in ["ray", "data OR index", "ray AND data", '"ray data"']:
        got = merged.search(q, k=10_000)
        want = single.search(q, k=10_000)
        assert got == want, q


def test_add_indexes_shifts_tombstones(pair):
    tmp_path = pair
    delete_documents(str(tmp_path / "idx_b"), doc_ids=[0, 1])
    base = IndexSearcher(str(tmp_path / "idx_a")).manifest[
        "stats"]["num_docs"]
    add_indexes(str(tmp_path / "idx_a"), str(tmp_path / "idx_b"))
    from lucene_solr_ray.index.update import read_deletes

    dels = read_deletes(str(tmp_path / "idx_a"))
    assert dels == {base + 0, base + 1}
    # the shifted tombstones are live-doc-masked in the merged searcher
    s = IndexSearcher(str(tmp_path / "idx_a"))
    all_hits = {d for d, _ in s.search("ray OR data OR index", k=10**6)}
    assert not (dels & all_hits)


def test_add_indexes_layouts_may_differ_but_analyzers_must_match(pair):
    tmp_path = pair
    src = tmp_path / "b.parquet"
    # a different shard layout composes fine (source layout only drives
    # decoding; placement uses the destination's)
    build_index(str(src), str(tmp_path / "idx_c"), num_shards=2,
                docs_per_shard=7)
    r = add_indexes(str(tmp_path / "idx_a"), str(tmp_path / "idx_c"))
    assert r["added_docs"] > 0
    assert check_index(str(tmp_path / "idx_a"))["status"] == "ok"
    # incompatible analysis chains are rejected
    build_index(str(src), str(tmp_path / "idx_d"), num_shards=2,
                analyzer="standard_nostop")
    with pytest.raises(ValueError, match="analyzer"):
        add_indexes(str(tmp_path / "idx_a"), str(tmp_path / "idx_d"))


def test_add_indexes_extends_lineage(ray_session, tmp_path):
    """The source's lineage rows follow the destination's, shifted by its
    num_docs, so lineage covers [0, num_docs) once and in order."""
    import json

    import pyarrow.compute as pc

    t = generate_transcripts(300, seed=4)
    conv = t.column("conv_id")
    cut = sorted(set(conv.to_pylist()))[150]
    for name, half in (("a", t.filter(pc.less(conv, cut))),
                       ("b", t.filter(pc.greater_equal(conv, cut)))):
        pq.write_table(half, tmp_path / f"{name}.parquet")
        build_index(str(tmp_path / f"{name}.parquet"),
                    str(tmp_path / f"idx_{name}"), num_shards=4)

    def manifest(name):
        return json.loads((tmp_path / f"idx_{name}" /
                           "manifest.json").read_text())

    dst, src = manifest("a"), manifest("b")
    base = dst["stats"]["num_docs"]
    add_indexes(str(tmp_path / "idx_a"), str(tmp_path / "idx_b"))
    out = manifest("a")
    assert out["stats"]["num_docs"] == base + src["stats"]["num_docs"]
    assert out["lineage"] == dst["lineage"] + [
        {**e, "doc_lo": e["doc_lo"] + base, "doc_hi": e["doc_hi"] + base}
        for e in src["lineage"]]
    spans = [(e["doc_lo"], e["doc_hi"]) for e in out["lineage"]]
    assert spans[0][0] == 0 and spans[-1][1] == out["stats"]["num_docs"]
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    assert check_index(str(tmp_path / "idx_a"))["status"] == "ok"


def _offsets(s, doc_ids):
    return {d: (a.tolist(), b.tolist())
            for d, (a, b) in s.term_offsets(doc_ids).items()}


def test_add_indexes_carries_offsets_sidecar(ray_session, tmp_path,
                                             index_digest):
    """The source's offsets rows append shifted by the destination's
    num_docs and placed by the destination's docs_per_shard: every hit
    has the spans a single build of the same rows stores. A destination
    that stores offsets rejects a source without them, untouched."""
    ta, pa_ = _write(tmp_path, "a", 60, 3, "aa")
    tb, pb = _write(tmp_path, "b", 50, 4, "bb")
    build_index(pa_, str(tmp_path / "idx_a"), num_shards=2,
                store_offsets=True)
    build_index(pb, str(tmp_path / "idx_b"), num_shards=2,
                docs_per_shard=23, store_offsets=True)
    build_index(pb, str(tmp_path / "idx_plain"), num_shards=2)
    pq.write_table(pa.concat_tables([ta, tb]), tmp_path / "both.parquet")
    build_index(str(tmp_path / "both.parquet"), str(tmp_path / "idx_both"),
                num_shards=2, store_offsets=True)

    before = index_digest(tmp_path / "idx_a")
    with pytest.raises(ValueError, match="offsets"):
        add_indexes(str(tmp_path / "idx_a"), str(tmp_path / "idx_plain"))
    assert index_digest(tmp_path / "idx_a") == before

    add_indexes(str(tmp_path / "idx_a"), str(tmp_path / "idx_b"))
    merged = IndexSearcher(str(tmp_path / "idx_a"))
    single = IndexSearcher(str(tmp_path / "idx_both"))
    docs = single.all_hits("ray OR data")[0].tolist()
    want = _offsets(single, docs)
    assert len(want) == len(docs) > 0
    assert _offsets(merged, docs) == want
