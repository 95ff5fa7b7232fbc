"""Delete / overwrite-by-id (IndexWriter.deleteDocuments / updateDocument),
update-input order validation, and resume plan persistence."""

import json
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.data.transcripts import generate_transcripts
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.index.check import check_index
from lucene_solr_ray.index.update import (
    delete_documents,
    read_deletes,
    update_index,
)
from lucene_solr_ray.search.searcher import IndexSearcher


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("del")
    table = generate_transcripts(100, seed=21)
    pq.write_table(table, root / "src.parquet")
    idx = root / "idx"
    build_index(str(root / "src.parquet"), str(idx), num_shards=3)
    return str(root / "src.parquet"), str(idx)


def _copy_index(idx, tmp_path, name):
    import shutil

    dst = tmp_path / name
    shutil.copytree(idx, dst)
    return str(dst)


def test_delete_by_id_unreachable(built, tmp_path):
    src, idx0 = built
    idx = _copy_index(idx0, tmp_path, "d1")
    s = IndexSearcher(idx)
    hits = s.search("ray", k=5)
    assert hits
    victim = hits[0][0]
    r = delete_documents(idx, doc_ids=[victim])
    assert victim in r["deleted_now"]
    s2 = IndexSearcher(idx)
    for q in ["ray", '"ray data"', "ray OR data", "+ray -error", "/ra./"]:
        assert victim not in [d for d, _ in s2.search(q, k=100)], q
    # remaining ranking = old ranking minus the victim (stats unchanged
    # until merge, Lucene maxDoc/numDocs semantics)
    rest_old = [(d, float(sc)) for d, sc in s.search("ray", k=100)
                if d != victim]
    rest_new = [(d, float(sc)) for d, sc in s2.search("ray", k=100)]
    n = min(len(rest_old), len(rest_new))
    assert rest_new[:n] == rest_old[:n]
    assert check_index(idx)["status"] == "ok"


def test_delete_by_key(built, tmp_path):
    src, idx0 = built
    idx = _copy_index(idx0, tmp_path, "d2")
    s = IndexSearcher(idx)
    victim = s.search("data", k=1)[0][0]
    rows = s.resolve_hits([(victim, 0.0)])
    key = (rows[0]["conv_id"], rows[0]["turn_idx"])
    delete_documents(idx, keys=[key])
    assert victim in read_deletes(idx)
    s2 = IndexSearcher(idx)
    assert victim not in [d for d, _ in s2.search("data", k=100)]


def test_delete_is_idempotent(built, tmp_path):
    src, idx0 = built
    idx = _copy_index(idx0, tmp_path, "d3")
    r1 = delete_documents(idx, doc_ids=[3, 4])
    r2 = delete_documents(idx, doc_ids=[4, 5])
    assert r2["deleted_now"] == [5]
    assert r2["total_deleted"] == 3
    v = json.loads((Path(idx) / "manifest.json").read_text())
    assert v["deleted_count"] == 3 and v["version"] == 3


def test_overwrite_replaces_document(built, tmp_path):
    src, idx0 = built
    idx = _copy_index(idx0, tmp_path, "ow")
    s = IndexSearcher(idx)
    victim = s.search("ray", k=1)[0][0]
    rows = s.resolve_hits([(victim, 0.0)])
    conv_id, turn_idx = rows[0]["conv_id"], rows[0]["turn_idx"]
    # replacement doc: same key, a unique marker token
    upd = pa.table({
        "conv_id": pa.array([conv_id]),
        "turn_idx": pa.array([turn_idx], type=pa.int32()),
        "text": pa.array(["zzreplacement marker text"]),
    })
    pq.write_table(upd, tmp_path / "upd.parquet")
    m = update_index(idx, str(tmp_path / "upd.parquet"), overwrite=True)
    assert m["version"] >= 2
    s2 = IndexSearcher(idx)
    # new version reachable under the new token, old doc_id tombstoned
    new_hits = s2.search("zzreplacement", k=5)
    assert len(new_hits) == 1
    new_doc = new_hits[0][0]
    assert new_doc != victim
    assert victim in read_deletes(idx)
    for q in ["ray", '"ray data"']:
        assert victim not in [d for d, _ in s2.search(q, k=1000)], q
    # the key resolves to the new doc going forward
    res = s2.resolve_hits(new_hits)
    assert (res[0]["conv_id"], res[0]["turn_idx"]) == (conv_id, turn_idx)


def test_update_rejects_unsorted_input(built, tmp_path, index_digest):
    src, idx0 = built
    idx = _copy_index(idx0, tmp_path, "uns")
    # later-keyed rows but shuffled order
    upd = pa.table({
        "conv_id": pa.array(["zz-2", "zz-1", "zz-3"]),
        "turn_idx": pa.array([0, 0, 0], type=pa.int32()),
        "text": pa.array(["a b", "c d", "e f"]),
    })
    pq.write_table(upd, tmp_path / "uns.parquet")
    before = index_digest(idx)
    with pytest.raises(ValueError, match="sorted|order"):
        update_index(idx, str(tmp_path / "uns.parquet"))
    assert index_digest(idx) == before
    assert not list(Path(idx).glob("runs_update_*"))


def test_resume_reuses_persisted_plan(ray_session, tmp_path):
    """Markers written under one task plan must not be trusted under a
    replanned layout: resume at a different concurrency reuses the
    persisted plan and yields a build identical to a fresh one."""
    table = generate_transcripts(80, seed=31)
    pq.write_table(table, tmp_path / "src.parquet")
    a = tmp_path / "a"
    b = tmp_path / "b"
    build_index(str(tmp_path / "src.parquet"), str(a), num_shards=3)
    # simulate a partially-complete build: keep runs + markers, then
    # resume with a very different concurrency (different would-be plan)
    build_index(str(tmp_path / "src.parquet"), str(b), num_shards=3,
                concurrency=2, keep_runs=True)
    plan1 = json.loads((b / "_BUILD_PARAMS.json").read_text())
    assert plan1.get("tasks")  # full task plan persisted
    m2 = build_index(str(tmp_path / "src.parquet"), str(b), num_shards=3,
                     concurrency=13, resume=True)
    plan2 = json.loads((b / "_BUILD_PARAMS.json").read_text())
    assert plan2["tasks"] == plan1["tasks"]  # persisted plan reused
    sa, sb = IndexSearcher(str(a)), IndexSearcher(str(b))
    for q in ["ray", "data index", '"ray data"']:
        assert [(d, float(s)) for d, s in sa.search(q, k=10)] == \
            [(d, float(s)) for d, s in sb.search(q, k=10)], q
    assert check_index(str(b))["status"] == "ok"
