"""The coordinator's term-statistics table: global df/ttf equal the sum of
the shards' terms.parquet (and the oracle on a fresh build) on every
searcher kind and after every index writer, and a query batch costs one
group call."""

import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.data.transcripts import generate_transcripts
from lucene_solr_ray.index.build import build_index, read_manifest
from lucene_solr_ray.index.update import (
    add_indexes,
    delete_documents,
    expunge_deletes,
    split_index,
    update_index,
)
from lucene_solr_ray.search.actors import (
    DistributedSearcher,
    IndexSearcher,
    MultiIndexSearcher,
)
from lucene_solr_ray.search.oracle import OracleIndex
from lucene_solr_ray.search.query import TermQuery

STATES = ("built", "updated", "deleted", "expunged", "split", "added")


def _disk_stats(dirs) -> tuple[dict, dict]:
    """(df, ttf) summed over the terms.parquet of every manifest shard."""
    df, ttf = {}, {}
    for d in dirs:
        for sh in read_manifest(str(d))["shards"]:
            p = f"{d}/shards/shard={sh['shard_id']:05d}/terms.parquet"
            try:
                t = pq.read_table(p, columns=["term", "df", "ttf"])
            except FileNotFoundError:
                continue
            for term, n, m in zip(*(t.column(c).to_pylist()
                                    for c in ("term", "df", "ttf"))):
                df[term] = df.get(term, 0) + n
                ttf[term] = ttf.get(term, 0) + m
    return df, ttf


def _copy(src, dst):
    shutil.copytree(src, dst)
    return str(dst)


@pytest.fixture(scope="module")
def states(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("term_stats")
    t = generate_transcripts(240, seed=11)
    pq.write_table(t, base / "src.parquet")
    built = str(base / "built")
    build_index(str(base / "src.parquet"), built, num_shards=4)

    extra = pa.table({
        "conv_id": ["zzz-new-conv"] * 2, "turn_idx": [0, 1],
        "role": ["user", "assistant"],
        "text": ["freshterm appears here", "ray data freshterm again"],
        "tool": ["", ""],
        "ts": pa.array([t.column("ts")[0].as_py()] * 2,
                       type=t.schema.field("ts").type),
    })
    pq.write_table(extra, base / "inc.parquet")
    updated = _copy(built, base / "updated")
    update_index(updated, str(base / "inc.parquet"))

    deleted = _copy(updated, base / "deleted")
    delete_documents(deleted, doc_ids=[0, 1, 2, 100, 239])
    expunged = _copy(deleted, base / "expunged")
    expunge_deletes(expunged)

    split_index(built, str(base / "a"), str(base / "b"))

    other = generate_transcripts(90, seed=12)
    other = other.set_column(
        other.schema.get_field_index("conv_id"), "conv_id",
        pa.array([f"zz-{c}" for c in other.column("conv_id").to_pylist()]))
    pq.write_table(other, base / "other.parquet")
    build_index(str(base / "other.parquet"), str(base / "other"),
                num_shards=2)
    added = _copy(built, base / "added")
    add_indexes(added, str(base / "other"))

    return {"built": [built], "updated": [updated], "deleted": [deleted],
            "expunged": [expunged],
            "split": [str(base / "a"), str(base / "b")],
            "added": [added], "_table": t}


def _check(searcher, dirs):
    want_df, want_ttf = _disk_stats(dirs)
    terms = sorted(want_df) + ["zzabsentzz"]
    assert searcher.global_term_stats(terms) == (want_df, want_ttf)
    q = searcher.parse("ray AND data AND zzabsentzz")
    assert searcher.global_df(q) == {t: want_df[t] for t in ("ray", "data")}


@pytest.mark.parametrize("state", STATES)
def test_index_searcher_stats(states, state):
    for d in states[state]:
        _check(IndexSearcher(d), [d])


@pytest.mark.parametrize("state", STATES)
def test_distributed_searcher_stats(states, state):
    for d in states[state]:
        ds = DistributedSearcher(d, num_actors=2)
        try:
            _check(ds, [d])
        finally:
            ds.close()


@pytest.mark.parametrize("state", STATES)
def test_multi_index_searcher_stats(states, state):
    dirs = states[state]
    _check(MultiIndexSearcher(dirs), dirs)


def test_fresh_build_stats_match_oracle(states):
    oracle = OracleIndex()
    oracle.add_all(enumerate(states["_table"].column("text").to_pylist()))
    s = IndexSearcher(states["built"][0])
    terms = sorted(oracle.postings)
    df, ttf = s.global_term_stats(terms)
    assert df == {t: oracle.doc_freq(t) for t in terms}
    assert ttf == {t: oracle.total_term_freq(t) for t in terms}
    assert s.global_df(TermQuery("ray"))["ray"] == oracle.doc_freq("ray")


def test_search_batch_is_one_scatter(states, monkeypatch):
    s = IndexSearcher(states["built"][0])
    calls = []
    scatter = s._scatter

    def counted(method, *args, **kw):
        calls.append(method)
        return scatter(method, *args, **kw)

    monkeypatch.setattr(s, "_scatter", counted)
    hits = s.search_batch(["ray", "data OR index", '"ray data"',
                           "ray AND zzabsentzz"], k=5)
    assert calls == ["search_batch"]
    assert hits[0] and hits[1] and hits[3] == []
    calls.clear()
    s.search("ray", k=5)
    assert calls == ["search_batch"]
