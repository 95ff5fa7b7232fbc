"""The benchmark's tracer wraps library functions by name: installing its
wrappers must succeed, so deleting or renaming a wrapped name fails here
rather than in a traced benchmark run."""

from lucene_solr_ray.index import build, segment, update
from lucene_solr_ray.search import actors, searcher
from perfbench import trace

# (owner, attribute) of every name the tracer replaces
WORKER = [(build, "tokenize_table"), (build.SegmentWriter, "__call__"),
          (segment, "encode_shard_postings"),
          (searcher.ShardSearcher, "local_df"),
          (searcher.ShardSearcher, "search")] + \
    [(segment, fn) for fn in trace.DECODE_FNS]
MAIN = [(build, "build_index"), (update, "update_index"),
        (actors.DistributedSearcher, "parse"),
        (actors.DistributedSearcher, "search")]


def _wrapped(owner, name, original) -> bool:
    return getattr(owner, name).__wrapped__ is original


def test_install_worker_wraps_every_name(tmp_path, monkeypatch):
    originals = [getattr(o, n) for o, n in WORKER]
    for (owner, name), fn in zip(WORKER, originals):
        monkeypatch.setattr(owner, name, fn)  # restored at teardown
    monkeypatch.setenv(trace.SPANS_ENV, str(tmp_path))
    trace.install_worker()
    for (owner, name), fn in zip(WORKER, originals):
        assert _wrapped(owner, name, fn), name


def test_install_main_wraps_every_name(tmp_path, monkeypatch):
    originals = [getattr(o, n) for o, n in MAIN]
    for (owner, name), fn in zip(MAIN, originals):
        monkeypatch.setattr(owner, name, fn)
    trace.Tracer(tmp_path / "spans").install_main()
    for (owner, name), fn in zip(MAIN, originals):
        assert _wrapped(owner, name, fn), name


def test_names_the_workloads_import():
    from lucene_solr_ray.search.oracle import OracleIndex  # noqa: F401
    from lucene_solr_ray.search.searcher import IndexSearcher

    assert IndexSearcher is actors.IndexSearcher
    assert callable(build.read_manifest)
