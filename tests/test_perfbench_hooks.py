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


def test_search_batch_calls_the_wrapped_search_once_per_query(
        ray_session, tmp_path, monkeypatch):
    """The tracer counts ``ShardSearcher.search`` calls per query: each
    segment must score a batch through it, once per query, and the actor
    class must be ``ShardSearcher`` itself so the wrapper reaches actors."""
    import pyarrow.parquet as pq

    from lucene_solr_ray.data.transcripts import generate_transcripts

    pq.write_table(generate_transcripts(40, seed=3), tmp_path / "t.parquet")
    build.build_index(str(tmp_path / "t.parquet"), str(tmp_path / "idx"),
                      num_shards=2)
    s = actors.IndexSearcher(str(tmp_path / "idx"))
    calls = []
    search = searcher.ShardSearcher.search

    def counting(self, *args, **kwargs):
        calls.append(1)
        return search(self, *args, **kwargs)

    monkeypatch.setattr(searcher.ShardSearcher, "search", counting)
    hits = s.search_batch(["ray", "data OR index", '"ray data"'], k=5)
    assert len(hits) == 3 and any(hits)
    assert len(calls) == 3
    assert actors.SearchActor.__ray_actor_class__ is searcher.ShardSearcher
