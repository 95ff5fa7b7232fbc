"""The workloads: ``build`` and ``serve``.

Each workload runs REPS repetitions. A repetition starts a fresh Ray
session and sets up (``setup_s`` is the median of the repetitions), then
runs a 1/REPS share of the timed loop, so ``seconds`` of operation time
in all. Every output is then checked against ``search/oracle.py``'s
``OracleIndex``, outside every timed region. See README.md for what each
metric means and which layer change should move it.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import harness as H

REPS = 3
GATE_QUERIES = 12     # fixed query sample checked after every build
# queries per search_batch call in serve's batch pass. One call makes one
# stats round trip and one scatter for all its queries, so shard scoring,
# not the host's wake-up latency, sets its wall time
BATCH = 32


@dataclass
class Ctx:
    seed: int
    seconds: float
    work: Path
    tracer: object | None          # trace.Tracer in a traced run
    session: H.RaySession | None = None


@dataclass
class Result:
    e2e: dict[str, float]
    report: list[tuple[str, float, str, int]]   # name, value, unit, samples
    attempted: int
    failed: int
    layers: dict[str, float] = field(default_factory=dict)


# --------------------------------------------------------------------------
# shared steps
# --------------------------------------------------------------------------

def _repeat(ctx: Ctx, setup, run) -> tuple[list[dict], list]:
    """REPS times: start a fresh Ray session and ``setup(rep_dir) ->
    (timings, state)``, both timed, then ``run(state, seconds)`` for a
    1/REPS share of the timed loop. Every set-up is cold: Ray starts, its
    worker pool spawns and the workers import the library. The timed ops
    are spread over the whole run, between the set-ups, because the
    host's speed drifts over tens of seconds. Returns the set-up timings
    and the ``run`` results; the last session stays open."""
    # the main process imports the library once, before the repetitions
    import lucene_solr_ray.index.update  # noqa: F401
    import lucene_solr_ray.search.actors  # noqa: F401

    reps, outs = [], []
    for r in range(REPS):
        if ctx.session is not None:
            ctx.session.close()
        t0 = time.perf_counter()
        ctx.session = H.RaySession(
            ctx.work, ctx.tracer.dir if ctx.tracer is not None else None)
        t1 = time.perf_counter()
        timings, state = setup(ctx.work / f"rep{r}")
        timings["ray_init"] = t1 - t0
        timings["total"] = time.perf_counter() - t0
        reps.append(timings)
        outs.append(run(state, ctx.seconds / REPS))
    return reps, outs


def _setup_layers(reps: list[dict]) -> dict[str, float]:
    return {f"setup.{k}_s": H.median([r.get(k, 0.0) for r in reps])
            for k in ("ray_init", "generate", "build", "open", "warm")}


def _timed_loop(ctx: Ctx, op, seconds: float) -> list[dict]:
    """Call ``op()`` until the operations have taken ``seconds``. In a
    traced run the first half runs with tracing off and the second with
    it on. ``op`` returns a record with ``t0``/``t1``; an op that raises
    is recorded as an error."""
    halves = ([(False, seconds)] if ctx.tracer is None
              else [(False, seconds / 2), (True, seconds / 2)])
    records: list[dict] = []
    for traced, budget in halves:
        if ctx.tracer is not None:
            ctx.tracer.set(traced)
        spent, c0 = 0.0, H.tree_cpu_s()
        while spent < budget:
            t0 = time.perf_counter()
            try:
                rec = op()
            except Exception:   # counted in `failed`, the loop goes on
                traceback.print_exc(file=sys.stderr)
                rec = {"t0": t0, "t1": time.perf_counter(), "error": True}
            rec["traced"] = traced
            records.append(rec)
            spent += rec["t1"] - rec["t0"]
        cpu = H.tree_cpu_s() - c0
        half = [r for r in records if r["traced"] == traced]
        for r in half:
            r["cpu"] = cpu / max(1, len(half))
    if ctx.tracer is not None:
        ctx.tracer.set(False)
    return records


def _op_metrics(ops: list[dict], walls: list[float]) -> dict[str, float]:
    """The end-to-end metrics every workload reports about its unit op.
    ``walls`` is the user-facing latency of each op in seconds."""
    return {
        "op_p50_ms": 1e3 * H.median(walls),
        "ops_per_s": len(ops) / sum(r["t1"] - r["t0"] for r in ops),
        "cpu_ms_per_op": 1e3 * sum(r["cpu"] for r in ops) / len(ops),
    }


def _common_report(e2e: dict, reps: list[dict]) -> list[tuple]:
    """Report lines every workload prints: set-up time and worker RSS."""
    return [("setup_s", e2e["setup_s"], "s", len(reps)),
            ("rss_mb", e2e["rss_mb"], "MiB", len(reps))]


def _overhead(records: list[dict]) -> float:
    """Traced over untraced median op latency, minus one."""
    def p50(traced):
        return H.median([r["t1"] - r["t0"] for r in records
                         if r["traced"] == traced and "error" not in r])

    return p50(True) / p50(False) - 1.0


def _oracle(rows_table, first_doc: int = 0, oracle=None):
    from lucene_solr_ray.search.oracle import OracleIndex

    oracle = oracle or OracleIndex()
    oracle.add_all(enumerate(rows_table.column("text").to_pylist(),
                             start=first_doc))
    return oracle


def _same(hits, expected) -> bool:
    return ([(int(d), np.float32(s)) for d, s in hits]
            == [(int(d), np.float32(s)) for d, s in expected])


def _index_ratio(index_dir: Path, text_bytes: int) -> float:
    return H.dir_bytes(index_dir / "shards", index_dir / "norms") / text_bytes


def _build(src: Path, out: Path) -> dict:
    from lucene_solr_ray.index import build

    return build.build_index(str(src), str(out), num_shards=H.NUM_SHARDS)


def _open(index_dir: Path, first_query: str):
    """DistributedSearcher constructor plus its first answered query."""
    from lucene_solr_ray.search.actors import DistributedSearcher

    ds = DistributedSearcher(str(index_dir), num_actors=H.NUM_ACTORS)
    return ds, ds.search(first_query, k=H.K)


def _per_class_p50(records: list[dict]) -> dict[str, float]:
    return {f"search.class.{c}.p50_ms":
            1e3 * H.median([r["t1"] - r["t0"] for r in records
                            if r["cls"] == c])
            for c in H.QueryStream.CLASSES}


# --------------------------------------------------------------------------
# build: cold build_index over the seeded base corpus
# --------------------------------------------------------------------------

def run_build(ctx: Ctx) -> Result:
    def setup(d: Path):
        t0 = time.perf_counter()
        table, delta = H.corpus(ctx.seed)
        src = H.write_transcripts(table, d / "src.parquet")
        delta_src = H.write_transcripts(delta, d / "delta.parquet")
        t1 = time.perf_counter()
        _build(src, d / "warmup")          # throwaway op
        return ({"generate": t1 - t0, "build": time.perf_counter() - t1},
                (table, src, delta, delta_src))

    builds = itertools.count()

    def run(state, seconds: float):
        src = state[1]

        def op():
            out = ctx.work / f"build{next(builds)}"
            t0 = time.perf_counter()
            manifest = _build(src, out)
            return {"t0": t0, "t1": time.perf_counter(), "dir": out,
                    "phases": manifest["phases"]}

        return {"state": state, "records": _timed_loop(ctx, op, seconds),
                "rss": H.ray_workers_rss_mb()}

    reps, outs = _repeat(ctx, setup, run)
    table, _, delta, delta_src = outs[-1]["state"]
    records = [r for o in outs for r in o["records"]]
    rss = H.median([o["rss"] for o in outs])

    # correctness gate: stats and a fixed query sample against the oracle
    from lucene_solr_ray.index.build import read_manifest
    from lucene_solr_ray.search.searcher import IndexSearcher

    oracle = _oracle(table)
    want = {"num_docs": len(oracle.doc_lengths),
            "doc_count": oracle.doc_count,
            "sum_total_term_freq": oracle.sum_total_term_freq}
    sample = [q for _, q in
              H.QueryStream(ctx.seed, table, stream=2).take(GATE_QUERIES)]
    expected = {q: oracle.search(q, k=H.K) for q in sample}
    failed = 0
    for r in records:
        if "error" in r:
            failed += 1
            continue
        stats = read_manifest(str(r["dir"]))["stats"]
        searcher = IndexSearcher(str(r["dir"]))
        ok = (all(stats[k] == v for k, v in want.items())
              and all(_same(searcher.search(q, k=H.K), expected[q])
                      for q in sample))
        failed += not ok
    good = [r for r in records if "error" not in r]
    walls = [r["t1"] - r["t0"] for r in good]
    e2e = {"setup_s": H.median([r["total"] for r in reps]),
           **_op_metrics(good, walls),
           "rss_mb": rss,
           "index_bytes_per_text_byte":
               _index_ratio(good[0]["dir"], H.text_bytes(table))}
    turns = table.num_rows
    report = _common_report(e2e, reps) + [
        ("build_turns_per_s", turns / H.median(walls), "turns/s", len(walls)),
        ("build_cpu_s", e2e["cpu_ms_per_op"] / 1e3, "s", len(walls)),
        ("index_bytes_per_text_byte", e2e["index_bytes_per_text_byte"],
         "ratio", 1),
    ]
    result = Result(e2e, report, len(records), failed)
    if ctx.tracer is not None:
        traced = [r for r in good if r["traced"]]
        layers = _setup_layers(reps)
        for k in ("plan", "tokenize_runs", "term_group_encode"):
            layers[f"build.{k}_s"] = float(np.mean(
                [r["phases"].get(k, 0.0) for r in traced]))
        layers["build.manifest_s"] = float(np.mean(
            [(r["t1"] - r["t0"]) - sum(r["phases"].values())
             for r in traced]))
        layers["trace.overhead_frac"] = _overhead(records)
        result.layers = _with_spans(ctx, traced, layers)
        _traced_append(ctx, good[-1]["dir"], delta_src, delta, oracle,
                       sample, result)
    return result


def _traced_append(ctx: Ctx, index_dir: Path, delta_src: Path, delta,
                   oracle, sample: list[str], result: Result) -> None:
    """The append path, traced once after the timed builds: one
    ``update_index`` of a seeded delta past the checkpoint, gated like a
    build against the oracle extended with the delta. Only the traced run
    does this; it feeds the ``index.update`` layer metrics."""
    from lucene_solr_ray.index import update
    from lucene_solr_ray.index.build import read_manifest
    from lucene_solr_ray.search.searcher import IndexSearcher

    ctx.tracer.set(True)
    t0 = time.perf_counter()
    update.update_index(str(index_dir), str(delta_src), concurrency=1)
    op = {"t0": t0, "t1": time.perf_counter()}
    ctx.tracer.set(False)
    spans = _with_spans(ctx, [op], {})
    for k in ("index.update.update_index.s", "index.update.self_s"):
        result.layers[k] = spans[k]

    _oracle(delta, len(oracle.doc_lengths), oracle)
    stats = read_manifest(str(index_dir))["stats"]
    searcher = IndexSearcher(str(index_dir))
    ok = (stats["num_docs"] == len(oracle.doc_lengths)
          and stats["doc_count"] == oracle.doc_count
          and stats["sum_total_term_freq"] == oracle.sum_total_term_freq
          and all(_same(searcher.search(q, k=H.K), oracle.search(q, k=H.K))
                  for q in sample))
    result.attempted += 1
    result.failed += not ok


# --------------------------------------------------------------------------
# serve: one client, closed loop, 2-actor DistributedSearcher
# --------------------------------------------------------------------------

def run_serve(ctx: Ctx) -> Result:
    def setup(d: Path):
        t0 = time.perf_counter()
        table, _ = H.corpus(ctx.seed)
        src = H.write_transcripts(table, d / "src.parquet")
        t1 = time.perf_counter()
        _build(src, d / "index")
        t2 = time.perf_counter()
        warm = H.QueryStream(ctx.seed, table, stream=3)
        ds, _ = _open(d / "index", warm.next()[1])
        t3 = time.perf_counter()
        by_class = {}
        while len(by_class) < len(H.QueryStream.CLASSES):
            cls, q = warm.next()
            by_class.setdefault(cls, q)
        for q in by_class.values():        # one throwaway op of each kind
            ds.search(q, k=H.K)
        # one throwaway search_batch, which also fills the decode caches
        ds.search_batch(list(by_class.values()) + warm.cache_warmup(),
                        k=H.K)
        return ({"generate": t1 - t0, "build": t2 - t1, "open": t3 - t2,
                 "warm": time.perf_counter() - t3},
                (ds, table, d / "index"))

    stream = None    # one seeded query stream across the repetitions

    def run(state, seconds: float):
        nonlocal stream
        ds, table, index_dir = state
        stream = stream or H.QueryStream(ctx.seed, table)

        def op():
            cls, q = stream.next()
            t0 = time.perf_counter()
            hits = ds.search(q, k=H.K)
            return {"t0": t0, "t1": time.perf_counter(), "cls": cls, "q": q,
                    "hits": hits, "fanout": ds.last_fanout}

        try:
            records = _timed_loop(ctx, op, seconds)
            issued = [r["q"] for r in records if "error" not in r]
            batches = _batch_pass(ds, issued)
            rss = H.ray_workers_rss_mb()
        finally:
            ds.close()
        return {"records": records, "batches": batches, "rss": rss,
                "table": table, "index": index_dir}

    reps, outs = _repeat(ctx, setup, run)
    records = [r for o in outs for r in o["records"]]
    batches = [b for o in outs for b in o["batches"]]
    rss = H.median([o["rss"] for o in outs])
    table, index_dir = outs[-1]["table"], outs[-1]["index"]

    oracle = _oracle(table)
    expected: dict[str, list] = {}

    def check(q, hits) -> bool:
        if q not in expected:
            expected[q] = oracle.search(q, k=H.K)
        return _same(hits, expected[q])

    good = [r for r in records if "error" not in r]
    batch_ok = [b for b in batches if "error" not in b]
    batched = sum(len(b["qs"]) for b in batches)
    failed = (len(records) - len(good)
              + sum(not check(r["q"], r["hits"]) for r in good)
              + sum(len(b["qs"]) for b in batches if "error" in b)
              + sum(not check(q, h) for b in batch_ok
                    for q, h in zip(b["qs"], b["hits"])))
    lat = [r["t1"] - r["t0"] for r in good]
    batch_walls = [b["t1"] - b["t0"] for b in batch_ok]
    batch_qps = BATCH * len(batch_ok) / sum(batch_walls)
    e2e = {"setup_s": H.median([r["total"] for r in reps]),
           **_op_metrics(batch_ok, batch_walls),
           "rss_mb": rss,
           "index_bytes_per_text_byte":
               _index_ratio(index_dir, H.text_bytes(table))}
    report = _common_report(e2e, reps) + [
        ("batch_p50_ms", e2e["op_p50_ms"], "ms", len(batch_walls)),
        ("batch_qps", batch_qps, "q/s", BATCH * len(batch_ok)),
        ("query_p50_ms", 1e3 * H.median(lat), "ms", len(lat)),
        ("query_p99_ms", 1e3 * H.percentile(lat, 99), "ms", len(lat)),
        ("query_qps", len(lat) / sum(lat), "q/s", len(lat)),
    ]
    result = Result(e2e, report, len(records) + batched, failed)
    if ctx.tracer is not None:
        traced = [r for r in good if r["traced"]]
        layers = _setup_layers(reps)
        layers.update(_per_class_p50(traced))
        layers["search.actors.fanout"] = float(np.mean(
            [r["fanout"] for r in traced]))
        layers["search.actors.open_s"] = layers["setup.open_s"]
        # the batch pass is not a closed-loop op: report it per query
        layers["search.actors.search_batch.ms"] = 1e3 / batch_qps
        layers["trace.overhead_frac"] = _overhead(records)
        result.layers = _with_spans(ctx, traced, layers)
    return result


def _batch_pass(ds, queries: list[str]) -> list[dict]:
    """Serve's end-to-end op: the queries the closed loop issued, sent again
    in order as ``search_batch`` calls of BATCH queries (a tail shorter than
    BATCH is not sent). Each call is timed on its own; the pass's CPU time
    is shared evenly among the calls."""
    ops, c0 = [], H.tree_cpu_s()
    for i in range(0, len(queries) - BATCH + 1, BATCH):
        qs = queries[i:i + BATCH]
        t0 = time.perf_counter()
        try:
            rec = {"hits": ds.search_batch(qs, k=H.K)}
        except Exception:   # counted in `failed`, the pass goes on
            traceback.print_exc(file=sys.stderr)
            rec = {"error": True}
        rec.update(t0=t0, t1=time.perf_counter(), qs=qs)
        ops.append(rec)
    cpu = H.tree_cpu_s() - c0
    for r in ops:
        r["cpu"] = cpu / max(1, len(ops))
    return ops


def _with_spans(ctx: Ctx, ops: list[dict], layers: dict) -> dict:
    from .trace import layer_metrics

    out = layer_metrics(ctx.tracer.all_spans(), ops, os.getpid())
    out.update(layers)
    return out


WORKLOADS = {"build": run_build, "serve": run_serve}
