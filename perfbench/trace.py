"""Spans recorded from outside the package, around its public functions.

The wrappers are installed from this file, never by editing
``lucene_solr_ray``:

- in the main process by :func:`install_main` (builds, updates, the query
  coordinator);
- in every Ray worker and actor by :func:`install_worker`, which Ray runs
  as the ``worker_process_setup_hook`` of the job's runtime env
  (tokenize, segment encode and decode, per-shard search).

A span is ``name, t0, t1, cpu, pid, id, parent`` plus optional counts.
``t0``/``t1`` come from ``time.perf_counter`` (CLOCK_MONOTONIC, shared by
every process on the host), so worker spans can be placed inside the
main-process operation whose interval contains them; with one client there is
only one such operation. ``cpu`` is ``time.process_time`` spent in the
span by its process.

Main-process spans stay in memory until the run ends. A worker's spans are
kept in memory while a wrapped call is open and appended to
``<spans dir>/<pid>.jsonl`` when the outermost wrapped call of that
process returns: Ray kills its workers and actors (Ray Data's
map_batches actors, ``DistributedSearcher.close``) without running exit
hooks, so a buffer held until process exit would be lost.

Tracing is switched per outermost call: the main process checks its own flag,
a worker checks whether ``<spans dir>/ENABLED`` exists. A traced run can
therefore time the same loop with tracing off and then on, and report
the difference as ``trace.overhead_frac``.
"""

from __future__ import annotations

import bisect
import functools
import json
import os
import time
from pathlib import Path

SPANS_ENV = "PERFBENCH_SPANS_DIR"
ENABLED_FLAG = "ENABLED"

DECODE_FNS = ("decode_doc_ids", "decode_freqs", "decode_positions",
              "decode_block")


class Recorder:
    """Span buffer of one process."""

    def __init__(self, enabled, sink: Path | None = None):
        self.enabled = enabled          # () -> bool, asked at depth 0
        self.sink = sink                # worker: append here per call
        self._fd: int | None = None
        self.spans: list[dict] = []
        self.pid = os.getpid()
        self._stack: list[int] = []
        self._next_id = 1
        self._on = False

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` timed as span ``name``. ``count(args, out)``
        gives the span's counts as a dict."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec._stack:
                rec._on = rec.enabled()
            if not rec._on:
                return fn(*args, **kwargs)
            sid = rec._next_id
            rec._next_id += 1
            parent = rec._stack[-1] if rec._stack else 0
            rec._stack.append(sid)
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1, c1 = time.perf_counter(), time.process_time()
                rec._stack.pop()
            span = {"name": name, "t0": t0, "t1": t1, "cpu": c1 - c0,
                    "pid": rec.pid, "id": sid, "parent": parent}
            if count is not None:
                span["n"] = count(args, out)
            rec.spans.append(span)
            if rec.sink is not None and not rec._stack:
                rec.flush()
            return out

        return traced

    def flush(self) -> None:
        if self._fd is None:   # stays open until the process ends
            self._fd = os.open(self.sink,
                               os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        os.write(self._fd, "".join(json.dumps(s) + "\n"
                                   for s in self.spans).encode())
        self.spans.clear()


# --------------------------------------------------------------------------
# counts taken at the layer boundaries
# --------------------------------------------------------------------------

def _tokenize_counts(args, out) -> dict:
    import pyarrow.compute as pc

    return {"docs": out.num_rows,
            "tokens": int(pc.sum(out.column("doc_len")).as_py() or 0)}


def _decode_bytes(name: str, args) -> int:
    if name != "decode_block":
        return len(args[0])
    doc_enc, freq_enc, doc_offs, freq_offs, block, n_blocks = args[:6]

    def span(enc, offs) -> int:
        hi = int(offs[block + 1]) if block + 1 < n_blocks else len(enc)
        return hi - int(offs[block])

    return span(doc_enc, doc_offs) + span(freq_enc, freq_offs)


def install_worker() -> None:
    """Ray ``worker_process_setup_hook``: wrap the worker-side layers."""
    spans_dir = os.environ.get(SPANS_ENV)
    if not spans_dir:
        return
    flag = Path(spans_dir) / ENABLED_FLAG
    rec = Recorder(flag.exists, Path(spans_dir) / f"{os.getpid()}.jsonl")

    from lucene_solr_ray.index import build, segment
    from lucene_solr_ray.search import searcher

    build.tokenize_table = rec.wrap(
        "index.build.tokenize_table", build.tokenize_table, _tokenize_counts)
    build.SegmentWriter.__call__ = rec.wrap(
        "index.build.SegmentWriter", build.SegmentWriter.__call__,
        lambda a, out: {"postings": a[1].num_rows})
    segment.encode_shard_postings = rec.wrap(
        "index.segment.encode_shard_postings", segment.encode_shard_postings,
        lambda a, out: {"bytes_out": out.nbytes})
    for fn in DECODE_FNS:
        setattr(segment, fn, rec.wrap(
            f"index.segment.{fn}", getattr(segment, fn),
            functools.partial(lambda name, a, out: {
                "bytes": _decode_bytes(name, a)}, fn)))
    S = searcher.ShardSearcher
    S.local_df = rec.wrap("search.searcher.local_df", S.local_df)
    S.search = rec.wrap("search.searcher.search", S.search)


class Tracer:
    """Main-process side of a traced run: wrappers, the on/off switch, and the
    spans of every process once the run ends."""

    def __init__(self, spans_dir: Path):
        self.dir = spans_dir
        self.dir.mkdir(parents=True, exist_ok=True)
        self._on = False
        self.rec = Recorder(lambda: self._on)

    def set(self, on: bool) -> None:
        self._on = on
        flag = self.dir / ENABLED_FLAG
        if on:
            flag.touch()
        else:
            flag.unlink(missing_ok=True)

    def install_main(self) -> None:
        from lucene_solr_ray.index import build, update
        from lucene_solr_ray.search import actors

        rec = self.rec
        build.build_index = rec.wrap("index.build.build_index",
                                     build.build_index)
        update.update_index = rec.wrap("index.update.update_index",
                                       update.update_index)
        D = actors.DistributedSearcher
        D.parse = rec.wrap("search.query.parse", D.parse)
        D.search = rec.wrap("search.actors.search", D.search)

    def all_spans(self) -> list[dict]:
        spans = list(self.rec.spans)
        for p in sorted(self.dir.glob("*.jsonl")):
            spans.extend(json.loads(line) for line in
                         p.read_text().splitlines() if line)
        return spans


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

def union_s(intervals) -> float:
    """Length of the union of ``(t0, t1)`` intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _inside(spans, t0: float, t1: float) -> list[dict]:
    return [s for s in spans if s["t0"] >= t0 and s["t1"] <= t1]


def _by_op(spans: list[dict], ops: list[dict]) -> list[list[dict]]:
    """The spans inside each op's interval (spans sorted once, then a
    binary search per op: a serve run has thousands of ops)."""
    spans = sorted(spans, key=lambda s: s["t0"])
    starts = [s["t0"] for s in spans]
    return [[s for s in spans[bisect.bisect_left(starts, op["t0"]):
                              bisect.bisect_right(starts, op["t1"])]
             if s["t1"] <= op["t1"]] for op in ops]


def layer_metrics(spans: list[dict], ops: list[dict],
                  main_pid: int) -> dict[str, float]:
    """Span-derived per-layer metrics, summed over the traced ``ops``
    (each ``{"t0", "t1"}``: a main-process operation's interval) and divided by
    their number, so every value is per operation of the workload."""
    n = max(1, len(ops))
    per_op = _by_op(spans, ops)
    inside = [s for group in per_op for s in group]

    def named(name):
        return [s for s in inside if s["name"] == name]

    def total(name, key=None) -> float:
        if key is None:
            return sum(s["t1"] - s["t0"] for s in named(name))
        if key == "cpu":
            return sum(s["cpu"] for s in named(name))
        return sum(s.get("n", {}).get(key, 0) for s in named(name))

    decodes = [s for s in inside
               if s["name"] in {f"index.segment.{f}" for f in DECODE_FNS}]
    out = {
        "index.build.tokenize_table.busy_s":
            total("index.build.tokenize_table") / n,
        "index.build.tokenize_table.cpu_s":
            total("index.build.tokenize_table", "cpu") / n,
        "index.build.tokenize_table.docs":
            total("index.build.tokenize_table", "docs") / n,
        "index.build.tokenize_table.tokens":
            total("index.build.tokenize_table", "tokens") / n,
        "index.build.SegmentWriter.busy_s":
            total("index.build.SegmentWriter") / n,
        "index.build.SegmentWriter.cpu_s":
            total("index.build.SegmentWriter", "cpu") / n,
        "index.build.SegmentWriter.postings":
            total("index.build.SegmentWriter", "postings") / n,
        "index.segment.encode_shard_postings.busy_s":
            total("index.segment.encode_shard_postings") / n,
        "index.segment.encode_shard_postings.bytes_out":
            total("index.segment.encode_shard_postings", "bytes_out") / n,
        # the decode functions never call each other, so their spans
        # do not overlap within a process
        "index.segment.decode.ms":
            1e3 * sum(s["t1"] - s["t0"] for s in decodes) / n,
        "index.segment.decode.calls":
            len(named("index.segment.decode_doc_ids")) / n,
        "index.segment.decode.bytes":
            sum(s["n"]["bytes"] for s in decodes) / n,
        "search.query.parse.ms": 1e3 * total("search.query.parse") / n,
        "search.searcher.local_df.ms":
            1e3 * total("search.searcher.local_df") / n,
        "search.searcher.local_df.calls":
            len(named("search.searcher.local_df")) / n,
        "search.searcher.search.ms": 1e3 * total("search.searcher.search") / n,
        "search.searcher.search.calls":
            len(named("search.searcher.search")) / n,
        "search.actors.search.ms": 1e3 * total("search.actors.search") / n,
        "index.update.update_index.s": total("index.update.update_index") / n,
    }

    # coordinator self time: root search span minus parse minus the time
    # covered by actor-side spans inside it (round trips, serialization,
    # merge in the main process)
    def remote_s(group, r) -> float:
        return union_s((s["t0"], s["t1"])
                       for s in _inside(group, r["t0"], r["t1"])
                       if s["pid"] != main_pid and s["parent"] == 0)

    def roots(name):
        return [(g, r) for g in per_op for r in g if r["name"] == name]

    self_s = sum((r["t1"] - r["t0"]) - remote_s(g, r) - sum(
        s["t1"] - s["t0"] for s in _inside(g, r["t0"], r["t1"])
        if s["name"] == "search.query.parse")
        for g, r in roots("search.actors.search"))
    out["search.actors.self_ms"] = 1e3 * self_s / n

    # build and update overhead: main-process span minus the union of worker
    # spans under it (Ray scheduling, Ray Data operators, I/O outside the
    # wrapped calls)
    for root, key in (("index.build.build_index", "build.unaccounted_s"),
                      ("index.update.update_index", "index.update.self_s")):
        out[key] = sum((r["t1"] - r["t0"]) - remote_s(g, r)
                       for g, r in roots(root)) / n
    return out
