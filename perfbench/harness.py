"""Shared pieces of the workloads: the Ray session, seeded inputs, readings
from ``/proc`` and summary statistics."""

from __future__ import annotations

import logging
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CLK_TCK = os.sysconf("SC_CLK_TCK")

# corpus sizes: one cold build of the base takes about a second on one core
BASE_CONVS = 3_000        # ~20k turns
DELTA_CONVS = 300         # ~2k turns appended by the traced build run
NUM_SHARDS = 8
NUM_ACTORS = 2
K = 10

# Ray's object store: the inputs are a few MiB, and a small store is mapped
# quickly when the raylet starts (Ray's default maps ~30% of host memory)
OBJECT_STORE_BYTES = 512 << 20
# ray.init fails when the raylet has not registered within Ray's fixed 30 s,
# which a busy shared host can cause; a failed start is cleaned up and
# retried
START_TRIES = 3


# --------------------------------------------------------------------------
# Ray session
# --------------------------------------------------------------------------

# Ray's unix sockets live at <temp>/session_<date>_<time>_<usec>_<pid>/
# sockets/plasma_store, and a socket path holds at most 107 bytes
_SOCKET_TAIL = len("/session_2026-01-01_00-00-00_000000_4194304"
                   "/sockets/plasma_store")


def _ray_temp_dir(work: Path) -> Path:
    """Ray's session directory: inside the checkout unless the checkout's
    path is too long for Ray's sockets, then a fresh system temp
    directory."""
    d = work / "ray"
    if len(str(d)) + _SOCKET_TAIL <= 107:
        return d
    return Path(tempfile.mkdtemp(prefix="pbray"))


class RaySession:
    """One local Ray cluster; ``close`` stops every process it started,
    waits for each to end and removes Ray's session directory."""

    def __init__(self, work: Path, spans_dir: Path | None):
        import ray
        from ray.data import DataContext

        env_vars = {"PYTHONPATH": str(ROOT), "RAY_USAGE_STATS_ENABLED": "0"}
        runtime_env: dict = {"env_vars": env_vars}
        if spans_dir is not None:
            from .trace import SPANS_ENV

            env_vars[SPANS_ENV] = str(spans_dir)
            runtime_env["worker_process_setup_hook"] = \
                "perfbench.trace.install_worker"
        for tries_left in reversed(range(START_TRIES)):
            self.temp = _ray_temp_dir(work)
            try:
                ray.init(address="local", num_cpus=1, include_dashboard=False,
                         logging_level="ERROR", log_to_driver=False,
                         object_store_memory=OBJECT_STORE_BYTES,
                         _temp_dir=str(self.temp), runtime_env=runtime_env)
                break
            except Exception:
                self.close()
                if not tries_left:
                    raise
                traceback.print_exc(file=sys.stderr)
        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

    def close(self) -> None:
        import ray

        started = descendants(os.getpid())
        ray.shutdown()
        _wait_gone(started, 20.0)
        for pid in started:
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        _wait_gone(started, 10.0)
        shutil.rmtree(self.temp, ignore_errors=True)


def _alive(pid: int) -> bool:
    f = _stat_fields(pid)
    return f is not None and f[0] != "Z"


def _wait_gone(pids: list[int], timeout: float) -> None:
    end = time.monotonic() + timeout
    while True:
        try:  # reap our own children (raylet, gcs) once they exit
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        if not any(_alive(p) for p in pids) or time.monotonic() >= end:
            return
        time.sleep(0.05)


# --------------------------------------------------------------------------
# /proc readings (psutil is not available)
# --------------------------------------------------------------------------

def _stat_fields(pid: int) -> list[str] | None:
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return None


def descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            f = _stat_fields(int(entry))
            if f is not None:
                children.setdefault(int(f[1]), []).append(int(entry))
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def tree_cpu_s() -> float:
    """CPU-seconds (user + system) of this process and all its
    descendants, including descendants that already exited and were
    reaped."""
    total = 0
    for pid in [os.getpid()] + descendants(os.getpid()):
        f = _stat_fields(pid)
        if f is not None:   # utime, stime, cutime, cstime
            total += int(f[11]) + int(f[12]) + int(f[13]) + int(f[14])
    return total / CLK_TCK


def ray_workers_rss_mb() -> float:
    """VmRSS summed over the Ray worker and actor processes (their process
    title starts with ``ray::``), in MiB."""
    total_kb = 0
    for pid in descendants(os.getpid()):
        try:
            cmd = Path(f"/proc/{pid}/cmdline").read_bytes()
            if not cmd.startswith(b"ray::"):
                continue
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmRSS:"):
                    total_kb += int(line.split()[1])
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total_kb / 1024


def dir_bytes(*dirs: Path) -> int:
    return sum(p.stat().st_size for d in dirs for p in d.rglob("*")
               if p.is_file())


# --------------------------------------------------------------------------
# seeded inputs
# --------------------------------------------------------------------------

def write_transcripts(table, path: Path) -> Path:
    """Write rows the way ``data.transcripts.transcripts_path`` does: the
    fused build plans one task per row-group span."""
    import pyarrow.parquet as pq

    path.parent.mkdir(parents=True, exist_ok=True)
    pq.write_table(table, path, row_group_size=max(2048, len(table) // 128))
    return path


def corpus(seed: int):
    """(base, delta): ``generate_transcripts`` cut at a conversation
    boundary into BASE_CONVS and DELTA_CONVS conversations."""
    from lucene_solr_ray.data.transcripts import generate_transcripts

    table = generate_transcripts(BASE_CONVS + DELTA_CONVS, seed)
    turn = table.column("turn_idx").to_numpy()
    cut = int(np.flatnonzero(turn == 0)[BASE_CONVS])
    return table.slice(0, cut), table.slice(cut)


def text_bytes(table) -> int:
    import pyarrow.compute as pc

    return int(pc.sum(pc.binary_length(table.column("text"))).as_py())


class QueryStream:
    """Seeded query mix after FIXTURES.md section 4, whose 200 queries are
    80 single terms (heavy, mid and rare pools), 60 two-term OR, 40
    two-term AND and 20 three-term queries with one stopword. Two-term
    phrases, taken from adjacent words of the corpus, are added at the
    count of the smallest class, 20: the shares are 80/60/40/20/20 of
    220."""

    CLASSES = ("term", "or", "and", "stopword", "phrase")
    MIX = np.array((80, 60, 40, 20, 20)) / 220

    def __init__(self, seed: int, table, stream: int = 1):
        from lucene_solr_ray.data.transcripts import VOCAB

        self.rng = np.random.default_rng([seed, stream])
        self.stop = VOCAB[:10]
        domain = [w for w in VOCAB[10:] if not w.startswith("t0")]
        self.pools = (domain[:10], domain[10:],
                      [w for w in VOCAB if w.startswith("t0")])
        # phrase candidates: adjacent non-stopword vocabulary pairs
        words = set(VOCAB) - set(self.stop)
        pairs = []
        for text in table.column("text").to_pylist()[:4000]:
            toks = text.split()
            pairs.extend(f'"{a} {b}"' for a, b in zip(toks, toks[1:])
                         if a in words and b in words)
        self.phrases = sorted(set(pairs))

    def _word(self, pools=(0, 1, 2)) -> str:
        pool = self.pools[pools[self.rng.integers(len(pools))]]
        return pool[self.rng.integers(len(pool))]

    def next(self) -> tuple[str, str]:
        """(class, query text)."""
        cls = self.CLASSES[self.rng.choice(len(self.CLASSES), p=self.MIX)]
        if cls == "term":
            return cls, self._word()
        if cls == "or":
            return cls, f"{self._word()} OR {self._word((1, 2))}"
        if cls == "and":
            return cls, f"{self._word((0, 1))} AND {self._word((1, 2))}"
        if cls == "stopword":
            words = [self._word(), self._word()]
            words.insert(int(self.rng.integers(3)),
                         self.stop[self.rng.integers(len(self.stop))])
            return cls, " ".join(words)
        return cls, self.phrases[self.rng.integers(len(self.phrases))]

    def take(self, n: int) -> list[tuple[str, str]]:
        return [self.next() for _ in range(n)]

    def cache_warmup(self, cache_max: int = 1024) -> list[str]:
        """Single-term queries that, run before timing, fill each shard
        searcher's decode cache (first in, first out, ``cache_max``
        entries; every shard holds nearly every term) close to the state
        the mix keeps it in: ``cache_max`` rare terms in seeded order,
        then the 60 domain terms, which the mix asks for often. The cache
        ends up holding the domain terms and the most recent rare
        ones."""
        rare = list(self.pools[2])
        self.rng.shuffle(rare)
        return rare[:cache_max] + self.pools[1] + self.pools[0]


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------

def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def percentile(xs, q: float) -> float:
    return float(np.percentile(np.asarray(xs, dtype=float), q)) if xs else 0.0

