"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload build|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. A report of the workload's named metrics,
with units and sample counts, goes to stderr; the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` whose
metrics are BENCHMARK.json's ``end_to_end`` list (``--trace 0``) or its
``per_layer`` list (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "lucene_solr_ray").is_dir():
        print(f"perfbench: no lucene_solr_ray package under {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT))
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"

    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run_fn = workloads.WORKLOADS[args.workload]

    work = ROOT / ".bench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = None
    try:
        if args.trace:
            from perfbench.trace import Tracer

            tracer = Tracer(work / "spans")
            tracer.install_main()
        ctx = workloads.Ctx(args.seed, args.seconds, work, tracer)
        try:
            result = run_fn(ctx)
        finally:
            if ctx.session is not None:   # set-up opened it
                ctx.session.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, value, unit, n in result.report:
        print(f"{args.workload:>12} {name:<28} {value:12.4f} {unit:<8} n={n}",
              file=sys.stderr)
    print(f"{args.workload:>12} {'error_rate':<28} "
          f"{result.failed / max(1, result.attempted):12.4f} {'ratio':<8} "
          f"n={result.attempted}", file=sys.stderr)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    got = result.layers if args.trace else result.e2e
    names = {m["name"] for m in wanted}
    if set(got) - names:
        raise KeyError(f"not in BENCHMARK.json: {set(got) - names}")
    if not args.trace and names - set(got):
        raise KeyError(f"end-to-end metrics not measured: {names - set(got)}")
    # a layer that does no work in this workload reads 0
    metrics = {m["name"]: {"value": float(got.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": result.failed == 0,
                      "attempted": result.attempted,
                      "failed": result.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
