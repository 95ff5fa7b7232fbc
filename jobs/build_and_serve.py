"""`ray job submit`-able index-build + serve driver.

On a real cluster:

    ray job submit --working-dir . -- \
        python jobs/build_and_serve.py \
        --src s3://bucket/transcripts/*.parquet --index /shared/idx \
        --num-shards 256 --queries queries.txt

The job is the same code path bench.py and the CLI use: build (resumable
— rerunning after a crash skips completed run files and shards via the
versioned manifest + per-task markers), check, then serve a query file
through an actor pool and print per-query JSON lines. On this sandbox it
runs identically under `ray job submit -- python jobs/build_and_serve.py
--size bench` against the local cluster; the two-parallelism-level
scaling evidence lives in `bench.py --scaling` (BASELINE.md).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--src", default=None,
                   help="transcripts parquet (default: generated corpus)")
    p.add_argument("--size", default="bench",
                   choices=("tiny", "small", "bench", "large"),
                   help="generated-corpus size when --src is not given")
    p.add_argument("--index", default="/tmp/lsr_job_idx")
    p.add_argument("--num-shards", type=int, default=32)
    p.add_argument("--num-actors", type=int, default=8)
    p.add_argument("--queries", default=None,
                   help="file of one query per line (default: a smoke set)")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--skip-build", action="store_true")
    args = p.parse_args()

    import ray

    if not ray.is_initialized():  # `ray job submit` attaches to the cluster
        ray.init(address="auto" if "RAY_ADDRESS" not in __import__(
            "os").environ else None, include_dashboard=False,
            ignore_reinit_error=True, logging_level="ERROR")

    from lucene_solr_ray.data.transcripts import transcripts_path
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.check import check_index
    from lucene_solr_ray.search.actors import DistributedSearcher

    src = args.src or transcripts_path(args.size)
    if not args.skip_build:
        t0 = time.time()
        manifest = build_index(src, args.index,
                               num_shards=args.num_shards, resume=True)
        print(json.dumps({"stage": "build",
                          "sec": round(time.time() - t0, 2),
                          "stats": manifest["stats"]}))
        t0 = time.time()
        chk = check_index(args.index)
        print(json.dumps({"stage": "check", "status": chk["status"],
                          "sec": round(time.time() - t0, 2)}))

    queries = ["ray AND data", '"ray data"', "index OR merge", "scale"]
    if args.queries:
        queries = [q.strip() for q in Path(args.queries).read_text()
                   .splitlines() if q.strip()]
    searcher = DistributedSearcher(args.index, num_actors=args.num_actors)
    try:
        for q in queries:
            t0 = time.time()
            hits = searcher.search(q, k=args.k)
            print(json.dumps({"stage": "query", "q": q,
                              "ms": round((time.time() - t0) * 1e3, 1),
                              "hits": [[int(d), float(s)]
                                       for d, s in hits]}))
    finally:
        searcher.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
