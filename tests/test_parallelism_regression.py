"""32-CPU regression tests for partition-count-dependent schema bugs.

The pytest session pins ``num_cpus=4`` (tests/conftest.py), which makes the
suite structurally blind to bugs that only appear at production
parallelism: Ray's hash-shuffle ops emit schema-less empty blocks for
empty partitions, ``map_batches`` never invokes its fn on an empty block,
and the shuffle's schema broadcast is skipped when the first shuffle task
sees an empty input block.  With 32 CPUs there are more partitions, so
empty partitions/blocks are far more likely — round 2's
``minhash_dedup_keep`` was green at 8 CPUs and crashed with ArrowInvalid
at 32 for exactly this reason.

These tests therefore run the affected pipelines in a SUBPROCESS with a
fresh ``ray.init(num_cpus=32)``. The partition counts come from the CPU
count, not the row count, so the dedup/near-dup pipelines read a trimmed
copy of the document tables.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pyarrow.parquet as pq
import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SF_DIR = "/root/testdata/sf0.001"
#: documents/embeddings rows kept: two per CPU, with near-duplicate
#: clusters still in them (5 docs dropped by MinHash, 3 SimHash pairs)
N_DOCS = 128


def _trimmed_sf(dst: Path) -> str:
    for name in ("documents", "embeddings"):
        t = pq.read_table(f"{SF_DIR}/{name}.parquet").slice(0, N_DOCS)
        pq.write_table(t, dst / f"{name}.parquet")
    for name in ("customer", "orders"):
        shutil.copy(f"{SF_DIR}/{name}.parquet", dst / f"{name}.parquet")
    return str(dst)

_SCRIPT = """
import ray
ray.init(address="local", num_cpus=32, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

from lucene_solr_ray.pipelines.dedup import minhash_dedup_keep, simhash_neardup
from lucene_solr_ray.pipelines.knn import embedding_neardup_pairs
from lucene_solr_ray.pipelines.relational import leftouter_customer_orders

out = minhash_dedup_keep({sf!r}).to_pandas()
assert len(out) == {n_docs}, len(out)
assert out["keep"].sum() > 0
assert (~out["keep"]).sum() >= 0

# the distributed label-propagation rounds must also survive 32 CPUs
dist = minhash_dedup_keep({sf!r}, local_pairs_cap=0).to_pandas()
assert dist.sort_values("doc_id").reset_index(drop=True).equals(
    out.sort_values("doc_id").reset_index(drop=True))

lo = leftouter_customer_orders({sf!r}).to_pandas()
assert len(lo) > 0

sh = simhash_neardup({sf!r}).to_pandas()
em = embedding_neardup_pairs({sf!r}).to_pandas()
print("PARALLELISM_OK", len(out), int(out["keep"].sum()), len(lo),
      len(sh), len(em))
ray.shutdown()
"""


def test_dedup_and_join_at_32_cpus(tmp_path):
    """minhash_dedup_keep + leftouter join must survive num_cpus=32
    (regression: round-2 ArrowInvalid in HashShuffleAggregator.finalize)."""
    script = _SCRIPT.format(sf=_trimmed_sf(tmp_path), n_docs=N_DOCS)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=str(REPO_ROOT),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, (
        f"32-CPU run failed\nstdout: {proc.stdout[-2000:]}\n"
        f"stderr: {proc.stderr[-4000:]}")
    assert "PARALLELISM_OK" in proc.stdout


_SETOP_SCRIPT = """
import ray
ray.init(address="local", num_cpus=32, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

from lucene_solr_ray.pipelines.joins import anti_join_ds, semi_join_ds
from lucene_solr_ray.pipelines.util import read


def norm(ds):
    df = ds.to_pandas()
    return df[sorted(df.columns)].sort_values(
        sorted(df.columns)).reset_index(drop=True)


cust = read({sf!r}, "customer", ["c_custkey", "c_name"])
import pyarrow.compute as pc
big = read({sf!r}, "orders", ["o_custkey", "o_totalprice"]).map_batches(
    lambda t: t.filter(pc.greater(t.column("o_totalprice"), 420000.0)),
    batch_format="pyarrow")

for fn in (semi_join_ds, anti_join_ds):
    bcast = norm(fn(cust, big, on="c_custkey", right_on="o_custkey"))
    joined = norm(fn(cust, big, on="c_custkey", right_on="o_custkey",
                     _force_join=True))
    assert len(bcast) > 0, fn.__name__
    assert bcast.equals(joined), (
        fn.__name__, len(bcast), len(joined))
print("SETOP_OK")
ray.shutdown()
""".format(sf=SF_DIR)


def test_setop_join_path_identical_at_32_cpus():
    """semi/anti set ops: the above-cap hash-shuffle join path must
    produce outputs identical to the broadcast path at num_cpus=32 (the
    gate exists so intersect()/complement() never driver-materialize an
    unbounded key set)."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETOP_SCRIPT],
        cwd=str(REPO_ROOT),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, (
        f"32-CPU set-op run failed\nstdout: {proc.stdout[-2000:]}\n"
        f"stderr: {proc.stderr[-4000:]}")
    assert "SETOP_OK" in proc.stdout
