"""Join operators, Ray-Data-first.

Re-expressions of the Solr streaming-expression join zoo (SURVEY.md §2.5):

- ``broadcast_hash_join``: HashJoinStream/OuterHashJoinStream semantics
  (``solr/solrj/.../io/stream/HashJoinStream.java:38-65`` — hash side fully
  read into a map, stream side probes). Small side is ``ray.put`` ONCE and
  probed inside ``map_batches`` — no shuffle, the small-side lookup is
  never re-shipped per batch.
- ``partitioned_hash_join``: InnerJoinStream/BiJoinStream semantics
  (``io/stream/InnerJoinStream.java``) for two large sides: Ray's native
  hash-shuffle join, partitions scaled to the cluster (the sorted-stream
  precondition of the reference is unnecessary under hash partitioning).
- ``semi_join`` / ``anti_join``: IntersectStream / ComplementStream
  (``io/stream/IntersectStream.java``, ``ComplementStream.java``) via a
  broadcast key set + vectorized membership filter.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd


def broadcast_hash_join(
    left: rd.Dataset,
    right: pa.Table,
    on: str,
    how: str = "inner",
    right_on: str | None = None,
) -> rd.Dataset:
    """Probe-side Dataset x broadcast build-side Table."""
    right_df = right.to_pandas()
    right_ref = ray.put(right_df)
    right_on = right_on or on

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        small = ray.get(right_ref)
        return batch.merge(small, how=how, left_on=on, right_on=right_on)

    return left.map_batches(probe, batch_format="pandas")


def semi_join(left: rd.Dataset, keys: np.ndarray, on: str) -> rd.Dataset:
    """Keep left rows whose key is in ``keys`` (broadcast key set)."""
    key_ref = ray.put(np.unique(keys))

    def fil(batch: pd.DataFrame) -> pd.DataFrame:
        ks = ray.get(key_ref)
        return batch[np.isin(batch[on].to_numpy(), ks)]

    return left.map_batches(fil, batch_format="pandas")


def anti_join(left: rd.Dataset, keys: np.ndarray, on: str) -> rd.Dataset:
    """Keep left rows whose key is NOT in ``keys``."""
    key_ref = ray.put(np.unique(keys))

    def fil(batch: pd.DataFrame) -> pd.DataFrame:
        ks = ray.get(key_ref)
        return batch[~np.isin(batch[on].to_numpy(), ks)]

    return left.map_batches(fil, batch_format="pandas")


# Size gate for the Dataset-vs-Dataset set ops below: a key side at or
# under the cap broadcasts (one ray.put, vectorized searchsorted-style
# membership per batch — the fast path the reference's sorted-merge
# never needed because it streamed both sides); above the cap the key
# side is NEVER driver-materialized — distinct keys stay distributed and
# the membership test becomes a native hash-shuffle join (the same
# discipline as exactsubstr_dedup's broadcast_cap, dedup.py).
SET_OP_BROADCAST_CAP = 5_000_000


def _key_column(keys_ds: rd.Dataset, col: str) -> np.ndarray:
    """One column of a materialized Dataset as a numpy array, read from
    its Arrow blocks (no per-row dicts)."""
    chunks = [t.column(col) for t in ray.get(keys_ds.to_arrow_refs())
              if t.num_rows]
    return pa.chunked_array(chunks).to_numpy() if chunks else np.empty(0)


def _distinct_keys(right: rd.Dataset, right_on: str,
                   out_name: str) -> rd.Dataset:
    """Distributed distinct over one key column, renamed ``out_name``,
    with a declared schema (group ops can emit schema-less empty blocks
    that crash a downstream shuffle-join build side)."""
    from .util import bucketed_group_agg, materialize_typed

    keys_ds = right.select_columns([right_on])

    def dd(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(right_on)

    distinct = bucketed_group_agg(keys_ds, [right_on], dd, pre=dd)
    sch = right.schema()
    ktype = dict(zip(sch.names, sch.types))[right_on]
    distinct = materialize_typed(distinct, pa.schema([(right_on, ktype)]))
    if out_name != right_on:
        distinct = distinct.map_batches(
            lambda t: t.rename_columns([out_name]), batch_format="pyarrow")
    return distinct


def semi_join_ds(left: rd.Dataset, right: rd.Dataset, on: str,
                 right_on: str | None = None,
                 broadcast_cap: int = SET_OP_BROADCAST_CAP,
                 _force_join: bool = False) -> rd.Dataset:
    """IntersectStream semantics (``io/stream/IntersectStream.java``)
    with a Dataset key side, size-gated: broadcast under the cap, native
    hash-shuffle join above it (the reference merges two sorted streams
    and never holds the key set in one process; at 10^12 rows neither do
    we)."""
    right_on = right_on or on
    keys_ds = right.select_columns([right_on]).materialize()
    n = keys_ds.count()
    if n <= broadcast_cap and not _force_join:
        keys = _key_column(keys_ds, right_on)
        return semi_join(left, keys, on)
    tmp = "__semi_key"
    distinct = _distinct_keys(keys_ds, right_on, tmp)
    from .util import native_join

    out = native_join(left, distinct, on=on, right_on=tmp,
                      join_type="inner")

    def drop_tmp(t: pa.Table) -> pa.Table:
        return t.drop_columns([c for c in (tmp,) if c in t.column_names])

    return out.map_batches(drop_tmp, batch_format="pyarrow")


def anti_join_ds(left: rd.Dataset, right: rd.Dataset, on: str,
                 right_on: str | None = None,
                 broadcast_cap: int = SET_OP_BROADCAST_CAP,
                 _force_join: bool = False) -> rd.Dataset:
    """ComplementStream semantics (``io/stream/ComplementStream.java``)
    with a Dataset key side, size-gated like :func:`semi_join_ds`. The
    join path is a left-outer join against the distinct marked key set;
    rows with a null marker are the complement."""
    import pyarrow.compute as pc

    right_on = right_on or on
    keys_ds = right.select_columns([right_on]).materialize()
    n = keys_ds.count()
    if n <= broadcast_cap and not _force_join:
        keys = _key_column(keys_ds, right_on)
        return anti_join(left, keys, on)
    tmp = "__anti_key"
    distinct = _distinct_keys(keys_ds, right_on, tmp)

    def mark(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__present", pa.array(np.ones(len(t), dtype=np.int8)))

    marked = distinct.map_batches(mark, batch_format="pyarrow")
    from .util import native_join

    out = native_join(left, marked, on=on, right_on=tmp,
                      join_type="left_outer")

    def fil(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_null(t.column("__present")))
        return t.drop_columns(
            [c for c in ("__present", tmp) if c in t.column_names])

    return out.map_batches(fil, batch_format="pyarrow")


def partitioned_hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: str,
    how: str = "inner",
    right_on: str | None = None,
    partitions_cap: int = 64,
) -> rd.Dataset:
    """Two-large-sides hash join: Ray's native hash-shuffle join
    (InnerJoinStream/BiJoinStream semantics, both sides large). One
    shuffle keyed on the join key, no schema padding, no type round-trip;
    partition count scales with the cluster (see ``util.native_join``).
    """
    from .util import native_join

    right_on = right_on or on
    lcols = left.schema().names
    rcols = right.schema().names
    overlap = (set(lcols) & set(rcols)) - ({on} if on == right_on else set())
    if overlap:
        raise ValueError(f"overlapping non-key columns: {overlap}")
    join_type = {"inner": "inner", "left": "left_outer",
                 "right": "right_outer", "outer": "full_outer"}[how]
    return native_join(left, right, on=on, right_on=right_on,
                       join_type=join_type, partitions_cap=partitions_cap)
