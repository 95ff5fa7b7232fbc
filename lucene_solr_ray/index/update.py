"""Incremental index updates: the TopicStream / NRT-reopen analog.

Reference semantics re-expressed (SURVEY.md §2.10, §1.5): new documents
arrive append-only past a checkpoint (TopicStream's ``_version_``
watermark, ``solr/solrj/.../io/stream/TopicStream.java``); they are
tokenized into new runs, and the term shuffle touches ONLY the shards the
new doc_id range lands in. A partially-filled tail shard is merged with
its existing segment — the log-structured merge (TieredMergePolicy /
mtree-merge analog, MapReduceIndexerTool.java:330-338) — and the manifest
generation is bumped (SegmentInfos.java:55-140 two-phase publish). Global
statistics are recomputed exactly, so post-update scores equal a
from-scratch build's (asserted in tests).
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..search import bm25
from . import segment
from .build import (
    MANIFEST_NAME,
    SegmentWriter,
    TokenizeStage,
    _explode_runs,
    _manifest_row_table,
    compute_stats,
    read_manifest,
)


@ray.remote
def _add_doc_ids_from(block: pa.Table, offset: int, docs_per_shard: int) -> pa.Table:
    doc_id = np.arange(offset, offset + block.num_rows, dtype=np.int64)
    block = block.append_column("doc_id", pa.array(doc_id, type=pa.int64()))
    return block.append_column(
        "doc_shard", pa.array(doc_id // docs_per_shard, type=pa.int32()))


def _decode_segment_to_postings(terms_file: Path, base: int,
                                codec: str = "varint") -> pa.Table:
    """Existing segment -> posting rows (term, doc_id, freq, positions)."""
    t = pq.read_table(terms_file)
    terms_out, docs_out, freqs_out, pos_lists = [], [], [], []
    for i in range(t.num_rows):
        docs = segment.decode_doc_ids(t.column("doc_ids_enc")[i].as_py(),
                                      base, codec)
        freqs = segment.decode_freqs(t.column("freqs_enc")[i].as_py(), codec)
        flat, offs = segment.decode_positions(
            t.column("positions_enc")[i].as_py(), freqs, codec)
        term = t.column("term")[i].as_py()
        terms_out.extend([term] * len(docs))
        docs_out.append(docs)
        freqs_out.append(freqs)
        pos_lists.append((flat, offs))
    if not terms_out:
        return None
    docs_np = np.concatenate(docs_out)
    freqs_np = np.concatenate(freqs_out)
    flat_all = np.concatenate([f for f, _ in pos_lists]) if pos_lists else np.empty(0)
    pos_offsets = np.concatenate(([0], np.cumsum(freqs_np)))
    return pa.table({
        "term": pa.array(terms_out, type=pa.string()).dictionary_encode(),
        "doc_id": pa.array(docs_np, type=pa.int64()),
        "freq": pa.array(freqs_np, type=pa.int64()),
        "positions": pa.LargeListArray.from_arrays(
            pos_offsets.astype(np.int64),
            pa.array(flat_all.astype(np.int32), type=pa.int32())),
    })


class MergingSegmentWriter(SegmentWriter):
    """SegmentWriter that first folds in an existing shard segment."""

    def __call__(self, group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return _manifest_row_table([])
        shard_id = int(group.column("doc_shard")[0].as_py())
        shard_dir = Path(self.index_dir) / "shards" / f"shard={shard_id:05d}"
        aside = shard_dir.parent / f".merging-shard={shard_id:05d}"
        if aside.exists():
            # a previous merge crashed after set-aside. The aside copy is
            # the authoritative pristine segment: shard_dir (if present)
            # may be partial or already contain the incoming group (a
            # re-merge into it would duplicate postings), so it is
            # discarded and the aside restored before redoing the merge —
            # the merge is idempotent from the pristine old segment.
            shutil.rmtree(shard_dir, ignore_errors=True)
            os.rename(aside, shard_dir)
        terms_file = shard_dir / "terms.parquet"
        if terms_file.exists():
            base = shard_id * self.docs_per_shard
            old = _decode_segment_to_postings(terms_file, base, self.codec)
            if old is not None:
                old = old.append_column(
                    "doc_shard",
                    pa.array(np.full(old.num_rows, shard_id, dtype=np.int32),
                             type=pa.int32()))
                group = pa.concat_tables(
                    [old.select(group.column_names), group])
            # set the old segment ASIDE (atomic rename, recoverable above)
            # rather than deleting it before the replacement is written —
            # a crash in that window would otherwise lose the shard while
            # the manifest still references it
            shutil.rmtree(aside, ignore_errors=True)
            os.rename(shard_dir, aside)
        try:
            out = super().__call__(group)
        except BaseException:
            if aside.exists() and not shard_dir.exists():
                os.rename(aside, shard_dir)  # roll back
            raise
        shutil.rmtree(aside, ignore_errors=True)
        return out


def update_index(index_dir: str, source: str | rd.Dataset, *,
                 batch_size: int = 4096, concurrency: int | None = None,
                 overwrite: bool = False,
                 manifest_extra: dict | None = None) -> dict:
    """Append new documents to an existing index.

    ``manifest_extra`` (optional) is merged into the FINAL manifest
    publish only — one atomic rename records both the new index state
    and the caller's marker (the UpdateLog uses this to make apply +
    applied-record a single atomic step; intermediate bumps such as the
    overwrite-path tombstone write never carry it).

    ``overwrite=False`` (default): strictly append-only past the
    checkpoint (TopicStream watermark). ``overwrite=True``: updateDocument
    semantics (IndexWriter.java:1503) — incoming (conv_id, turn_idx) keys
    that already exist have their old doc_ids tombstoned and the new
    versions are appended with fresh doc_ids; the old versions become
    unreachable. With overwrite the doc_id order no longer mirrors global
    key order, so tie-breaks may differ from a from-scratch rebuild
    (same as the reference, where updated docs get new docIDs)."""
    index_path = Path(index_dir)
    manifest = read_manifest(index_dir)
    params = manifest["params"]
    docs_per_shard = params["docs_per_shard"]
    base_doc = manifest["stats"]["num_docs"]

    from .build import ds_select

    if isinstance(source, str):
        import pyarrow.dataset as _pads

        from .build import DOCVALUE_FIELDS

        src_fields = {f.name for f in _pads.dataset(source).schema}
        extra = [c for c in DOCVALUE_FIELDS if c in src_fields]
        ds = rd.read_parquet(source,
                             columns=["conv_id", "turn_idx", "text"] + extra)
    else:
        ds = ds_select(source)

    # append-only checkpoint check (TopicStream watermark semantics)
    checkpoint = manifest.get("checkpoint")
    if checkpoint is not None and not overwrite:
        first = ds.take(1)[0]
        if (first["conv_id"], int(first["turn_idx"])) <= tuple(checkpoint):
            raise ValueError(
                f"update must be past checkpoint {checkpoint}, got "
                f"({first['conv_id']}, {first['turn_idx']})")

    mat = ds.materialize()
    refs = mat.to_arrow_refs()
    metas = ray.get([_block_meta_update.remote(r) for r in refs])
    counts = [m["rows"] for m in metas]
    # the doc_id == rank invariant requires the update batch itself to be
    # (conv_id, turn_idx)-sorted, same as the build's per-block check —
    # unsorted input would silently diverge from a from-scratch rebuild
    prev_last = None
    for m in metas:
        if m["rows"] == 0:
            continue
        if not m["sorted_within"]:
            raise ValueError("update rows not sorted by (conv_id, turn_idx)")
        if prev_last is not None and tuple(m["first"]) < tuple(prev_last):
            raise ValueError(
                "update blocks out of (conv_id, turn_idx) order")
        prev_last = m["last"]
    if overwrite:
        # updateDocument: tombstone the existing versions of incoming keys
        incoming = [k for ks in ray.get([_block_keys.remote(r)
                                         for r in refs]) for k in ks]
        if incoming:
            delete_documents(index_dir, keys=incoming)
            manifest = read_manifest(index_dir)  # version bumped
    offsets = np.concatenate(([0], np.cumsum(counts))) + base_doc
    new_refs = [
        _add_doc_ids_from.remote(r, int(offsets[i]), docs_per_shard)
        for i, r in enumerate(refs)
    ]
    ds = rd.from_arrow_refs(new_refs)

    if concurrency is None:
        concurrency = max(2, int(ray.cluster_resources().get("CPU", 4)) - 1)

    runs_dir = index_path / f"runs_update_{manifest['version'] + 1}"
    tokenized = ds.map_batches(
        TokenizeStage,
        fn_constructor_kwargs={"analyzer_name": params["analyzer"]},
        batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True, concurrency=concurrency)
    tokenized.write_parquet(str(runs_dir))

    # exact updated global stats
    delta = compute_stats(rd.read_parquet(str(runs_dir), columns=["doc_len"]))
    stats = manifest["stats"]
    new_stats = {
        "num_docs": stats["num_docs"] + delta["num_docs"],
        "doc_count": stats["doc_count"] + delta["doc_count"],
        "sum_total_term_freq":
            stats["sum_total_term_freq"] + delta["sum_total_term_freq"],
    }
    new_stats["avgdl"] = float(bm25.avg_field_length(
        new_stats["sum_total_term_freq"], max(new_stats["doc_count"], 1)))

    # append norms for the new docs
    import pyarrow.dataset as _pads

    from .build import DOCVALUE_FIELDS

    runs_fields = {f.name for f in _pads.dataset(str(runs_dir)).schema}
    ncols = (["doc_id", "doc_shard", "conv_id", "turn_idx"]
             + [c for c in DOCVALUE_FIELDS if c in runs_fields]
             + ["doc_len", "norm_byte"])
    rd.read_parquet(str(runs_dir), columns=ncols).write_parquet(
        str(index_path / "norms"), partition_cols=["doc_shard"])

    # term shuffle over the NEW postings only; tail shard merges its old data
    runs = rd.read_parquet(
        str(runs_dir),
        columns=["doc_id", "doc_shard", "terms", "freqs", "pos_flat"])
    postings = runs.map_batches(_explode_runs, batch_format="pyarrow",
                                zero_copy_batch=True)
    writer = functools.partial(
        _merge_segment_group, index_dir=str(index_path),
        docs_per_shard=int(docs_per_shard),
        codec=manifest["params"].get("postings_codec", "varint"))
    new_rows = (postings.groupby("doc_shard")
                .map_groups(writer, batch_format="pyarrow").take_all())

    shards = {s["shard_id"]: s for s in manifest["shards"]}
    for r in new_rows:
        shards[r["shard_id"]] = {k: int(v) for k, v in r.items()}

    # checkpoint = last key of the updated input (last non-empty block's
    # order metadata); never moves backward (overwrite batches may carry
    # old keys)
    checkpoint = list(prev_last) if prev_last is not None else None
    old_cp = manifest.get("checkpoint")
    if old_cp is not None and (checkpoint is None
                               or tuple(old_cp) > tuple(checkpoint)):
        checkpoint = list(old_cp)

    new_manifest = {
        **manifest,
        **(manifest_extra or {}),
        "version": manifest["version"] + 1,
        "created_unix": time.time(),
        "stats": new_stats,
        "checkpoint": checkpoint,
        "shards": [shards[k] for k in sorted(shards)],
    }
    tmp = index_path / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(new_manifest, indent=1))
    os.replace(tmp, index_path / MANIFEST_NAME)
    shutil.rmtree(runs_dir, ignore_errors=True)
    return new_manifest


@ray.remote
def _count_rows(block: pa.Table) -> int:
    return block.num_rows


@ray.remote
def _block_meta_update(block: pa.Table) -> dict:
    """Row count + (conv_id, turn_idx) order metadata for one block."""
    n = block.num_rows
    if n == 0:
        return {"rows": 0, "first": None, "last": None,
                "sorted_within": True}
    cids = np.asarray(block.column("conv_id").to_pylist(), dtype=object)
    turns = block.column("turn_idx").to_numpy(zero_copy_only=False)
    if n > 1:
        a, b = cids[:-1], cids[1:]
        ok = bool(np.all((a < b) | ((a == b) & (turns[:-1] <= turns[1:]))))
    else:
        ok = True
    return {
        "rows": n,
        "first": (str(cids[0]), int(turns[0])),
        "last": (str(cids[-1]), int(turns[-1])),
        "sorted_within": ok,
    }


def _merge_segment_group(group: pa.Table, index_dir: str,
                         docs_per_shard: int,
                         codec: str = "varint") -> pa.Table:
    return MergingSegmentWriter(index_dir, docs_per_shard, codec)(group)


# --------------------------------------------------------------------------
# deletes / overwrite (IndexWriter.deleteDocuments / updateDocument,
# IndexWriter.java:1503; SignatureUpdateProcessor overwrite-on-signature)
# --------------------------------------------------------------------------

DELETES_NAME = "_DELETES.json"


def read_deletes(index_dir: str) -> set[int]:
    """Tombstoned doc_ids (live-docs complement). Empty set if none."""
    f = Path(index_dir) / DELETES_NAME
    if not f.exists():
        return set()
    return set(json.loads(f.read_text())["doc_ids"])


def delete_documents(index_dir: str, doc_ids=None, keys=None,
                     manifest_extra: dict | None = None) -> dict:
    """Tombstone documents by doc_id or by (conv_id, turn_idx) key.

    Lucene semantics: deleted docs become unreachable from every query
    (liveDocs mask in the searchers) immediately, while index-level
    statistics (docFreq, docCount, sumTotalTermFreq) keep counting them
    until a merge rewrites the segments — exactly the reference's
    maxDoc/numDocs distinction (IndexWriter.deleteDocuments; stats decay
    at merge, not at delete). The manifest version is bumped (NRT reopen
    picks the tombstones up).
    """
    index_path = Path(index_dir)
    manifest = read_manifest(index_dir)
    dels = read_deletes(index_dir)
    resolved = {int(d) for d in (doc_ids or [])}
    if keys:
        import pyarrow.dataset as pads

        want = {(str(c), int(t)) for c, t in keys}
        t = pads.dataset(str(index_path / "norms"), format="parquet",
                         partitioning="hive").to_table(
            columns=["doc_id", "conv_id", "turn_idx"],
            filter=pads.field("conv_id").isin([c for c, _ in want]))
        for r in t.to_pylist():
            if (str(r["conv_id"]), int(r["turn_idx"])) in want:
                resolved.add(int(r["doc_id"]))
    newly = resolved - dels
    all_dels = sorted(dels | resolved)
    tmp = index_path / (DELETES_NAME + ".tmp")
    tmp.write_text(json.dumps({"doc_ids": all_dels}))
    os.replace(tmp, index_path / DELETES_NAME)

    new_manifest = {**manifest,
                    **(manifest_extra or {}),
                    "version": manifest["version"] + 1,
                    "created_unix": time.time(),
                    "deleted_count": len(all_dels)}
    mtmp = index_path / (MANIFEST_NAME + ".tmp")
    mtmp.write_text(json.dumps(new_manifest, indent=1))
    os.replace(mtmp, index_path / MANIFEST_NAME)
    return {"deleted_now": sorted(newly), "total_deleted": len(all_dels)}


def add_indexes(dst_dir: str, src_dir: str) -> dict:
    """IndexWriter.addIndexes(Directory...) analog
    (``lucene/core/src/java/org/apache/lucene/index/IndexWriter.java:2680``):
    concatenate a prebuilt source index onto the destination WITHOUT
    re-analysis — the parallel-corpus composition step (build partition
    indexes independently, then fold them together).

    Source doc ids shift by the destination's maxDoc (the reference
    renumbers against the growing writer the same way); the shifted
    postings stream through the SAME per-target-shard merge machinery
    incremental updates use: decode tasks fan out per source shard, and
    ONE groupby on doc_shard merges into the destination segments (at
    100-TB scale the decode wave would stage parquet runs instead of
    returning in-memory tables; the merge shuffle is identical).
    Norms/docvalue rows append shifted into the hive partitions; stats
    sum exactly; source tombstone/expunged sets shift and union in.
    The two layouts may differ in docs_per_shard (the source's layout
    only drives decoding; placement uses the destination's); the
    ANALYZER must match — mixed analysis chains would blend
    incompatible token streams (the reference's compatible-schema
    requirement)."""
    import functools

    dst_path, src_path = Path(dst_dir), Path(src_dir)
    dstm, srcm = read_manifest(dst_dir), read_manifest(src_dir)
    if dstm["params"]["analyzer"] != srcm["params"]["analyzer"]:
        raise ValueError(
            "addIndexes requires matching analyzer: "
            f"{dstm['params']['analyzer']!r} != "
            f"{srcm['params']['analyzer']!r}")
    dps = int(dstm["params"]["docs_per_shard"])
    src_dps = int(srcm["params"]["docs_per_shard"])
    base = int(dstm["stats"]["num_docs"])

    @ray.remote
    def decode_shift(shard_id: int) -> pa.Table | None:
        terms_file = (src_path / "shards" / f"shard={shard_id:05d}"
                      / "terms.parquet")
        if not terms_file.exists():
            return None
        src_base = shard_id * src_dps
        t = _decode_segment_to_postings(
            terms_file, src_base,
            srcm["params"].get("postings_codec", "varint"))
        if t is None:
            return None
        docs = t.column("doc_id").to_numpy(zero_copy_only=False) + base
        out = t.drop_columns(["doc_id"])
        out = out.append_column("doc_id", pa.array(docs, type=pa.int64()))
        return out.append_column(
            "doc_shard", pa.array((docs // dps).astype(np.int32),
                                  type=pa.int32()))

    src_shards = sorted(s["shard_id"] for s in srcm["shards"])
    refs = [decode_shift.remote(sid) for sid in src_shards]
    tables = [r for r in ray.get(refs) if r is not None]
    new_rows = []
    if tables:
        postings = rd.from_arrow_refs([ray.put(t) for t in tables])
        writer = functools.partial(
            _merge_segment_group, index_dir=str(dst_path),
            docs_per_shard=dps,
            codec=dstm["params"].get("postings_codec", "varint"))
        new_rows = (postings.groupby("doc_shard")
                    .map_groups(writer, batch_format="pyarrow").take_all())

    # norms/docvalue rows: shift and append into the hive partitions
    def shift_norms(t: pa.Table) -> pa.Table:
        docs = t.column("doc_id").to_numpy(zero_copy_only=False) + base
        t = t.drop_columns(["doc_id"] + (["doc_shard"]
                                         if "doc_shard" in t.column_names
                                         else []))
        t = t.append_column("doc_id", pa.array(docs, type=pa.int64()))
        return t.append_column(
            "doc_shard", pa.array((docs // dps).astype(np.int32),
                                  type=pa.int32()))

    rd.read_parquet(str(src_path / "norms")).map_batches(
        shift_norms, batch_format="pyarrow").write_parquet(
        str(dst_path / "norms"), partition_cols=["doc_shard"])

    # tombstones / expunged shift and union
    src_dels = {d + base for d in read_deletes(src_dir)}
    if src_dels:
        all_dels = sorted(read_deletes(dst_dir) | src_dels)
        tmp = dst_path / (DELETES_NAME + ".tmp")
        tmp.write_text(json.dumps({"doc_ids": all_dels}))
        os.replace(tmp, dst_path / DELETES_NAME)
    src_exp = {d + base for d in read_expunged(src_dir)}
    if src_exp:
        all_exp = sorted(read_expunged(dst_dir) | src_exp)
        etmp = dst_path / (EXPUNGED_NAME + ".tmp")
        etmp.write_text(json.dumps({"doc_ids": all_exp}))
        os.replace(etmp, dst_path / EXPUNGED_NAME)

    d_stats, s_stats = dstm["stats"], srcm["stats"]
    new_stats = {
        "num_docs": d_stats["num_docs"] + s_stats["num_docs"],
        "doc_count": d_stats["doc_count"] + s_stats["doc_count"],
        "sum_total_term_freq": (d_stats["sum_total_term_freq"]
                                + s_stats["sum_total_term_freq"]),
    }
    new_stats["avgdl"] = float(bm25.avg_field_length(
        new_stats["sum_total_term_freq"], max(new_stats["doc_count"], 1)))

    shards = {s["shard_id"]: s for s in dstm["shards"]}
    for r in new_rows:
        shards[int(r["shard_id"])] = {k: int(v) for k, v in r.items()}
    cp_d, cp_s = dstm.get("checkpoint"), srcm.get("checkpoint")
    checkpoint = max((tuple(c) for c in (cp_d, cp_s) if c is not None),
                     default=None)
    new_manifest = {**dstm,
                    "version": dstm["version"] + 1,
                    "created_unix": time.time(),
                    "stats": new_stats,
                    "checkpoint": list(checkpoint) if checkpoint else None,
                    "shards": [shards[k] for k in sorted(shards)]}
    mtmp = dst_path / (MANIFEST_NAME + ".tmp")
    mtmp.write_text(json.dumps(new_manifest, indent=1))
    os.replace(mtmp, dst_path / MANIFEST_NAME)
    return {"added_docs": int(s_stats["num_docs"]),
            "num_docs": int(new_stats["num_docs"]),
            "version": new_manifest["version"]}


def expire_documents(index_dir: str, expire_before, field: str = "ts",
                     expunge: bool = False) -> dict:
    """TTL document expiration (``solr/core/src/java/org/apache/solr/
    update/processor/DocExpirationUpdateProcessorFactory.java:103`` —
    the periodic ``deleteByQuery {field}:[* TO NOW]`` its reaper thread
    issues): tombstone every doc whose ``field`` docvalue is strictly
    before ``expire_before``.

    The scan pushes the predicate into the norms/docvalue parquet read
    (only doc_id + the field leave storage, row groups prune); deletion
    reuses the tombstone path, so expiry is NRT-visible on the next
    manifest reopen. ``expunge=True`` chains forceMergeDeletes to
    reclaim the space immediately."""
    import pyarrow.dataset as pads

    index_path = Path(index_dir)
    _recover_norms_partitions(index_path)
    cutoff = pa.scalar(np.datetime64(expire_before, "us")) \
        if not isinstance(expire_before, (int, float)) else \
        pa.scalar(expire_before)
    t = pads.dataset(str(index_path / "norms"), format="parquet",
                     partitioning="hive").to_table(
        columns=["doc_id"], filter=pads.field(field) < cutoff)
    ids = t.column("doc_id").to_pylist()
    out = {"expired_now": 0, "total_deleted": None}
    if ids:
        out = delete_documents(index_dir, doc_ids=ids)
        out = {"expired_now": len(out["deleted_now"]),
               "total_deleted": out["total_deleted"]}
    if expunge:
        out["expunge"] = expunge_deletes(index_dir)
    return out


EXPUNGED_NAME = "_EXPUNGED.json"


def read_expunged(index_dir: str) -> set[int]:
    """Doc ids whose postings/norms rows were physically removed."""
    f = Path(index_dir) / EXPUNGED_NAME
    if not f.exists():
        return set()
    return set(json.loads(f.read_text())["doc_ids"])


def _expunge_shard(index_dir: str, shard_id: int, docs_per_shard: int,
                   del_arr: np.ndarray,
                   codec: str = "varint") -> dict | None:
    """Rewrite one shard segment without the tombstoned docs (atomic via
    the merge machinery's aside-rename; crash-safe the same way).
    Returns the new manifest row, or None when the shard was untouched."""
    from .build import SegmentWriter, _manifest_row_table  # noqa: F401

    shard_dir = Path(index_dir) / "shards" / f"shard={shard_id:05d}"
    aside = shard_dir.parent / f".merging-shard={shard_id:05d}"
    if aside.exists():  # recover a crashed rewrite: aside is pristine
        shutil.rmtree(shard_dir, ignore_errors=True)
        os.rename(aside, shard_dir)
    terms_file = shard_dir / "terms.parquet"
    if not terms_file.exists():
        return None
    base = shard_id * docs_per_shard
    lo, hi = base, base + docs_per_shard
    local_dels = del_arr[(del_arr >= lo) & (del_arr < hi)]
    if len(local_dels) == 0:
        return None
    old = _decode_segment_to_postings(terms_file, base, codec)
    if old is None:
        return None
    docs = old.column("doc_id").to_numpy(zero_copy_only=False)
    keep = ~np.isin(docs, local_dels)
    if keep.all():
        return None
    filtered = old.filter(pa.array(keep))
    filtered = filtered.append_column(
        "doc_shard", pa.array(np.full(filtered.num_rows, shard_id,
                                      dtype=np.int32), type=pa.int32()))
    os.rename(shard_dir, aside)
    try:
        writer = SegmentWriter(index_dir, docs_per_shard, codec)
        if filtered.num_rows:
            out = writer(filtered)
            row = {k: int(out.column(k)[0].as_py())
                   for k in out.column_names}
        else:
            # every posting belonged to deleted docs: the shard is empty
            row = {"shard_id": shard_id, "doc_lo": lo, "doc_hi": hi,
                   "term_count": 0, "posting_count": 0, "doc_count": 0}
    except BaseException:
        if aside.exists() and not shard_dir.exists():
            os.rename(aside, shard_dir)
        raise
    shutil.rmtree(aside, ignore_errors=True)
    return row


def _expunge_norms_partition(index_dir: str, doc_shard: int,
                             del_arr: np.ndarray) -> int:
    """Drop tombstoned rows from one norms/docvalue partition with the
    atomic two-rename the atomic-update path uses. Returns rows removed."""
    part = Path(index_dir) / "norms" / f"doc_shard={doc_shard}"
    if not part.exists():
        return 0
    t = pq.read_table(part)
    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    keep = ~np.isin(ids, del_arr)
    removed = int((~keep).sum())
    if removed == 0:
        return 0
    staging = part.parent / f".staging-expunge-{doc_shard}"
    # aside follows the .dvold-<partition-name> convention so
    # recover_norms_partitions restores THIS partition after a crash
    # between the two renames
    asideN = part.parent / f".dvold-doc_shard={doc_shard}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    pq.write_table(t.filter(pa.array(keep)), staging / "run-00000.parquet")
    shutil.rmtree(asideN, ignore_errors=True)
    os.rename(part, asideN)
    os.rename(staging, part)
    shutil.rmtree(asideN, ignore_errors=True)
    return removed


def expunge_deletes(index_dir: str) -> dict:
    """IndexWriter.forceMergeDeletes analog (``IndexWriter.java:1742``):
    physically remove tombstoned docs' postings and norms/docvalue rows,
    reclaiming space and shrinking the collection statistics the way a
    reference merge does.

    Doc ids are NOT renumbered — they are the stable shard layout — so
    the tombstone mask in ``_DELETES.json`` stays authoritative for
    liveness (e.g. MatchAllDocs) while the heavy per-doc data is gone;
    ``_EXPUNGED.json`` records which ids are physically absent so
    ``check_index`` can keep asserting exact docmap coverage. Stats
    (doc_count, sumTotalTermFreq, avgdl) are recomputed from the
    surviving norms rows — scores shift exactly like after a reference
    merge. Per-shard rewrites fan out as Ray tasks, each atomic via the
    merge aside-rename, so a crash mid-expunge recovers per shard.
    """
    index_path = Path(index_dir)
    manifest = read_manifest(index_dir)
    dels = read_deletes(index_dir)
    already = read_expunged(index_dir)
    todo = sorted(dels - already)
    if not todo:
        return {"expunged_now": 0, "total_expunged": len(already)}
    del_arr = np.asarray(todo, dtype=np.int64)
    docs_per_shard = int(manifest["params"]["docs_per_shard"])
    shard_ids = sorted(s["shard_id"] for s in manifest["shards"])

    seg_task = ray.remote(_expunge_shard)
    norm_task = ray.remote(_expunge_norms_partition)
    seg_rows = ray.get([
        seg_task.remote(str(index_path), sid, docs_per_shard, del_arr,
                        manifest["params"].get("postings_codec", "varint"))
        for sid in shard_ids])
    removed = ray.get([
        norm_task.remote(str(index_path), sid, del_arr)
        for sid in shard_ids])

    shards = {s["shard_id"]: s for s in manifest["shards"]}
    for row in seg_rows:
        if row is not None:
            shards[row["shard_id"]] = {k: int(v) for k, v in row.items()}

    # recompute collection stats from the surviving norms rows
    import pyarrow.dataset as pads

    nt = pads.dataset(str(index_path / "norms"), format="parquet",
                      partitioning="hive").to_table(columns=["doc_len"])
    doc_len = nt.column("doc_len").to_numpy(zero_copy_only=False)
    stats = manifest["stats"]
    new_stats = {
        "num_docs": stats["num_docs"],  # maxDoc: layout, never shrinks
        "doc_count": int((doc_len > 0).sum()),
        "sum_total_term_freq": int(doc_len.sum()),
    }
    new_stats["avgdl"] = float(bm25.avg_field_length(
        new_stats["sum_total_term_freq"], max(new_stats["doc_count"], 1)))

    all_expunged = sorted(already | set(todo))
    etmp = index_path / (EXPUNGED_NAME + ".tmp")
    etmp.write_text(json.dumps({"doc_ids": all_expunged}))
    os.replace(etmp, index_path / EXPUNGED_NAME)

    new_manifest = {**manifest,
                    "version": manifest["version"] + 1,
                    "created_unix": time.time(),
                    "stats": new_stats,
                    "expunged_count": len(all_expunged),
                    "shards": [shards[k] for k in sorted(shards)]}
    mtmp = index_path / (MANIFEST_NAME + ".tmp")
    mtmp.write_text(json.dumps(new_manifest, indent=1))
    os.replace(mtmp, index_path / MANIFEST_NAME)
    return {"expunged_now": len(todo), "removed_rows": int(sum(removed)),
            "total_expunged": len(all_expunged)}


@ray.remote
def _block_keys(block: pa.Table) -> list:
    return list(zip(block.column("conv_id").to_pylist(),
                    (int(x) for x in block.column("turn_idx").to_pylist())))


# --------------------------------------------------------------------------
# real-time get + atomic partial updates
# (RealTimeGetComponent.java:78; AtomicUpdateDocumentMerger.java:44;
#  in-place docvalue path: IndexWriter.updateDocValues / updateNumericDocValue)
# --------------------------------------------------------------------------

_NORMS_SYSTEM_COLS = ("doc_id", "doc_shard", "doc_len", "norm_byte")


def _recover_norms_partitions(index_path: Path) -> None:
    """See segment.recover_norms_partitions — shared with every index
    opener so searchers also heal a crashed partition swap."""
    segment.recover_norms_partitions(index_path)


def realtime_get(index_dir: str, keys=None, doc_ids=None) -> pa.Table:
    """Stored-fields lookup by (conv_id, turn_idx) key or doc_id,
    honoring tombstones (RealTimeGetComponent semantics: the freshest
    committed version; tombstoned docs are absent).

    doc_id lookups prune to the single ``doc_shard`` norms partition
    (doc-range sharding makes the partition derivable); key lookups
    push an equality filter into the parquet scan. At 10^12 docs the key
    path would want a key->doc_id index segment; the doc_id path is
    already O(1 partition).
    """
    import pyarrow.dataset as pads

    index_path = Path(index_dir)
    _recover_norms_partitions(index_path)
    manifest = read_manifest(index_dir)
    docs_per_shard = manifest["params"]["docs_per_shard"]
    dels = read_deletes(index_dir)

    tables = []
    if doc_ids:
        wanted = sorted({int(d) for d in doc_ids} - dels)
        by_shard: dict[int, list[int]] = {}
        for d in wanted:
            by_shard.setdefault(d // docs_per_shard, []).append(d)
        for sid, ids in by_shard.items():
            part = index_path / "norms" / f"doc_shard={sid}"
            if not part.exists():
                continue
            t = pads.dataset(str(part), format="parquet").to_table(
                filter=pads.field("doc_id").isin(ids))
            tables.append(t)
    if keys:
        want = {(str(c), int(t)) for c, t in keys}
        d = pads.dataset(str(index_path / "norms"), format="parquet",
                         partitioning="hive")
        t = d.to_table(filter=pads.field("conv_id").isin(
            sorted({c for c, _ in want})))
        mask = [(str(c), int(x)) in want and int(i) not in dels
                for c, x, i in zip(t.column("conv_id").to_pylist(),
                                   t.column("turn_idx").to_pylist(),
                                   t.column("doc_id").to_pylist())]
        tables.append(t.filter(pa.array(mask, type=pa.bool_())))
    if not tables:
        return None
    out = pa.concat_tables(tables, promote_options="default")
    # doc_shard is a hive partition column on the key path but absent on
    # the single-partition doc_id path; a mixed keys+doc_ids call would
    # otherwise null-fill the doc_id rows. Derive it from doc_id
    # unconditionally (doc-range sharding makes it a pure function).
    ids = out.column("doc_id").to_numpy(zero_copy_only=False)
    shard_col = pa.array((ids // docs_per_shard).astype(np.int32),
                         type=pa.int32())
    if "doc_shard" in out.column_names:
        out = out.set_column(out.column_names.index("doc_shard"),
                             "doc_shard", shard_col)
    else:
        out = out.append_column("doc_shard", shard_col)
    return out.sort_by("doc_id")


def _apply_ops(current: dict, ops: dict) -> dict:
    """AtomicUpdateDocumentMerger.java:44 op vocabulary on one doc's
    stored fields: set / inc / remove (add is multivalued-only in the
    reference; our fields are single-valued, so it is rejected)."""
    merged = dict(current)
    for field, op in ops.items():
        if not isinstance(op, dict):
            raise ValueError(
                f"field {field!r}: ops must be {{'set'|'inc'|'remove': ...}}")
        for verb, arg in op.items():
            if verb == "set":
                merged[field] = arg
            elif verb == "inc":
                cur = merged.get(field)
                merged[field] = (0 if cur is None else cur) + arg
            elif verb == "remove":
                merged[field] = None
            elif verb == "add":
                raise ValueError(
                    f"field {field!r}: 'add' needs a multivalued field "
                    "(single-valued schema here, matching the reference's "
                    "error for add-on-single-valued)")
            else:
                raise ValueError(f"unknown atomic op {verb!r}")
    return merged


def atomic_update(index_dir: str, updates: list[dict],
                  manifest_extra: dict | None = None) -> dict:
    """Atomic partial document updates
    (``solr/core/.../update/processor/AtomicUpdateDocumentMerger.java:44``).

    Each update: ``{"conv_id": ..., "turn_idx": ..., <field>: {"set"|
    "inc"|"remove": value}, ...}``. The current stored document is
    fetched (real-time get), ops are merged in, and then:

    - ops touching only stored metadata fields take the IN-PLACE docvalue
      path (IndexWriter.updateNumericDocValue analog): the affected norms
      partitions are rewritten atomically; postings are untouched.
    - a ``set`` on ``text`` re-indexes the merged document through the
      overwrite machinery (tombstone + append, updateDocument semantics)
      because text is indexed, not stored — mirrors the reference, where
      atomic updates require non-stored copies to be recomputed.

    Docs must exist (the reference's merger requires the previous
    version). Manifest version bumps so NRT reopen sees the new values.
    """
    index_path = Path(index_dir)
    _recover_norms_partitions(index_path)
    manifest = read_manifest(index_dir)
    if not updates:
        return manifest
    for u in updates:
        # conv_id/turn_idx are the immutable key, never op targets
        if not isinstance(u.get("conv_id"), str) \
                or isinstance(u.get("turn_idx"), dict):
            raise ValueError(
                "conv_id/turn_idx identify the document and cannot be "
                "atomically updated; pass them as plain key values")
    keys = [(str(u["conv_id"]), int(u["turn_idx"])) for u in updates]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate keys in one atomic_update batch")
    current = realtime_get(index_dir, keys=keys)
    found = {} if current is None else {
        (str(r["conv_id"]), int(r["turn_idx"])): r
        for r in current.to_pylist()}
    missing = [k for k in keys if k not in found]
    if missing:
        raise KeyError(f"atomic update on missing documents: {missing[:5]}")

    norms_cols = set(current.column_names) - set(_NORMS_SYSTEM_COLS)
    text_docs, dv_rows = [], []
    for u, k in zip(updates, keys):
        ops = {f: v for f, v in u.items() if f not in ("conv_id", "turn_idx")}
        merged = _apply_ops(found[k], ops)
        if "text" in ops:
            if set(ops["text"]) != {"set"}:
                raise ValueError(
                    "text is indexed (not stored): only {'set': full_text} "
                    "is supported on it")
            text_docs.append(merged)
        else:
            unknown = [f for f in ops if f not in norms_cols]
            if unknown:
                raise ValueError(
                    f"unknown stored fields {unknown}; stored: "
                    f"{sorted(norms_cols)}")
            dv_rows.append(merged)

    # --- in-place docvalue path: rewrite affected norms partitions ---
    if dv_rows:
        by_shard: dict[int, list[dict]] = {}
        for r in dv_rows:
            by_shard.setdefault(int(r["doc_shard"]), []).append(r)
        for sid, rows in by_shard.items():
            part = index_path / "norms" / f"doc_shard={sid}"
            aside = part.parent / f".dvold-{part.name}"
            t = pq.read_table(part)
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            pos = {int(d): i for i, d in enumerate(ids)}
            cols = {c: t.column(c).to_pylist() for c in t.column_names}
            for r in rows:
                i = pos[int(r["doc_id"])]
                for c in cols:
                    if c in _NORMS_SYSTEM_COLS or c in ("conv_id", "turn_idx"):
                        continue
                    cols[c][i] = r.get(c)
            new_t = pa.table({c: pa.array(v, type=t.schema.field(c).type)
                              for c, v in cols.items()})
            # crash-safe whole-partition swap (dot-prefixed staging dirs
            # are invisible to parquet dataset discovery): write the new
            # partition aside, then two renames — never a window where
            # old and new files coexist inside the live partition
            staging = part.parent / f".dvnew-{part.name}"
            shutil.rmtree(staging, ignore_errors=True)
            staging.mkdir()
            pq.write_table(new_t, staging / "dv-update.parquet")
            os.rename(part, aside)
            os.rename(staging, part)
            shutil.rmtree(aside, ignore_errors=True)
        # the docvalue publish is FINAL only when no text re-index follows
        new_manifest = {**manifest,
                        **({} if text_docs else (manifest_extra or {})),
                        "version": manifest["version"] + 1,
                        "created_unix": time.time()}
        mtmp = index_path / (MANIFEST_NAME + ".tmp")
        mtmp.write_text(json.dumps(new_manifest, indent=1))
        os.replace(mtmp, index_path / MANIFEST_NAME)
        manifest = new_manifest

    # --- re-index path for text sets (tombstone + append) ---
    if text_docs:
        text_docs.sort(key=lambda r: (str(r["conv_id"]), int(r["turn_idx"])))
        cols = {"conv_id": pa.array([r["conv_id"] for r in text_docs],
                                    type=pa.string()),
                "turn_idx": pa.array([int(r["turn_idx"]) for r in text_docs],
                                     type=pa.int32()),
                "text": pa.array([r["text"] for r in text_docs],
                                 type=pa.string())}
        for c in sorted(norms_cols - {"text"}):
            cols[c] = pa.array([r.get(c) for r in text_docs])
        manifest = update_index(index_dir, rd.from_arrow(pa.table(cols)),
                                overwrite=True,
                                manifest_extra=manifest_extra)

    return manifest


def split_index(src_dir: str, dst_a: str, dst_b: str,
                split_doc: int | None = None) -> dict:
    """SPLITSHARD analog (``solr/core/src/java/org/apache/solr/update/
    SolrIndexSplitter.java:63``): split one index into two standalone
    indexes at a doc boundary — the elasticity counterpart of
    ``add_indexes`` (resharding a too-hot shard at corpus scale).

    Where the reference rewrites every segment through a filtered
    IndexWriter.addIndexes pass, the doc-range-sharded layout makes the
    split almost metadata-only: ``split_doc`` must sit on a shard
    boundary, so every ``terms.parquet`` segment belongs wholly to one
    side — segment postings are shard-relative, so every
    ``terms.parquet`` copies verbatim on both sides. The norms/docvalue
    rows of side B rewrite
    (absolute doc_id/doc_shard columns shift), fanned out as one Ray task
    per partition; the same tasks return (num_docs, doc_count,
    sum_doc_len, key range) partials so each side's BM25 statistics are
    recomputed EXACTLY (split == rebuild-of-half, asserted in tests).
    Tombstones and expunged sets partition by the boundary and shift.

    Like the reference's hash-route split, a conversation straddling the
    boundary ends up with turns in both halves; the returned dict names
    it (``straddling_conv``) so callers can route block-join queries.
    Each side gets manifest version 1 with lineage clipped to its range.
    """
    src = Path(src_dir)
    m = read_manifest(src_dir)
    dps = int(m["params"]["docs_per_shard"])
    num_docs = int(m["stats"]["num_docs"])
    shards = sorted(m["shards"], key=lambda s: s["shard_id"])
    if split_doc is None:
        split_doc = dps * max(1, len(shards) // 2)
    split_doc = int(split_doc)
    if split_doc % dps != 0:
        raise ValueError(
            f"split_doc must be a multiple of docs_per_shard={dps} "
            f"(shard-aligned zero-re-encode split); got {split_doc}")
    if not (0 < split_doc < num_docs):
        raise ValueError(f"split_doc {split_doc} outside (0, {num_docs})")
    k = split_doc // dps

    for dst in (dst_a, dst_b):
        if (Path(dst) / MANIFEST_NAME).exists():
            raise ValueError(f"destination {dst} already holds an index")
        (Path(dst) / "shards").mkdir(parents=True, exist_ok=True)
        (Path(dst) / "norms").mkdir(parents=True, exist_ok=True)

    @ray.remote
    def copy_shard(shard_id: int, dst: str, new_id: int) -> None:
        # posting doc streams are shard-relative (the first delta is added
        # to shard_id*dps at decode), so a renumbered shard copies verbatim
        shutil.copytree(src / "shards" / f"shard={shard_id:05d}",
                        Path(dst) / "shards" / f"shard={new_id:05d}",
                        dirs_exist_ok=True)

    @ray.remote
    def move_norms(shard_id: int, dst: str, new_id: int,
                   shift: int) -> dict:
        part = src / "norms" / f"doc_shard={shard_id}"
        out = Path(dst) / "norms" / f"doc_shard={new_id}"
        out.mkdir(parents=True, exist_ok=True)
        n_rows = doc_count = sum_len = 0
        lo_key = hi_key = None
        for f in sorted(part.iterdir()):
            t = pq.read_table(f)
            if shift:
                docs = t.column("doc_id").to_numpy(
                    zero_copy_only=False) - shift
                t = t.drop_columns(["doc_id"]).append_column(
                    "doc_id", pa.array(docs, type=pa.int64()))
            pq.write_table(t, out / f.name)
            n_rows += t.num_rows
            dl = t.column("doc_len").to_numpy(zero_copy_only=False)
            doc_count += int((dl > 0).sum())
            sum_len += int(dl.sum())
            keys = list(zip(t.column("conv_id").to_pylist(),
                            (int(x) for x in
                             t.column("turn_idx").to_pylist())))
            if keys:
                lo, hi = min(keys), max(keys)
                lo_key = lo if lo_key is None else min(lo_key, lo)
                hi_key = hi if hi_key is None else max(hi_key, hi)
        return {"n_rows": n_rows, "doc_count": doc_count,
                "sum_len": sum_len, "lo_key": lo_key, "hi_key": hi_key}

    copy_refs, norm_refs = [], {"a": [], "b": []}
    for s in shards:
        sid = int(s["shard_id"])
        if sid < k:
            copy_refs.append(copy_shard.remote(sid, dst_a, sid))
            norm_refs["a"].append(move_norms.remote(sid, dst_a, sid, 0))
        else:
            copy_refs.append(copy_shard.remote(sid, dst_b, sid - k))
            norm_refs["b"].append(
                move_norms.remote(sid, dst_b, sid - k, split_doc))
    ray.get(copy_refs)
    parts = {side: ray.get(refs) for side, refs in norm_refs.items()}

    def side_stats(prt: list[dict], n: int) -> dict:
        doc_count = sum(p["doc_count"] for p in prt)
        sum_len = sum(p["sum_len"] for p in prt)
        return {"num_docs": n, "doc_count": doc_count,
                "sum_total_term_freq": sum_len,
                "avgdl": float(bm25.avg_field_length(
                    sum_len, max(doc_count, 1)))}

    def side_keys(prt: list[dict], which: str):
        ks = [p[which] for p in prt if p[which] is not None]
        return (min(ks) if which == "lo_key" else max(ks)) if ks else None

    dels, exps = read_deletes(src_dir), read_expunged(src_dir)
    lineage = m.get("lineage") or []

    def clip_lineage(lo: int, hi: int, shift: int) -> list:
        out = []
        for e in lineage:
            a, b = max(int(e["doc_lo"]), lo), min(int(e["doc_hi"]), hi)
            if a < b:
                out.append({**e, "doc_lo": a - shift, "doc_hi": b - shift})
        return out

    results = {}
    for side, dst, lo, hi, shift, prt in (
            ("a", dst_a, 0, split_doc, 0, parts["a"]),
            ("b", dst_b, split_doc, num_docs, split_doc, parts["b"])):
        n = hi - lo
        side_dels = sorted(d - shift for d in dels if lo <= d < hi)
        side_exps = sorted(d - shift for d in exps if lo <= d < hi)
        if side_dels:
            (Path(dst) / DELETES_NAME).write_text(
                json.dumps({"doc_ids": side_dels}))
        if side_exps:
            (Path(dst) / EXPUNGED_NAME).write_text(
                json.dumps({"doc_ids": side_exps}))
        hk = side_keys(prt, "hi_key")
        manifest = {
            "version": 1,
            "created_unix": time.time(),
            "params": m["params"],
            "stats": side_stats(prt, n),
            "checkpoint": list(hk) if hk else m.get("checkpoint"),
            "lineage": clip_lineage(lo, hi, shift),
            "deleted_count": len(side_dels),
            "shards": [
                {**s, "shard_id": s["shard_id"] - k,
                 "doc_lo": s["doc_lo"] - shift,
                 "doc_hi": s["doc_hi"] - shift}
                if shift else dict(s)
                for s in shards if lo <= int(s["doc_lo"]) < hi],
        }
        tmp = Path(dst) / (MANIFEST_NAME + ".tmp")
        tmp.write_text(json.dumps(manifest, indent=1))
        os.replace(tmp, Path(dst) / MANIFEST_NAME)
        results[side] = {"num_docs": n, "deleted": len(side_dels)}

    a_hi = side_keys(parts["a"], "hi_key")
    b_lo = side_keys(parts["b"], "lo_key")
    straddling = (a_hi[0] if a_hi and b_lo and a_hi[0] == b_lo[0]
                  else None)
    return {"split_doc": split_doc, "a": results["a"], "b": results["b"],
            "straddling_conv": straddling}
