"""Incremental index updates: the TopicStream / NRT-reopen analog.

Reference semantics re-expressed (SURVEY.md §2.10, §1.5): new documents
arrive append-only past a checkpoint (TopicStream's ``_version_``
watermark, ``solr/solrj/.../io/stream/TopicStream.java``). An append runs
the build's own two tasks (build.py; one indexing chain, as
``IndexWriter.addDocument`` shares the first build's flush): the delta's
doc ids continue from the manifest's ``num_docs``, so range sharding
sends it only to the shards its doc range lands in, with no shuffle. A
partly filled tail shard folds its live segment in — the log-structured
merge (TieredMergePolicy / mtree-merge analog,
MapReduceIndexerTool.java:330-338) — and the manifest generation is
bumped (SegmentInfos.java:55-140 two-phase publish). Global statistics
are the sum of the new generation's shard rows (``build.collection_stats``,
as every publish sums them), so post-update scores equal a from-scratch
build's (asserted in tests).
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd

from . import segment
from .build import (
    MANIFEST_NAME,
    _assemble_plan,
    _covering,
    _decode_segment_to_postings,
    _encode_shard_dir_task,
    _key_range,
    _launch_wave_a,
    _lineage,
    _materialize_source,
    _phase_clock,
    _read_footers,
    _rewrite_shard,
    _task_cpu,
    collection_stats,
    read_manifest,
    write_manifest,
)
from .segment import (DELETES_NAME, EXPUNGED_NAME, _write_ids, read_deletes,
                      read_expunged)


def update_index(index_dir: str, source: str | rd.Dataset, *,
                 concurrency: int | None = None, overwrite: bool = False,
                 manifest_extra: dict | None = None) -> dict:
    """Append new documents to an existing index; returns the manifest.

    The delta goes through the build's two waves. Wave A tokenizes it
    into the work dir ``index_dir/runs_update_<v>/`` (runs, norms, and
    offsets when the index stores them). Nothing live is touched until
    every check has passed: each task's sortedness, the key order across
    tasks, and (append-only) the checkpoint. Then wave B encodes each
    shard the delta reaches, folding in the live segment of a shard the
    manifest lists; the norms and offsets files move into the live
    partitions as ``u<v>-run-NNNNN.parquet``, and the manifest is
    published last. The work dir is removed whether or not it succeeds.

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
    t0 = time.time()
    phases, _phase = _phase_clock()
    index_path = Path(index_dir)
    manifest = read_manifest(index_dir)
    params = manifest["params"]
    dps = int(params["docs_per_shard"])
    work = index_path / f"runs_update_{manifest['version'] + 1}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "runs").mkdir(parents=True)
    try:
        if not isinstance(source, str):
            source = _materialize_source(source, work, True, False)
            _phase("materialize_source")
        if concurrency is None:
            concurrency = max(
                2, int(ray.cluster_resources().get("CPU", 4)) - 1)
        tasks, n_new = _assemble_plan(*_read_footers(source), concurrency,
                                      base=int(manifest["stats"]["num_docs"]))
        _phase("plan")

        partials = ray.get(_launch_wave_a(
            tasks, dps, params["analyzer"], work / "runs", work / "norms",
            work / "offsets" if params.get("offsets") else None))
        first_key, last_key = _key_range(partials)
        checkpoint = manifest.get("checkpoint")
        if (not overwrite and None not in (checkpoint, first_key)
                and tuple(first_key) <= tuple(checkpoint)):
            raise ValueError(f"update must be past checkpoint {checkpoint}, "
                             f"got {tuple(first_key)}")
        _phase("tokenize_runs")

        if overwrite and first_key is not None:
            # updateDocument: tombstone the live versions of incoming keys
            keys = pq.read_table(work / "norms",
                                 columns=["conv_id", "turn_idx"])
            delete_documents(index_dir, keys=list(zip(
                keys.column("conv_id").to_pylist(),
                keys.column("turn_idx").to_pylist())))
            manifest = read_manifest(index_dir)  # version bumped
        version = manifest["version"] + 1
        listed = {s["shard_id"] for s in manifest["shards"]}
        encoded = ray.get([
            _encode_shard_dir_task.remote(
                str(work / "runs"), sid, str(index_path), dps,
                params.get("postings_codec", "varint"), sid in listed)
            for sid in _covering(tasks, dps)])
        # versioned names: a partition's base-build or expunge file is
        # never overwritten
        for sub in ("norms", "offsets"):
            for f in sorted((work / sub).glob("*/*.parquet")):
                part = index_path / sub / f.parent.name
                part.mkdir(parents=True, exist_ok=True)
                os.replace(f, part / f"u{version}-{f.name}")
        _phase("term_group_encode")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    shards = _replace_rows(manifest["shards"], (r for rs, _ in encoded
                                                for r in rs))
    # never moves backward (overwrite batches may carry old keys)
    checkpoint = max((tuple(c) for c in (checkpoint, last_key)
                      if c is not None), default=None)
    return write_manifest(index_path, {
        **(manifest_extra or {}),
        "build_seconds": time.time() - t0,
        "phases": phases,
        "task_cpu_s": _task_cpu(partials, encoded),
        "stats": collection_stats(manifest["stats"]["num_docs"] + n_new,
                                  shards),
        "checkpoint": list(checkpoint) if checkpoint else None,
        "lineage": (manifest.get("lineage") or []) + _lineage(tasks),
        "shards": shards,
    }, prev=manifest)


def _replace_rows(rows: list[dict], new_rows) -> list[dict]:
    """Shard rows ``rows`` with each of ``new_rows`` in place of the row of
    its shard (or added), in shard order."""
    shards = {r["shard_id"]: r for r in rows}
    shards.update((r["shard_id"], r) for r in new_rows)
    return [shards[k] for k in sorted(shards)]


# --------------------------------------------------------------------------
# deletes / overwrite (IndexWriter.deleteDocuments / updateDocument,
# IndexWriter.java:1503; SignatureUpdateProcessor overwrite-on-signature)
# --------------------------------------------------------------------------


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
    _write_ids(index_path / DELETES_NAME, all_dels)

    write_manifest(index_path, {**(manifest_extra or {}),
                                "deleted_count": len(all_dels)},
                   prev=manifest)
    return {"deleted_now": sorted(newly), "total_deleted": len(all_dels)}


def add_indexes(dst_dir: str, src_dir: str) -> dict:
    """IndexWriter.addIndexes(Directory...) analog
    (``lucene/core/src/java/org/apache/lucene/index/IndexWriter.java:2680``):
    concatenate a prebuilt source index onto the destination WITHOUT
    re-analysis — the parallel-corpus composition step (build partition
    indexes independently, then fold them together).

    Source doc ids shift by the destination's maxDoc (the reference
    renumbers against the growing writer the same way); the shifted
    postings go through the SAME per-shard fold task ``update_index``
    uses: one decode task per source shard, and one fold task per
    destination shard, which takes as arguments the decode tasks whose
    shifted doc range overlaps it (range sharding: no shuffle). At
    100-TB scale the decode wave would stage parquet runs instead of
    returning in-memory tables. Norms/docvalue rows append shifted into
    the hive partitions, and so do the offsets sidecar's rows when the
    destination stores offsets (then the source must too); stats are
    summed from the new generation's shard rows, which equals the two
    indexes' stats added; source tombstone/expunged sets shift and union
    in, and the source's lineage rows append shifted, so lineage still
    covers every doc. The two layouts may differ in docs_per_shard (the source's
    layout only drives decoding; placement uses the destination's); the
    ANALYZER must match — mixed analysis chains would blend incompatible
    token streams (the reference's compatible-schema requirement)."""
    dst_path, src_path = Path(dst_dir), Path(src_dir)
    dstm, srcm = read_manifest(dst_dir), read_manifest(src_dir)
    if dstm["params"]["analyzer"] != srcm["params"]["analyzer"]:
        raise ValueError(
            "addIndexes requires matching analyzer: "
            f"{dstm['params']['analyzer']!r} != "
            f"{srcm['params']['analyzer']!r}")
    if dstm["params"].get("offsets") and not srcm["params"].get("offsets"):
        raise ValueError("addIndexes: the destination stores offsets and "
                         "the source does not")
    dps = int(dstm["params"]["docs_per_shard"])
    src_dps = int(srcm["params"]["docs_per_shard"])
    base = int(dstm["stats"]["num_docs"])

    @ray.remote
    def decode_shift(shard_id: int) -> pa.Table | None:
        terms_file = (src_path / "shards" / f"shard={shard_id:05d}"
                      / "terms.parquet")
        if not terms_file.exists():
            return None
        t = _decode_segment_to_postings(
            terms_file, shard_id, src_dps,
            srcm["params"].get("postings_codec", "varint"))
        if t is None:
            return None
        return _shift_docs(t, base, dps)

    src_shards = sorted(s["shard_id"] for s in srcm["shards"])
    refs = [decode_shift.remote(sid) for sid in src_shards]
    # each source shard's doc span, shifted, in the plan's task shape
    spans = [(sid, [], base + sid * src_dps,
              min(src_dps, int(srcm["stats"]["num_docs"]) - sid * src_dps))
             for sid in src_shards]
    listed = {s["shard_id"] for s in dstm["shards"]}
    new_rows = [r for rows, _ in ray.get([
        _encode_shard_dir_task.remote(
            None, sid, str(dst_path), dps,
            dstm["params"].get("postings_codec", "varint"), sid in listed,
            *(refs[i] for i in deps))
        for sid, deps in _covering(spans, dps).items()]) for r in rows]

    # norms/docvalue rows: shift and append into the hive partitions
    rd.read_parquet(str(src_path / "norms")).map_batches(
        _shift_docs, fn_args=(base, dps), batch_format="pyarrow"
    ).write_parquet(str(dst_path / "norms"), partition_cols=["doc_shard"])
    if dstm["params"].get("offsets"):
        for sid in src_shards:
            _move_offsets(src_path / "offsets" / f"shard={sid:05d}",
                          dst_path / "offsets", base, dps,
                          f"a{dstm['version'] + 1}-{sid:05d}-")

    # tombstones / expunged shift and union; the manifest counts them
    counts = {}
    for name, key, read_ids in (
            (DELETES_NAME, "deleted_count", read_deletes),
            (EXPUNGED_NAME, "expunged_count", read_expunged)):
        src_ids = {d + base for d in read_ids(src_dir)}
        ids = read_ids(dst_dir) | src_ids
        if src_ids:
            _write_ids(dst_path / name, sorted(ids))
        counts[key] = len(ids)

    shards = _replace_rows(dstm["shards"], new_rows)
    cp_d, cp_s = dstm.get("checkpoint"), srcm.get("checkpoint")
    checkpoint = max((tuple(c) for c in (cp_d, cp_s) if c is not None),
                     default=None)
    new_manifest = write_manifest(dst_path, {
        **counts,
        "stats": collection_stats(base + srcm["stats"]["num_docs"], shards),
        "checkpoint": list(checkpoint) if checkpoint else None,
        "lineage": (dstm.get("lineage") or []) + [
            {**e, "doc_lo": e["doc_lo"] + base, "doc_hi": e["doc_hi"] + base}
            for e in srcm.get("lineage") or []],
        "shards": shards}, prev=dstm)
    return {"added_docs": int(srcm["stats"]["num_docs"]),
            "num_docs": new_manifest["stats"]["num_docs"],
            "version": new_manifest["version"]}


def _shift_docs(t: pa.Table, base: int, docs_per_shard: int) -> pa.Table:
    """Rows with ``doc_id`` shifted by ``base`` and ``doc_shard`` set for a
    layout of ``docs_per_shard`` (in place; appended when absent)."""
    docs = t.column("doc_id").to_numpy(zero_copy_only=False) + base
    for name, col in (("doc_id", pa.array(docs, type=pa.int64())),
                      ("doc_shard", pa.array(
                          (docs // docs_per_shard).astype(np.int32)))):
        t = (t.set_column(t.column_names.index(name), name, col)
             if name in t.column_names else t.append_column(name, col))
    return t


def _move_offsets(src_part: Path, dst_offsets: Path, shift: int,
                  docs_per_shard: int, prefix: str) -> None:
    """Write the offsets-sidecar rows of the shard dir ``src_part`` under
    ``dst_offsets``, ``doc_id`` shifted by ``shift`` and each row in the
    shard dir of its new doc id for a layout of ``docs_per_shard``, as
    ``prefix`` + the source file's name. Row groups stay 32 rows, the
    highlighter's pushdown unit."""
    for f in sorted(src_part.glob("*.parquet")):
        t = _shift_docs(pq.read_table(f), shift, docs_per_shard)
        shard = t.column("doc_shard").to_numpy()
        for sid in np.unique(shard):
            part = dst_offsets / f"shard={sid:05d}"
            part.mkdir(parents=True, exist_ok=True)
            pq.write_table(t.filter(pa.array(shard == sid)).drop_columns(
                ["doc_shard"]), part / (prefix + f.name), row_group_size=32)


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
    segment.recover_norms_partitions(index_path)
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


def _expunge_shard(index_dir: str, shard_id: int, docs_per_shard: int,
                   del_arr: np.ndarray,
                   codec: str = "varint") -> dict | None:
    """Rewrite one shard segment without the tombstoned docs, crash-safe
    through ``_rewrite_shard`` (the append fold's set-aside + rollback).
    Returns the new manifest row, or None when the shard was untouched."""
    base = shard_id * docs_per_shard
    local_dels = del_arr[(del_arr >= base) & (del_arr < base + docs_per_shard)]

    def survivors(terms_file):
        if terms_file is None or not len(local_dels):
            return None
        old = _decode_segment_to_postings(terms_file, shard_id,
                                          docs_per_shard, codec)
        if old is None:
            return None
        keep = ~np.isin(old.column("doc_id").to_numpy(), local_dels)
        return None if keep.all() else old.filter(pa.array(keep))

    return _rewrite_shard(index_dir, shard_id, docs_per_shard, codec,
                          survivors)


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
    (doc_count, sumTotalTermFreq, avgdl) are the sum of the shard rows,
    which the rewritten shards recount from their surviving postings —
    scores shift exactly like after a reference merge. Per-shard rewrites fan out as Ray tasks, each atomic via the
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

    shards = _replace_rows(manifest["shards"],
                           (r for r in seg_rows if r is not None))

    all_expunged = sorted(already | set(todo))
    _write_ids(index_path / EXPUNGED_NAME, all_expunged)

    write_manifest(index_path, {
        # maxDoc never shrinks; the rewritten shards' rows shrink the rest
        "stats": collection_stats(manifest["stats"]["num_docs"], shards),
        "expunged_count": len(all_expunged),
        "shards": shards}, prev=manifest)
    return {"expunged_now": len(todo), "removed_rows": int(sum(removed)),
            "total_expunged": len(all_expunged)}


# --------------------------------------------------------------------------
# real-time get + atomic partial updates
# (RealTimeGetComponent.java:78; AtomicUpdateDocumentMerger.java:44;
#  in-place docvalue path: IndexWriter.updateDocValues / updateNumericDocValue)
# --------------------------------------------------------------------------

_NORMS_SYSTEM_COLS = ("doc_id", "doc_shard", "doc_len", "norm_byte")


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
    segment.recover_norms_partitions(index_path)
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
    segment.recover_norms_partitions(index_path)
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
        manifest = write_manifest(
            index_path, {} if text_docs else (manifest_extra or {}),
            prev=manifest)

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
    and offsets-sidecar rows of side B rewrite (their absolute doc_id
    columns shift), fanned out as Ray tasks per shard, each returning its
    key range. Each side's BM25 statistics are the sum of its shard rows,
    so they are EXACT (split == rebuild-of-half, asserted in tests).
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
    def copy_shard(shard_id: int, dst: str, new_id: int, shift: int) -> None:
        # posting doc streams are shard-relative (the first delta is added
        # to shard_id*dps at decode), so a renumbered shard copies verbatim
        shutil.copytree(src / "shards" / f"shard={shard_id:05d}",
                        Path(dst) / "shards" / f"shard={new_id:05d}",
                        dirs_exist_ok=True)
        # the offsets sidecar's doc ids are absolute: side B's shift
        _move_offsets(src / "offsets" / f"shard={shard_id:05d}",
                      Path(dst) / "offsets", -shift, dps, "")

    @ray.remote
    def move_norms(shard_id: int, dst: str, new_id: int,
                   shift: int) -> dict:
        part = src / "norms" / f"doc_shard={shard_id}"
        out = Path(dst) / "norms" / f"doc_shard={new_id}"
        out.mkdir(parents=True, exist_ok=True)
        lo_key = hi_key = None
        for f in sorted(part.iterdir()):
            t = pq.read_table(f)
            if shift:
                docs = t.column("doc_id").to_numpy(
                    zero_copy_only=False) - shift
                t = t.drop_columns(["doc_id"]).append_column(
                    "doc_id", pa.array(docs, type=pa.int64()))
            pq.write_table(t, out / f.name)
            keys = list(zip(t.column("conv_id").to_pylist(),
                            (int(x) for x in
                             t.column("turn_idx").to_pylist())))
            if keys:
                lo, hi = min(keys), max(keys)
                lo_key = lo if lo_key is None else min(lo_key, lo)
                hi_key = hi if hi_key is None else max(hi_key, hi)
        return {"lo_key": lo_key, "hi_key": hi_key}

    copy_refs, norm_refs = [], {"a": [], "b": []}
    for s in shards:
        sid = int(s["shard_id"])
        if sid < k:
            copy_refs.append(copy_shard.remote(sid, dst_a, sid, 0))
            norm_refs["a"].append(move_norms.remote(sid, dst_a, sid, 0))
        else:
            copy_refs.append(copy_shard.remote(sid, dst_b, sid - k,
                                               split_doc))
            norm_refs["b"].append(
                move_norms.remote(sid, dst_b, sid - k, split_doc))
    ray.get(copy_refs)
    parts = {side: ray.get(refs) for side, refs in norm_refs.items()}

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
            _write_ids(Path(dst) / DELETES_NAME, side_dels)
        if side_exps:
            _write_ids(Path(dst) / EXPUNGED_NAME, side_exps)
        hk = side_keys(prt, "hi_key")
        rows = [{**s, "shard_id": s["shard_id"] - shift // dps,
                 "doc_lo": s["doc_lo"] - shift, "doc_hi": s["doc_hi"] - shift}
                for s in shards if lo <= int(s["doc_lo"]) < hi]
        write_manifest(dst, {
            "version": 1,
            "created_unix": time.time(),
            "params": m["params"],
            "stats": collection_stats(n, rows),
            "checkpoint": list(hk) if hk else m.get("checkpoint"),
            "lineage": clip_lineage(lo, hi, shift),
            "deleted_count": len(side_dels),
            "expunged_count": len(side_exps),
            "shards": rows,
        })
        results[side] = {"num_docs": n, "deleted": len(side_dels)}

    a_hi = side_keys(parts["a"], "hi_key")
    b_lo = side_keys(parts["b"], "lo_key")
    straddling = (a_hi[0] if a_hi and b_lo and a_hi[0] == b_lo[0]
                  else None)
    return {"split_doc": split_doc, "a": results["a"], "b": results["b"],
            "straddling_conv": straddling}
