"""Index replication: snapshot / restore / incremental replica sync.

Re-expression of the reference replication surface:

- ``lucene/replicator/src/java/org/apache/lucene/replicator/
  IndexRevision.java:45`` — a revision is the consistent file set a
  commit point references, each file carried with (size, checksum)
  metadata;
- ``LocalReplicator.java:60`` publish/checkForUpdate/obtainFile — a
  master exposes its newest revision, clients pull files they miss;
- ``solr/core/src/java/org/apache/solr/handler/ReplicationHandler.java``
  (commands ``backup`` / ``fetchindex`` / ``filelist`` / ``details``) and
  ``IndexFetcher.java:265`` fetchLatestIndex — the replica diffs the
  master's file list against local files and downloads only
  new/changed ones, moving them in before the segments file so readers
  never open a dangling commit.

Mapping onto this engine's on-disk layout: every index mutation
publishes via atomic rename with ``manifest.json`` (the SegmentInfos
analog) written LAST, so a directory tree is always a consistent
revision and `manifest.json`'s ``version`` is the generation. Data
files (segment parquet, norms partitions, payload sidecars) are
immutable once published — an incremental pull therefore copies only
files whose (relpath, size, crc32) differ, and publishes the new
manifest last, mirroring IndexFetcher's ordering.

Scale note: at 100-TB index sizes each replica node pulls ONLY the
doc-shard partitions it serves (the layout is partitioned by
``shard=``/``doc_shard=`` so the file diff prunes per shard), and the
crc32 verify is skipped for same-(name,size) immutable segment files
unless ``verify_checksums`` — the same trust-immutability default the
reference applies to already-downloaded files.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from pathlib import Path

#: transient build/update staging that is never part of a revision
_SKIP_PREFIXES = ("_tmp", ".tmp")
_SKIP_CONTAINS = (".dvold-",)
MANIFEST = "manifest.json"


def _is_revision_file(rel: str) -> bool:
    parts = Path(rel).parts
    for p in parts:
        if p.startswith(_SKIP_PREFIXES):
            return False
        if any(m in p for m in _SKIP_CONTAINS):
            return False
    return True


def _crc32(path: Path) -> int:
    crc = 0
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            crc = zlib.crc32(chunk, crc)
    return crc & 0xFFFFFFFF


def revision_info(index_dir: str, checksums: bool = True) -> dict:
    """The index's current revision (IndexRevision.getSourceFiles /
    ReplicationHandler ``filelist``): manifest generation + per-file
    (size, crc32) for every live file."""
    from .build import read_manifest

    root = Path(index_dir)
    manifest = read_manifest(index_dir)
    files: dict[str, dict] = {}
    for p in sorted(root.rglob("*")):
        if not p.is_file():
            continue
        rel = str(p.relative_to(root))
        if not _is_revision_file(rel):
            continue
        meta = {"size": p.stat().st_size}
        if checksums:
            meta["crc32"] = _crc32(p)
        files[rel] = meta
    return {"version": manifest["version"], "files": files}


def _copy_file(src: Path, dst: Path) -> None:
    dst.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy2(src, dst)


def snapshot(index_dir: str, snapshot_dir: str) -> dict:
    """ReplicationHandler ``backup`` / IndexRevision pin: copy the
    current revision's files into ``snapshot_dir``. Built in a temp
    sibling directory and atomically renamed, so a crashed snapshot is
    never mistaken for a complete one. Fails if the target exists."""
    src_root = Path(index_dir)
    dst_root = Path(snapshot_dir)
    if dst_root.exists():
        raise FileExistsError(f"snapshot target exists: {snapshot_dir}")
    rev = revision_info(index_dir, checksums=True)
    tmp = dst_root.parent / (dst_root.name + ".tmp-snapshot")
    if tmp.exists():
        shutil.rmtree(tmp)
    for rel in rev["files"]:
        _copy_file(src_root / rel, tmp / rel)
    (tmp / "_SNAPSHOT_META.json").write_text(json.dumps(
        {"source": str(src_root), "revision": rev["version"],
         "file_count": len(rev["files"])}))
    os.rename(tmp, dst_root)
    return {"version": rev["version"], "files": len(rev["files"]),
            "bytes": sum(m["size"] for m in rev["files"].values())}


def restore(snapshot_dir: str, index_dir: str) -> dict:
    """ReplicationHandler ``restore``: materialize a snapshot as a live
    index directory (atomic: temp tree + rename). Target must not
    exist."""
    src_root = Path(snapshot_dir)
    dst_root = Path(index_dir)
    if dst_root.exists():
        raise FileExistsError(f"restore target exists: {index_dir}")
    if not (src_root / MANIFEST).exists():
        raise FileNotFoundError(f"not a snapshot (no {MANIFEST}): "
                                f"{snapshot_dir}")
    tmp = dst_root.parent / (dst_root.name + ".tmp-restore")
    if tmp.exists():
        shutil.rmtree(tmp)
    n = 0
    for p in sorted(src_root.rglob("*")):
        if not p.is_file():
            continue
        rel = str(p.relative_to(src_root))
        if rel == "_SNAPSHOT_META.json" or not _is_revision_file(rel):
            continue
        _copy_file(p, tmp / rel)
        n += 1
    os.rename(tmp, dst_root)
    return {"files": n}


def replicate(master_dir: str, replica_dir: str,
              verify_checksums: bool = False) -> dict:
    """IndexFetcher.fetchLatestIndex / ReplicationClient.updateNow:
    bring ``replica_dir`` up to the master's current revision by copying
    ONLY new/changed files.

    Diff rule: a replica file is current when (relpath, size) match —
    data files are immutable once published — plus a crc32 compare when
    ``verify_checksums`` or when the file can legally be rewritten in
    place at the same size (``manifest.json`` and ``*.json`` state).
    Publish ordering mirrors the reference (IndexFetcher.java:265
    moves index files before the commit point): all data files land
    first, ``manifest.json`` is written LAST via atomic rename, then
    files absent from the master's revision are deleted. A searcher
    opening mid-replication sees either the old or the new complete
    revision."""
    src_root, dst_root = Path(master_dir), Path(replica_dir)
    rev = revision_info(master_dir, checksums=verify_checksums)
    dst_root.mkdir(parents=True, exist_ok=True)

    local: dict[str, int] = {}
    for p in dst_root.rglob("*"):
        if p.is_file():
            rel = str(p.relative_to(dst_root))
            if _is_revision_file(rel):
                local[rel] = p.stat().st_size

    def needs_copy(rel: str, meta: dict) -> bool:
        if rel not in local:
            return True
        if local[rel] != meta["size"]:
            return True
        if (rel.endswith(".json") or rel.startswith(("norms", "shards"))
                or verify_checksums):
            # same-size rewritable state: json state files, norms/
            # docvalue partitions (atomic_update swaps whole partitions
            # by rename) and shard segments (expunge_deletes rewrites
            # terms.parquet in place) — a same-named same-size file can
            # carry new content, so content decides. The crc only runs
            # when sizes ALREADY match, which a rewrite rarely preserves.
            want = meta.get("crc32")
            if want is None:
                want = _crc32(src_root / rel)
            return _crc32(dst_root / rel) != want
        return False  # immutable data file, (name, size) match

    to_copy = [rel for rel, meta in rev["files"].items()
               if rel != MANIFEST and needs_copy(rel, meta)]
    for rel in to_copy:
        # stage + rename so a torn copy never shadows a valid file
        dst = dst_root / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        stage = dst.parent / (".tmp-fetch-" + dst.name)
        shutil.copy2(src_root / rel, stage)
        os.rename(stage, dst)

    manifest_copied = needs_copy(MANIFEST, rev["files"][MANIFEST])
    if manifest_copied:
        stage = dst_root / (".tmp-fetch-" + MANIFEST)
        shutil.copy2(src_root / MANIFEST, stage)
        os.rename(stage, dst_root / MANIFEST)

    stale = [rel for rel in local
             if rel not in rev["files"]]
    for rel in stale:
        (dst_root / rel).unlink()

    return {"version": rev["version"],
            "copied": len(to_copy) + int(manifest_copied),
            "deleted": len(stale),
            "unchanged": len(rev["files"]) - len(to_copy)
            - int(manifest_copied)}
