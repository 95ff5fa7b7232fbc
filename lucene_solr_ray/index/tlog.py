"""Transaction log (UpdateLog) + CDCR cross-cluster forwarding.

Reference semantics:

- ``UpdateLog`` (``solr/core/src/java/org/apache/solr/update/
  UpdateLog.java:74,414,458,815``): every add / delete / atomic update is
  written to a transaction log BEFORE being applied; after a crash,
  ``recoverFromLog`` replays the un-committed tail so the index converges
  to the pre-crash state, and updates are blocked while a replay is
  pending (Solr buffers them; we raise and require ``recover_from_log``).

- ``CdcrReplicator`` (``solr/core/src/java/org/apache/solr/handler/
  CdcrReplicator.java:42-130``): a source cluster forwards its update log
  to a target cluster, each target tracking its own log-position
  checkpoint; ops are keyed by uniqueKey so they mean the same thing on
  the target.

Ray-native mapping: the log is a directory of atomically-renamed entry
files (``tlog/tlog.<version>.json`` + a durable parquet payload for adds)
beside the index manifest; entries are keyed by (conv_id, turn_idx) —
never by doc_id, which differs between clusters. Replay/forward call the
SAME public update surface (``update_index`` / ``delete_documents`` /
``atomic_update``); the log is a WAL over the existing operators, not a
second write path.

Exactly-once: each apply passes ``manifest_extra={"tlog_applied": v}``
into the op, which merges it into its FINAL atomic manifest publish —
op-completed and applied-version-recorded are ONE rename, so recovery
after any crash resolves unambiguously: ``manifest["tlog_applied"] >= v``
⇔ entry v's apply completed. (Intermediate manifest bumps inside an op —
the overwrite path's tombstone write, atomic_update's docvalue publish
before a text re-index — never carry the marker.) This is the role
Solr's per-doc ``_version_`` check plays in LogReplayer, at batch
granularity, under the same single-update-owner assumption as the
reference's leader-only tlog writes. ``inc`` atomics are additionally
logged as their post-image ``set`` so re-application is idempotent even
across CDCR forwarding.

Scale: one entry per update BATCH (not per doc); a Dataset payload is
streamed to parquet once (``write_parquet``) and streamed back through
``read_parquet`` at apply/replay, so a resumed 100-TB ingest replays
block-by-block with the same streaming executor as the original apply —
nothing is materialized on the driver.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import pyarrow as pa

import ray.data as rd

from .build import read_manifest, write_manifest
from .update import atomic_update, delete_documents, realtime_get, \
    update_index

TLOG_DIR = "tlog"


class UpdateLog:
    """Append-only versioned op log for one index directory."""

    def __init__(self, index_dir: str):
        self.index_dir = str(index_dir)
        self.path = Path(index_dir) / TLOG_DIR
        self.path.mkdir(exist_ok=True)

    def _entry_path(self, version: int) -> Path:
        return self.path / f"tlog.{version:010d}.json"

    def _payload_file(self, version: int) -> Path:
        return self.path / f"tlog.{version:010d}.parquet"

    def _payload_dir(self, version: int) -> Path:
        return self.path / f"tlog.{version:010d}.pq"

    def _applied_path(self, version: int) -> Path:
        return self.path / f"tlog.{version:010d}.applied"

    def _failed_path(self, version: int) -> Path:
        return self.path / f"tlog.{version:010d}.failed"

    def last_version(self) -> int:
        versions = [int(p.name.split(".")[1])
                    for p in self.path.glob("tlog.*.json")]
        return max(versions, default=0)

    def append(self, op: dict,
               payload: pa.Table | rd.Dataset | str | None = None) -> int:
        """Write one entry atomically (payload first, then the entry
        rename publishes it — same two-phase order as the manifest).
        A Dataset payload is streamed to parquet (never driver-collected);
        a parquet file/directory path is copied byte-for-byte."""
        version = self.last_version() + 1
        if payload is not None:
            if isinstance(payload, rd.Dataset):
                tmp = self._payload_dir(version).with_suffix(".tmp")
                shutil.rmtree(tmp, ignore_errors=True)
                payload.write_parquet(str(tmp))
                dest = self._payload_dir(version)
            elif isinstance(payload, pa.Table):
                import pyarrow.parquet as pq
                tmp = self._payload_file(version).with_suffix(".tmp")
                pq.write_table(payload, tmp)
                dest = self._payload_file(version)
            else:
                src = Path(payload)
                if src.is_dir():
                    tmp = self._payload_dir(version).with_suffix(".tmp")
                    shutil.rmtree(tmp, ignore_errors=True)
                    shutil.copytree(src, tmp)
                    dest = self._payload_dir(version)
                else:
                    tmp = self._payload_file(version).with_suffix(".tmp")
                    shutil.copyfile(src, tmp)
                    dest = self._payload_file(version)
            os.replace(tmp, dest)
            op = {**op, "payload": dest.name}
        entry = self._entry_path(version)
        tmp = entry.with_suffix(".tmp")
        tmp.write_text(json.dumps({"version": version, **op}))
        os.replace(tmp, entry)
        return version

    def mark_applied(self, version: int) -> None:
        tmp = self._applied_path(version).with_suffix(".tmp")
        tmp.write_text("")
        os.replace(tmp, self._applied_path(version))

    def mark_failed(self, version: int, error: str) -> None:
        tmp = self._failed_path(version).with_suffix(".tmp")
        tmp.write_text(json.dumps({"error": error}))
        os.replace(tmp, self._failed_path(version))

    def entries(self, after: int = 0) -> list[dict]:
        out = []
        for p in sorted(self.path.glob("tlog.*.json")):
            e = json.loads(p.read_text())
            if e["version"] > after:
                out.append(e)
        return out

    def unapplied(self) -> list[dict]:
        """Entries neither applied nor terminally failed."""
        return [e for e in self.entries()
                if not self._applied_path(e["version"]).exists()
                and not self._failed_path(e["version"]).exists()]

    def failed(self) -> list[dict]:
        out = []
        for e in self.entries():
            fp = self._failed_path(e["version"])
            if fp.exists():
                out.append({**e, **json.loads(fp.read_text())})
        return out

    def applied_through_manifest(self, version: int) -> bool:
        """True iff entry ``version``'s apply COMPLETED: its final
        manifest publish atomically recorded ``tlog_applied`` (see module
        docstring — this is the crash-window disambiguator)."""
        return read_manifest(self.index_dir).get("tlog_applied", 0) \
            >= version

    def require_clean_tail(self) -> None:
        """New logged updates are refused while un-replayed entries exist
        (Solr blocks/buffers updates during log replay): out-of-order
        application would break the monotone ``tlog_applied`` marker."""
        pending = self.unapplied()
        if pending:
            raise RuntimeError(
                f"update log has un-applied entries "
                f"{[e['version'] for e in pending]}; run recover_from_log "
                f"(CLI: recover) before new logged updates")

    def apply_entry(self, entry: dict, **add_kwargs) -> bool:
        """Apply one entry exactly-once through the public update surface
        and mark it applied. Returns False when the entry had already
        been applied (crash landed between the op's final publish and
        the applied-marker rename)."""
        version = entry["version"]
        if self.applied_through_manifest(version):
            self.mark_applied(version)
            return False
        op = entry["op"]
        marker = {"tlog_applied": version}
        if op == "add":
            update_index(self.index_dir, str(self.path / entry["payload"]),
                         overwrite=bool(entry.get("overwrite")),
                         manifest_extra=marker, **add_kwargs)
        elif op == "delete":
            delete_documents(self.index_dir,
                             keys=[tuple(k) for k in entry["keys"]],
                             manifest_extra=marker)
        elif op == "atomic":
            atomic_update(self.index_dir, entry["updates"],
                          manifest_extra=marker)
        else:
            raise ValueError(f"unknown tlog op {op!r}")
        self.mark_applied(version)
        return True


def _keys_for_doc_ids(index_dir: str, doc_ids) -> list[tuple[str, int]]:
    """Resolve doc_ids to keys; unknown/tombstoned ids are skipped (Solr
    delete-by-id of a missing document is a no-op, so a WAL'd delete
    retry after a crash stays idempotent)."""
    t = realtime_get(index_dir, doc_ids=[int(d) for d in doc_ids])
    if t is None:
        return []
    return [(str(r["conv_id"]), int(r["turn_idx"])) for r in t.to_pylist()]


def _resolve_inc_ops(index_dir: str, updates: list[dict]) -> list[dict]:
    """Rewrite {'inc': d} ops to their post-image {'set': v+d} so the
    logged entry is idempotent (see module docstring)."""
    keys = [(str(u["conv_id"]), int(u["turn_idx"])) for u in updates]
    need = [k for u, k in zip(updates, keys)
            if any(isinstance(v, dict) and "inc" in v for f, v in u.items()
                   if f not in ("conv_id", "turn_idx"))]
    current = {}
    if need:
        t = realtime_get(index_dir, keys=need)
        if t is not None:
            current = {(str(r["conv_id"]), int(r["turn_idx"])): r
                       for r in t.to_pylist()}
    out = []
    for u, k in zip(updates, keys):
        nu = {}
        for f, v in u.items():
            if isinstance(v, dict) and "inc" in v:
                if k not in current:
                    raise KeyError(f"atomic inc on missing document {k}")
                base = current[k].get(f) or 0
                nu[f] = {"set": base + v["inc"]}
            else:
                nu[f] = v
        out.append(nu)
    return out


def logged_add(index_dir: str, source: str | rd.Dataset | pa.Table, *,
               overwrite: bool = False, **kw) -> dict:
    """update_index with write-ahead logging (UpdateLog.add analog).
    The apply reads FROM the durable log payload (what was logged is
    what runs)."""
    log = UpdateLog(index_dir)
    log.require_clean_tail()
    version = log.append({"op": "add", "overwrite": bool(overwrite)},
                         payload=source)
    log.apply_entry(log.entries(after=version - 1)[0], **kw)
    return read_manifest(index_dir)


def logged_delete(index_dir: str, doc_ids=None, keys=None) -> dict:
    """delete_documents with write-ahead logging; doc_ids are resolved to
    (conv_id, turn_idx) keys at log time (doc_ids are cluster-local and
    meaningless to a CDCR target)."""
    log = UpdateLog(index_dir)
    log.require_clean_tail()
    all_keys = [(str(c), int(t)) for c, t in (keys or [])]
    if doc_ids:
        all_keys += _keys_for_doc_ids(index_dir, doc_ids)
    version = log.append({"op": "delete", "keys": all_keys})
    log.apply_entry({"version": version, "op": "delete",
                     "keys": all_keys})
    return read_manifest(index_dir)


def logged_atomic_update(index_dir: str, updates: list[dict]) -> dict:
    """atomic_update with write-ahead logging; inc ops are logged as
    their post-image set (idempotent replay)."""
    log = UpdateLog(index_dir)
    log.require_clean_tail()
    resolved = _resolve_inc_ops(index_dir, updates)
    version = log.append({"op": "atomic", "updates": resolved})
    log.apply_entry({"version": version, "op": "atomic",
                     "updates": resolved})
    return read_manifest(index_dir)


def recover_from_log(index_dir: str) -> dict:
    """Replay the un-applied log tail in version order
    (UpdateLog.recoverFromLog:815 / LogReplayer). A poison entry (its
    apply raises again) is marked failed and skipped so recovery — and
    the update stream — can proceed; the reference's LogReplayer likewise
    counts per-op errors and continues (RecoveryInfo.errors). Returns a
    RecoveryInfo analog."""
    log = UpdateLog(index_dir)
    info = {"adds": 0, "deletes": 0, "atomics": 0, "replayed": [],
            "already_applied": [], "errors": []}
    for entry in log.unapplied():
        try:
            ran = log.apply_entry(entry)
        except Exception as e:  # noqa: BLE001 — LogReplayer parity
            log.mark_failed(entry["version"], f"{type(e).__name__}: {e}")
            info["errors"].append(
                {"version": entry["version"], "error": str(e)})
            continue
        if not ran:
            info["already_applied"].append(entry["version"])
            continue
        kind = {"add": "adds", "delete": "deletes",
                "atomic": "atomics"}[entry["op"]]
        info[kind] += 1
        info["replayed"].append(entry["version"])
    return info


def _checkpoint_path(target_dir: str) -> Path:
    return Path(target_dir) / "cdcr_checkpoint.json"


def cdcr_bootstrap(source_dir: str, target_dir: str) -> dict:
    """Bootstrap a CDCR target: copy the source index — EXCLUDING the
    source's update log and any of its own CDCR checkpoint — and record
    the source log position, so forwarding starts from 'now' (the
    reference's bootstrap + checkpoint init). Requires a clean source
    tail: entries logged but not applied are not in the copied index and
    would otherwise be skipped forever by the checkpoint."""
    src, dst = Path(source_dir), Path(target_dir)
    if dst.exists():
        raise FileExistsError(f"target {target_dir} already exists")
    log = UpdateLog(source_dir)
    log.require_clean_tail()
    ckpt = log.last_version()
    shutil.copytree(src, dst,
                    ignore=shutil.ignore_patterns(
                        TLOG_DIR, _checkpoint_path("x").name))
    # the copied manifest carries the SOURCE's tlog_applied marker, which
    # would poison the target's own (fresh, empty) log — strip it with
    # the same atomic rewrite the ops use
    manifest = read_manifest(str(dst))
    if "tlog_applied" in manifest:
        write_manifest(dst, {k: v for k, v in manifest.items()
                             if k != "tlog_applied"})
    tmp = _checkpoint_path(target_dir).with_suffix(".tmp")
    tmp.write_text(json.dumps({"source_version": ckpt}))
    os.replace(tmp, _checkpoint_path(target_dir))
    return {"checkpoint": ckpt}


def cdcr_forward(source_dir: str, target_dir: str) -> dict:
    """Forward source log entries past the target's checkpoint to the
    target index (CdcrReplicator.run analog). Ops apply in version order
    through the same public update surface (WITHOUT the target-log
    ``tlog_applied`` marker — the source log's versions are not the
    target log's). The checkpoint advances after each entry, so a
    crashed forward resumes without re-reading; every op is idempotent
    by key (adds forward with overwrite=True, the CdcrUpdateProcessor
    keep-version analog), so the at-least-once window is safe."""
    src_log = UpdateLog(source_dir)
    ckpt_file = _checkpoint_path(target_dir)
    ckpt = (json.loads(ckpt_file.read_text())["source_version"]
            if ckpt_file.exists() else 0)
    forwarded = {"adds": 0, "deletes": 0, "atomics": 0, "from": ckpt}
    for entry in src_log.entries(after=ckpt):
        if src_log._failed_path(entry["version"]).exists():
            continue   # never applied on the source either
        op = entry["op"]
        if op == "add":
            update_index(target_dir,
                         str(src_log.path / entry["payload"]),
                         overwrite=True)
            forwarded["adds"] += 1
        elif op == "delete":
            delete_documents(target_dir,
                             keys=[tuple(k) for k in entry["keys"]])
            forwarded["deletes"] += 1
        elif op == "atomic":
            atomic_update(target_dir, entry["updates"])
            forwarded["atomics"] += 1
        else:
            raise ValueError(f"unknown tlog op {op!r}")
        tmp = ckpt_file.with_suffix(".tmp")
        tmp.write_text(json.dumps({"source_version": entry["version"]}))
        os.replace(tmp, ckpt_file)
        ckpt = entry["version"]
    forwarded["to"] = ckpt
    return forwarded


def log_status(index_dir: str) -> dict:
    """CDCR/UpdateLog admin view (CdcrRequestHandler status analog)."""
    log = UpdateLog(index_dir)
    entries = log.entries()
    manifest = read_manifest(index_dir)
    return {
        "entries": len(entries),
        "last_version": log.last_version(),
        "unapplied": [e["version"] for e in log.unapplied()],
        "failed": [e["version"] for e in log.failed()],
        "tlog_applied": manifest.get("tlog_applied", 0),
        "manifest_version": manifest["version"],
    }
