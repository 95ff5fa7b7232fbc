"""Segment format: per-shard term table with delta-encoded posting lists.

Ray-native re-expression of the reference segment layout
(``lucene/core/src/java/org/apache/lucene/codecs/lucene50/
Lucene50PostingsFormat.java:99-140`` file map): one Parquet file per
doc-shard holding one row per term:

    term:            string (sorted ascending within the shard)
    df, ttf:         int64 — docFreq / totalTermFreq (Terms.java:97-119)
    doc_ids_enc:     binary — LEB128 deltas (first value relative to the
                     shard's base doc_id)
    freqs_enc:       binary — LEB128 freqs, aligned with doc_ids
    positions_enc:   binary — per-doc delta-encoded positions, concatenated
                     in doc order (counts given by freqs)

There is no skip list and no per-block score metadata: a searcher decodes
every posting list of its run of contiguous shards once, at open, into one
segment's whole columns (``decode_segment``; the DirectPostingsFormat
memory-for-decode trade), and every query shape scores whole lists
exhaustively, as the reference does for disjunctions.

A companion ``norms.parquet`` per shard holds (doc_id, norm_byte, doc_len,
conv_id, turn_idx) for the shard's contiguous doc_id range.

Beside the manifest, two id-set files (``{"doc_ids": [...]}``) hold the
index's tombstones: ``_DELETES.json`` the deleted doc ids (the live-docs
complement) and ``_EXPUNGED.json`` the ids whose postings and norms rows
were physically removed. ``read_deletes``/``read_expunged`` and
``_write_ids`` are their one reader and writer.

Encoding is vectorized across ALL terms of a shard at once: deltas with
per-term resets, one codec pass over the concatenation, and each binary
column is a view of that one encoded buffer at the per-term byte offsets
(``binary_column``), with no copy per term.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import varint

#: bump when the on-disk term-table or shard-row schema changes
#: (invalidates caches)
FORMAT_VERSION = 6  # v6: shard rows carry sum_total_term_freq


class _VarintCodec:
    """LEB128 delta streams — the default, the reference's vInt wire
    format (``DataOutput.writeVInt``)."""

    name = "varint"

    @staticmethod
    def lengths(vals: np.ndarray) -> np.ndarray:
        return _varint_lengths(vals)

    @staticmethod
    def encode(vals: np.ndarray) -> bytes:
        return varint.encode(vals.astype(np.uint64))

    @staticmethod
    def decode(buf: bytes) -> np.ndarray:
        return varint.decode(buf)


class _Raw32Codec:
    """Fixed-width little-endian uint32 — the DirectPostingsFormat idea
    (``lucene/codecs/.../memory/DirectPostingsFormat.java``: trade bytes
    for branch-free decode)."""

    name = "raw32"

    @staticmethod
    def lengths(vals: np.ndarray) -> np.ndarray:
        return np.full(len(vals), 4, dtype=np.int64)

    @staticmethod
    def encode(vals: np.ndarray) -> bytes:
        return np.ascontiguousarray(vals, dtype="<u4").tobytes()

    @staticmethod
    def decode(buf: bytes) -> np.ndarray:
        return np.frombuffer(buf, dtype="<u4").astype(np.int64)


#: postings-codec SPI (PostingsFormat analog, ``codecs/PostingsFormat.java``
#: NamedSPILoader): governs the three VALUE streams (doc deltas, freqs,
#: position deltas).
POSTINGS_CODECS = {"varint": _VarintCodec, "raw32": _Raw32Codec}


def get_codec(name: str):
    try:
        return POSTINGS_CODECS[name]
    except KeyError:
        raise ValueError(
            f"unknown postings codec {name!r}; "
            f"known: {sorted(POSTINGS_CODECS)}") from None


def _delta_with_resets(values: np.ndarray, starts: np.ndarray,
                       base: int) -> np.ndarray:
    """values -> deltas, restarting at the indexes ``starts`` (which hold
    ``values - base``); ``starts`` includes 0 when ``values`` is non-empty."""
    deltas = np.empty_like(values)
    deltas[1:] = values[1:] - values[:-1]
    deltas[starts] = values[starts] - base
    return deltas


def _varint_lengths(vals: np.ndarray) -> np.ndarray:
    nb = np.ones(len(vals), dtype=np.int64)
    v = vals.astype(np.uint64)
    maxv = v.max() if len(v) else np.uint64(0)
    for i in range(1, 10):
        t = np.uint64(1) << np.uint64(7 * i)
        if maxv < t:
            break
        nb += v >= t
    return nb


#: a shard's term table: one row per term, sorted by term
TERM_TABLE_SCHEMA = pa.schema([
    ("term", pa.string()),
    ("df", pa.int64()),
    ("ttf", pa.int64()),
    ("doc_ids_enc", pa.large_binary()),
    ("freqs_enc", pa.large_binary()),
    ("positions_enc", pa.large_binary()),
])


def binary_column(data, offsets: np.ndarray) -> pa.LargeBinaryArray:
    """A large_binary array whose row ``i`` is ``data[offsets[i]:offsets[i +
    1]]``: a view of ``data`` (any buffer) with no copy per row."""
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(offsets) - 1,
        [None, pa.py_buffer(np.asarray(offsets, dtype=np.int64)),
         pa.py_buffer(data)])


def encode_shard_postings(
    terms: pa.StringArray,        # the shard's sorted vocabulary
    term_offsets: np.ndarray,     # term i's rows: [offsets[i], offsets[i+1])
    doc_ids: np.ndarray,          # int64, sorted within term
    freqs: np.ndarray,            # int64/int32
    pos_flat: np.ndarray,         # int32 flat positions (doc-major)
    shard_base: int,
    codec: str = "varint",
) -> pa.Table:
    """Encode one shard's postings, sorted by (term, doc_id), into its term
    table (``TERM_TABLE_SCHEMA``).

    Each value stream (doc id deltas, freqs, position deltas) is encoded
    once over all terms, and its column is a view of that one buffer at
    the per-term byte offsets, as Lucene's terms dictionary points into
    one ``.doc``/``.pos`` file.
    """
    if len(doc_ids) == 0:
        return TERM_TABLE_SCHEMA.empty_table()
    term_offsets = np.asarray(term_offsets, dtype=np.int64)
    freqs = freqs.astype(np.int64)
    cdc = get_codec(codec)

    def column(vals: np.ndarray, row_offsets: np.ndarray) -> pa.Array:
        byte_offsets = np.concatenate(([0], np.cumsum(cdc.lengths(vals))))
        return binary_column(cdc.encode(vals), byte_offsets[row_offsets])

    # doc ids: deltas, each term's first relative to shard_base
    doc_deltas = _delta_with_resets(doc_ids.astype(np.int64),
                                    term_offsets[:-1], shard_base)
    # positions: deltas within each (term, doc) posting
    posting_pos = np.concatenate(([0], np.cumsum(freqs)))
    pos_deltas = _delta_with_resets(pos_flat.astype(np.int64),
                                    posting_pos[:-1], 0)
    return pa.Table.from_arrays([
        terms,
        pa.array(np.diff(term_offsets), type=pa.int64()),
        pa.array(np.add.reduceat(freqs, term_offsets[:-1]), type=pa.int64()),
        column(doc_deltas, term_offsets),
        column(freqs, term_offsets),
        column(pos_deltas, posting_pos[term_offsets]),
    ], schema=TERM_TABLE_SCHEMA)


def decode_doc_ids(doc_ids_enc: bytes, shard_base: int,
                   codec: str = "varint") -> np.ndarray:
    deltas = get_codec(codec).decode(doc_ids_enc)
    if deltas.size:
        deltas[0] += shard_base
    return np.cumsum(deltas)


def decode_freqs(freqs_enc: bytes, codec: str = "varint") -> np.ndarray:
    return get_codec(codec).decode(freqs_enc)


def decode_positions(positions_enc: bytes, freqs: np.ndarray,
                     codec: str = "varint") -> tuple[np.ndarray, np.ndarray]:
    """Returns (flat absolute positions, per-doc offsets into it)."""
    deltas = get_codec(codec).decode(positions_enc)
    offsets = np.concatenate(([0], np.cumsum(freqs)))
    if deltas.size == 0:
        return deltas, offsets
    abs_pos = np.cumsum(deltas)
    # subtract the running total at each doc start to restore per-doc cumsum
    doc_starts = offsets[:-1]
    base = np.zeros(len(deltas), dtype=np.int64)
    base[doc_starts[1:]] = abs_pos[doc_starts[1:] - 1]
    abs_pos = abs_pos - np.maximum.accumulate(base)
    return abs_pos, offsets


#: postings per ``decode_segment`` chunk: bounds the codec's temporaries
#: (the varint decode holds ~60 B per value), which would otherwise stay
#: in the process heap long after the open
_DECODE_CHUNK = 1 << 16


def _binary_rows(col) -> tuple[np.ndarray, memoryview]:
    """(row offsets, data buffer) of a binary column: row ``i``'s bytes
    are ``data[offsets[i]:offsets[i + 1]]``."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if len(arr) == 0:
        return np.zeros(1, dtype=np.int64), memoryview(b"")
    off_type = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
    offs = np.frombuffer(arr.buffers()[1], dtype=off_type)
    return offs[arr.offset:arr.offset + len(arr) + 1], \
        memoryview(arr.buffers()[2])


def _sum_runs(deltas: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Running sum of ``deltas`` restarted at each run (runs of lengths
    ``counts``), in place."""
    vals = np.cumsum(deltas, out=deltas)
    if len(vals):
        run_starts = np.cumsum(counts) - counts
        prior = vals[np.maximum(run_starts - 1, 0)]
        prior[run_starts == 0] = 0
        vals -= np.repeat(prior, counts)
    return vals


def decode_segment(tables: list[pa.Table], shard_bases: list[int],
                   codec: str = "varint"):
    """Decode the term tables of contiguous shards (ascending shard order,
    each with its shard's base doc id) into one segment's flat columns:
    ``(terms, term_docs, term_pos, docs, freqs, positions)``.

    ``terms`` is the sorted union vocabulary. Term ``i``'s postings are
    ``docs[term_docs[i]:term_docs[i + 1]]`` (int64 doc ids, ascending:
    the shards' lists concatenated in shard order) and the aligned int32
    ``freqs``; its positions are ``positions[term_pos[i]:term_pos[i + 1]]``
    (int32, absolute within each doc, doc-major). ``term_docs`` is
    ``cumsum(df)`` and ``term_pos`` ``cumsum(ttf)``, each with a leading
    0, df and ttf summed over the shards holding the term.

    The tables' rows are concatenated and sorted by (term, shard); there
    is no per-term loop: each row's encoding delimits itself, so one
    codec decode over the bytes of a run of rows yields all their values,
    and a running sum with resets per row (doc ids, plus the row's shard
    base) or per posting (positions) restores them. Runs hold about
    ``_DECODE_CHUNK`` postings."""
    if not tables:  # an empty segment
        tables, shard_bases = [TERM_TABLE_SCHEMA.empty_table()], [0]
    table = pa.concat_tables(tables)
    shard = np.repeat(np.arange(len(tables)), [t.num_rows for t in tables])
    if len(tables) > 1:
        order = pc.sort_indices(
            pa.table({"term": table.column("term"), "shard": shard}),
            sort_keys=[("term", "ascending"), ("shard", "ascending")])
        table, shard = table.take(order), shard[order.to_numpy()]
    row_base = np.asarray(shard_bases, dtype=np.int64)[shard]
    df = table.column("df").to_numpy().astype(np.int64)
    ttf = table.column("ttf").to_numpy().astype(np.int64)
    row_docs = np.concatenate(([0], np.cumsum(df)))
    row_pos = np.concatenate(([0], np.cumsum(ttf)))
    terms = table.column("term").combine_chunks()
    first = np.ones(len(terms), dtype=bool)  # first row of each term
    if len(terms) > 1:
        first[1:] = pc.not_equal(terms.slice(1),
                                 terms.slice(0, len(terms) - 1)).to_numpy(
                                     zero_copy_only=False)
    starts = np.append(np.flatnonzero(first), len(terms))
    docs = np.empty(row_docs[-1], dtype=np.int64)
    freqs = np.empty(row_docs[-1], dtype=np.int32)
    positions = np.empty(row_pos[-1], dtype=np.int32)
    cdc = get_codec(codec)
    cols = [_binary_rows(table.column(c)) for c in
            ("doc_ids_enc", "freqs_enc", "positions_enc")]

    def values(col: int, a: int, b: int) -> np.ndarray:
        offs, data = cols[col]
        lo, hi = int(offs[a]), int(offs[b])
        return cdc.decode(data[lo:hi]) if hi > lo else \
            np.empty(0, dtype=np.int64)

    cuts = np.searchsorted(
        row_docs, np.arange(_DECODE_CHUNK, row_docs[-1], _DECODE_CHUNK))
    bounds = np.unique(np.concatenate(([0], cuts, [len(df)])))
    for a, b in zip(bounds[:-1], bounds[1:]):
        d0, d1 = row_docs[a], row_docs[b]
        p0, p1 = row_pos[a], row_pos[b]
        d, f, p = values(0, a, b), values(1, a, b), values(2, a, b)
        if len(d) != d1 - d0 or len(f) != d1 - d0:
            raise ValueError(
                f"rows {a}..{b - 1} hold {len(d)} doc ids and {len(f)} "
                f"freqs, their df sums to {d1 - d0}")
        if len(p) != int(f.sum()) or len(p) != p1 - p0:
            raise ValueError(
                f"rows {a}..{b - 1} hold {len(p)} positions, their freqs "
                f"sum to {int(f.sum())} and their ttf to {p1 - p0}")
        docs[d0:d1] = _sum_runs(d, df[a:b]) + np.repeat(row_base[a:b],
                                                        df[a:b])
        freqs[d0:d1] = f
        positions[p0:p1] = _sum_runs(p, f)
    return (terms.filter(pa.array(first)), row_docs[starts], row_pos[starts],
            docs, freqs, positions)


def decode_block(doc_ids_enc: bytes, freqs_enc: bytes,
                 doc_offs: np.ndarray, freq_offs: np.ndarray,
                 block_idx: int, n_blocks: int, df: int,
                 prev_last_doc: int,
                 codec: str = "varint") -> tuple[np.ndarray, np.ndarray]:
    """Decode one slice of a posting list: the doc ids and freqs from byte
    offsets ``doc_offs[block_idx]`` / ``freq_offs[block_idx]`` to the next
    offset (to the end for the last of ``n_blocks``), the first doc delta
    taken relative to ``prev_last_doc``.

    The term table stores no block offsets, so the engine never calls
    this; it stays a public name because ``perfbench/trace.py`` wraps it.
    """
    d_lo = int(doc_offs[block_idx])
    d_hi = int(doc_offs[block_idx + 1]) if block_idx + 1 < n_blocks else None
    f_lo = int(freq_offs[block_idx])
    f_hi = int(freq_offs[block_idx + 1]) if block_idx + 1 < n_blocks else None
    cdc = get_codec(codec)
    deltas = cdc.decode(doc_ids_enc[d_lo:d_hi] if d_hi is not None
                        else doc_ids_enc[d_lo:])
    deltas[0] += prev_last_doc
    docs = np.cumsum(deltas)
    freqs = cdc.decode(freqs_enc[f_lo:f_hi] if f_hi is not None
                       else freqs_enc[f_lo:])
    return docs, freqs


def recover_norms_partitions(index_path) -> None:
    """Recover from a crash mid docvalue-rewrite swap (atomic_update's
    two-rename partition replacement): a ``.dvold-*`` aside is the
    pristine old partition — restore it when the live partition is
    missing, discard it when the swap completed. Idempotent and safe to
    race (concurrent open of the same index): a lost rename race means
    the other opener already restored the partition.

    Called by every index opener (ShardSearcher and the update paths) so
    a searcher can never silently fall back to all-zero norms / all-None
    docvalues for a shard whose partition vanished mid-swap."""
    norms = Path(index_path) / "norms"
    if not norms.exists():
        return
    for aside in norms.glob(".dvold-*"):
        part = norms / aside.name[len(".dvold-"):]
        if not part.exists():
            try:
                os.rename(aside, part)
            except OSError:
                pass  # concurrent opener won the restore race
        else:
            shutil.rmtree(aside, ignore_errors=True)


# --- tombstone files (IndexWriter.deleteDocuments / forceMergeDeletes) ---

DELETES_NAME = "_DELETES.json"
EXPUNGED_NAME = "_EXPUNGED.json"


def _read_ids(index_dir, name: str) -> set[int]:
    f = Path(index_dir) / name
    if not f.exists():
        return set()
    return set(json.loads(f.read_text())["doc_ids"])


def read_deletes(index_dir) -> set[int]:
    """Tombstoned doc_ids (live-docs complement). Empty set if none."""
    return _read_ids(index_dir, DELETES_NAME)


def read_expunged(index_dir) -> set[int]:
    """Doc ids whose postings/norms rows were physically removed."""
    return _read_ids(index_dir, EXPUNGED_NAME)


def _write_ids(path: Path, doc_ids: list[int]) -> None:
    """Write a ``{"doc_ids": [...]}`` id-set file atomically."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps({"doc_ids": doc_ids}))
    os.replace(tmp, path)
