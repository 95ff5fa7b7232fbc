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

There is no skip list and no per-block score metadata: every query shape
decodes whole posting lists (cached per searcher) and scores them
exhaustively, as the reference does for disjunctions.

A companion ``norms.parquet`` per shard holds (doc_id, norm_byte, doc_len,
conv_id, turn_idx) for the shard's contiguous doc_id range.

Encoding is vectorized across ALL terms of a shard at once: deltas with
per-term resets, one varint pass over the concatenation, then per-term byte
slicing from the value-offset cumsum.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..util import varint

#: bump when the on-disk term-table schema changes (invalidates caches)
FORMAT_VERSION = 5  # v5: skip-list and block-max columns dropped


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


def _delta_with_resets(values: np.ndarray, starts_mask: np.ndarray,
                       base: int) -> np.ndarray:
    """values -> deltas, restarting at positions where starts_mask is True
    (``base`` is subtracted at each restart)."""
    deltas = np.empty_like(values)
    deltas[1:] = values[1:] - values[:-1]
    if len(values):
        deltas[0] = values[0]
    deltas[starts_mask] = values[starts_mask] - base
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


def _slice_encoded(enc: bytes, value_byte_offsets: np.ndarray,
                   group_value_offsets: np.ndarray) -> list[bytes]:
    """Split one big varint buffer into per-group byte strings."""
    mv = memoryview(enc)
    out = []
    for i in range(len(group_value_offsets) - 1):
        a = value_byte_offsets[group_value_offsets[i]]
        b = value_byte_offsets[group_value_offsets[i + 1]]
        out.append(bytes(mv[a:b]))
    return out


def encode_shard_postings(
    terms: np.ndarray | None,     # object array, sorted; defines grouping
    doc_ids: np.ndarray,          # int64, sorted within term
    freqs: np.ndarray,            # int64/int32
    pos_flat: np.ndarray,         # int32 flat positions (doc-major)
    shard_base: int,
    uniq_terms: np.ndarray | None = None,   # precomputed: sorted unique terms
    term_offsets: np.ndarray | None = None,  # precomputed: row offsets, len U+1
    codec: str = "varint",
) -> pa.Table:
    """Encode one shard's postings (sorted by term, doc_id) into a term table.

    Grouping comes either from the full ``terms`` row array or, faster, from
    precomputed ``(uniq_terms, term_offsets)`` (dictionary-encoded path).
    """
    n = len(doc_ids)
    if n == 0:
        return pa.table({
            "term": pa.array([], type=pa.string()),
            "df": pa.array([], type=pa.int64()),
            "ttf": pa.array([], type=pa.int64()),
            "doc_ids_enc": pa.array([], type=pa.large_binary()),
            "freqs_enc": pa.array([], type=pa.large_binary()),
            "positions_enc": pa.array([], type=pa.large_binary()),
        })

    doc_ids = doc_ids.astype(np.int64)
    freqs = freqs.astype(np.int64)

    if term_offsets is None:
        # term boundaries over the sorted (term, doc_id) rows
        starts_mask = np.empty(n, dtype=bool)
        starts_mask[0] = True
        starts_mask[1:] = terms[1:] != terms[:-1]
        term_starts = np.nonzero(starts_mask)[0]
        term_offsets = np.concatenate((term_starts, [n]))
        uniq_terms = terms[term_starts]
    else:
        term_starts = term_offsets[:-1]
        term_offsets = np.asarray(term_offsets)
        starts_mask = np.zeros(n, dtype=bool)
        starts_mask[term_starts] = True
        uniq_terms = np.asarray(uniq_terms, dtype=object)
    df = np.diff(term_offsets)
    ttf = np.add.reduceat(freqs, term_starts)

    cdc = get_codec(codec)

    # --- doc id deltas (first of each term relative to shard_base) ---
    doc_deltas = _delta_with_resets(doc_ids, starts_mask, shard_base)
    doc_lens = cdc.lengths(doc_deltas)
    doc_byte_offs = np.concatenate(([0], np.cumsum(doc_lens)))
    doc_enc = cdc.encode(doc_deltas)
    doc_ids_enc = _slice_encoded(doc_enc, doc_byte_offs, term_offsets)

    # --- freqs ---
    freq_lens = cdc.lengths(freqs)
    freq_byte_offs = np.concatenate(([0], np.cumsum(freq_lens)))
    freq_enc = cdc.encode(freqs)
    freqs_enc = _slice_encoded(freq_enc, freq_byte_offs, term_offsets)

    # --- positions: delta within each (term, doc) posting ---
    npos = len(pos_flat)
    if npos:
        pos_flat = pos_flat.astype(np.int64)
        pos_doc_starts = np.zeros(npos, dtype=bool)
        posting_pos_offsets = np.concatenate(([0], np.cumsum(freqs)))
        pos_doc_starts[posting_pos_offsets[:-1]] = True
        pos_deltas = _delta_with_resets(pos_flat, pos_doc_starts, 0)
        pos_lens = cdc.lengths(pos_deltas)
        pos_byte_offs = np.concatenate(([0], np.cumsum(pos_lens)))
        pos_enc = cdc.encode(pos_deltas)
        # per-term ranges in position-value space
        term_pos_offsets = posting_pos_offsets[term_offsets]
        positions_enc = _slice_encoded(pos_enc, pos_byte_offs, term_pos_offsets)
    else:
        positions_enc = [b""] * len(uniq_terms)

    return pa.table({
        "term": pa.array(uniq_terms.astype(object), type=pa.string()),
        "df": pa.array(df, type=pa.int64()),
        "ttf": pa.array(ttf, type=pa.int64()),
        "doc_ids_enc": pa.array(doc_ids_enc, type=pa.large_binary()),
        "freqs_enc": pa.array(freqs_enc, type=pa.large_binary()),
        "positions_enc": pa.array(positions_enc, type=pa.large_binary()),
    })


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
    import os
    import shutil
    from pathlib import Path

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
