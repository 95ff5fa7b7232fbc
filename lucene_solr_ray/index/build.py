"""Distributed inverted-index build: the Ray-Data-native indexing pipeline.

Re-expresses the reference indexing chain (SURVEY.md §3.1,
``IndexWriter.addDocument`` -> DWPT -> TermsHash -> FreqProx -> codec flush)
as one two-wave Ray task graph over a parquet source sorted by
``(conv_id, turn_idx)``. A Dataset source, or any source given with
``assume_sorted=False``, is first written once (sorted when unsorted) as
``index_dir/source/part-NNNNNN.parquet`` and built from there like a
user's file; the copy is removed with the runs.

1.  **Footer plan**: the parquet footers alone (no data read; footer reads
    fan out as Ray tasks past a handful of files) give every row group's
    row count. Consecutive row groups are packed into tokenize tasks, and
    a prefix sum over the counts gives each task its first **doc_id** —
    the rank in the stable ``(conv_id, turn_idx)`` ordering, the
    determinism invariant, stronger than the reference's
    thread-timing-dependent docID order
    (DocumentsWriterPerThreadPool.java:27-37). The plan is persisted in
    ``_BUILD_PARAMS.json`` so a resumed build reuses it.
2.  **Wave A, tokenize + SPIMI runs**: one task per planned span reads its
    row groups, checks they are strictly sorted, assigns doc_ids and emits
    one row per document with its per-term postings (analyzer compiled
    once per task — the Analyzer-reuse analog, Analyzer.java:135-168).
    The StandardAnalyzer front end works on whole Arrow columns: the
    batch's ASCII docs are lowercased and split on runs of characters
    outside the UAX#29 word classes in one ``pyarrow.compute`` pass, only
    candidates holding a mid-letter/mid-num character or ``_`` go through
    the exact ASCII scanner, and stopword removal and term coding
    (``is_in``, ``dictionary_encode``) stay columnar. Non-ASCII docs, docs
    holding a token over ``max_token_length`` and every other analyzer
    chain take the exact per-doc ``analyze()``. Each task writes its runs
    and norms split at shard boundaries (the DWPT flush analog) and a
    ``_task{i}_SUCCESS`` marker, so a restarted build resumes past it.
    A run is scratch data, written once here and read once by wave B, so
    it is one uncompressed Arrow IPC file,
    ``runs/shard=K/run-NNNNN.arrow`` (the raw partitions of Lucene's
    OfflineSorter), not Parquet: no dictionary pages or Snappy to encode
    and decode, and wave B maps it instead of decoding it. Its pieces'
    term dictionaries are unified on write (an IPC file holds one
    dictionary per field). Norms and offsets are the index, and stay
    Parquet. ``_BUILD_PARAMS.json`` records the run format, so a resume
    never trusts markers over runs of another format.
3.  **Key order**: each wave-A task returns its first and last key, and
    ``build_index`` checks that the tasks' key ranges follow each other in
    order.
4.  **Wave B, per-shard encode**: sharding is by contiguous doc_id range
    (SolrCloud doc-routing analog, HashBasedRouter.java:27-50), so a
    shard's postings are exactly its ``runs/shard=K`` files and no
    all-to-all exchange runs. One task per shard, gated only on the wave-A
    tasks covering its doc range (encoding overlaps the rest of wave A),
    explodes its runs into posting rows, sorts them by (term, doc_id) and
    block-encodes them (segment.py). The sort is one stable argsort of the
    term ranks in the narrowest unsigned type that holds them (numpy's
    O(n) radix sort up to 65,536 terms a shard); rows arrive in doc order,
    so stability keeps doc ids ascending within a term. Each wave's tasks
    return their own CPU seconds; the manifest's ``task_cpu_s`` sums them
    per wave. The range split bounds every term's per-shard posting list
    by the shard's doc count — the heavy-term skew control: a
    stopword-adjacent term's 10^12-doc posting list is split
    across shards by construction, and shard segments are encoded
    independently (mtree-merge-style, MapReduceIndexerTool.java:330-338).
5.  **Manifest**: written last, atomically, listing every shard with its
    term, posting and doc counts, its ``sum_total_term_freq`` and lineage
    (segments_N generation protocol, SegmentInfos.java:55-140). The global
    statistics, docCount and sumTotalTermFreq, are the sum of the shard
    rows (``collection_stats``, the IndexSearcher.collectionStatistics
    analog: Lucene stores no index-wide total either, each segment's
    ``Terms`` carries its own); ``num_docs`` is maxDoc. Every operation
    that publishes a manifest sums its rows the same way, through the one
    writer ``write_manifest``, and every reader goes through
    ``read_manifest``. ``resume=True`` skips completed shards and reuses
    completed runs.

Appends run the same two tasks (update.py; the IndexWriter.addDocument /
addIndexes analog — one indexing chain). ``update_index`` plans its delta
from the manifest's ``num_docs`` and runs wave A into a work dir; wave B
starts only once the sortedness, key-order and checkpoint checks pass,
and its task for a shard the manifest already lists folds the live
segment in ahead of the new rows
(``_rewrite_shard``: the old segment is set aside, never deleted, until
its replacement is written). ``add_indexes`` feeds the same fold task a
source index's decoded, shifted postings instead of runs.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..analysis import get_analyzer
from ..search import bm25
from ..util.smallfloat import encode_norm
from . import segment

MANIFEST_NAME = "manifest.json"

#: optional per-doc metadata columns carried into the docmap when present
#: in the source (the doc-values analog: queryable fields alongside norms).
#: ``score`` is the numeric-docvalue slot (the Solr popularity-field /
#: atomic-inc example); absent from sources that don't provide it.
DOCVALUE_FIELDS = ("role", "tool", "score", "ts")


def _limit_worker_threads() -> None:
    """Cap Arrow's per-process thread pools inside Ray workers.

    Each worker defaults to an Arrow pool sized to ALL host cores; with N
    concurrent 1-CPU tasks that is N*cores threads thrashing one machine
    (measured 3x slowdown on the encode wave). One compute thread + two IO
    threads per worker matches the 1-CPU task contract.
    """
    import pyarrow as _pa

    if _pa.cpu_count() != 1:
        _pa.set_cpu_count(1)
        _pa.set_io_thread_count(2)


# --------------------------------------------------------------------------
# tokenize: text -> per-doc postings rows (wave A)
# --------------------------------------------------------------------------

#: inner chunking for the vectorized tokenize back-end: bounds the flat
#: token stream each encode/sort touches (a 140k-doc fused task would
#: otherwise sort ~2M-element key arrays per worker — at 30+ concurrent
#: workers that saturates the memory bus)
_TOKENIZE_CHUNK_DOCS = 8192


def tokenize_table(batch: pa.Table, analyzer) -> pa.Table:
    if batch.num_rows > _TOKENIZE_CHUNK_DOCS:
        return pa.concat_tables(
            _tokenize_chunk(batch.slice(i, _TOKENIZE_CHUNK_DOCS), analyzer)
            for i in range(0, batch.num_rows, _TOKENIZE_CHUNK_DOCS))
    return _tokenize_chunk(batch, analyzer)


def _fast_tokens(text: pa.Array, analyzer) -> tuple[pa.Array, np.ndarray,
                                                    np.ndarray, np.ndarray]:
    """The ASCII docs of a plain StandardAnalyzer chain, tokenized as whole
    Arrow columns: -> (tokens, token doc, token position, slow-doc mask).

    No UAX#29 token spans a character outside the ASCII word classes, so
    ``split_pattern_regex`` on runs of such characters yields every token
    inside one candidate. A candidate of letters and digits only is one
    token as it stands; the rest (holding a mid-letter/mid-num character
    or ``_``: ``e.g.``, ``1,000``, ``o'neill's``, ``map_batches``) go
    through the exact ``_ascii_scanner()`` regex. Non-ASCII docs (blanked
    first) and docs holding a token over ``max_token_length`` are flagged
    slow, with no tokens here: ``analyze()`` owns those rules.
    """
    from ..analysis.tokenizer import _ascii_classes, _ascii_scanner

    c = _ascii_classes()
    clean = c["aletter"] + c["numeric"]
    word_chars = clean + c["midletter"] + c["midnum"] + c["enl"]
    is_ascii = pc.string_is_ascii(text)
    slow = ~is_ascii.to_numpy(zero_copy_only=False)
    cand_lists = pc.split_pattern_regex(
        pc.ascii_lower(pc.if_else(is_ascii, text, "")),
        pattern=f"[^{word_chars}]+")
    cands = pc.list_flatten(cand_lists)
    cand_doc = pc.list_parent_indices(cand_lists).to_numpy()
    counts = (pc.binary_length(cands).to_numpy() > 0).astype(np.int64)
    dirty = np.flatnonzero(~pc.match_substring_regex(
        cands, f"^[{clean}]*$").to_numpy(zero_copy_only=False))
    findall = _ascii_scanner()[0].findall
    split = [findall(s) for s in cands.take(dirty).to_pylist()]
    counts[dirty] = [len(s) for s in split]

    # token stream = candidates in order, each dirty one replaced by its
    # scanner tokens (appended after the candidates and gathered back)
    ends = np.cumsum(counts)
    src = np.repeat(np.arange(len(cands), dtype=np.int64), counts)
    n_split = counts[dirty]
    split_at = np.arange(n_split.sum()) + np.repeat(
        ends[dirty] - np.cumsum(n_split), n_split)
    src[split_at] = len(cands) + np.arange(len(split_at))
    tokens = pa.concat_arrays([cands, pa.array(
        [t for s in split for t in s], type=cands.type)]).take(src)
    tok_doc = np.repeat(cand_doc, counts)
    doc_start = np.concatenate(
        ([0], np.cumsum(np.bincount(tok_doc, minlength=len(text)))))
    tok_pos = np.arange(len(tokens), dtype=np.int64) - doc_start[tok_doc]

    long = pc.binary_length(tokens).to_numpy() > \
        analyzer.tokenizer.max_token_length
    slow[tok_doc[long]] = True
    keep = ~slow[tok_doc]
    if analyzer.stopwords:
        keep &= ~pc.is_in(tokens, value_set=pa.array(
            sorted(analyzer.stopwords), type=tokens.type)).to_numpy(
                zero_copy_only=False)
    keep = np.flatnonzero(keep)
    return tokens.take(keep), tok_doc[keep], tok_pos[keep], slow


def _tokenize_chunk(batch: pa.Table, analyzer) -> pa.Table:
    """text column -> per-doc postings rows.

    ``_fast_tokens`` tokenizes the ASCII docs of a plain StandardAnalyzer
    chain as Arrow columns; every other doc, and every other chain, goes
    whole through the exact ``analyzer.analyze``, its terms after the fast
    docs'. ``dictionary_encode`` gives the int32 term codes, one stable sort
    by (doc, code) groups the postings, and ``terms`` is a dictionary array
    built straight from the codes, so no Python string is made per token.
    """
    from ..analysis.analyzer import StandardAnalyzer
    from ..analysis.tokenizer import StandardTokenizer

    text = batch.column("text").combine_chunks().cast(pa.string()).fill_null("")
    n_docs = len(text)
    if (isinstance(analyzer, StandardAnalyzer)
            and type(analyzer.tokenizer) is StandardTokenizer):
        tok_fast, doc_fast, pos_fast, slow = _fast_tokens(text, analyzer)
    else:
        tok_fast = pa.array([], type=text.type)
        doc_fast = pos_fast = np.empty(0, dtype=np.int64)
        slow = np.ones(n_docs, dtype=bool)

    slow_idx = np.flatnonzero(slow)
    analyzed = [analyzer.analyze(t) for t in text.take(slow_idx).to_pylist()]
    tok_all = pa.concat_arrays([tok_fast, pa.array(
        [t for terms, _ in analyzed for t in terms], type=tok_fast.type)])
    doc_all = np.concatenate((doc_fast, np.repeat(
        slow_idx, [len(terms) for terms, _ in analyzed])))
    pos_all = np.concatenate((pos_fast, np.asarray(
        [p for _, pos in analyzed for p in pos], dtype=np.int64)))

    doc_lens = np.bincount(doc_all, minlength=n_docs).astype(np.int32)

    # per-(doc, term) grouping: one stable sort by doc-major term code.
    # Each doc's tokens are contiguous in the stream with ascending
    # positions, so stability keeps every posting's positions ascending
    encoded = tok_all.dictionary_encode()
    codes = encoded.indices.to_numpy()
    order = np.argsort(doc_all * len(encoded.dictionary) + codes,
                       kind="stable")
    d_s = doc_all[order]
    c_s = codes[order]
    all_pos = pos_all[order]
    new_post = np.ones(len(d_s), dtype=bool)
    new_post[1:] = (d_s[1:] != d_s[:-1]) | (c_s[1:] != c_s[:-1])
    post_starts = np.flatnonzero(new_post)
    freqs_arr = np.diff(np.append(post_starts, len(d_s)))
    term_counts = np.bincount(d_s[post_starts], minlength=n_docs)

    term_offs = np.concatenate(([0], np.cumsum(term_counts))).astype(np.int64)
    pos_offs = np.concatenate(([0], np.cumsum(doc_lens))).astype(np.int64)

    cols = {c: batch.column(c) for c in (
        "doc_id", "doc_shard", "conv_id", "turn_idx",
        *(f for f in DOCVALUE_FIELDS if f in batch.column_names))}
    return pa.table({
        **cols,
        "doc_len": pa.array(doc_lens, type=pa.int32()),
        "norm_byte": pa.array(
            encode_norm(np.maximum(doc_lens, 1)), type=pa.uint8()),
        # dictionary-encoded: each batch's vocab is tiny next to the
        # token stream, so runs/explode/sort move int32 codes, not
        # millions of strings (the main memory-bandwidth cut)
        "terms": pa.LargeListArray.from_arrays(
            term_offs, pa.DictionaryArray.from_arrays(
                pa.array(c_s[post_starts], type=pa.int32()),
                encoded.dictionary)),
        "freqs": pa.LargeListArray.from_arrays(
            term_offs, pa.array(freqs_arr, type=pa.int32())),
        "pos_flat": pa.LargeListArray.from_arrays(
            pos_offs, pa.array(all_pos, type=pa.int32())),
    })


# --------------------------------------------------------------------------
# explode runs -> posting rows, encode one shard (wave B)
# --------------------------------------------------------------------------

def _explode_runs(batch: pa.Table) -> pa.Table:
    """Per-doc rows -> per-(doc, term) posting rows, fully vectorized."""
    terms_col = batch.column("terms").combine_chunks()
    freqs_col = batch.column("freqs").combine_chunks()
    pos_col = batch.column("pos_flat").combine_chunks()

    term_counts = terms_col.value_lengths().to_numpy(zero_copy_only=False).astype(np.int64)
    flat_terms = terms_col.flatten()
    flat_freqs = freqs_col.flatten()
    flat_pos = pos_col.flatten()

    doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    shards = batch.column("doc_shard").to_numpy(zero_copy_only=False)

    rep_doc = np.repeat(doc_ids, term_counts)
    rep_shard = np.repeat(shards, term_counts)

    # positions per posting: split flat per-doc positions by freqs
    freqs_np = flat_freqs.to_numpy(zero_copy_only=False).astype(np.int64)
    pos_offsets = np.concatenate(([0], np.cumsum(freqs_np)))
    positions = pa.LargeListArray.from_arrays(
        pos_offsets, pa.array(
            flat_pos.to_numpy(zero_copy_only=False).astype(np.int32),
            type=pa.int32()))

    return pa.table({
        "doc_shard": pa.array(rep_shard, type=pa.int32()),
        "term": flat_terms,
        "doc_id": pa.array(rep_doc, type=pa.int64()),
        "freq": pa.array(freqs_np, type=pa.int64()),
        "positions": positions,
    })


class SegmentWriter:
    """Encode + write one shard from its (non-empty) posting rows (wave B);
    returns the shard's manifest row, whose ``doc_count`` and
    ``sum_total_term_freq`` are the shard's share of the collection
    statistics (``collection_stats`` sums them).

    Writes atomically (temp dir + rename); a shard directory containing
    ``_SUCCESS`` is skipped on resume, making the encode restartable at
    shard granularity. An append rewrites a live shard through
    ``_rewrite_shard``, which sets the old segment aside first.
    """

    def __init__(self, index_dir: str, docs_per_shard: int,
                 codec: str = "varint"):
        self.index_dir = index_dir
        self.docs_per_shard = docs_per_shard
        self.codec = codec

    def __call__(self, group: pa.Table) -> dict:
        shard_id = int(group.column("doc_shard")[0].as_py())
        shard_dir = Path(self.index_dir) / "shards" / f"shard={shard_id:05d}"
        if (shard_dir / "_SUCCESS").exists():
            return json.loads((shard_dir / "_SUCCESS").read_text())

        # sort by (term, doc_id) without materializing per-row strings:
        # the term column is a dictionary (combining its chunks unifies
        # their dictionaries), so rank the vocab in Arrow (UTF-8 byte
        # order is code-point order), then one numeric sort
        term_col = group.column("term").combine_chunks()
        codes = term_col.indices.to_numpy(zero_copy_only=False).astype(np.int32)
        vocab = term_col.dictionary
        vocab_order = pc.array_sort_indices(vocab).to_numpy()
        # ranks in the narrowest unsigned type that holds them: up to
        # 65,536 terms the stable argsort below is numpy's O(n) radix sort
        # (timsort on wider keys), and a stable sort's permutation does
        # not depend on the key's type
        rank_of_code = np.empty(
            len(vocab), dtype=np.min_scalar_type(max(len(vocab) - 1, 0)))
        rank_of_code[vocab_order] = np.arange(len(vocab))
        ranks = rank_of_code[codes]
        doc_ids = group.column("doc_id").to_numpy(zero_copy_only=False)
        # rows arrive doc_id-ascending (runs are written in doc order), so a
        # STABLE single-key sort by term rank keeps doc order within terms —
        # half the memory traffic of a two-key lexsort
        if np.all(doc_ids[1:] >= doc_ids[:-1]):
            sort_idx = np.argsort(ranks, kind="stable")
        else:
            sort_idx = np.lexsort((doc_ids, ranks))

        doc_ids = doc_ids[sort_idx]
        freqs = group.column("freq").to_numpy(zero_copy_only=False)[sort_idx]
        pos_list = group.column("positions")
        if isinstance(pos_list, pa.ChunkedArray):
            pos_list = pos_list.combine_chunks()
        pos_list = pos_list.take(pa.array(sort_idx))
        pos_flat = pos_list.flatten().to_numpy(zero_copy_only=False).astype(np.int64)

        # term boundaries from the ranks actually present (a unified
        # dictionary after concat may carry entries unused in this shard)
        ranks_sorted = ranks[sort_idx]
        bounds = np.concatenate((
            [True], ranks_sorted[1:] != ranks_sorted[:-1])) \
            if len(ranks_sorted) else np.empty(0, dtype=bool)
        t_starts = np.nonzero(bounds)[0]
        term_offsets = np.concatenate((t_starts, [len(ranks_sorted)]))
        uniq_terms = vocab.take(vocab_order[ranks_sorted[t_starts]])
        # no term is null: drop the all-valid bitmap ``take`` allocates
        uniq_terms = pa.Array.from_buffers(
            uniq_terms.type, len(uniq_terms), [None, *uniq_terms.buffers()[1:]])
        if pc.any(pc.equal(uniq_terms.slice(1),
                           uniq_terms.slice(0, len(uniq_terms) - 1))).as_py():
            raise ValueError("duplicate term strings in unified dictionary")

        base = shard_id * self.docs_per_shard
        table = segment.encode_shard_postings(
            uniq_terms, term_offsets, doc_ids, freqs, pos_flat, base,
            codec=self.codec)

        tmp = Path(tempfile.mkdtemp(dir=str(shard_dir.parent.parent),
                                    prefix=f".shard{shard_id}-"))
        try:
            pq.write_table(table, tmp / "terms.parquet")
            shard_dir.parent.mkdir(parents=True, exist_ok=True)
            if shard_dir.exists():
                shutil.rmtree(shard_dir)
            row = {
                "shard_id": shard_id,
                "doc_lo": base,
                "doc_hi": base + self.docs_per_shard,
                "term_count": int(table.num_rows),
                "posting_count": int(len(doc_ids)),
                "doc_count": int(len(np.unique(doc_ids))),
                "sum_total_term_freq": int(freqs.sum()),
            }
            (tmp / "_SUCCESS").write_text(json.dumps(row))
            os.rename(tmp, shard_dir)
        finally:
            if tmp.exists() and tmp != shard_dir:
                shutil.rmtree(tmp, ignore_errors=True)
        return row


def _decode_segment_to_postings(terms_file: Path, shard_id: int,
                                docs_per_shard: int,
                                codec: str = "varint") -> pa.Table | None:
    """A live segment -> its posting rows, in ``_explode_runs``'s columns
    (doc_shard, term, doc_id, freq, positions); None when it has none."""
    terms, term_docs, _, docs, freqs, flat = segment.decode_segment(
        [pq.read_table(terms_file)], [shard_id * docs_per_shard], codec)
    if len(docs) == 0:
        return None
    term_ids = np.repeat(np.arange(len(terms), dtype=np.int32),
                         np.diff(term_docs))
    pos_offsets = np.concatenate(([0], np.cumsum(freqs, dtype=np.int64)))
    return pa.table({
        "doc_shard": pa.array(np.full(len(docs), shard_id, dtype=np.int32)),
        "term": pa.DictionaryArray.from_arrays(term_ids, terms),
        "doc_id": pa.array(docs, type=pa.int64()),
        "freq": pa.array(freqs, type=pa.int64()),
        "positions": pa.LargeListArray.from_arrays(pos_offsets, flat),
    })


def _rewrite_shard(index_dir: str, shard_id: int, docs_per_shard: int,
                   codec: str, rows_fn) -> dict | None:
    """Rewrite one live shard segment, crash-safe: the append fold and
    ``expunge_deletes`` both go through here.

    ``rows_fn(terms_file)`` gets the live segment's ``terms.parquet`` (None
    when the shard has no segment) and returns the posting rows the shard
    should hold, or None to leave it untouched. The old segment is set
    ASIDE (one atomic rename) rather than deleted before its replacement
    is written: a crash in that window would otherwise lose a shard the
    manifest still lists. A leftover aside from a crashed rewrite is the
    authoritative pristine segment: the shard dir beside it may be partial
    or may already hold the new rows (rewriting into it would duplicate
    postings), so it is restored first and the rewrite redone from it.
    Returns the shard's manifest row, or None when untouched."""
    shard_dir = Path(index_dir) / "shards" / f"shard={shard_id:05d}"
    aside = shard_dir.parent / f".merging-shard={shard_id:05d}"
    if aside.exists():
        shutil.rmtree(shard_dir, ignore_errors=True)
        os.rename(aside, shard_dir)
    terms_file = shard_dir / "terms.parquet"
    rows = rows_fn(terms_file if terms_file.exists() else None)
    if rows is None:
        return None
    if shard_dir.exists():
        os.rename(shard_dir, aside)
    try:
        if rows.num_rows:
            row = SegmentWriter(index_dir, docs_per_shard, codec)(rows)
        else:
            # every posting is gone: the shard is empty, with no segment
            base = shard_id * docs_per_shard
            row = {"shard_id": shard_id, "doc_lo": base,
                   "doc_hi": base + docs_per_shard, "term_count": 0,
                   "posting_count": 0, "doc_count": 0,
                   "sum_total_term_freq": 0}
    except BaseException:
        if aside.exists() and not shard_dir.exists():
            os.rename(aside, shard_dir)  # roll back
        raise
    shutil.rmtree(aside, ignore_errors=True)
    return row


# --------------------------------------------------------------------------
# the two-wave build: one task per source row-group span, one per shard
# --------------------------------------------------------------------------

@ray.remote
def _footer_rg_rows(f: str) -> list[int]:
    md = pq.ParquetFile(f).metadata
    return [md.row_group(i).num_rows for i in range(md.num_row_groups)]


def _read_footers(source: str):
    """(files, per-file row-group row counts) — footer reads fan out as
    Ray tasks past a handful of files (a 100 TB corpus has thousands of
    files; a serial driver loop over their footers was the one remaining
    serial stage in the build plan)."""
    src = Path(source)
    files = sorted(str(p) for p in
                   ([src] if src.is_file() else src.glob("*.parquet")))
    if len(files) > 8 and ray.is_initialized():
        rg_rows = ray.get([_footer_rg_rows.remote(f) for f in files])
    else:
        rg_rows = []
        for f in files:
            md = pq.ParquetFile(f).metadata
            rg_rows.append([md.row_group(i).num_rows
                            for i in range(md.num_row_groups)])
    return files, rg_rows


def _assemble_plan(files, rg_rows, concurrency: int, base: int = 0):
    """(file, [row_group_idx...], doc_id_offset, n_rows) tasks from the
    pre-read footer metadata, doc ids starting at ``base`` (an append
    starts at the manifest's ``num_docs``)."""
    target_rows = max(8192, sum(map(sum, rg_rows)) // max(1, concurrency * 3))
    tasks = []
    offset = base
    for f, rows in zip(files, rg_rows):
        cur_rgs: list[int] = []
        cur_rows = 0
        cur_offset = offset
        for rg, n in enumerate(rows):
            cur_rgs.append(rg)
            cur_rows += n
            offset += n
            if cur_rows >= target_rows:
                tasks.append((f, cur_rgs, cur_offset, cur_rows))
                cur_rgs, cur_rows, cur_offset = [], 0, offset
        if cur_rgs:
            tasks.append((f, cur_rgs, cur_offset, cur_rows))
    return tasks, offset - base


def _token_spans(texts: list, analyzer):
    """Per-doc raw-token char offsets for the offsets sidecar
    (PostingsHighlighter.java:100 stores offsets in postings; this is
    the doc-major equivalent — one (starts, ends) pair per RAW token, so
    a postings position indexes the arrays directly, stopword holes and
    all). Mirrors the tokenize fast/slow split: ASCII standard-chain
    docs take one C-speed finditer over the lowered text (ASCII lower
    preserves offsets); everything else goes through tokenize_full."""
    from ..analysis.analyzer import StandardAnalyzer
    from ..analysis.tokenizer import StandardTokenizer as _StdTok

    fast_capable = (isinstance(analyzer, StandardAnalyzer)
                    and type(analyzer.tokenizer) is _StdTok)
    if fast_capable:
        from ..analysis.tokenizer import _ascii_scanner

        word_re, _ = _ascii_scanner()
        mtl = analyzer.tokenizer.max_token_length
    counts = np.zeros(len(texts), dtype=np.int64)
    starts_all: list[int] = []
    ends_all: list[int] = []
    for i, text in enumerate(texts):
        t = text or ""
        spans = None
        if fast_capable and t.isascii():
            spans = [(m.start(), m.end())
                     for m in word_re.finditer(t.lower())]
            if len(t) > mtl and any(e - s > mtl for s, e in spans):
                spans = None        # over-long policy: tokenize_full owns it
        if spans is None:
            spans = [(tok.start, tok.end)
                     for tok in analyzer.tokenizer.tokenize_full(t)]
        counts[i] = len(spans)
        starts_all.extend(s for s, _ in spans)
        ends_all.extend(e for _, e in spans)
    return (counts, np.asarray(starts_all, dtype=np.int32),
            np.asarray(ends_all, dtype=np.int32))


#: wave-A run files are uncompressed Arrow IPC (scratch data, written once
#: and read once: see the module docstring); the build plan records this
_RUN_FORMAT = "arrow"


@ray.remote
def _fused_tokenize_task(file: str, row_groups: list[int], offset: int,
                         docs_per_shard: int, analyzer_name: str,
                         runs_dir: str, norms_dir: str, task_id: int,
                         offsets_dir: str | None = None) -> dict:
    """read -> assign doc_ids -> verify order -> tokenize -> write runs and
    norms split at shard boundaries -> return the key range, with the
    task's own CPU seconds as ``cpu_s``."""
    cpu0 = time.process_time()
    _limit_worker_threads()
    marker = Path(runs_dir) / f"_task{task_id:05d}_SUCCESS"
    if marker.exists():
        return {**json.loads(marker.read_text()),
                "cpu_s": time.process_time() - cpu0}

    pf = pq.ParquetFile(file)
    src_fields = {f.name for f in pf.schema_arrow}
    extra = [c for c in DOCVALUE_FIELDS if c in src_fields]
    t = pf.read_row_groups(row_groups,
                           columns=["conv_id", "turn_idx", "text"] + extra)
    n = t.num_rows
    conv = t.column("conv_id").combine_chunks()
    turn = t.column("turn_idx").combine_chunks()
    if n > 1:
        # each key strictly above the one before it; a null key rejects
        c1, c0 = conv.slice(1), conv.slice(0, n - 1)
        ordered = pc.or_(pc.greater(c1, c0), pc.and_(
            pc.equal(c1, c0), pc.greater(turn.slice(1), turn.slice(0, n - 1))))
        if not pc.all(ordered.fill_null(False)).as_py():
            raise ValueError(
                f"rows not sorted by (conv_id, turn_idx) in {file}")
    doc_id = np.arange(offset, offset + n, dtype=np.int64)
    t = t.append_column("doc_id", pa.array(doc_id, type=pa.int64()))
    t = t.append_column("doc_shard",
                        pa.array(doc_id // docs_per_shard, type=pa.int32()))

    tok = tokenize_table(t, get_analyzer(analyzer_name))
    keys = {"first_key": [conv[0].as_py(), turn[0].as_py()] if n else None,
            "last_key": [conv[-1].as_py(), turn[-1].as_py()] if n else None}

    shard_col = tok.column("doc_shard").to_numpy(zero_copy_only=False)
    bounds = np.concatenate(([0], np.nonzero(np.diff(shard_col))[0] + 1, [n]))
    norm_cols = (["doc_id", "doc_shard", "conv_id", "turn_idx"]
                 + [c for c in DOCVALUE_FIELDS if c in tok.column_names]
                 + ["doc_len", "norm_byte"])
    for i in range(len(bounds) - 1):
        a, b = int(bounds[i]), int(bounds[i + 1])
        sid = int(shard_col[a])
        piece = tok.slice(a, b - a)
        run_dir = Path(runs_dir) / f"shard={sid:05d}"
        run_dir.mkdir(parents=True, exist_ok=True)
        # runs carry only what the encode wave reads (norms carry the docmap)
        run = piece.select(["doc_id", "doc_shard", "terms", "freqs",
                            "pos_flat"])
        # the chunks of a task over _TOKENIZE_CHUNK_DOCS rows carry their
        # own term dictionaries; an IPC file holds one per field
        with pa.ipc.new_file(
                run_dir / f"run-{task_id:05d}.{_RUN_FORMAT}", run.schema,
                options=pa.ipc.IpcWriteOptions(unify_dictionaries=True)) as w:
            w.write_table(run)
        norm_dir = Path(norms_dir) / f"doc_shard={sid}"
        norm_dir.mkdir(parents=True, exist_ok=True)
        pq.write_table(piece.select(norm_cols).drop_columns(["doc_shard"]),
                       norm_dir / f"run-{task_id:05d}.parquet")
    if offsets_dir is not None:
        texts = t.column("text").to_pylist()
        counts, st_flat, en_flat = _token_spans(
            texts, get_analyzer(analyzer_name))
        # spans as ONE little-endian int32 blob per doc ([starts...,
        # ends...]): binary decode is a memcpy, where a list<int32> column
        # pays per-element assembly. A stable sort of the doc of each
        # start, then each end, gathers every doc's starts before its ends
        tok_doc = np.repeat(np.arange(n), counts)
        order = np.argsort(np.concatenate((tok_doc, tok_doc)), kind="stable")
        flat = np.concatenate((st_flat, en_flat))[order].astype("<i4")
        spans = segment.binary_column(
            flat, 8 * np.concatenate(([0], np.cumsum(counts))))
        for i in range(len(bounds) - 1):
            a, b = int(bounds[i]), int(bounds[i + 1])
            od = Path(offsets_dir) / f"shard={int(shard_col[a]):05d}"
            od.mkdir(parents=True, exist_ok=True)
            # the highlighter reads a PAGE of hit docs, so row groups stay
            # small for tight doc_id stats pruning
            pq.write_table(pa.table({
                "doc_id": pa.array(doc_id[a:b], type=pa.int64()),
                "spans": spans.slice(a, b - a),
            }), od / f"run-{task_id:05d}.parquet", row_group_size=32)
    marker.write_text(json.dumps(keys))
    return {**keys, "cpu_s": time.process_time() - cpu0}


@ray.remote
def _encode_shard_dir_task(runs_dir: str | None, shard_id: int,
                           index_dir: str, docs_per_shard: int, codec: str,
                           fold: bool, *deps) -> tuple[list[dict], float]:
    """Wave B: encode one shard from exactly its runs/shard=K files;
    -> (the shard's manifest rows, the task's own CPU seconds).

    ``deps`` are ObjectRef args. In the build they are the wave-A tasks
    covering this shard's doc range: Ray's arg dependency is the
    scheduling barrier, so shard encoding starts as soon as ITS inputs
    exist and overlaps the rest of wave A. In ``add_indexes`` they are
    shifted posting tables (no runs), of which the shard takes its rows.

    ``fold`` (an append to a shard the manifest lists) puts the live
    segment's postings ahead of the new rows through ``_rewrite_shard``;
    without it a shard dir holding ``_SUCCESS`` (a resumed build) is kept."""
    cpu0 = time.process_time()
    _limit_worker_threads()
    parts = [d.filter(pc.equal(d.column("doc_shard"), shard_id))
             for d in deps if isinstance(d, pa.Table)]
    runs = sorted(Path(runs_dir).glob(
        f"shard={shard_id:05d}/*.{_RUN_FORMAT}")) if runs_dir else []
    if runs:
        parts.append(_explode_runs(pa.concat_tables(
            [pa.ipc.open_file(pa.memory_map(str(p))).read_all()
             for p in runs])))
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return [], time.process_time() - cpu0
    group = pa.concat_tables(parts)
    if not fold:
        return ([SegmentWriter(index_dir, docs_per_shard, codec)(group)],
                time.process_time() - cpu0)

    def live_then_new(terms_file):
        if terms_file is None:
            return group
        old = _decode_segment_to_postings(terms_file, shard_id,
                                          docs_per_shard, codec)
        return group if old is None else pa.concat_tables([old, group])

    return ([_rewrite_shard(index_dir, shard_id, docs_per_shard, codec,
                            live_then_new)], time.process_time() - cpu0)


def _launch_wave_a(tasks, docs_per_shard: int, analyzer: str,
                   runs_dir: Path, norms_dir: Path,
                   offsets_dir: Path | None) -> list:
    """Wave A: one ``_fused_tokenize_task`` per planned span."""
    return [
        _fused_tokenize_task.remote(
            f, rgs, off, int(docs_per_shard), analyzer, str(runs_dir),
            str(norms_dir), i, str(offsets_dir) if offsets_dir else None)
        for i, (f, rgs, off, nr) in enumerate(tasks)]


def _covering(tasks, docs_per_shard: int) -> dict[int, list[int]]:
    """shard id -> indexes of the planned tasks whose doc range reaches
    into that shard, in shard order."""
    covering: dict[int, list[int]] = {}
    for i, (f, rgs, off, nr) in enumerate(tasks):
        lo = off // docs_per_shard
        hi = (off + max(nr - 1, 0)) // docs_per_shard
        for sid in range(int(lo), int(hi) + 1):
            covering.setdefault(sid, []).append(i)
    return dict(sorted(covering.items()))


def _key_range(partials: list[dict]) -> tuple:
    """Wave-A partials -> (first key, last key). Checks that the tasks' key
    ranges follow each other in order (tasks are offset-ordered)."""
    first = prev_last = None
    for p in partials:
        if p["first_key"] is None:
            continue
        if prev_last is not None and tuple(p["first_key"]) <= tuple(prev_last):
            raise ValueError("source files out of (conv_id, turn_idx) order")
        first = first or p["first_key"]
        prev_last = p["last_key"]
    return first, prev_last


def collection_stats(num_docs: int, shards: list[dict]) -> dict:
    """The manifest's ``stats``: docCount and sumTotalTermFreq summed over
    the shard rows, as ``IndexSearcher.collectionStatistics`` sums each
    leaf's ``Terms`` (no index-wide total is stored anywhere else), plus
    BM25's ``avgdl``. ``num_docs`` is maxDoc, which no row carries: the
    last shard's doc range runs past the index's last doc."""
    doc_count = sum(r["doc_count"] for r in shards)
    ttf = sum(r["sum_total_term_freq"] for r in shards)
    return {"num_docs": int(num_docs), "doc_count": doc_count,
            "sum_total_term_freq": ttf,
            "avgdl": float(bm25.avg_field_length(ttf, max(doc_count, 1)))}


def _task_cpu(partials: list[dict], encoded: list[tuple]) -> dict:
    """Summed CPU seconds of each wave's tasks, for the manifest's
    ``task_cpu_s`` (kept apart from ``phases``, which are driver wall
    time)."""
    return {"tokenize_runs": round(sum(p["cpu_s"] for p in partials), 3),
            "term_group_encode": round(sum(c for _, c in encoded), 3)}


def _lineage(tasks) -> list[dict]:
    return [{"task_id": i, "file": f, "row_groups": list(map(int, rgs)),
             "doc_lo": int(off), "doc_hi": int(off + nr)}
            for i, (f, rgs, off, nr) in enumerate(tasks)]


def _build_fused(source: str, index_path: Path, docs_per_shard: int | None,
                 num_shards: int | None, analyzer: str, concurrency: int,
                 resume: bool, _phase,
                 codec: str = "varint",
                 store_offsets: bool = False) -> dict:
    """The scalable two-wave build (documented in the module docstring)."""
    runs_dir = index_path / "runs"
    norms_dir = index_path / "norms"
    runs_dir.mkdir(parents=True, exist_ok=True)
    norms_dir.mkdir(parents=True, exist_ok=True)

    # plan from footers (no data read; footers fan out as Ray tasks when
    # the corpus spans many files)
    files, rg_rows = _read_footers(str(source))
    probe_total = sum(sum(r) for r in rg_rows)
    if docs_per_shard is None:
        num_shards = num_shards or 8
        docs_per_shard = max(1, -(-probe_total // num_shards))
    actual_shards = max(1, -(-probe_total // docs_per_shard))
    tasks, total_docs = _assemble_plan(files, rg_rows, concurrency)
    params_file = index_path / "_BUILD_PARAMS.json"
    plan = {"docs_per_shard": int(docs_per_shard),
            "total_docs": int(total_docs),
            "postings_codec": codec,
            "run_format": _RUN_FORMAT,
            "tasks": [[str(f), list(map(int, rgs)), int(off), int(nr)]
                      for f, rgs, off, nr in tasks]}
    prev = (json.loads(params_file.read_text())
            if resume and params_file.exists() else {})
    if prev and prev.get("postings_codec", "varint") != codec:
        # completed shards were encoded with the old codec; mixing
        # codecs under one manifest would corrupt readers
        raise ValueError(
            f"resume with postings_codec={codec!r} over a build "
            f"started with {prev.get('postings_codec', 'varint')!r}")
    if (prev.get("tasks")
            and prev.get("docs_per_shard") == plan["docs_per_shard"]
            and prev.get("run_format") == _RUN_FORMAT):
        # resume with the PERSISTED plan: _task{i}_SUCCESS markers and
        # run files are keyed by task index, and a fresh plan depends
        # on the current cluster size (target_rows = f(concurrency)) —
        # trusting old markers under a replanned task list silently
        # corrupts doc_id assignment. A plan from runs of another format
        # (or none recorded) is unusable: wave B would find none of them
        tasks = [(f, rgs, off, nr) for f, rgs, off, nr in prev["tasks"]]
        total_docs = int(prev["total_docs"])
    else:
        if resume:  # no usable plan: stale markers cannot be trusted
            for stale in ("runs", "norms", "shards", "offsets"):
                shutil.rmtree(index_path / stale, ignore_errors=True)
            runs_dir.mkdir(parents=True, exist_ok=True)
            norms_dir.mkdir(parents=True, exist_ok=True)
        params_file.write_text(json.dumps(plan))
    _phase("plan")

    # wave A: fused read+assign+tokenize+write (runs and norms)
    offsets_dir = None
    if store_offsets:
        offsets_dir = index_path / "offsets"
        offsets_dir.mkdir(parents=True, exist_ok=True)
    a_futures = _launch_wave_a(tasks, docs_per_shard, analyzer, runs_dir,
                               norms_dir, offsets_dir)
    # wave B: per-shard encode, each task gated ONLY on the wave-A tasks
    # covering its doc range (ObjectRef args are the barrier) — shard
    # encoding overlaps the remainder of tokenization
    b_futures = [
        _encode_shard_dir_task.remote(
            str(runs_dir), sid, str(index_path), int(docs_per_shard),
            codec, False, *(a_futures[i] for i in deps))
        for sid, deps in _covering(tasks, docs_per_shard).items()]
    partials = ray.get(a_futures)
    _, checkpoint = _key_range(partials)
    _phase("tokenize_runs")

    encoded = ray.get(b_futures)
    _phase("term_group_encode")
    return {
        "num_docs": int(total_docs),
        "manifest_rows": [r for rows, _ in encoded for r in rows],
        "task_cpu_s": _task_cpu(partials, encoded),
        "docs_per_shard": int(docs_per_shard),
        "actual_shards": int(actual_shards),
        "checkpoint": checkpoint,
        "lineage": _lineage(tasks),
    }


# --------------------------------------------------------------------------
# the build driver
# --------------------------------------------------------------------------

@ray.remote
def _write_source_part(block: pa.Table, path: str) -> None:
    if block.num_rows:
        pq.write_table(block, path)


def _materialize_source(source: str | rd.Dataset, index_path: Path,
                        assume_sorted: bool, resume: bool) -> str:
    """Write a Dataset or unsorted source once, in (conv_id, turn_idx)
    order, as ``index_dir/source/part-NNNNNN.parquet`` (one file per
    non-empty block) for the fused build to plan over like a user's file.
    ``resume`` reuses a completed copy: the persisted task plan addresses
    these parts by row group, and a repeated sort may cut different
    blocks, so a fresh copy also drops the plan."""
    src_dir = index_path / "source"
    if resume and (src_dir / "_SUCCESS").exists():
        return str(src_dir)
    shutil.rmtree(src_dir, ignore_errors=True)
    (index_path / "_BUILD_PARAMS.json").unlink(missing_ok=True)
    src_dir.mkdir(parents=True)
    ds = ds_select(rd.read_parquet(source) if isinstance(source, str)
                   else source)
    if not assume_sorted:
        ds = ds.sort(["conv_id", "turn_idx"])
    # the footer plan reads files in name order, so parts are named by
    # block index here (Dataset.write_parquet names files by write task).
    # Ray Data yields blocks as they finish unless told to keep their
    # order; the flag lives on the Dataset's context, which the caller's
    # Dataset shares, so it is set for this call only
    ctx = ds.context.execution_options
    keep = ctx.preserve_order
    ctx.preserve_order = True
    try:
        refs = ds.materialize().to_arrow_refs()
    finally:
        ctx.preserve_order = keep
    ray.get([
        _write_source_part.remote(r, str(src_dir / f"part-{i:06d}.parquet"))
        for i, r in enumerate(refs)])
    (src_dir / "_SUCCESS").touch()
    return str(src_dir)


def _phase_clock():
    """-> (phases, mark): ``mark(name)`` records in ``phases`` the seconds
    since the previous mark (or since the clock was made)."""
    phases: dict[str, float] = {}
    last = [time.time()]

    def mark(name: str) -> None:
        now = time.time()
        phases[name] = round(now - last[0], 3)
        last[0] = now

    return phases, mark


def build_index(
    source: str | rd.Dataset,
    index_dir: str,
    *,
    num_shards: int | None = None,
    docs_per_shard: int | None = None,
    analyzer: str = "standard",
    concurrency: int | None = None,
    assume_sorted: bool = True,
    resume: bool = False,
    keep_runs: bool = False,
    postings_codec: str = "varint",
    store_offsets: bool = False,
) -> dict:
    """Build a sharded inverted index; returns the manifest dict.

    ``source`` is a parquet file or directory sorted by (conv_id,
    turn_idx), or a Dataset; a Dataset, or any source with
    ``assume_sorted=False``, is first written sorted into
    ``index_dir/source/`` and built from there.

    ``postings_codec`` selects the posting-stream encoding from the
    codec SPI (segment.POSTINGS_CODECS — PostingsFormat analog); the
    choice is recorded in the manifest and every reader dispatches on
    it."""
    segment.get_codec(postings_codec)  # validate up front
    if store_offsets:
        from ..analysis.tokenizer import DEFAULT_MAX_TOKEN_LENGTH

        # a non-default limit skips over-long tokens with a position hole
        # that the offsets sidecar has no span for: later spans would shift
        mtl = get_analyzer(analyzer).tokenizer.max_token_length
        if mtl != DEFAULT_MAX_TOKEN_LENGTH:
            raise ValueError(
                "store_offsets requires the default max_token_length "
                f"({DEFAULT_MAX_TOKEN_LENGTH}); analyzer {analyzer!r} "
                f"uses {mtl}")
    t0 = time.time()
    phases, _phase = _phase_clock()
    index_path = Path(index_dir)
    index_path.mkdir(parents=True, exist_ok=True)
    if not resume:
        for stale in ("shards", "norms", "runs", "offsets", "source"):
            shutil.rmtree(index_path / stale, ignore_errors=True)
        (index_path / MANIFEST_NAME).unlink(missing_ok=True)

    if concurrency is None:
        concurrency = max(2, int(ray.cluster_resources().get("CPU", 4)) - 1)

    if not (isinstance(source, str) and assume_sorted):
        source = _materialize_source(source, index_path, assume_sorted,
                                     resume)
        _phase("materialize_source")
    r = _build_fused(source, index_path, docs_per_shard, num_shards,
                     analyzer, concurrency, resume, _phase,
                     codec=postings_codec, store_offsets=store_offsets)
    shards = [{k: int(v) for k, v in row.items()} for row in
              sorted(r["manifest_rows"], key=lambda row: row["shard_id"])]
    manifest = write_manifest(index_path, {
        "version": 1,
        "created_unix": time.time(),
        "build_seconds": time.time() - t0,
        "params": {
            "analyzer": analyzer,
            "docs_per_shard": r["docs_per_shard"],
            "num_shards": r["actual_shards"],
            "postings_codec": postings_codec,
            "offsets": bool(store_offsets),
            "k1": float(bm25.K1),
            "b": float(bm25.B),
        },
        "stats": collection_stats(r["num_docs"], shards),
        "phases": phases,
        "task_cpu_s": r["task_cpu_s"],
        "checkpoint": list(r["checkpoint"]) if r["checkpoint"] else None,
        "lineage": r["lineage"],
        "shards": shards,
    })
    if not keep_runs:
        for work_dir in ("runs", "source"):
            shutil.rmtree(index_path / work_dir, ignore_errors=True)
    return manifest


def ds_select(ds: rd.Dataset) -> rd.Dataset:
    keep = ["conv_id", "turn_idx", "text"] + [
        c for c in DOCVALUE_FIELDS if c in ds.schema().names]
    return ds.select_columns(keep)


#: a manifest's per-operation timings: each operation records its own or
#: none, so a next generation never inherits them
_OP_TIMINGS = ("build_seconds", "phases", "task_cpu_s")


def write_manifest(index_dir, manifest: dict,
                   prev: dict | None = None) -> dict:
    """The one writer of ``manifest.json``: publishes atomically (temp file
    + rename, the segments_N commit) and returns what it wrote.

    Without ``prev`` it writes ``manifest`` as given (a first generation,
    or a copy). With ``prev`` it writes the next generation of ``prev``:
    ``prev`` without its per-operation timings, updated by ``manifest``,
    with the version bumped and a fresh ``created_unix``."""
    if prev is not None:
        manifest = {**{k: v for k, v in prev.items() if k not in _OP_TIMINGS},
                    **manifest, "version": prev["version"] + 1,
                    "created_unix": time.time()}
    tmp = Path(index_dir) / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=1))
    os.replace(tmp, Path(index_dir) / MANIFEST_NAME)
    return manifest


def read_manifest(index_dir) -> dict:
    """The one reader of ``manifest.json``."""
    return json.loads((Path(index_dir) / MANIFEST_NAME).read_text())
