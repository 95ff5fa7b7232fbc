"""Distributed inverted-index build: the Ray-Data-native indexing pipeline.

Re-expresses the reference indexing chain (SURVEY.md §3.1,
``IndexWriter.addDocument`` -> DWPT -> TermsHash -> FreqProx -> codec flush)
as streaming Dataset stages:

1.  ``read_parquet`` (columns pruned) -> optional global sort by
    ``(conv_id, turn_idx)`` -> **doc_id assignment** (rank in the stable
    ordering — the determinism invariant, stronger than the reference's
    thread-timing-dependent docID order, DocumentsWriterPerThreadPool.java:27-37).
2.  **Tokenize + SPIMI runs**: an actor pool (``map_batches`` over zero-copy
    Arrow, analyzer compiled once per actor — the Analyzer-reuse analog,
    Analyzer.java:135-168) emits one row per document with its per-term
    postings; runs are spilled to Parquet (the DWPT flush analog) so the
    three downstream consumers (stats, norms, postings) each re-read only
    the columns they need, and so a restarted build resumes past
    tokenization.
3.  **Global statistics**: docCount / sumTotalTermFreq via a partial-per-batch
    + global-sum aggregate (IndexSearcher.collectionStatistics analog).
4.  **Term shuffle + segment encode**: explode runs into posting rows, then
    ``groupby("doc_shard").map_groups`` — the one all-to-all exchange —
    sorts each shard's postings by (term, doc_id) and block-encodes them
    (segment.py). Sharding is by contiguous doc_id range (SolrCloud
    doc-routing analog, HashBasedRouter.java:27-50), which bounds every
    term's per-shard posting list by the shard's doc count — the heavy-term
    skew control: a stopword-adjacent term's 10^12-doc posting list is
    split across shards by construction, and shard segments are encoded
    independently (mtree-merge-style, MapReduceIndexerTool.java:330-338).
5.  **Manifest**: written last, atomically, listing every shard with doc/term
    counts and lineage (segments_N generation protocol,
    SegmentInfos.java:55-140). ``resume=True`` skips completed shards and
    reuses completed runs.
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
# stage 1: doc_id assignment
# --------------------------------------------------------------------------

@ray.remote
def _block_meta(block: pa.Table):
    """(num_rows, first_key, last_key, strictly_sorted_within) per block."""
    n = block.num_rows
    if n == 0:
        return n, None, None, True
    conv = np.asarray(block.column("conv_id").to_pylist(), dtype=object)
    turn = block.column("turn_idx").to_numpy(zero_copy_only=False)
    first = (conv[0], int(turn[0]))
    last = (conv[-1], int(turn[-1]))
    ok = bool(np.all(
        (conv[1:] > conv[:-1])
        | ((conv[1:] == conv[:-1]) & (turn[1:] > turn[:-1]))))
    return n, first, last, ok


@ray.remote
def _add_doc_ids(block: pa.Table, offset: int, docs_per_shard: int) -> pa.Table:
    n = block.num_rows
    doc_id = np.arange(offset, offset + n, dtype=np.int64)
    block = block.append_column("doc_id", pa.array(doc_id, type=pa.int64()))
    return block.append_column(
        "doc_shard", pa.array(doc_id // docs_per_shard, type=pa.int32()))


def assign_doc_ids(ds: rd.Dataset, docs_per_shard: int,
                   verify_order: bool = True) -> tuple[rd.Dataset, int]:
    """Attach ``doc_id`` = rank under the (conv_id, turn_idx) ordering.

    Ray Data has no zipWithIndex, so this drops to the documented raw-Ray
    escape hatch: materialize the (already sorted) dataset, prefix-sum the
    per-block row counts (block count ~ 10^6 at 10^12 rows — trivial on the
    driver), and add the id column per block. Blocks stay in the object
    store throughout (zero-copy refs); nothing is pulled to the driver.

    With ``verify_order`` the per-block key ranges are checked to be sorted
    within and across blocks — the "stable (conv_id, turn_idx) ordering"
    invariant asserted before indexing.
    """
    mat = ds.materialize()
    refs = mat.to_arrow_refs()
    metas = ray.get([_block_meta.remote(r) for r in refs])
    counts = [m[0] for m in metas]
    if verify_order:
        prev_last = None
        for i, (n, first, last, sorted_within) in enumerate(metas):
            if n == 0:
                continue
            if not sorted_within:
                raise ValueError(f"input block {i} is not sorted by (conv_id, turn_idx)")
            if prev_last is not None and first < prev_last:
                raise ValueError(
                    f"input blocks out of order at block {i}: {first} < {prev_last}")
            prev_last = last
    offsets = np.concatenate(([0], np.cumsum(counts)))
    total = int(offsets[-1])
    new_refs = [
        _add_doc_ids.remote(r, int(offsets[i]), docs_per_shard)
        for i, r in enumerate(refs)
    ]
    return rd.from_arrow_refs(new_refs), total


# --------------------------------------------------------------------------
# stage 2: tokenize into SPIMI runs (actor pool)
# --------------------------------------------------------------------------

def _dict_terms(all_terms: list[str]) -> pa.DictionaryArray:
    import pandas as pd

    codes, vocab = pd.factorize(np.asarray(all_terms, dtype=object))
    return pa.DictionaryArray.from_arrays(
        pa.array(codes.astype(np.int32)), pa.array(vocab, type=pa.string()))


class TokenizeStage:
    """Actor-pool callable: text -> per-doc postings row.

    Output row: doc_id, doc_shard, conv_id, turn_idx, doc_len, norm_byte,
    terms (list<string>, first-occurrence order), freqs (list<int32>),
    pos_flat (list<int32>, positions concatenated in term order).
    """

    def __init__(self, analyzer_name: str = "standard"):
        self.analyzer = get_analyzer(analyzer_name)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return tokenize_table(batch, self.analyzer)


#: inner chunking for the vectorized tokenize back-end: bounds the flat
#: token stream each factorize/lexsort touches (a 140k-doc fused task
#: would otherwise sort ~2M-element key arrays per worker — at 30+
#: concurrent workers that saturates the memory bus)
_TOKENIZE_CHUNK_DOCS = 8192


def tokenize_table(batch: pa.Table, analyzer) -> pa.Table:
    if batch.num_rows > _TOKENIZE_CHUNK_DOCS:
        return pa.concat_tables(
            _tokenize_chunk(batch.slice(i, _TOKENIZE_CHUNK_DOCS), analyzer)
            for i in range(0, batch.num_rows, _TOKENIZE_CHUNK_DOCS))
    return _tokenize_chunk(batch, analyzer)


def _tokenize_chunk(batch: pa.Table, analyzer) -> pa.Table:
        """text column -> per-doc postings rows.

        Hot-path structure: ONE C-speed regex findall per ASCII doc (the
        StandardAnalyzer fast path), then every remaining step — stopword
        filter, position assignment, per-(doc, term) grouping, freq
        counting — is a vectorized pandas/numpy pass over the batch's
        flat token stream (the per-doc dict/list loop was ~60%% of
        tokenize CPU). Non-ASCII docs and non-standard chains go through
        ``analyzer.analyze`` per doc and merge into the same stream.
        """
        import pandas as pd

        from ..analysis.analyzer import StandardAnalyzer

        texts = batch.column("text").to_pylist()
        n_docs = len(texts)

        from ..analysis.tokenizer import StandardTokenizer as _StdTok

        fast_capable = (isinstance(analyzer, StandardAnalyzer)
                        and type(analyzer.tokenizer) is _StdTok)
        if fast_capable:
            from ..analysis.tokenizer import (
                DEFAULT_MAX_TOKEN_LENGTH,
                _ascii_scanner,
            )

            word_re, _ = _ascii_scanner()
            findall = word_re.findall
            mtl = analyzer.tokenizer.max_token_length
            mtl_default = mtl >= DEFAULT_MAX_TOKEN_LENGTH

        # front-end: raw (unfiltered) token lists for fast docs, analyzed
        # (already-filtered) term/pos lists for slow docs
        raw_lists: list = []
        slow_terms: list[str] = []
        slow_pos: list[int] = []
        slow_doc: list[int] = []
        raw_counts = np.zeros(n_docs, dtype=np.int64)
        for i, text in enumerate(texts):
            t = text or ""
            if fast_capable and t.isascii():
                toks = findall(t.lower())
                if len(t) > mtl and any(len(x) > mtl for x in toks):
                    if not mtl_default:
                        # non-default limit: over-long tokens are SKIPPED
                        # with position holes — analyze() owns that path
                        terms_i, pos_i = analyzer.analyze(t)
                        slow_terms.extend(terms_i)
                        slow_pos.extend(pos_i)
                        slow_doc.extend([i] * len(terms_i))
                        raw_lists.append(None)
                        continue
                    chunked: list[str] = []
                    for x in toks:
                        if len(x) <= mtl:
                            chunked.append(x)
                        else:
                            chunked.extend(x[j:j + mtl]
                                           for j in range(0, len(x), mtl))
                    toks = chunked
                raw_lists.append(toks)
                raw_counts[i] = len(toks)
            else:
                terms_i, pos_i = analyzer.analyze(t)
                slow_terms.extend(terms_i)
                slow_pos.extend(pos_i)
                slow_doc.extend([i] * len(terms_i))
                raw_lists.append(None)

        # flat fast stream + vectorized stopword filter
        import itertools

        fast_flat = list(itertools.chain.from_iterable(
            r for r in raw_lists if r is not None))
        fast_doc = np.repeat(np.arange(n_docs, dtype=np.int64), raw_counts)
        starts = np.concatenate(([0], np.cumsum(raw_counts)))
        fast_pos = np.arange(len(fast_flat), dtype=np.int64) - \
            starts[fast_doc]
        if fast_flat and (analyzer_stop := getattr(analyzer, "stopwords",
                                                   None)):
            keep = ~pd.Series(fast_flat, dtype=object).isin(
                analyzer_stop).to_numpy()
            tok_fast = np.asarray(fast_flat, dtype=object)[keep]
            fast_doc, fast_pos = fast_doc[keep], fast_pos[keep]
        else:
            tok_fast = np.asarray(fast_flat, dtype=object)

        if slow_terms:
            tok_all = np.concatenate(
                [tok_fast, np.asarray(slow_terms, dtype=object)])
            doc_all = np.concatenate(
                [fast_doc, np.asarray(slow_doc, dtype=np.int64)])
            pos_all = np.concatenate(
                [fast_pos, np.asarray(slow_pos, dtype=np.int64)])
        else:
            tok_all, doc_all, pos_all = tok_fast, fast_doc, fast_pos

        doc_lens = np.bincount(doc_all, minlength=n_docs).astype(np.int32)

        # vectorized per-(doc, term) grouping: factorize + one stable
        # lexsort; postings stay doc-major with ascending positions
        if len(tok_all):
            codes, uniques = pd.factorize(tok_all)
            order = np.lexsort((pos_all, codes, doc_all))
            d_s = doc_all[order]
            c_s = codes[order]
            all_pos = pos_all[order]
            new_post = np.empty(len(d_s), dtype=bool)
            new_post[0] = True
            new_post[1:] = (d_s[1:] != d_s[:-1]) | (c_s[1:] != c_s[:-1])
            post_starts = np.nonzero(new_post)[0]
            freqs_arr = np.diff(np.concatenate((post_starts, [len(d_s)])))
            term_counts = np.bincount(d_s[post_starts],
                                      minlength=n_docs).astype(np.int64)
            all_terms = np.asarray(uniques, dtype=object)[c_s[post_starts]]
        else:
            freqs_arr = np.empty(0, dtype=np.int64)
            term_counts = np.zeros(n_docs, dtype=np.int64)
            all_terms = np.empty(0, dtype=object)
            all_pos = np.empty(0, dtype=np.int64)

        term_offs = np.concatenate(([0], np.cumsum(term_counts))).astype(np.int64)
        pos_offs = np.concatenate(([0], np.cumsum(doc_lens))).astype(np.int64)

        cols = {
            "doc_id": batch.column("doc_id"),
            "doc_shard": batch.column("doc_shard"),
            "conv_id": batch.column("conv_id"),
            "turn_idx": batch.column("turn_idx"),
        }
        for c in DOCVALUE_FIELDS:
            if c in batch.column_names:
                cols[c] = batch.column(c)
        return pa.table({
            **cols,
            "doc_len": pa.array(doc_lens, type=pa.int32()),
            "norm_byte": pa.array(
                encode_norm(np.maximum(doc_lens, 1)), type=pa.uint8()),
            # dictionary-encoded: each batch's vocab is tiny next to the
            # token stream, so runs/explode/sort move int32 codes, not
            # millions of strings (the main memory-bandwidth cut)
            "terms": pa.LargeListArray.from_arrays(
                term_offs, _dict_terms(all_terms)),
            "freqs": pa.LargeListArray.from_arrays(
                term_offs, pa.array(freqs_arr, type=pa.int32())),
            "pos_flat": pa.LargeListArray.from_arrays(
                pos_offs, pa.array(np.asarray(all_pos, dtype=np.int32), type=pa.int32())),
        })


# --------------------------------------------------------------------------
# stage 4: explode runs -> posting rows, encode per shard
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
    """map_groups fn over groupby(doc_shard): encode + write one shard.

    Writes atomically (temp dir + rename); a shard directory containing
    ``_SUCCESS`` is skipped on resume, making the shuffle restartable at
    shard granularity.
    """

    def __init__(self, index_dir: str, docs_per_shard: int,
                 codec: str = "varint"):
        self.index_dir = index_dir
        self.docs_per_shard = docs_per_shard
        self.codec = codec

    def __call__(self, group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return _manifest_row_table([])
        shard_id = int(group.column("doc_shard")[0].as_py())
        shard_dir = Path(self.index_dir) / "shards" / f"shard={shard_id:05d}"
        if (shard_dir / "_SUCCESS").exists():
            row = json.loads((shard_dir / "_SUCCESS").read_text())
            return _manifest_row_table([row])

        # sort by (term, doc_id) without materializing per-row strings:
        # dictionary-encode the term column (per-shard vocab is small), rank
        # the vocab lexicographically, then one numeric lexsort
        term_col = group.column("term")
        if isinstance(term_col, pa.ChunkedArray):
            term_col = term_col.combine_chunks()
        if pa.types.is_dictionary(term_col.type):
            dict_arr = term_col  # runs already carry codes + vocab
        else:
            dict_arr = term_col.dictionary_encode()
        codes = dict_arr.indices.to_numpy(zero_copy_only=False).astype(np.int32)
        vocab = np.asarray(dict_arr.dictionary.to_pylist(), dtype=object)
        vocab_order = np.argsort(vocab, kind="stable")
        rank_of_code = np.empty(len(vocab), dtype=np.int32)
        rank_of_code[vocab_order] = np.arange(len(vocab), dtype=np.int32)
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
        uniq_terms = vocab[vocab_order][ranks_sorted[t_starts]]
        if len(uniq_terms) > 1 and bool(
                np.any(uniq_terms[1:] == uniq_terms[:-1])):
            raise ValueError("duplicate term strings in unified dictionary")

        base = shard_id * self.docs_per_shard
        table = segment.encode_shard_postings(
            None, doc_ids, freqs, pos_flat, base,
            uniq_terms=uniq_terms, term_offsets=term_offsets,
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
            }
            (tmp / "_SUCCESS").write_text(json.dumps(row))
            os.rename(tmp, shard_dir)
        finally:
            if tmp.exists() and tmp != shard_dir:
                shutil.rmtree(tmp, ignore_errors=True)
        return _manifest_row_table([row])


def _write_segment_group(group: pa.Table, index_dir: str,
                         docs_per_shard: int,
                         codec: str = "varint") -> pa.Table:
    """Module-level map_groups fn (GroupedData requires a __name__)."""
    return SegmentWriter(index_dir, docs_per_shard, codec)(group)


@ray.remote
def _encode_shard_task(runs_dir: str, shard_id: int, index_dir: str,
                       docs_per_shard: int, columns: list[str],
                       codec: str = "varint") -> list[dict]:
    """Aligned path: one task per shard reads ONLY its doc range from the
    runs (parquet predicate pushdown over the doc-ordered files), explodes
    and encodes it. No all-to-all: doc_ids are range-partitioned, so the
    term grouping is shard-local by construction — the cluster-scale win
    over re-shipping every posting through a shuffle.
    """
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    _limit_worker_threads()
    t = pads.dataset(runs_dir, format="parquet").to_table(
        columns=columns, filter=pc.field("doc_shard") == shard_id)
    if t.num_rows == 0:
        return []
    group = _explode_runs(t)
    result = SegmentWriter(index_dir, docs_per_shard, codec)(group)
    return result.to_pylist()


def _manifest_row_table(rows: list[dict]) -> pa.Table:
    return pa.table({
        "shard_id": pa.array([r["shard_id"] for r in rows], type=pa.int64()),
        "doc_lo": pa.array([r["doc_lo"] for r in rows], type=pa.int64()),
        "doc_hi": pa.array([r["doc_hi"] for r in rows], type=pa.int64()),
        "term_count": pa.array([r["term_count"] for r in rows], type=pa.int64()),
        "posting_count": pa.array([r["posting_count"] for r in rows], type=pa.int64()),
        "doc_count": pa.array([r["doc_count"] for r in rows], type=pa.int64()),
    })


# --------------------------------------------------------------------------
# stage 3: global statistics (partial per batch + tiny global sum)
# --------------------------------------------------------------------------

def _partial_stats(batch: pa.Table) -> pa.Table:
    doc_len = batch.column("doc_len").to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({
        "num_docs": pa.array([len(doc_len)], type=pa.int64()),
        "doc_count": pa.array([int((doc_len > 0).sum())], type=pa.int64()),
        "sum_ttf": pa.array([int(doc_len.sum())], type=pa.int64()),
    })


def compute_stats(runs: rd.Dataset) -> dict:
    partials = runs.map_batches(_partial_stats, batch_format="pyarrow")
    agg = partials.sum(["num_docs", "doc_count", "sum_ttf"])
    return {
        "num_docs": int(agg["sum(num_docs)"]),
        "doc_count": int(agg["sum(doc_count)"]),
        "sum_total_term_freq": int(agg["sum(sum_ttf)"]),
    }


# --------------------------------------------------------------------------
# fused fast path: one task per source row-group span
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


def _assemble_plan(files, rg_rows, target_rows: int):
    """(file, [row_group_idx...], doc_id_offset, n_rows) tasks from the
    pre-read footer metadata."""
    tasks = []
    offset = 0
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
    return tasks, offset


def _plan_source_tasks(source: str, target_rows: int):
    files, rg_rows = _read_footers(source)
    return _assemble_plan(files, rg_rows, target_rows)


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


@ray.remote
def _fused_tokenize_task(file: str, row_groups: list[int], offset: int,
                         docs_per_shard: int, analyzer_name: str,
                         runs_dir: str, norms_dir: str, task_id: int,
                         offsets_dir: str | None = None) -> dict:
    """read -> assign doc_ids -> verify order -> tokenize -> write runs and
    norms split at shard boundaries -> return partial stats + key range."""
    _limit_worker_threads()
    marker = Path(runs_dir) / f"_task{task_id:05d}_SUCCESS"
    if marker.exists():
        return json.loads(marker.read_text())

    pf = pq.ParquetFile(file)
    src_fields = {f.name for f in pf.schema_arrow}
    extra = [c for c in DOCVALUE_FIELDS if c in src_fields]
    t = pf.read_row_groups(row_groups,
                           columns=["conv_id", "turn_idx", "text"] + extra)
    n = t.num_rows
    conv = np.asarray(t.column("conv_id").to_pylist(), dtype=object)
    turn = t.column("turn_idx").to_numpy(zero_copy_only=False)
    if n > 1 and not bool(np.all((conv[1:] > conv[:-1]) |
                                 ((conv[1:] == conv[:-1]) & (turn[1:] > turn[:-1])))):
        raise ValueError(f"rows not sorted by (conv_id, turn_idx) in {file}")
    doc_id = np.arange(offset, offset + n, dtype=np.int64)
    t = t.append_column("doc_id", pa.array(doc_id, type=pa.int64()))
    t = t.append_column("doc_shard",
                        pa.array(doc_id // docs_per_shard, type=pa.int32()))

    tok = tokenize_table(t, get_analyzer(analyzer_name))
    doc_len = tok.column("doc_len").to_numpy(zero_copy_only=False).astype(np.int64)
    stats = {
        "num_docs": int(n),
        "doc_count": int((doc_len > 0).sum()),
        "sum_ttf": int(doc_len.sum()),
        "first_key": [conv[0], int(turn[0])] if n else None,
        "last_key": [conv[-1], int(turn[-1])] if n else None,
        "shards": [],
    }

    shard_col = tok.column("doc_shard").to_numpy(zero_copy_only=False)
    bounds = np.concatenate(([0], np.nonzero(np.diff(shard_col))[0] + 1, [n]))
    norm_cols = (["doc_id", "doc_shard", "conv_id", "turn_idx"]
                 + [c for c in DOCVALUE_FIELDS if c in tok.column_names]
                 + ["doc_len", "norm_byte"])
    for i in range(len(bounds) - 1):
        a, b = int(bounds[i]), int(bounds[i + 1])
        sid = int(shard_col[a])
        stats["shards"].append(sid)
        piece = tok.slice(a, b - a)
        run_dir = Path(runs_dir) / f"shard={sid:05d}"
        run_dir.mkdir(parents=True, exist_ok=True)
        # runs carry only what the encode wave reads (norms carry the docmap)
        pq.write_table(
            piece.select(["doc_id", "doc_shard", "terms", "freqs",
                          "pos_flat"]),
            run_dir / f"run-{task_id:05d}.parquet")
        norm_dir = Path(norms_dir) / f"doc_shard={sid}"
        norm_dir.mkdir(parents=True, exist_ok=True)
        pq.write_table(piece.select(norm_cols).drop_columns(["doc_shard"]),
                       norm_dir / f"run-{task_id:05d}.parquet")
    if offsets_dir is not None:
        texts = t.column("text").to_pylist()
        counts, st_flat, en_flat = _token_spans(
            texts, get_analyzer(analyzer_name))
        offs = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        for i in range(len(bounds) - 1):
            a, b = int(bounds[i]), int(bounds[i + 1])
            sid = int(shard_col[a])
            od = Path(offsets_dir) / f"shard={sid:05d}"
            od.mkdir(parents=True, exist_ok=True)
            lo, hi = offs[a], offs[b]
            sub_offs = (offs[a:b + 1] - lo).astype(np.int64)
            # spans as ONE little-endian int32 blob per doc
            # ([starts..., ends...]): binary decode is a memcpy, where a
            # list<int32> column pays per-element assembly — the
            # highlighter reads a PAGE of hit docs, so row groups stay
            # small for tight doc_id stats pruning
            blobs = [
                np.concatenate((st_flat[x0:x1], en_flat[x0:x1]))
                .astype("<i4").tobytes()
                for x0, x1 in zip(sub_offs[:-1] + lo, sub_offs[1:] + lo)]
            pq.write_table(pa.table({
                "doc_id": pa.array(doc_id[a:b], type=pa.int64()),
                "spans": pa.array(blobs, type=pa.large_binary()),
            }), od / f"run-{task_id:05d}.parquet", row_group_size=32)
    marker.write_text(json.dumps(stats))
    return stats


@ray.remote
def _encode_shard_dir_task(runs_dir: str, shard_id: int, index_dir: str,
                           docs_per_shard: int, codec: str,
                           *wave_a_deps) -> list[dict]:
    """Wave B: encode one shard from exactly its runs/shard=K files.

    ``wave_a_deps`` carries the ObjectRefs of the wave-A tasks covering
    this shard's doc range — Ray's arg dependency is the scheduling
    barrier, so shard encoding starts as soon as ITS inputs exist and
    overlaps the rest of wave A."""
    _limit_worker_threads()
    shard_runs = Path(runs_dir) / f"shard={shard_id:05d}"
    if not shard_runs.exists():
        return []
    cols = ["doc_id", "doc_shard", "terms", "freqs", "pos_flat"]
    tables = [pq.read_table(p, columns=cols)
              for p in sorted(shard_runs.glob("*.parquet"))]
    t = pa.concat_tables(tables)
    if t.num_rows == 0:
        return []
    group = _explode_runs(t)
    result = SegmentWriter(index_dir, docs_per_shard, codec)(group)
    return result.to_pylist()


def _build_fused(source: str, index_path: Path, docs_per_shard: int | None,
                 num_shards: int | None, analyzer: str, concurrency: int,
                 resume: bool, keep_runs: bool, phases: dict, _phase,
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
    target_rows = max(8192, probe_total // max(1, concurrency * 3))
    tasks, total_docs = _assemble_plan(files, rg_rows, target_rows)
    params_file = index_path / "_BUILD_PARAMS.json"
    plan = {"docs_per_shard": int(docs_per_shard),
            "total_docs": int(total_docs),
            "postings_codec": codec,
            "tasks": [[str(f), list(map(int, rgs)), int(off), int(nr)]
                      for f, rgs, off, nr in tasks]}
    if resume and params_file.exists():
        prev = json.loads(params_file.read_text())
        if prev.get("postings_codec", "varint") != codec:
            # completed shards were encoded with the old codec; mixing
            # codecs under one manifest would corrupt readers
            raise ValueError(
                f"resume with postings_codec={codec!r} over a build "
                f"started with {prev.get('postings_codec', 'varint')!r}")
        if (prev.get("tasks")
                and prev.get("docs_per_shard") == plan["docs_per_shard"]):
            # resume with the PERSISTED plan: _task{i}_SUCCESS markers and
            # run files are keyed by task index, and a fresh plan depends
            # on the current cluster size (target_rows = f(concurrency)) —
            # trusting old markers under a replanned task list silently
            # corrupts doc_id assignment
            tasks = [(f, rgs, off, nr) for f, rgs, off, nr in prev["tasks"]]
            total_docs = int(prev["total_docs"])
        else:  # incompatible layout: stale markers cannot be trusted
            for stale in ("runs", "norms", "shards"):
                shutil.rmtree(index_path / stale, ignore_errors=True)
            runs_dir.mkdir(parents=True, exist_ok=True)
            norms_dir.mkdir(parents=True, exist_ok=True)
            params_file.write_text(json.dumps(plan))
    else:
        params_file.write_text(json.dumps(plan))
    _phase("plan")

    # wave A: fused read+assign+tokenize+write (runs and norms)
    offsets_dir = None
    if store_offsets:
        offsets_dir = index_path / "offsets"
        offsets_dir.mkdir(parents=True, exist_ok=True)
    a_futures = [
        _fused_tokenize_task.remote(
            f, rgs, off, int(docs_per_shard), analyzer,
            str(runs_dir), str(norms_dir), i,
            str(offsets_dir) if offsets_dir else None)
        for i, (f, rgs, off, nr) in enumerate(tasks)
    ]
    # wave B: per-shard encode, each task gated ONLY on the wave-A tasks
    # covering its doc range (ObjectRef args are the barrier) — shard
    # encoding overlaps the remainder of tokenization
    covering: dict[int, list] = {}
    for i, (f, rgs, off, nr) in enumerate(tasks):
        lo = off // docs_per_shard
        hi = (off + max(nr - 1, 0)) // docs_per_shard
        for sid in range(int(lo), int(hi) + 1):
            covering.setdefault(sid, []).append(a_futures[i])
    b_futures = {
        sid: _encode_shard_dir_task.remote(
            str(runs_dir), sid, str(index_path), int(docs_per_shard),
            codec, *deps)
        for sid, deps in sorted(covering.items())
    }
    partials = ray.get(a_futures)
    # cross-task order check (tasks are offset-ordered)
    prev_last = None
    for p in partials:
        if p["first_key"] is None:
            continue
        if prev_last is not None and tuple(p["first_key"]) <= tuple(prev_last):
            raise ValueError("source files out of (conv_id, turn_idx) order")
        prev_last = p["last_key"]
    stats = {
        "num_docs": sum(p["num_docs"] for p in partials),
        "doc_count": sum(p["doc_count"] for p in partials),
        "sum_total_term_freq": sum(p["sum_ttf"] for p in partials),
    }
    avgdl = float(bm25.avg_field_length(
        stats["sum_total_term_freq"], max(stats["doc_count"], 1)))
    _phase("tokenize_runs")

    manifest_rows = [r for rows in ray.get(list(b_futures.values()))
                     for r in rows]
    _phase("term_group_encode")
    lineage = [
        {"task_id": i, "file": f, "row_groups": list(map(int, rgs)),
         "doc_lo": int(off), "doc_hi": int(off + nr)}
        for i, (f, rgs, off, nr) in enumerate(tasks)
    ]
    return {
        "stats": stats,
        "avgdl": avgdl,
        "manifest_rows": manifest_rows,
        "docs_per_shard": int(docs_per_shard),
        "actual_shards": int(actual_shards),
        "checkpoint": prev_last,
        "lineage": lineage,
    }


# --------------------------------------------------------------------------
# the build driver
# --------------------------------------------------------------------------

def build_index(
    source: str | rd.Dataset,
    index_dir: str,
    *,
    num_shards: int | None = None,
    docs_per_shard: int | None = None,
    analyzer: str = "standard",
    batch_size: int = 4096,
    concurrency: int | None = None,
    assume_sorted: bool = True,
    resume: bool = False,
    keep_runs: bool = False,
    shuffle: str = "aligned",
    postings_codec: str = "varint",
    store_offsets: bool = False,
) -> dict:
    """Build a sharded inverted index; returns the manifest dict.

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
    phases: dict[str, float] = {}
    _last = [t0]

    def _phase(name: str) -> None:
        now = time.time()
        phases[name] = round(now - _last[0], 3)
        _last[0] = now

    index_path = Path(index_dir)
    index_path.mkdir(parents=True, exist_ok=True)
    if not resume:
        for stale in ("shards", "norms", "runs"):
            shutil.rmtree(index_path / stale, ignore_errors=True)
        (index_path / "_NORMS_SUCCESS").unlink(missing_ok=True)
        (index_path / MANIFEST_NAME).unlink(missing_ok=True)

    if concurrency is None:
        concurrency = max(2, int(ray.cluster_resources().get("CPU", 4)) - 1)

    # fused two-wave path: applicable to sorted parquet-on-disk sources
    # (the 100 TB case); Dataset sources or unsorted input use the general
    # Dataset pipeline below
    if store_offsets and not (isinstance(source, str) and assume_sorted
                              and shuffle == "aligned"):
        raise ValueError("store_offsets requires the fused sorted-parquet "
                         "build path")
    if isinstance(source, str) and assume_sorted and shuffle == "aligned":
        r = _build_fused(source, index_path, docs_per_shard, num_shards,
                         analyzer, concurrency, resume, keep_runs,
                         phases, _phase, codec=postings_codec,
                         store_offsets=store_offsets)
        manifest = _write_manifest(
            index_path, analyzer, r["docs_per_shard"], r["actual_shards"],
            r["stats"], r["avgdl"], r["manifest_rows"], phases, t0,
            checkpoint=r["checkpoint"], lineage=r["lineage"],
            postings_codec=postings_codec, offsets=store_offsets)
        if not keep_runs:
            shutil.rmtree(index_path / "runs", ignore_errors=True)
        return manifest

    runs_dir = index_path / "runs"
    runs_done = runs_dir / "_RUNS_SUCCESS"
    params_file = index_path / "_BUILD_PARAMS.json"

    if resume and runs_done.exists() and params_file.exists():
        # tokenized runs already on disk: skip read + assign + tokenize
        prev_params = json.loads(params_file.read_text())
        if prev_params.get("postings_codec", "varint") != postings_codec:
            raise ValueError(
                f"resume with postings_codec={postings_codec!r} over a "
                f"build started with "
                f"{prev_params.get('postings_codec', 'varint')!r}")
        docs_per_shard = prev_params["docs_per_shard"]
        total_docs = prev_params["total_docs"]
        actual_shards = max(1, -(-total_docs // docs_per_shard))
    else:
        if isinstance(source, str):
            import pyarrow.dataset as _pads

            src_fields = {f.name for f in _pads.dataset(source).schema}
            extra = [c for c in DOCVALUE_FIELDS if c in src_fields]
            ds = rd.read_parquet(
                source, columns=["conv_id", "turn_idx", "text"] + extra)
        else:
            ds = ds_select(source)
        if not assume_sorted:
            ds = ds.sort(["conv_id", "turn_idx"])

        total_docs = ds.count()
        if docs_per_shard is None:
            num_shards = num_shards or 8
            docs_per_shard = max(1, -(-total_docs // num_shards))
        actual_shards = max(1, -(-total_docs // docs_per_shard))
        params_file.write_text(json.dumps(
            {"docs_per_shard": int(docs_per_shard),
             "total_docs": int(total_docs),
             "postings_codec": postings_codec}))

        _phase("read_count")
        ds, _ = assign_doc_ids(ds, docs_per_shard, verify_order=assume_sorted)
        _phase("assign_doc_ids")

        if runs_dir.exists():
            shutil.rmtree(runs_dir)
        tokenized = ds.map_batches(
            TokenizeStage,
            fn_constructor_kwargs={"analyzer_name": analyzer},
            batch_format="pyarrow",
            batch_size=batch_size,
            zero_copy_batch=True,
            concurrency=concurrency,
        )
        tokenized.write_parquet(str(runs_dir))
        runs_done.touch()
        _phase("tokenize_runs")

    # stats (column-pruned read of the runs)
    stats = compute_stats(
        rd.read_parquet(str(runs_dir), columns=["doc_len"]))
    avgdl = float(bm25.avg_field_length(
        stats["sum_total_term_freq"], max(stats["doc_count"], 1)))
    _phase("stats")

    # norms + docmap, partitioned by shard for query-side range loads
    norms_dir = index_path / "norms"
    if not (resume and (index_path / "_NORMS_SUCCESS").exists()):
        if norms_dir.exists():
            shutil.rmtree(norms_dir)
        import pyarrow.dataset as _pads

        runs_fields = {f.name for f in _pads.dataset(str(runs_dir)).schema}
        ncols = (["doc_id", "doc_shard", "conv_id", "turn_idx"]
                 + [c for c in DOCVALUE_FIELDS if c in runs_fields]
                 + ["doc_len", "norm_byte"])
        rd.read_parquet(str(runs_dir), columns=ncols).write_parquet(
            str(norms_dir), partition_cols=["doc_shard"])
        (index_path / "_NORMS_SUCCESS").touch()
    _phase("norms")

    # the term grouping: per-shard postings aggregation + encode.
    # "aligned" (default): doc_ids are range-partitioned and the runs are
    # written in doc order, so each shard's postings are already co-located
    # — one independent task per shard, predicate-pushdown read, no
    # all-to-all. "groupby": the explicit Ray groupby shuffle (used when
    # upstream alignment cannot be assumed).
    run_cols = ["doc_id", "doc_shard", "terms", "freqs", "pos_flat"]
    if shuffle == "aligned":
        futures = [
            _encode_shard_task.remote(
                str(runs_dir), sid, str(index_path), int(docs_per_shard),
                run_cols, postings_codec)
            for sid in range(actual_shards)
        ]
        manifest_rows = [r for rows in ray.get(futures) for r in rows]
    else:
        runs = rd.read_parquet(str(runs_dir), columns=run_cols)
        postings = runs.map_batches(_explode_runs, batch_format="pyarrow",
                                    zero_copy_batch=True)
        import functools

        writer = functools.partial(
            _write_segment_group, index_dir=str(index_path),
            docs_per_shard=int(docs_per_shard), codec=postings_codec)
        manifest_rows = (
            postings.groupby("doc_shard")
            .map_groups(writer, batch_format="pyarrow")
            .take_all()
        )

    _phase("term_shuffle_encode")
    shards = manifest_rows
    manifest = _write_manifest(index_path, analyzer, docs_per_shard,
                               actual_shards, stats, avgdl, shards, phases,
                               t0, postings_codec=postings_codec)
    if not keep_runs:
        shutil.rmtree(runs_dir, ignore_errors=True)
    return manifest


def _write_manifest(index_path: Path, analyzer: str, docs_per_shard: int,
                    actual_shards: int, stats: dict, avgdl: float,
                    manifest_rows: list[dict], phases: dict, t0: float,
                    checkpoint=None, lineage=None,
                    postings_codec: str = "varint",
                    offsets: bool = False) -> dict:
    shards = sorted(manifest_rows, key=lambda r: r["shard_id"])
    manifest = {
        "version": 1,
        "created_unix": time.time(),
        "build_seconds": time.time() - t0,
        "params": {
            "analyzer": analyzer,
            "docs_per_shard": int(docs_per_shard),
            "num_shards": int(actual_shards),
            "postings_codec": postings_codec,
            "offsets": bool(offsets),
            "k1": float(bm25.K1),
            "b": float(bm25.B),
        },
        "stats": {**stats, "avgdl": avgdl},
        "phases": phases,
        "checkpoint": list(checkpoint) if checkpoint else None,
        "lineage": lineage,
        "shards": [
            {k: int(v) for k, v in r.items()} for r in shards
        ],
    }
    tmp_manifest = index_path / (MANIFEST_NAME + ".tmp")
    tmp_manifest.write_text(json.dumps(manifest, indent=1))
    os.replace(tmp_manifest, index_path / MANIFEST_NAME)
    return manifest


def ds_select(ds: rd.Dataset) -> rd.Dataset:
    keep = ["conv_id", "turn_idx", "text"] + [
        c for c in DOCVALUE_FIELDS if c in ds.schema().names]
    return ds.select_columns(keep)


def read_manifest(index_dir: str) -> dict:
    return json.loads((Path(index_dir) / MANIFEST_NAME).read_text())
