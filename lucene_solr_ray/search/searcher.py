"""Shard-level query engine over the sharded segment layout.

- ``ShardSearcher``: in-process search over one segment, the contiguous
  doc-shards of a shard group merged at open (their term tables decoded
  once into resident doc/freq/position columns, norms, and one sorted
  term dictionary over their union vocabulary — the stand-in for the FST
  term dictionary, BlockTreeTermsWriter.java:174-189). Scoring is vectorized
  float32 BM25 (SURVEY.md §3.2) using *global* term statistics supplied by
  the coordinator (Solr ExactStatsCache analog — required for
  rank-identity with a single-node index).
- ``DocValues``: the per-field doc-value columns of one index, loaded on
  first use and shared by the shard searchers that read them.
- ``IndexSearcher`` / ``MultiIndexSearcher``: the in-process constructors
  of the one query coordinator, defined in ``actors.py`` beside
  ``DistributedSearcher`` and importable from here.

Boolean semantics: BooleanWeight sum-of-clause scores, MUST intersection
(ConjunctionDISI leapfrog -> vectorized sorted-array intersection), SHOULD
union (exhaustive scored disjunction — the reference snapshot has no WAND),
MUST_NOT exclusion (ReqExclScorer -> sorted-array difference). Clause
scores accumulate in clause order in float32, matching the oracle.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pyarrow.parquet as pq

from ..index import segment
from . import bm25
from .query import (
    BooleanQuery,
    MatchNoDocs,
    MultiTermQuery,
    PhraseQuery,
    Query,
    TermQuery,
    expand_multi_term,
)


class _Rev:
    """Descending-order wrapper for non-numeric sort keys. Compares
    smaller-than the missing-value sentinel (missing sorts last in either
    direction)."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __lt__(self, other):
        if isinstance(other, _MissingLast):
            return True
        return other.v < self.v

    def __eq__(self, other):
        return isinstance(other, _Rev) and self.v == other.v


class _MissingLast:
    """Sentinel for docs without the sort field: sorts after every real
    value in either direction (TopFieldCollector missingValue, pinned to
    sort-missing-last)."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __gt__(self, other):
        return not isinstance(other, _MissingLast)

    def __eq__(self, other):
        return isinstance(other, _MissingLast)


_MISSING_LAST = _MissingLast()


def _merge_sort_key(hit, sort):
    """Driver-side merge key for field-sorted shard hits
    (TopFieldCollector merge: field values, tie -> lower doc_id).
    Docs missing the field sort last in either direction."""
    doc_id, _, keys = hit
    out = []
    for (fld, desc), v in zip(sort, keys):
        if v is None:
            out.append(_MISSING_LAST)
        elif desc:
            out.append(-v if isinstance(v, (int, float, np.integer,
                                            np.floating)) else _Rev(v))
        else:
            out.append(v)
    out.append(doc_id)
    return tuple(out)


def collect_terms(q: Query) -> set[str]:
    from .query import (ConstantScoreQuery, DisMaxQuery, SpanFirstQuery,
                        SynonymQuery)

    if isinstance(q, TermQuery):
        return {q.term}
    if isinstance(q, SynonymQuery):
        return set(q.terms)
    from .query import MultiPhraseQuery

    if isinstance(q, MultiPhraseQuery):
        return {t for alts in q.slots for t in alts}
    from .query import BoostingQuery

    if isinstance(q, BoostingQuery):
        return collect_terms(q.match) | collect_terms(q.context)
    if isinstance(q, SpanFirstQuery):
        from .query import span_terms

        return span_terms(q)
    if isinstance(q, PhraseQuery):
        return set(q.terms)
    if isinstance(q, BooleanQuery):
        out: set[str] = set()
        for c in q.clauses():
            out |= collect_terms(c)
        return out
    if isinstance(q, DisMaxQuery):
        out = set()
        for c in q.clauses:
            out |= collect_terms(c)
        return out
    if isinstance(q, ConstantScoreQuery):
        return collect_terms(q.query)
    from .query import (SpanNearQuery, SpanNotQuery, SpanOrQuery,
                        SpanTermQuery, span_terms)

    if isinstance(q, (SpanTermQuery, SpanNearQuery, SpanOrQuery,
                      SpanNotQuery)):
        return span_terms(q)
    from .query import CommonTermsQuery

    if isinstance(q, CommonTermsQuery):
        return set(q.terms)
    from .query import ComplexPhraseQuery

    if isinstance(q, ComplexPhraseQuery):
        # plain-term phrase elements only: the coordinator rewrites the
        # multi-term ones first (query.rewrite_expansions)
        out = set()
        for _, c in q.clauses:
            out |= collect_terms(c)
        return out
    return set()


class _TermDict:
    """Sorted term dictionary over the Arrow term column (SURVEY §7.6):
    lookups against the (almost zero-copy) string array instead of a
    Python dict of interned strings — an order of magnitude less
    resident memory per shard at 10^7-term vocabularies, identical API
    surface (get / in / [] / iteration in sorted order / items).

    Lookup is one ``searchsorted`` over an 8-byte big-endian prefix key
    per term (one uint64 each, built once from the Arrow buffers)
    followed by a short bytes-level walk over the terms sharing the
    prefix — no per-probe ``pa.Scalar``/``as_py`` boxing
    (r3 verdict, What's wrong #4)."""

    __slots__ = ("_arr", "_n", "_pfx", "_offs", "_data")

    def __init__(self, arr):
        self._arr = arr  # pa.StringArray, ascending
        self._n = n = len(arr)
        if n == 0:
            self._pfx = np.empty(0, dtype=np.uint64)
            self._offs = np.zeros(1, dtype=np.int64)
            self._data = memoryview(b"")
            return
        raw_offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)
        offs = raw_offs[arr.offset:arr.offset + n + 1].astype(np.int64)
        data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
        self._offs = offs
        self._data = data
        lens = np.diff(offs)
        pfx = np.zeros((n, 8), dtype=np.uint8)
        starts = offs[:-1]
        for k in range(8):
            m = lens > k
            pfx[m, k] = data[starts[m] + k]
        self._pfx = pfx.reshape(-1).view(">u8").astype(np.uint64).ravel()

    def _term_bytes(self, i: int) -> bytes:
        return self._data[self._offs[i]:self._offs[i + 1]].tobytes()

    def get(self, term, default=None):
        tb = term.encode() if isinstance(term, str) else bytes(term)
        key = np.uint64(int.from_bytes(tb[:8].ljust(8, b"\0"), "big"))
        i = int(self._pfx.searchsorted(key))
        # walk the terms sharing the prefix (usually 0-2), in byte order
        while i < self._n and self._pfx[i] == key:
            cur = self._term_bytes(i)
            if cur == tb:
                return i
            if cur > tb:
                break
            i += 1
        return default

    def __contains__(self, term):
        return self.get(term) is not None

    def __getitem__(self, term):
        i = self.get(term)
        if i is None:
            raise KeyError(term)
        return i

    def __iter__(self):
        for i in range(self._n):
            yield self._arr[i].as_py()

    def __len__(self):
        return self._n

    def items(self):
        for i in range(self._n):
            yield self._arr[i].as_py(), i

    def seq(self):
        """Index-addressed view (sequence protocol) for bisect-based
        expansion without materializing the vocabulary."""
        return _TermSeq(self._arr, self._n)


class _TermSeq:
    __slots__ = ("_arr", "_n")

    def __init__(self, arr, n):
        self._arr = arr
        self._n = n

    def __len__(self):
        return self._n

    def __getitem__(self, i):
        return self._arr[i].as_py()


class DocValues:
    """Doc-value columns of one index, indexed by doc_id and read on
    first use (the doc-values analog; values live in the norms
    partitions). ``shard_ids`` limits the read to those shards' partitions
    (other docs read as missing). A field the index does not carry has
    column ``None``."""

    def __init__(self, index_dir: str, num_docs: int,
                 shard_ids: list[int] | None = None):
        self.index_dir = str(index_dir)
        self.num_docs = int(num_docs)
        self.shard_ids = shard_ids
        self.cache: dict[str, np.ndarray | None] = {}

    def column(self, field: str) -> np.ndarray | None:
        if field not in self.cache:
            import pyarrow.dataset as pads

            norms = Path(self.index_dir) / "norms"
            col = None
            if norms.exists():
                dset = pads.dataset(str(norms), format="parquet",
                                    partitioning="hive")
                if field in dset.schema.names:
                    flt = (None if self.shard_ids is None else
                           pads.field("doc_shard").isin(self.shard_ids))
                    t = dset.to_table(columns=["doc_id", field], filter=flt)
                    col = np.empty(self.num_docs, dtype=object)
                    col[t.column("doc_id").to_numpy(zero_copy_only=False)] \
                        = np.asarray(t.column(field).to_pylist(), dtype=object)
            self.cache[field] = col
        return self.cache[field]


class ShardSearcher:
    """Search over one segment: a run of contiguous shards merged at open
    into one doc range ``[base, base + size)`` (a leaf slice of Lucene's
    IndexSearcher), its postings/norms held in memory, decoded once
    (DirectPostingsFormat's trade: memory for no per-query decode)."""

    def __init__(self, index_dir: str, shard_ids: list[int],
                 manifest: dict | None = None, similarity: str = "bm25",
                 docvalues: DocValues | None = None):
        index_path = Path(index_dir)
        if manifest is None:
            manifest = json.loads((index_path / "manifest.json").read_text())
        self.shard_ids = [int(s) for s in shard_ids]
        self.index_dir = str(index_dir)
        params = manifest["params"]
        stats = manifest["stats"]
        dps = params["docs_per_shard"]
        self._codec = params.get("postings_codec", "varint")
        first, last = (self.shard_ids[0], self.shard_ids[-1]) \
            if self.shard_ids else (0, -1)
        self.base = first * dps
        self.size = (last + 1 - first) * dps
        self.doc_count = stats["doc_count"]
        self.num_docs_total = stats["num_docs"]
        self.docvalues = docvalues or DocValues(
            index_dir, self.num_docs_total, self.shard_ids)
        self.avgdl = np.float32(stats["avgdl"])
        self.cache = bm25.norm_cache(self.avgdl)
        # query-time pluggable scoring (Similarity SPI: IndexSearcher.
        # setSimilarity). A callable acts as a factory (avgdl -> sim) for
        # similarities with custom parameters (e.g. SweetSpotSim settings).
        self.sim = similarity(self.avgdl) if callable(similarity) \
            else bm25.make_similarity(similarity, self.avgdl)

        files = {sid: index_path / "shards" / f"shard={sid:05d}"
                 / "terms.parquet" for sid in self.shard_ids}
        held = [sid for sid, f in files.items() if f.exists()]
        terms, *cols = segment.decode_segment(
            [pq.read_table(files[sid]) for sid in held],
            [sid * dps for sid in held], self._codec)
        self._terms = _TermDict(terms)
        # term i: _docs/_freqs[_term_docs[i]:_term_docs[i + 1]],
        # _flat_pos[_term_pos[i]:_term_pos[i + 1]]
        (self._term_docs, self._term_pos, self._docs, self._freqs,
         self._flat_pos) = cols
        # queries get views of these: a write through one would corrupt
        # the segment for every later query
        for a in cols:
            a.flags.writeable = False

        # live-docs mask (tombstones from delete/overwrite-by-id;
        # IndexWriter.deleteDocuments analog — deleted docs are masked out
        # of every query, stats keep counting them until a merge)
        self._deleted: np.ndarray | None = None
        deletes_file = index_path / "_DELETES.json"
        if deletes_file.exists():
            dels = np.asarray(json.loads(deletes_file.read_text())["doc_ids"],
                              dtype=np.int64)
            local = dels[(dels >= self.base)
                         & (dels < self.base + self.size)]
            if len(local):
                self._deleted = np.zeros(self.size, dtype=bool)
                self._deleted[local - self.base] = True

        # Heal a crashed atomic-update partition swap BEFORE loading
        # norms: a .dvold-* aside with a missing live partition would
        # otherwise read as all-zero norms / all-None docvalues and
        # silently corrupt BM25 scores, sorts, facets and stats.
        segment.recover_norms_partitions(index_path)
        self.norms = np.zeros(self.size, dtype=np.uint8)
        for sid in self.shard_ids:
            norms_part = index_path / "norms" / f"doc_shard={sid}"
            if sid in held and not norms_part.exists():
                raise FileNotFoundError(
                    f"norms partition missing for doc_shard={sid} "
                    f"(postings present) — index corrupt beyond .dvold "
                    f"recovery: {norms_part}")
            if norms_part.exists():
                nt = pq.read_table(norms_part,
                                   columns=["doc_id", "norm_byte"])
                ids = nt.column("doc_id").to_numpy(zero_copy_only=False)
                self.norms[ids - self.base] = nt.column(
                    "norm_byte").to_numpy(zero_copy_only=False)

    def explain(self, q: Query, doc_id: int,
                df_map: dict[str, int]) -> dict | None:
        """Score explanation tree (Explanation.java / Solr debugQuery):
        {value, description, details}. None when the doc doesn't match.
        Leaf terms break the BM25 product into boost/idf/tf components
        (BM25Similarity.explainScore); composite nodes explain as the
        sum/max structure their scorer uses. Non-decomposable scorers
        (phrases, spans, rewrites) report their computed value with a
        one-line description."""
        docs, scores = self._score_clause(q, df_map)
        i = int(np.searchsorted(docs, doc_id))
        if i >= len(docs) or docs[i] != doc_id:
            return None
        value = float(scores[i])
        from .query import (BoostingQuery, ConstantScoreQuery,
                            DisMaxQuery, SynonymQuery)

        if isinstance(q, TermQuery):
            df = df_map.get(q.term, 0)
            idf_v = float(self.sim.idf(df, self.doc_count))
            p = self._postings(q.term)
            j = int(np.searchsorted(p[0], doc_id))
            freq = int(p[1][j])
            norm_byte = int(self.norms[doc_id - self.base])
            return {
                "value": value,
                "description": f"weight(text:{q.term} in {doc_id}) "
                               f"[{type(self.sim).__name__}], product of:",
                "details": [
                    {"value": float(q.boost), "description": "boost"},
                    {"value": idf_v,
                     "description": f"idf(docFreq={df}, "
                                    f"docCount={self.doc_count})"},
                    {"value": value / (float(q.boost) * idf_v)
                     if q.boost and idf_v else 0.0,
                     "description": f"tf(freq={freq}), norm_byte="
                                    f"{norm_byte}"},
                ],
            }
        if isinstance(q, SynonymQuery):
            return {"value": value,
                    "description": f"SynonymQuery({','.join(q.terms)}): "
                                   "blended max-df, summed freq",
                    "details": []}
        if isinstance(q, BooleanQuery):
            details = []
            for c in q.must + q.should:
                sub = self.explain(c, doc_id, df_map)
                if sub is not None:
                    details.append(sub)
            return {"value": value, "description": "sum of:",
                    "details": details}
        if isinstance(q, DisMaxQuery):
            details = [s for c in q.clauses
                       if (s := self.explain(c, doc_id, df_map))]
            return {"value": value,
                    "description": f"max plus {q.tie_breaker} times "
                                   "others of:",
                    "details": details}
        if isinstance(q, ConstantScoreQuery):
            return {"value": value,
                    "description": f"ConstantScore({q.boost})",
                    "details": []}
        return {"value": value,
                "description": f"{type(q).__name__} score",
                "details": []}

    def docvalues_local(self, field: str, docs: np.ndarray) -> np.ndarray:
        """Doc values of ``field`` for the given doc_ids (all None when the
        index does not carry the field: exists()=0 semantics)."""
        col = self.docvalues.column(field)
        if col is None:
            return np.full(len(docs), None, dtype=object)
        return col[docs]

    def boundary_convs(self) -> list[str]:
        """conv_id of this segment's first and last doc — the only
        conversations that can straddle a segment edge. doc_id is rank
        under the stable (conv_id, turn_idx) sort (BASELINE.json
        input_hint), so each conversation is doc-contiguous and at most
        these two can have turns in a neighbouring segment. Used by the
        bounded conv/collapse partials (actors.py) to ship split
        conversations unconditionally."""
        arr = self.docvalues_local("conv_id", np.arange(
            self.base, min(self.base + self.size, self.num_docs_total)))
        present = np.flatnonzero(arr != None)  # noqa: E711
        if len(present) == 0:
            return []
        return [str(arr[present[0]]), str(arr[present[-1]])]

    def local_df(self, terms: list[str]) -> dict[str, int]:
        """This shard's docFreq of the ``terms`` it holds."""
        return {t: len(p[0]) for t in terms
                if (p := self._postings(t)) is not None}

    def local_termfreq(self, term: str, docs: np.ndarray) -> np.ndarray:
        """tf of ``term`` in each of ``docs`` (global ids on this shard),
        0 where absent (TermFreqValueSource semantics)."""
        out = np.zeros(len(docs), dtype=np.float64)
        p = self._postings(term)
        if p is None or len(docs) == 0:
            return out
        pdocs, freqs = p[0], p[1]
        j = np.searchsorted(pdocs, docs)
        jc = np.minimum(j, len(pdocs) - 1)
        ok = (j < len(pdocs)) & (pdocs[jc] == docs)
        out[ok] = freqs[jc[ok]]
        return out

    def term_vector(self, doc_id: int) -> list[tuple[str, int, list[int]]]:
        """Per-doc (term, freq, positions) vector
        (``solr/core/.../handler/component/TermVectorComponent.java:79``).

        The index is postings-only (no forward term-vector file, unlike
        Lucene's optional .tvd), so this inverts the segment's resident
        postings for one doc: a binary search of every term's sorted doc
        ids at once, O(terms * log df) per call — a debugging/feature
        API; a production variant at 10^12 docs would persist a forward
        vector file at build time.
        """
        if self._deleted is not None and self._deleted[doc_id - self.base]:
            return []
        lo, end = self._term_docs[:-1].copy(), self._term_docs[1:]
        hi = end.copy()
        while (live := lo < hi).any():
            mid = (lo + hi) // 2
            below = live & (self._docs[np.minimum(mid, len(self._docs) - 1)]
                            < doc_id)
            lo, hi = np.where(below, mid + 1, lo), \
                np.where(live & ~below, mid, hi)
        hit = lo < end
        hit[hit] = self._docs[lo[hit]] == doc_id
        terms = self._terms.seq()
        out = []
        # postings of the doc, in term order
        for i in np.flatnonzero(hit):
            j = lo[i]
            f = int(self._freqs[j])
            a = int(self._term_pos[i]
                    + self._freqs[self._term_docs[i]:j].sum())
            out.append((terms[i], f, self._flat_pos[a:a + f].tolist()))
        return out

    def positions_of(self, term: str, doc_id: int) -> list[int]:
        """Positions of one TERM in one DOC (a single term-dict probe —
        candidate-scale, unlike term_vector's O(postings) inversion). The
        offsets-based highlighter maps these through the build-time
        offsets sidecar to char spans without re-analyzing the text
        (PostingsHighlighter.java:100)."""
        if self._deleted is not None and self._deleted[doc_id - self.base]:
            return []
        p = self._postings(term)
        if p is None:
            return []
        docs, _, i = p
        j = int(np.searchsorted(docs, doc_id))
        if j >= len(docs) or docs[j] != doc_id:
            return []
        flat, offs = self._positions(i)
        return [int(x) for x in flat[offs[j]:offs[j + 1]]]

    # --- postings access: views of the resident columns ---
    def _postings(self, term: str):
        """(docs, freqs, term ordinal), or None if the shard lacks the
        term."""
        i = self._terms.get(term)
        if i is None:
            return None
        a, b = self._term_docs[i], self._term_docs[i + 1]
        return self._docs[a:b], self._freqs[a:b], i

    def _positions(self, i: int):
        """(flat positions, per-doc offsets into them) of term ordinal
        ``i``, as ``segment.decode_positions`` returns them."""
        freqs = self._freqs[self._term_docs[i]:self._term_docs[i + 1]]
        offs = np.zeros(len(freqs) + 1, dtype=np.int64)
        np.cumsum(freqs, out=offs[1:])
        return self._flat_pos[self._term_pos[i]:self._term_pos[i + 1]], offs

    def _live(self, docs: np.ndarray, scores: np.ndarray):
        """Drop tombstoned docs (liveDocs mask)."""
        if self._deleted is None or len(docs) == 0:
            return docs, scores
        keep = ~self._deleted[docs - self.base]
        return docs[keep], scores[keep]

    # --- scoring with global stats ---
    def _score_term(self, q: TermQuery, df_map: dict[str, int]):
        p = self._postings(q.term)
        if p is None:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        docs, freqs, _ = p
        w = self.sim.weight(
            self.sim.idf(df_map.get(q.term, 0), self.doc_count), q.boost)
        scores = self.sim.score(freqs, self.norms[docs - self.base], w)
        return self._live(docs, scores)

    def _score_phrase(self, q: PhraseQuery, df_map: dict[str, int]):
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32))
        plists = []
        for t in q.terms:
            p = self._postings(t)
            if p is None:
                return empty
            plists.append(p)
        # conjunction over doc ids, tracking row indices per term
        docs = plists[0][0]
        idxs = [np.arange(len(docs))]
        for d2, _, _ in plists[1:]:
            docs, ia, ib = np.intersect1d(docs, d2, assume_unique=True,
                                          return_indices=True)
            idxs = [ix[ia] for ix in idxs]
            idxs.append(ib)
        if len(docs) == 0:
            return empty
        rel = q.positions
        if q.slop > 0:
            return self._finish_sloppy_phrase(q, df_map, docs, idxs, plists)
        # vectorized exact-phrase counting across ALL candidate docs at once
        # (ExactPhraseScorer semantics): composite (local_doc << 32 | pos)
        # keys make per-doc position membership a single global searchsorted.
        flat0, offs0 = self._positions(plists[0][2])
        ix0 = idxs[0]
        starts, ends = offs0[ix0], offs0[ix0 + 1]
        lens = (ends - starts).astype(np.int64)
        total = int(lens.sum())
        seg_offs = np.concatenate(([0], np.cumsum(lens)))
        gather = (np.repeat(starts, lens)
                  + (np.arange(total) - np.repeat(seg_offs[:-1], lens)))
        p0 = flat0[gather].astype(np.int64)
        local0 = np.repeat(docs - self.base, lens).astype(np.int64)
        mask = np.ones(total, dtype=bool)
        for t_i in range(1, len(plists)):
            d_i, f_i, row_i = plists[t_i]
            flat_i, _ = self._positions(row_i)
            doc_of_pi = np.repeat(d_i - self.base, f_i).astype(np.int64)
            keys_i = (doc_of_pi << 32) | flat_i.astype(np.int64)
            tpos = p0 - rel[0] + rel[t_i]
            target = (local0 << 32) | np.maximum(tpos, 0)
            loc = np.searchsorted(keys_i, target)
            ok = (loc < len(keys_i)) & (tpos >= 0)
            ok[ok] = keys_i[loc[ok]] == target[ok]
            mask &= ok
            if not mask.any():
                return empty
        phrase_freqs = np.add.reduceat(mask.astype(np.int64), seg_offs[:-1])
        keep = phrase_freqs > 0
        docs = docs[keep]
        pf = phrase_freqs[keep]
        w = self._phrase_weight(q, df_map)
        scores = self.sim.score(pf, self.norms[docs - self.base], w)
        return self._live(docs, scores)

    def _phrase_weight(self, q: PhraseQuery, df_map: dict[str, int]):
        sum_idf = np.float32(0.0)
        for t in q.terms:
            sum_idf = np.float32(
                sum_idf + self.sim.idf(df_map.get(t, 0), self.doc_count))
        return self.sim.weight(sum_idf, q.boost)

    def _finish_sloppy_phrase(self, q: PhraseQuery, df_map: dict[str, int],
                              docs: np.ndarray, idxs: list, plists: list):
        """SloppyPhraseScorer path: conjunction candidates from the exact
        machinery, per-doc phraseFreq via the shared pq kernel
        (query.sloppy_phrase_freq — identical code runs in the oracle)."""
        from .query import sloppy_phrase_freq

        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32))
        decoded = [self._positions(row_i) for _, _, row_i in plists]
        rel = list(q.positions)
        pf = np.zeros(len(docs), dtype=np.float64)
        for j in range(len(docs)):
            pls = []
            for t_i in range(len(plists)):
                ix = int(idxs[t_i][j])
                flat_i, offs_i = decoded[t_i]
                pls.append(flat_i[offs_i[ix]:offs_i[ix + 1]])
            pf[j] = sloppy_phrase_freq(pls, rel, q.slop)
        keep = pf > 0
        if not keep.any():
            return empty
        docs = docs[keep]
        w = self._phrase_weight(q, df_map)
        scores = self.sim.score(pf[keep], self.norms[docs - self.base], w)
        return self._live(docs, scores)

    def _score_multi_phrase(self, q, df_map: dict[str, int]):
        """MultiPhraseQuery scorer (MultiPhraseQuery.java:47 /
        UnionPostingsEnum): per slot, union the alternatives' decoded
        positions; candidates = docs where EVERY slot has some
        alternative; freq = exact alignment count (slop=0) or
        sloppy_phrase_freq; weight sums idf over all terms in slot
        order (same float32 accumulation as the oracle)."""
        from .query import sloppy_phrase_freq

        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32))
        cands = None
        slot_entries = []
        for alts in q.slots:
            entries = []
            docs_union = []
            for t in alts:
                p = self._postings(t)
                if p is None:
                    continue
                d_i, _, row_i = p
                flat, offs = self._positions(row_i)
                entries.append((d_i, flat, offs))
                docs_union.append(d_i)
            if not entries:
                return empty
            u = docs_union[0] if len(docs_union) == 1 else \
                np.unique(np.concatenate(docs_union))
            cands = u if cands is None else \
                np.intersect1d(cands, u, assume_unique=True)
            if len(cands) == 0:
                return empty
            slot_entries.append(entries)
        rel = list(q.positions)
        pf = np.zeros(len(cands), dtype=np.float64)
        for j, d in enumerate(cands):
            pls = []
            for entries in slot_entries:
                pos = []
                for d_i, flat, offs in entries:
                    i = int(np.searchsorted(d_i, d))
                    if i < len(d_i) and d_i[i] == d:
                        pos.append(flat[offs[i]:offs[i + 1]])
                merged = pos[0] if len(pos) == 1 else \
                    np.unique(np.concatenate(pos))
                pls.append(np.asarray(merged, dtype=np.int64))
            if q.slop == 0:
                starts = pls[0] - rel[0]
                for k in range(1, len(pls)):
                    starts = starts[np.isin(starts + rel[k], pls[k])]
                    if len(starts) == 0:
                        break
                pf[j] = float(len(starts))
            else:
                pf[j] = sloppy_phrase_freq(pls, rel, q.slop)
        keep = pf > 0
        if not keep.any():
            return empty
        docs, f = cands[keep], pf[keep]
        sum_idf = np.float32(0.0)
        for alts in q.slots:
            for t in alts:
                sum_idf = np.float32(
                    sum_idf + self.sim.idf(df_map.get(t, 0),
                                           self.doc_count))
        w = self.sim.weight(sum_idf, q.boost)
        scores = self.sim.score(f, self.norms[docs - self.base], w)
        return self._live(docs, scores)

    def _score_synonym(self, q, df_map: dict[str, int]):
        """SynonymQuery scorer (SynonymQuery.java:228-249): one pseudo-
        term — weight from max df over the synonyms, per-doc freq = sum
        of the synonyms' freqs."""
        plists = [p for p in (self._postings(t) for t in q.terms)
                  if p is not None]
        if not plists:
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float32))
        all_docs = plists[0][0] if len(plists) == 1 else \
            np.unique(np.concatenate([d for d, _, _ in plists]))
        freq = np.zeros(len(all_docs), dtype=np.int64)
        for d_i, f_i, _ in plists:
            idx = np.searchsorted(all_docs, d_i)
            freq[idx] += f_i
        max_df = max(df_map.get(t, 0) for t in q.terms)
        w = self.sim.weight(self.sim.idf(max_df, self.doc_count), q.boost)
        scores = self.sim.score(freq, self.norms[all_docs - self.base], w)
        return self._live(all_docs, scores)

    def _score_multi_term(self, q: MultiTermQuery):
        """CONSTANT_SCORE_REWRITE over the shard's term dictionary: union
        of matching terms' postings, every doc scored with the boost."""
        terms = expand_multi_term(q, self._terms.seq())
        if not terms:
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float32))
        doc_sets = [self._postings(t)[0] for t in terms]
        docs = doc_sets[0] if len(doc_sets) == 1 else \
            np.unique(np.concatenate(doc_sets))
        return self._live(
            docs, np.full(len(docs), np.float32(q.boost), dtype=np.float32))

    def _score_clause(self, q: Query, df_map: dict[str, int]):
        if isinstance(q, TermQuery):
            return self._score_term(q, df_map)
        from .query import BoostingQuery, MultiPhraseQuery, SynonymQuery

        if isinstance(q, SynonymQuery):
            return self._score_synonym(q, df_map)
        if isinstance(q, MultiPhraseQuery):
            return self._score_multi_phrase(q, df_map)
        if isinstance(q, BoostingQuery):
            # BoostingQuery.java:106-130: match set unchanged, context
            # matches get score *= negative_boost
            docs, scores = self._score_clause(q.match, df_map)
            if len(docs):
                ctx_docs, _ = self._score_clause(q.context, df_map)
                demote = np.isin(docs, ctx_docs, assume_unique=True)
                scores = np.where(
                    demote,
                    (scores.astype(np.float32)
                     * np.float32(q.negative_boost)).astype(np.float32),
                    scores).astype(np.float32)
            return docs, scores
        if isinstance(q, PhraseQuery):
            return self._score_phrase(q, df_map)
        if isinstance(q, MultiTermQuery):
            return self._score_multi_term(q)
        if isinstance(q, BooleanQuery):
            return self._score_boolean(q, df_map)
        if isinstance(q, MatchNoDocs):
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        from .query import MatchAllDocsQuery

        if isinstance(q, MatchAllDocsQuery):
            # norms spans whole shards; clamp to real docs
            n = min(len(self.norms),
                    max(0, self.num_docs_total - self.base))
            docs = self.base + np.arange(n, dtype=np.int64)
            return self._live(docs, np.full(len(docs), np.float32(q.boost),
                                            dtype=np.float32))
        from .query import (ConstantScoreQuery, DisMaxQuery, SpanFirstQuery,
                            SpanNearQuery, SpanNotQuery, SpanOrQuery,
                            SpanTermQuery)

        if isinstance(q, SpanFirstQuery):
            if q.query is not None:  # wraps a composite span query
                return self._score_span(q, df_map)
            return self._score_span_first(q, df_map)
        if isinstance(q, (SpanTermQuery, SpanNearQuery, SpanOrQuery,
                          SpanNotQuery)):
            return self._score_span(q, df_map)
        if isinstance(q, ConstantScoreQuery):
            docs, _ = self._score_clause(q.query, df_map)
            return docs, np.full(len(docs), np.float32(q.boost),
                                 dtype=np.float32)
        if isinstance(q, DisMaxQuery):
            return self._score_dismax(q, df_map)
        # ComplexPhraseQuery and span multi-term leaves arrive rewritten
        # against the whole index's vocabulary (query.rewrite_expansions)
        raise TypeError(f"unsupported query node: {type(q)}")

    def _span_candidates(self, q) -> np.ndarray:
        """Docs that can possibly match a span query (conjunction for
        near, union for or, include side for not) — the per-doc kernel
        only ever runs on these."""
        from .query import (SpanFirstQuery, SpanNearQuery, SpanNotQuery,
                            SpanOrQuery, SpanTermQuery)

        if isinstance(q, SpanFirstQuery) and q.query is not None:
            return self._span_candidates(q.query)
        if isinstance(q, (SpanTermQuery, SpanFirstQuery)):
            p = self._postings(q.term)
            return p[0] if p is not None else np.empty(0, dtype=np.int64)
        if isinstance(q, SpanNearQuery):
            docs = self._span_candidates(q.clauses[0])
            for c in q.clauses[1:]:
                docs = np.intersect1d(docs, self._span_candidates(c),
                                      assume_unique=True)
            return docs
        if isinstance(q, SpanOrQuery):
            sets = [self._span_candidates(c) for c in q.clauses]
            return (np.unique(np.concatenate(sets)) if sets
                    else np.empty(0, dtype=np.int64))
        if isinstance(q, SpanNotQuery):
            return self._span_candidates(q.include)
        raise TypeError(type(q))

    def _score_span(self, q, df_map: dict[str, int]):
        """SpanScorer over the shared span kernel (query.span_spans):
        freq = sum of 1/(1+width) per match (computeSlopFactor), weight =
        summed idf of the query's term contexts
        (SpanWeight.buildSimWeight)."""
        from .query import span_freq, span_terms

        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32))
        docs = self._span_candidates(q)
        if len(docs) == 0:
            return empty
        # per-term decoded position lookups for the candidate docs
        leaf: dict[str, tuple] = {}
        for t in span_terms(q):
            p = self._postings(t)
            if p is None:
                leaf[t] = None
                continue
            d_i, _, row_i = p
            flat, offs = self._positions(row_i)
            leaf[t] = (d_i, flat, offs)
        freqs = np.zeros(len(docs), dtype=np.float64)
        for j, d in enumerate(docs):
            def pos_of(term, _d=d):
                ent = leaf.get(term)
                if ent is None:
                    return None
                d_i, flat, offs = ent
                i = int(np.searchsorted(d_i, _d))
                if i >= len(d_i) or d_i[i] != _d:
                    return None
                return flat[offs[i]:offs[i + 1]]

            freqs[j] = span_freq(q, pos_of)
        keep = freqs > 0
        if not keep.any():
            return empty
        docs, f = docs[keep], freqs[keep]
        sum_idf = np.float32(0.0)
        for t in sorted(span_terms(q)):
            sum_idf = np.float32(
                sum_idf + self.sim.idf(df_map.get(t, 0), self.doc_count))
        w = self.sim.weight(sum_idf, q.boost)
        scores = self.sim.score(f, self.norms[docs - self.base], w)
        return self._live(docs, scores)

    def _score_span_first(self, q, df_map: dict[str, int]):
        """SpanFirstQuery: freq = positions < end, vectorized via the
        decoded position stream + reduceat over posting boundaries."""
        p = self._postings(q.term)
        if p is None:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        docs, _, row = p
        flat, offs = self._positions(row)
        hits = (flat < q.end).astype(np.int64)
        f = np.add.reduceat(hits, offs[:-1]) if len(flat) else \
            np.zeros(len(docs), dtype=np.int64)
        keep = f > 0
        docs, f = docs[keep], f[keep]
        w = self.sim.weight(
            self.sim.idf(df_map.get(q.term, 0), self.doc_count), q.boost)
        scores = self.sim.score(f, self.norms[docs - self.base], w)
        return self._live(docs, scores)

    def _score_dismax(self, q, df_map: dict[str, int]):
        """DisjunctionMaxScorer: float32 max + float64 sum per doc, final
        (float)(max + (sum - max) * tieBreaker)."""
        per = [self._score_clause(c, df_map) for c in q.clauses]
        per = [(d, s) for d, s in per if len(d)]
        if not per:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        all_docs = np.unique(np.concatenate([d for d, _ in per]))
        smax = np.zeros(len(all_docs), dtype=np.float32)
        ssum = np.zeros(len(all_docs), dtype=np.float64)
        for d2, s2 in per:
            idx = np.searchsorted(all_docs, d2)
            ssum[idx] += s2.astype(np.float64)
            np.maximum.at(smax, idx, s2)
        scores = (smax.astype(np.float64)
                  + (ssum - smax.astype(np.float64)) * q.tie_breaker
                  ).astype(np.float32)
        return all_docs, scores

    def _score_boolean(self, q: BooleanQuery, df_map: dict[str, int]):
        must = [self._score_clause(c, df_map) for c in q.must]
        should = [self._score_clause(c, df_map) for c in q.should]
        msm = getattr(q, "min_should_match", 0)
        if must:
            docs, scores = must[0]
            scores = scores.copy()
            for d2, s2 in must[1:]:
                docs, ia, ib = np.intersect1d(docs, d2, assume_unique=True,
                                              return_indices=True)
                scores = (scores[ia] + s2[ib]).astype(np.float32)
            n_should_hits = np.zeros(len(docs), dtype=np.int64)
            for d2, s2 in should:
                pos = np.searchsorted(d2, docs)
                pos_ok = pos < len(d2)
                hit = np.zeros(len(docs), dtype=bool)
                hit[pos_ok] = d2[pos[pos_ok]] == docs[pos_ok]
                add = np.zeros(len(docs), dtype=np.float32)
                add[hit] = s2[pos[hit]]
                scores = (scores + add).astype(np.float32)
                n_should_hits += hit
            if msm > 0:  # MinShouldMatchSumScorer: >= msm SHOULD clauses
                keep = n_should_hits >= msm
                docs, scores = docs[keep], scores[keep]
        else:
            all_docs = np.unique(np.concatenate([d for d, _ in should])) \
                if should else np.empty(0, dtype=np.int64)
            scores = np.zeros(len(all_docs), dtype=np.float32)
            n_should_hits = np.zeros(len(all_docs), dtype=np.int64)
            for d2, s2 in should:
                idx = np.searchsorted(all_docs, d2)
                scores[idx] = (scores[idx] + s2).astype(np.float32)
                n_should_hits[idx] += 1
            docs = all_docs
            if msm > 1:  # pure-should already requires >= 1 match
                keep = n_should_hits >= msm
                docs, scores = docs[keep], scores[keep]
        for c in q.must_not:
            d2, _ = self._score_clause(c, df_map)
            if len(d2):
                keep = ~np.isin(docs, d2, assume_unique=True)
                docs, scores = docs[keep], scores[keep]
        return docs, scores

    @staticmethod
    def _range_mask(vals: np.ndarray, lo, hi) -> np.ndarray:
        """Inclusive-range membership over a doc-value array (None = open
        bound; docs missing the field never match — PointRangeQuery
        semantics over docvalues)."""
        try:
            v = vals.astype(np.float64)
            mask = ~np.isnan(v)
            if lo is not None:
                mask &= v >= lo
            if hi is not None:
                mask &= v <= hi
            return mask
        except (TypeError, ValueError):
            out = np.ones(len(vals), dtype=bool)
            for i, v in enumerate(vals):
                if v is None or (lo is not None and v < lo) \
                        or (hi is not None and v > hi):
                    out[i] = False
            return out

    def _apply_filter(self, docs, scores, filter_range):
        for fld, (lo, hi) in filter_range.items():
            if len(docs) == 0:
                break
            vals = self.docvalues_local(fld, docs)
            keep = self._range_mask(vals, lo, hi)
            docs, scores = docs[keep], scores[keep]
        return docs, scores

    def search(self, query: Query, df_map: dict[str, int],
               filter_range=None, after: tuple[float, int] | None = None):
        """This shard's matches ``(docs, scores)`` in doc order, before
        any ranking. ``filter_range`` = {field: (lo, hi)} intersects them
        with inclusive docvalue ranges (IntPoint / PointRangeQuery
        analog); ``after`` = (score, doc_id) keeps only the hits strictly
        after that cursor in (score desc, doc asc) order
        (IndexSearcher.searchAfter / cursorMark). The group ranks the
        matches of all its shards at once (``ShardGroup.search_batch``)."""
        docs, scores = self._score_clause(query, df_map)
        if filter_range:
            docs, scores = self._apply_filter(docs, scores, filter_range)
        if after is not None:
            a_score = np.float32(after[0])
            a_doc = np.int64(after[1])
            s32 = scores.astype(np.float32)
            keep = (s32 < a_score) | ((s32 == a_score) & (docs > a_doc))
            docs, scores = docs[keep], scores[keep]
        return docs, scores


def __getattr__(name):
    # the in-process coordinators live with the one coordinator class
    if name in ("IndexSearcher", "MultiIndexSearcher"):
        from . import actors

        return getattr(actors, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
