"""Shard-level query engine over the sharded segment layout.

- ``ShardSearcher``: one segment, the unit of scatter: a run of
  contiguous doc-shards merged at open (their term tables decoded once
  into resident doc/freq/position columns, norms, and one sorted term
  dictionary over their union vocabulary — the stand-in for the FST term
  dictionary, BlockTreeTermsWriter.java:174-189). It holds one doc base,
  the coordinator id of its first doc, so doc ids enter and leave it as
  coordinator ids. Besides scoring it answers every per-segment call of
  the coordinator (``actors.SearchCoordinator``): the term table, one
  top-k per query, explain, the ``*_partial`` aggregates, and the fetch
  phase for the docs it holds (doc values, hit keys, term vectors,
  offsets, its tombstone count). Scoring is vectorized float32 BM25
  (SURVEY.md §3.2). The statistics it scores with ship with each query
  (``QueryStats``: the query's global docFreqs, docCount and avgdl from
  the coordinator; Solr's ExactStatsCache, required for rank-identity
  with a single-node index): a segment reads no collection statistics
  at open, and ``_weight`` is its one idf computation.
- ``DocValues``: the per-field doc-value columns of a segment's doc
  range, loaded on first use as typed Arrow arrays that the sort, range
  filter, facet, stats and boost partials read with Arrow kernels. Its
  ``read`` is the one reader of the norms partitions: the segment's
  ``norm_byte`` at open goes through it too.
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

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..index import segment
from . import bm25
from .query import (BooleanQuery, BoostingQuery, CommonTermsQuery,
                    ComplexPhraseQuery, ConstantScoreQuery, DisMaxQuery,
                    FuzzyQuery, MatchAllDocsQuery, MatchNoDocs,
                    MultiPhraseQuery, MultiTermQuery, PhraseQuery,
                    PrefixQuery, Query, SpanFirstQuery, SpanNearQuery,
                    SpanNotQuery, SpanOrQuery, SpanTermQuery, SynonymQuery,
                    TermQuery, expand_multi_term, sloppy_phrase_freq,
                    span_freq, span_terms)


#: What the coordinator ships with each query: (its terms' global
#: docFreq, docCount, avgdl). A segment scores with these alone, as a
#: Lucene leaf scores with the weight IndexSearcher.createWeight built
#: from collectionStatistics/termStatistics.
QueryStats = tuple[dict[str, int], int, float]


def _sort_key(vals: pa.Array, desc: bool) -> np.ndarray:
    """Lexsort key of one sort field's doc values: their dense rank, strings
    in byte order, missing values last in either direction (TopFieldCollector
    missingValue, pinned to sort-missing-last). Ranks a segment's matches
    and the coordinator's merge of the segments' top-k alike."""
    if pa.types.is_null(vals.type):  # the field is missing on every doc
        return np.zeros(len(vals), dtype=np.uint64)
    if pa.types.is_dictionary(vals.type):
        vals = vals.indices  # ordinals into a sorted dictionary
    return pc.rank(vals, sort_keys="descending" if desc else "ascending",
                   null_placement="at_end", tiebreaker="dense").to_numpy()


def _sorted_unique(vals: pa.Array) -> pa.Array:
    """The distinct non-null values of ``vals``, ascending."""
    return pc.unique(vals.drop_null()).sort()


def collect_terms(q: Query) -> set[str]:
    """The terms whose global statistics score ``q``."""
    if isinstance(q, TermQuery):
        return {q.term}
    if isinstance(q, (SynonymQuery, PhraseQuery, CommonTermsQuery)):
        return set(q.terms)
    if isinstance(q, MultiPhraseQuery):
        return {t for alts in q.slots for t in alts}
    if isinstance(q, (SpanFirstQuery, SpanTermQuery, SpanNearQuery,
                      SpanOrQuery, SpanNotQuery)):
        return span_terms(q)
    if isinstance(q, BoostingQuery):
        return collect_terms(q.match) | collect_terms(q.context)
    if isinstance(q, ConstantScoreQuery):
        return collect_terms(q.query)
    if isinstance(q, BooleanQuery):
        subs = q.clauses()
    elif isinstance(q, DisMaxQuery):
        subs = q.clauses
    elif isinstance(q, ComplexPhraseQuery):
        # plain-term phrase elements only: the coordinator rewrites the
        # multi-term ones first (query.rewrite_expansions)
        subs = [c for _, c in q.clauses]
    else:
        return set()
    return set().union(*map(collect_terms, subs))


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
    """Doc-value columns of the index docs ``docs`` (a range of index doc
    ids), the docs of the norms partitions of ``shard_ids``: one typed
    ``pa.Array`` per field indexed by ``doc_id - docs.start``, null where a
    doc has no value (``None`` if no partition carries the field), read on
    first use and cached. Numbers and timestamps keep their Parquet type
    (NUMERIC doc values); a string is a ``pa.DictionaryArray`` over the
    sorted distinct values, so its indices are ordinals in value order
    (SORTED doc values)."""

    def __init__(self, index_dir: str, docs: range, shard_ids: list[int]):
        self.index_dir = str(index_dir)
        self.docs = docs
        self.shard_ids = shard_ids
        self.cache: dict[str, pa.Array | None] = {}

    def column(self, field: str) -> pa.Array | None:
        if field not in self.cache:
            self.cache[field] = self.read(field)
        return self.cache[field]

    def read(self, field: str) -> pa.Array | None:
        """``field``'s column, read from the partitions without caching:
        the one reader of the norms partitions (``norm_byte`` at open, and
        every doc-value field). Each file read pairs the field with its
        ``doc_id`` column, so a partition ``atomic_update`` rewrote after
        open still lands each value on its doc."""
        parts = []
        for sid in self.shard_ids:
            part = Path(self.index_dir) / "norms" / f"doc_shard={sid}"
            for f in sorted(part.glob("*.parquet")):
                pf = pq.ParquetFile(f)
                if field in pf.schema_arrow.names:
                    parts.append(pf.read(columns=["doc_id", field]))
        if not parts:
            return None
        t = pa.concat_tables(parts, promote_options="permissive")
        vals = t.column(field)
        if pa.types.is_dictionary(vals.type):  # categorical
            vals = vals.cast(vals.type.value_type)
        if vals.type in (pa.string(), pa.large_string()):
            uniq = _sorted_unique(vals)
            vals = pa.DictionaryArray.from_arrays(pc.index_in(
                vals, value_set=uniq).combine_chunks(), uniq)
        else:
            vals = vals.combine_chunks()
        # each doc's row of ``t``; a doc without one stays null
        row = np.full(len(self.docs), -1, dtype=np.int32)
        row[t.column("doc_id").to_numpy() - self.docs.start] = \
            np.arange(t.num_rows, dtype=np.int32)
        return vals.take(pa.array(row, mask=row < 0))


class ShardSearcher:
    """One segment, the unit of scatter: a run of contiguous shards merged
    at open into one doc range ``[base, base + size)`` (a leaf of Lucene's
    IndexSearcher at its docBase), its postings/norms held in memory,
    decoded once (DirectPostingsFormat's trade: memory for no per-query
    decode). ``doc_base`` is the coordinator id of the index's doc 0 (a
    ``MultiIndexSearcher`` sub-index's offset), so ``base`` is the
    coordinator id of the segment's first doc: doc ids enter and leave
    every method as coordinator ids. It runs in-process or as the Ray
    actor ``actors.SearchActor``.

    Of the manifest it reads ``params`` and maxDoc (``stats.num_docs``,
    its doc range) only: it scores with the statistics each query ships
    (``QueryStats``)."""

    def __init__(self, index_dir: str, shard_ids: list[int],
                 manifest: dict | None = None, similarity: str = "bm25",
                 doc_base: int = 0):
        index_path = Path(index_dir)
        if manifest is None:
            from ..index.build import read_manifest

            manifest = read_manifest(index_dir)
        self.shard_ids = [int(s) for s in shard_ids]
        self.index_dir = str(index_dir)
        params = manifest["params"]
        self._dps = dps = params["docs_per_shard"]
        self._codec = params.get("postings_codec", "varint")
        # the segment's index doc ids, clamped to the index's real docs
        first = self.shard_ids[0] * dps if self.shard_ids else 0
        end = (self.shard_ids[-1] + 1) * dps if self.shard_ids else 0
        docs = range(first, max(first, min(end,
                                           manifest["stats"]["num_docs"])))
        self.base = int(doc_base) + first
        self.size = len(docs)
        self.docvalues = DocValues(index_dir, docs, self.shard_ids)
        # query-time pluggable scoring (Similarity SPI: IndexSearcher.
        # setSimilarity): a name, or a factory for custom parameters
        # (SweetSpotSim's), applied by _weight to each query's avgdl
        self._similarity = similarity if callable(similarity) \
            else bm25.similarity_class(similarity)
        self._sim: tuple | None = None  # (avgdl, the similarity built)

        files = {sid: index_path / "shards" / f"shard={sid:05d}"
                 / "terms.parquet" for sid in self.shard_ids}
        held = [sid for sid, f in files.items() if f.exists()]
        terms, *cols = segment.decode_segment(
            [pq.read_table(files[sid]) for sid in held],
            [int(doc_base) + sid * dps for sid in held], self._codec)
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
        dels = np.fromiter(segment.read_deletes(index_dir), dtype=np.int64)
        local = dels[(dels >= first) & (dels < first + self.size)]
        if len(local):
            self._deleted = np.zeros(self.size, dtype=bool)
            self._deleted[local - first] = True

        # Heal a crashed atomic-update partition swap BEFORE loading
        # norms: a .dvold-* aside with a missing live partition would
        # otherwise read as all-zero norms / all-None docvalues and
        # silently corrupt BM25 scores, sorts, facets and stats.
        segment.recover_norms_partitions(index_path)
        for sid in held:
            part = index_path / "norms" / f"doc_shard={sid}"
            if not part.exists():
                raise FileNotFoundError(
                    f"norms partition missing for doc_shard={sid} "
                    f"(postings present) — index corrupt beyond .dvold "
                    f"recovery: {part}")
        norms = self.docvalues.read("norm_byte")
        self.norms = np.zeros(self.size, dtype=np.uint8) if norms is None \
            else np.asarray(norms.fill_null(0), dtype=np.uint8)

    def _holds(self, doc_id: int) -> bool:
        return self.base <= doc_id < self.base + self.size

    def explain(self, q: Query, doc_id: int,
                stats: QueryStats) -> dict | None:
        """Score explanation tree (Explanation.java / Solr debugQuery):
        {value, description, details}. None when the doc doesn't match.
        Leaf terms break the BM25 product into boost/idf/tf components
        (BM25Similarity.explainScore); composite nodes explain as the
        sum/max structure their scorer uses. Non-decomposable scorers
        (phrases, spans, rewrites) report their computed value with a
        one-line description. Also None when the doc is not this
        segment's: the coordinator asks every segment."""
        if not self._holds(doc_id):
            return None
        docs, scores = self._score_clause(q, stats)
        i = int(np.searchsorted(docs, doc_id))
        if i >= len(docs) or docs[i] != doc_id:
            return None
        value = float(scores[i])
        if isinstance(q, TermQuery):
            df_map, doc_count, _ = stats
            df = df_map.get(q.term, 0)
            sim, idf, _ = self._weight(stats, [df], q.boost)
            idf_v = float(idf)
            p = self._postings(q.term)
            j = int(np.searchsorted(p[0], doc_id))
            freq = int(p[1][j])
            norm_byte = int(self.norms[doc_id - self.base])
            return {
                "value": value,
                "description": f"weight(text:{q.term} in {doc_id}) "
                               f"[{type(sim).__name__}], product of:",
                "details": [
                    {"value": float(q.boost), "description": "boost"},
                    {"value": idf_v,
                     "description": f"idf(docFreq={df}, "
                                    f"docCount={doc_count})"},
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
                sub = self.explain(c, doc_id, stats)
                if sub is not None:
                    details.append(sub)
            return {"value": value, "description": "sum of:",
                    "details": details}
        if isinstance(q, DisMaxQuery):
            details = [s for c in q.clauses
                       if (s := self.explain(c, doc_id, stats))]
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

    def docvalues_local(self, field: str, docs: np.ndarray) -> pa.Array:
        """Typed doc values of ``field`` for the given doc_ids (all null
        when the index does not carry the field: exists()=0 semantics)."""
        col = self.docvalues.column(field)
        if col is None:
            return pa.nulls(len(docs))
        return col.take(docs - self.base)

    def boundary_convs(self) -> np.ndarray:
        """conv_id ordinals of this segment's first and last doc — the
        only conversations that can straddle a segment edge. doc_id is
        rank under the stable (conv_id, turn_idx) sort (BASELINE.json
        input_hint), so each conversation is doc-contiguous and at most
        these two can have turns in a neighbouring segment. Used by the
        bounded conv/collapse partials (actors.py) to ship split
        conversations unconditionally. An expunged doc has no conv_id,
        so the edges are the first and last docs that have one."""
        ords = pc.drop_null(
            self.docvalues.column("conv_id").indices).to_numpy()
        return ords[[0, -1]] if len(ords) else ords

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

    # --- scoring with the shipped statistics ---
    def _weight(self, stats: QueryStats, dfs: list[int], boost: float):
        """(similarity, idf, weight) of a term or a term set (a phrase's,
        a span's): the idf of each of ``dfs`` under the shipped docCount,
        summed in float32 in the order given, then weighted by ``boost``.
        The similarity built from the shipped avgdl is kept while that
        stays the same."""
        _, doc_count, avgdl = stats
        if self._sim is None or self._sim[0] != avgdl:
            self._sim = avgdl, self._similarity(np.float32(avgdl))
        sim = self._sim[1]
        idf = np.float32(0.0)
        for df in dfs:
            idf = np.float32(idf + sim.idf(df, doc_count))
        return sim, idf, sim.weight(idf, boost)

    def _score_term(self, q: TermQuery, stats: QueryStats):
        p = self._postings(q.term)
        if p is None:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        docs, freqs, _ = p
        sim, _, w = self._weight(stats, [stats[0].get(q.term, 0)], q.boost)
        scores = sim.score(freqs, self.norms[docs - self.base], w)
        return self._live(docs, scores)

    def _score_phrase(self, q: PhraseQuery, stats: QueryStats):
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
            return self._finish_sloppy_phrase(q, stats, docs, idxs, plists)
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
        sim, _, w = self._weight(stats, [stats[0].get(t, 0) for t in q.terms],
                                 q.boost)
        scores = sim.score(pf, self.norms[docs - self.base], w)
        return self._live(docs, scores)

    def _finish_sloppy_phrase(self, q: PhraseQuery, stats: QueryStats,
                              docs: np.ndarray, idxs: list, plists: list):
        """SloppyPhraseScorer path: conjunction candidates from the exact
        machinery, per-doc phraseFreq via the shared pq kernel
        (query.sloppy_phrase_freq — identical code runs in the oracle)."""
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
        sim, _, w = self._weight(stats, [stats[0].get(t, 0) for t in q.terms],
                                 q.boost)
        scores = sim.score(pf[keep], self.norms[docs - self.base], w)
        return self._live(docs, scores)

    def _score_multi_phrase(self, q, stats: QueryStats):
        """MultiPhraseQuery scorer (MultiPhraseQuery.java:47 /
        UnionPostingsEnum): per slot, union the alternatives' decoded
        positions; candidates = docs where EVERY slot has some
        alternative; freq = exact alignment count (slop=0) or
        sloppy_phrase_freq; weight sums idf over all terms in slot
        order (same float32 accumulation as the oracle)."""
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
        sim, _, w = self._weight(stats, [stats[0].get(t, 0) for alts in q.slots
                                         for t in alts], q.boost)
        scores = sim.score(f, self.norms[docs - self.base], w)
        return self._live(docs, scores)

    def _score_synonym(self, q, stats: QueryStats):
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
        sim, _, w = self._weight(
            stats, [max(stats[0].get(t, 0) for t in q.terms)], q.boost)
        scores = sim.score(freq, self.norms[all_docs - self.base], w)
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

    def _score_clause(self, q: Query, stats: QueryStats):
        if isinstance(q, TermQuery):
            return self._score_term(q, stats)
        if isinstance(q, SynonymQuery):
            return self._score_synonym(q, stats)
        if isinstance(q, MultiPhraseQuery):
            return self._score_multi_phrase(q, stats)
        if isinstance(q, BoostingQuery):
            # BoostingQuery.java:106-130: match set unchanged, context
            # matches get score *= negative_boost
            docs, scores = self._score_clause(q.match, stats)
            if len(docs):
                ctx_docs, _ = self._score_clause(q.context, stats)
                demote = np.isin(docs, ctx_docs, assume_unique=True)
                scores = np.where(
                    demote,
                    (scores.astype(np.float32)
                     * np.float32(q.negative_boost)).astype(np.float32),
                    scores).astype(np.float32)
            return docs, scores
        if isinstance(q, PhraseQuery):
            return self._score_phrase(q, stats)
        if isinstance(q, MultiTermQuery):
            return self._score_multi_term(q)
        if isinstance(q, BooleanQuery):
            return self._score_boolean(q, stats)
        if isinstance(q, MatchNoDocs):
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        if isinstance(q, MatchAllDocsQuery):
            docs = self.base + np.arange(self.size, dtype=np.int64)
            return self._live(docs, np.full(len(docs), np.float32(q.boost),
                                            dtype=np.float32))
        if isinstance(q, SpanFirstQuery):
            if q.query is not None:  # wraps a composite span query
                return self._score_span(q, stats)
            return self._score_span_first(q, stats)
        if isinstance(q, (SpanTermQuery, SpanNearQuery, SpanOrQuery,
                          SpanNotQuery)):
            return self._score_span(q, stats)
        if isinstance(q, ConstantScoreQuery):
            docs, _ = self._score_clause(q.query, stats)
            return docs, np.full(len(docs), np.float32(q.boost),
                                 dtype=np.float32)
        if isinstance(q, DisMaxQuery):
            return self._score_dismax(q, stats)
        # ComplexPhraseQuery and span multi-term leaves arrive rewritten
        # against the whole index's vocabulary (query.rewrite_expansions)
        raise TypeError(f"unsupported query node: {type(q)}")

    def _span_candidates(self, q) -> np.ndarray:
        """Docs that can possibly match a span query (conjunction for
        near, union for or, include side for not) — the per-doc kernel
        only ever runs on these."""
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

    def _score_span(self, q, stats: QueryStats):
        """SpanScorer over the shared span kernel (query.span_spans):
        freq = sum of 1/(1+width) per match (computeSlopFactor), weight =
        summed idf of the query's term contexts
        (SpanWeight.buildSimWeight)."""
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
        sim, _, w = self._weight(stats, [stats[0].get(t, 0) for t in
                                         sorted(span_terms(q))], q.boost)
        scores = sim.score(f, self.norms[docs - self.base], w)
        return self._live(docs, scores)

    def _score_span_first(self, q, stats: QueryStats):
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
        sim, _, w = self._weight(stats, [stats[0].get(q.term, 0)], q.boost)
        scores = sim.score(f, self.norms[docs - self.base], w)
        return self._live(docs, scores)

    def _score_dismax(self, q, stats: QueryStats):
        """DisjunctionMaxScorer: float32 max + float64 sum per doc, final
        (float)(max + (sum - max) * tieBreaker)."""
        per = [self._score_clause(c, stats) for c in q.clauses]
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

    def _score_boolean(self, q: BooleanQuery, stats: QueryStats):
        must = [self._score_clause(c, stats) for c in q.must]
        should = [self._score_clause(c, stats) for c in q.should]
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
            d2, _ = self._score_clause(c, stats)
            if len(d2):
                keep = ~np.isin(docs, d2, assume_unique=True)
                docs, scores = docs[keep], scores[keep]
        return docs, scores

    def _apply_filter(self, docs, scores, filter_range):
        """The hits whose doc values lie in every inclusive range (None =
        open bound; docs missing the field never match — PointRangeQuery
        semantics over docvalues, strings in byte order)."""
        for fld, (lo, hi) in filter_range.items():
            vals = self.docvalues_local(fld, docs)
            keep = pc.is_valid(vals)
            if lo is not None:
                keep = pc.and_(keep, pc.greater_equal(vals, lo))
            if hi is not None:
                keep = pc.and_(keep, pc.less_equal(vals, hi))
            keep = pc.fill_null(keep, False).to_numpy(zero_copy_only=False)
            docs, scores = docs[keep], scores[keep]
        return docs, scores

    def search(self, query: Query, stats: QueryStats,
               filter_range=None, after: tuple[float, int] | None = None):
        """The segment's matches ``(docs, scores)`` in doc order, before
        any ranking. ``filter_range`` = {field: (lo, hi)} intersects them
        with inclusive docvalue ranges (IntPoint / PointRangeQuery
        analog); ``after`` = (score, doc_id) keeps only the hits strictly
        after that cursor in (score desc, doc asc) order
        (IndexSearcher.searchAfter / cursorMark). ``search_batch`` ranks
        them."""
        docs, scores = self._score_clause(query, stats)
        if filter_range:
            docs, scores = self._apply_filter(docs, scores, filter_range)
        if after is not None:
            a_score = np.float32(after[0])
            a_doc = np.int64(after[1])
            s32 = scores.astype(np.float32)
            keep = (s32 < a_score) | ((s32 == a_score) & (docs > a_doc))
            docs, scores = docs[keep], scores[keep]
        return docs, scores

    # --- the coordinator's calls: one scatter each ---
    def _require(self, field: str) -> None:
        if self.docvalues.column(field) is None:
            raise KeyError(f"field {field!r} was not indexed as a doc value")

    def term_table(self) -> pa.Table:
        """(term, df, ttf) of every term the segment holds: its part of
        the coordinator's term table."""
        return pa.table({
            "term": self._terms._arr,
            "df": pa.array(np.diff(self._term_docs), type=pa.int64()),
            "ttf": pa.array(np.diff(self._term_pos), type=pa.int64())})

    def local_unique_docvalues(self, fields: list[str]) -> dict:
        """Sorted distinct non-null values per field (None if the index does
        not carry it) — partials the coordinator merges into the global
        ordinal table for ord()/rord()."""
        out = {}
        for f in fields:
            col = self.docvalues.column(f)
            out[f] = (col if col is None else col.dictionary
                      if pa.types.is_dictionary(col.type)
                      else _sorted_unique(col))
        return out

    def search_batch(self, queries: list[Query], batch_stats: list[QueryStats],
                     k: int, sort=None, filter_range=None, after=None
                     ) -> list[list[tuple]]:
        """Per query, the segment's top-k: (doc, score) by (score desc,
        doc asc), or (doc, score, sort values) by ``sort``."""
        results = []
        for q, stats in zip(queries, batch_stats):
            docs, scores = self.search(
                q, stats, filter_range=filter_range, after=after)
            results.append(self._top_k(
                docs, scores.astype(np.float32, copy=False), k, sort))
        return results

    def _top_k(self, docs: np.ndarray, scores: np.ndarray, k: int,
               sort) -> list[tuple]:
        if sort:
            vals = [self.docvalues_local(fld, docs) for fld, _ in sort]
            order = np.lexsort(tuple(
                [docs] + [_sort_key(v, desc)
                          for v, (_, desc) in zip(vals, sort)][::-1]))[:k]
            picked = zip(*[v.take(order).to_pylist() for v in vals])
            return [(int(docs[i]), float(scores[i]), p)
                    for i, p in zip(order, picked)]
        if len(docs) > k:
            # partial selection; keep every doc tied with the k-th score so
            # the lower-doc_id tie-break stays exact, then sort the slice
            kth = scores[np.argpartition(-scores, k - 1)[k - 1]]
            cand = scores >= kth
            docs, scores = docs[cand], scores[cand]
        order = np.lexsort((docs, -scores))[:k]
        return [(int(docs[i]), float(scores[i])) for i in order]

    def term_vectors(self, doc_ids: list[int]) -> dict[int, list]:
        return {int(d): self.term_vector(int(d)) for d in doc_ids
                if self._holds(d)}

    # --- per-doc data of the docs the segment holds (PURPOSE_GET_FIELDS) ---
    def docvalues_column(self, field: str) -> tuple[int, pa.Array | None]:
        """(segment size, ``field``'s typed column or None): the segment's
        part of the coordinator's whole-index column."""
        return self.size, self.docvalues.column(field)

    def doc_rows(self, doc_ids: list[int], fields: list[str]
                 ) -> dict[int, tuple]:
        """The values of ``fields`` of each of ``doc_ids`` the segment
        holds, as a tuple per doc."""
        docs = np.asarray([d for d in doc_ids if self._holds(d)],
                          dtype=np.int64)
        cols = [self.docvalues_local(f, docs).to_pylist() for f in fields]
        return dict(zip(docs.tolist(), zip(*cols)))

    def num_deleted(self) -> int:
        """Tombstoned docs of the segment, as of its open."""
        return 0 if self._deleted is None else int(self._deleted.sum())

    def term_offsets(self, doc_ids: list[int]
                     ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Raw-token char spans (starts, ends) of each of ``doc_ids`` the
        segment holds, from the build-time offsets sidecar
        (``store_offsets=True`` builds; PostingsHighlighter's stored
        offsets, doc-major). Pushdown read: the shard dirs of the wanted
        docs, then the row groups whose doc_id statistics cover one (the
        sidecar's 32-row groups make each hit one small decode)."""
        start = self.docvalues.docs.start  # index id of the first doc
        want = np.unique(np.asarray(
            [d for d in doc_ids if self._holds(d)], dtype=np.int64)
            - self.base + start)
        out = {}
        for sid in np.unique(want // self._dps):
            part = Path(self.index_dir) / "offsets" / f"shard={sid:05d}"
            for f in sorted(part.glob("*.parquet")):
                pf = pq.ParquetFile(f)
                col = pf.schema_arrow.get_field_index("doc_id")
                for rg in range(pf.metadata.num_row_groups):
                    st = pf.metadata.row_group(rg).column(col).statistics
                    if st is not None and not (
                            (want >= st.min) & (want <= st.max)).any():
                        continue
                    t = pf.read_row_group(rg)
                    ids = t.column("doc_id").to_numpy()
                    for i in np.flatnonzero(np.isin(ids, want)):
                        spans = np.frombuffer(
                            t.column("spans")[i].as_buffer(), dtype="<i4")
                        half = len(spans) // 2
                        out[int(ids[i]) - start + self.base] = (
                            spans[:half], spans[half:])
        return out

    def hits_partial(self, query: Query, stats: QueryStats):
        """(docs, scores) of every matching doc."""
        return self._score_clause(query, stats)

    def scores_for_docs(self, query: Query, stats: QueryStats,
                        doc_ids: list[int]) -> dict[int, float]:
        """Scores of the given docs that match ``query``: only the
        requested docs ship (rerank second pass, elevation)."""
        docs, scores = self._score_clause(query, stats)
        mask = np.isin(docs, np.asarray(doc_ids, dtype=np.int64))
        return {int(d): float(s) for d, s in zip(docs[mask], scores[mask])}

    # --- counts ---
    def count_partial(self, query: Query, stats: QueryStats) -> int:
        return len(self._score_clause(query, stats)[0])

    def query_counts(self, queries: list[Query],
                     batch_stats: list[QueryStats]) -> list[int]:
        """facet.query partials: hit count per sub-query."""
        return [self.count_partial(q, st) for q, st in zip(queries,
                                                            batch_stats)]

    # --- facets and stats over the full hit set ---
    def facet_partial(self, query: Query, stats: QueryStats,
                      field: str):
        """(str() of each value:str-array, counts:int64-array) of ``field``
        over the segment's hits that carry it. Merging is np.unique over
        concatenated arrays, never a per-value dict loop, so a
        high-cardinality field stays vectorized end to end."""
        self._require(field)
        vc = pc.value_counts(pc.drop_null(self.docvalues_local(
            field, self._score_clause(query, stats)[0])))
        return (np.asarray([str(v) for v in vc.field(0).to_pylist()],
                           dtype=str),
                vc.field(1).to_numpy())

    def _numeric_hits(self, query: Query, stats: QueryStats,
                      field: str):
        """(values of the hits present as float64, number of hits missing
        the field)."""
        self._require(field)
        vals = self.docvalues_local(field,
                                    self._score_clause(query, stats)[0])
        v = pc.drop_null(vals).cast(pa.float64()).to_numpy()
        return v, len(vals) - len(v)

    def stats_partial(self, query: Query, stats: QueryStats,
                      field: str) -> tuple:
        """(count, min, max, sum, sumsq, missing) of a docvalue over the
        full hit set (StatsValuesFactory accumulator shape)."""
        v, missing = self._numeric_hits(query, stats, field)
        if len(v) == 0:
            return 0, None, None, 0.0, 0.0, missing
        return (len(v), float(v.min()), float(v.max()), float(v.sum()),
                float((v * v).sum()), missing)

    def range_facet_partial(self, query: Query, stats: QueryStats,
                            field: str, start: float, end: float,
                            gap: float, hardend: bool) -> list[int]:
        """Range-facet bucket counts over the segment's hits (one
        bincount; layout matches pipelines.relational.range_facet: n
        buckets then before/after/between)."""
        n_buckets = int(np.ceil((end - start) / gap))
        actual_end = end if hardend else start + n_buckets * gap
        v, _ = self._numeric_hits(query, stats, field)
        below = v < start
        above = v >= actual_end
        mid = ~(below | above)
        idx = np.floor((v[mid] - start) / gap).astype(np.int64)
        np.clip(idx, 0, n_buckets - 1, out=idx)
        return np.bincount(idx, minlength=n_buckets).tolist() + [
            int(below.sum()), int(above.sum()), int(mid.sum())]

    # --- block join, collapse, expand ---
    def _conv_hits(self, query: Query, stats: QueryStats):
        """(conv_id ordinals, docs, float32 scores) over the segment's hits;
        ordinals sort as conv_ids do (CollapsingQParserPlugin's ords)."""
        d, s = self._score_clause(query, stats)
        return (self.docvalues_local("conv_id", d).indices.to_numpy(), d,
                s.astype(np.float32))

    def _conv_ids(self, ords: np.ndarray) -> list[str]:
        return self.docvalues.column("conv_id").dictionary.take(
            ords).to_pylist()

    def _bounded(self, convs: np.ndarray, scores: np.ndarray,
                 limit: int | None) -> np.ndarray:
        """Keep-mask: the top-``limit`` entries by score, tie-inclusive at
        the cut, plus the segment's edge conversations."""
        keep = np.ones(len(convs), dtype=bool)
        if limit is not None and len(convs) > limit:
            keep = scores >= np.partition(scores, -limit)[-limit]
            keep |= np.isin(convs, self.boundary_convs())
        return keep

    def conv_partial(self, query: Query, stats: QueryStats,
                     score_mode: str, limit: int | None = None
                     ) -> dict[str, float]:
        """Per-conversation aggregated turn scores over the segment's FULL
        hit set (numpy np.unique + ufunc.at, float64). With ``limit`` the
        partial is bounded: the local top-``limit`` conversations plus
        every segment-boundary conversation. This is exact for the global
        top-k merge: BM25 scores are positive, so global agg >= any local
        agg; a non-boundary conversation lives entirely in one segment
        (local agg == global agg), and if it belongs to the global top-k
        then fewer than k conversations in its own segment can locally
        outrank it — so it is inside the local top-k cut. Split
        (boundary) conversations ship unconditionally and merge exactly.
        Mirrors QueryComponent.java:746-766's bounded scatter/gather."""
        if score_mode not in ("max", "total"):
            raise ValueError(score_mode)
        convs, _, scores = self._conv_hits(query, stats)
        uniq, inv = np.unique(convs, return_inverse=True)
        if score_mode == "max":
            agg = np.full(len(uniq), -np.inf)
            np.maximum.at(agg, inv, scores.astype(np.float64))
        else:
            agg = np.zeros(len(uniq))
            np.add.at(agg, inv, scores.astype(np.float64))
        keep = self._bounded(uniq, agg, limit)
        return dict(zip(self._conv_ids(uniq[keep]), agg[keep].tolist()))

    def collapse_partial(self, query: Query, stats: QueryStats,
                         limit: int | None = None
                         ) -> dict[str, tuple[float, int]]:
        """Per-conversation best (score, doc) head, lower doc on ties
        (CollapsingQParserPlugin). With ``limit``: the local top-``limit``
        heads, score-tie-inclusive at the cut, plus segment-boundary
        conversations — exact for the global top-k merge by the same
        argument as conv_partial (the head merge is a max)."""
        convs, docs, scores = self._conv_hits(query, stats)
        order = np.lexsort((docs, -scores, convs))
        convs_s = convs[order]
        head = np.concatenate(([True], convs_s[1:] != convs_s[:-1])) \
            if len(order) else np.empty(0, dtype=bool)
        hidx = order[head]  # one best (score desc, doc asc) row per conv
        h_conv, h_doc, h_score = convs[hidx], docs[hidx], scores[hidx]
        keep = self._bounded(h_conv, h_score, limit)
        return {c: (float(s), int(d)) for c, s, d in
                zip(self._conv_ids(h_conv[keep]), h_score[keep],
                    h_doc[keep])}

    def expand_partial(self, query: Query, stats: QueryStats,
                       conv_ids: list[str], exclude_docs: list[int],
                       per_group: int) -> dict[str, list]:
        """ExpandComponent partial: per requested conversation, the
        segment's top ``per_group`` other matching docs — bounded by
        |convs| * per_group, never the hit set."""
        convs, docs, scores = self._conv_hits(query, stats)
        dic = self.docvalues.column("conv_id").dictionary
        want = pc.index_in(pa.array(conv_ids, type=dic.type), value_set=dic)
        keep = np.isin(convs, want.drop_null().to_numpy()) \
            & ~np.isin(docs, exclude_docs)
        convs, docs, scores = convs[keep], docs[keep], scores[keep]
        order = np.lexsort((docs, -scores, convs))
        labels = self._conv_ids(convs)
        out: dict[str, list] = {}
        for i in order:
            rows = out.setdefault(labels[i], [])
            if len(rows) < per_group:
                rows.append((int(docs[i]), float(scores[i])))
        return out

    # --- function boosts ---
    def _boost_column(self, f: str, docs: np.ndarray,
                      ord_uniques: dict) -> pa.Array:
        """One per-hit float64 input column of a bound boost AST."""
        from ..functions.valuesource import (EXISTS_PSEUDO_PREFIX,
                                             NORM_PSEUDO_FIELD,
                                             ORD_PSEUDO_PREFIX,
                                             RORD_PSEUDO_PREFIX,
                                             TF_PSEUDO_PREFIX)
        from ..util.smallfloat import NORM_TABLE

        if f == NORM_PSEUDO_FIELD:
            return pa.array(NORM_TABLE[self.norms[docs - self.base]],
                            type=pa.float64())
        if f.startswith(TF_PSEUDO_PREFIX):
            return pa.array(self.local_termfreq(f[len(TF_PSEUDO_PREFIX):],
                                                docs))
        pref = next((p for p in (EXISTS_PSEUDO_PREFIX, ORD_PSEUDO_PREFIX,
                                 RORD_PSEUDO_PREFIX) if f.startswith(p)), "")
        name = f[len(pref):]
        if self.docvalues.column(name) is None:
            # a field the index lacks reads 0 in every form (exists()=0)
            return pa.array(np.zeros(len(docs)))
        vals = self.docvalues_local(name, docs)
        if pref == EXISTS_PSEUDO_PREFIX:
            return pc.is_valid(vals).cast(pa.float64())
        if pref:
            # OrdFieldSource: 1-based rank in the global value table;
            # ReverseOrdFieldSource: n_uniq + 1 - ord
            uniq = ord_uniques[name]
            o = pc.index_in(vals, value_set=uniq).cast(pa.float64())
            vals = pc.subtract(len(uniq), o) if pref == RORD_PSEUDO_PREFIX \
                else pc.add(o, 1)
        # missing doc values evaluate as 0 (FunctionScoreQuery)
        return pc.fill_null(vals.cast(pa.float64()), 0.0)

    def boosted_partial(self, query: Query, stats: QueryStats, ast,
                        k: int, mode: str = "multiply",
                        ord_uniques: dict | None = None
                        ) -> list[tuple[int, float]]:
        """Segment top-k of BM25 * f(doc) (``mode="add"``: BM25 + f(doc)),
        with ``ast`` a boost expression already bound to the global index
        statistics. The boost is per-doc, so a segment top-k is exact
        under the global merge."""
        from ..functions.valuesource import (EXISTS_PSEUDO_PREFIX, Field,
                                             Func, eval_expr)

        def fields_of(node) -> set[str]:
            if isinstance(node, Field):
                return {node.name}
            if isinstance(node, Func):
                return set().union(*map(fields_of, node.args))
            return set()

        fields = sorted(fields_of(ast))
        for f in fields:
            # def(f, d) lowers to if(exists(f), f, d): an unindexed f
            # evaluates as 0 under exists()=0, not an error
            if not f.startswith("__") and EXISTS_PSEUDO_PREFIX + f \
                    not in fields:
                self._require(f)
        docs, scores = self._score_clause(query, stats)
        if len(docs) == 0:
            return []
        cols = {f: self._boost_column(f, docs, ord_uniques or {})
                for f in fields}
        boost = eval_expr(ast, pa.table(
            cols or {"__d": pa.array(np.zeros(len(docs)))}))
        boost_np = (np.full(len(docs), boost.as_py())
                    if isinstance(boost, pa.Scalar)
                    else boost.to_numpy(zero_copy_only=False))
        final = (scores.astype(np.float64) + boost_np if mode == "add"
                 else scores.astype(np.float64) * boost_np)
        order = np.lexsort((docs, -final))[:k]
        return [(int(docs[i]), float(final[i])) for i in order]

    # --- term dictionary ---
    def terms_partial(self, prefix: str, regex: str | None,
                      limit: int | None = None, sort: str = "count"
                      ) -> dict[str, int]:
        """Matching terms with the segment's docFreq (TermsComponent shard
        response). The prefix slice is a bisect range over the sorted term
        dict. An unfiltered enumeration ships at most ``limit`` terms: the
        lexicographic first-N for sort=index (exact: a term in the global
        first-N precedes fewer than N terms, so it is inside every holding
        segment's first-N), the segment's top-N by df for sort=count (the
        coordinator refines candidate counts to exact from its term table;
        like Solr's distributed TermsComponent, a term below every
        segment's overfetched cut can be missed)."""
        import re
        from bisect import bisect_left

        bounded = limit is not None and not prefix and regex is None
        if bounded and sort == "count":
            top = self.term_table().sort_by(
                [("df", "descending"), ("term", "ascending")])[:limit]
            return dict(zip(top.column("term").to_pylist(),
                            top.column("df").to_pylist()))
        rx = re.compile(regex) if regex else None
        seq = self._terms.seq()
        lo = bisect_left(seq, prefix) if prefix else 0
        hi = bisect_left(seq, prefix + chr(0x10FFFF)) if prefix \
            else len(seq)
        if bounded:  # sort=index: the segment's first-N
            hi = min(hi, limit)
        terms = self._terms._arr.slice(lo, hi - lo).to_pylist()
        return {t: int(d) for t, d in
                zip(terms, np.diff(self._term_docs[lo:hi + 1]))
                if rx is None or rx.fullmatch(t)}

    def _expanded_df(self, mtq, skip: str | None = None) -> dict[str, int]:
        return {t: len(self._postings(t)[0])
                for t in expand_multi_term(mtq, self._terms.seq())
                if t != skip}

    def spellcheck_partial(self, term: str, max_edits: int
                           ) -> dict[str, int]:
        """Fuzzy-expanded candidates with the segment's docFreq (the
        SpellCheckComponent shard response)."""
        return self._expanded_df(FuzzyQuery(term=term, max_edits=max_edits),
                                 skip=term)

    def suggest_partial(self, prefix: str) -> dict[str, int]:
        return self._expanded_df(PrefixQuery(prefix=prefix))


def __getattr__(name):
    # the in-process coordinators live with the one coordinator class
    if name in ("IndexSearcher", "MultiIndexSearcher"):
        from . import actors

        return getattr(actors, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
