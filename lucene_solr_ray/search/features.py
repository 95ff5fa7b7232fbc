"""Higher-level search features over the query coordinator.

The query-time features (block join, collapse/expand, rerank, function
boosts, field stats) are coordinator methods (``search/actors.py``); this
module keeps what composes on top of them:

- ``more_like_this``: MoreLikeThis term selection (``lucene/queries/.../
  mlt/MoreLikeThis.java``): top tf*idf terms of the seed text become an
  OR query.
- ``highlight`` / ``best_fragments``: unified-highlighter analogs using
  the analyzer's token offsets, and the offsets-sidecar variant.
- ``index_stats``: the index statistics the ValueSource accessors bind.
"""

from __future__ import annotations

import numpy as np

from ..analysis import get_analyzer
from . import bm25
from .query import BooleanQuery, Query, TermQuery
from .searcher import IndexSearcher, collect_terms


def _mlt_scored_terms(searcher: IndexSearcher, text: str,
                      max_query_terms: int, min_doc_freq: int):
    """The seed text's top (tf*idf, term) pairs, score-descending."""
    analyzer = get_analyzer(searcher.analyzer_name)
    terms, _ = analyzer.analyze(text)
    if not terms:
        return []
    uniq, counts = np.unique(np.array(terms, dtype=object), return_counts=True)
    probe = BooleanQuery(should=[TermQuery(str(t)) for t in uniq])
    df_map = searcher.global_df(probe)
    doc_count = searcher.manifest["stats"]["doc_count"]
    scored = []
    for t, tf in zip(uniq, counts):
        df = df_map.get(str(t), 0)
        if df < min_doc_freq:
            continue
        scored.append((float(tf) * float(bm25.idf(df, doc_count)), str(t)))
    scored.sort(reverse=True)
    return scored[:max_query_terms]


def more_like_this(searcher: IndexSearcher, text: str, k: int = 10,
                   max_query_terms: int = 25, min_doc_freq: int = 2):
    """Build an OR query from the seed text's top tf*idf terms, search it."""
    chosen = [TermQuery(t) for _, t in
              _mlt_scored_terms(searcher, text, max_query_terms,
                                min_doc_freq)]
    if not chosen:
        return []
    return searcher.search(BooleanQuery(should=chosen), k=k)


def interesting_terms(searcher: IndexSearcher, text: str,
                      max_query_terms: int = 25, min_doc_freq: int = 2,
                      boost: bool = True) -> list[tuple[str, float]]:
    """MoreLikeThisHandler ``interestingTerms=details``
    (``solr/core/src/java/org/apache/solr/handler/
    MoreLikeThisHandler.java:212-226`` response assembly, :454-474
    fillInterestingTermsFromMLTQuery): the MLT query's chosen terms
    with their clause boosts — MoreLikeThis normalizes each term's
    tf*idf by the best score when boosting (best term reads 1.0);
    without boost every term carries 1f."""
    scored = _mlt_scored_terms(searcher, text, max_query_terms,
                               min_doc_freq)
    if not scored:
        return []
    if not boost:
        return [(t, 1.0) for _, t in scored]
    best = scored[0][0] or 1.0
    return [(t, s / best) for s, t in scored]


def highlight(text: str, query: Query | str, analyzer_name: str = "standard",
              window: int = 40, pre: str = "<b>", post: str = "</b>") -> str:
    """Snippet around the first query-term match, matches wrapped."""
    analyzer = get_analyzer(analyzer_name)
    if isinstance(query, str):
        from .query import parse_query

        query = parse_query(query, analyzer)
    wanted = collect_terms(query)
    from ..analysis.analyzer import java_lowercase

    tokens = analyzer.tokenizer.tokenize_full(text)
    matches = [t for t in tokens if java_lowercase(t.text) in wanted]
    if not matches:
        return text[: 2 * window]
    first = matches[0]
    lo = max(0, first.start - window)
    hi = min(len(text), first.end + window)
    spans = [(t.start, t.end) for t in matches if lo <= t.start and t.end <= hi]
    out, cur = [], lo
    for s, e in spans:
        out.append(text[cur:s])
        out.append(pre + text[s:e] + post)
        cur = e
    out.append(text[cur:hi])
    return ("..." if lo > 0 else "") + "".join(out) + \
        ("..." if hi < len(text) else "")


def best_fragments(text: str, query: Query | str,
                   analyzer_name: str = "standard",
                   fragment_size: int = 100, max_fragments: int = 3,
                   pre: str = "<b>", post: str = "</b>",
                   merge_contiguous: bool = True,
                   weights: dict[str, float] | None = None,
                   ) -> list[tuple[str, float]]:
    """Scored multi-fragment highlighting (``lucene/highlighter/src/java/
    org/apache/lucene/search/highlight/Highlighter.java:60``
    getBestFragments with QueryScorer + SimpleFragmenter semantics):

    - the text is fragmented at token boundaries every ``fragment_size``
      chars (SimpleFragmenter.isNewFragment);
    - each fragment scores the sum of weights of the DISTINCT query
      terms it contains (QueryScorer counts a term once per fragment;
      default weight 1.0, or pass per-term weights, e.g. idf);
    - contiguous scoring fragments merge (mergeContiguousFragments);
    - the top ``max_fragments`` come back ordered by descending score,
      ties in document order, matches wrapped in ``pre``/``post``.

    The analyzer gives the token spans and the matched positions;
    ``best_fragments_from_offsets`` fragments and scores them.
    """
    analyzer = get_analyzer(analyzer_name)
    if isinstance(query, str):
        from .query import parse_query

        query = parse_query(query, analyzer)
    wanted = collect_terms(query)
    from ..analysis.analyzer import java_lowercase

    tokens = analyzer.tokenizer.tokenize_full(text)
    matched = {i: term for i, t in enumerate(tokens)
               if (term := java_lowercase(t.text)) in wanted}
    return best_fragments_from_offsets(
        text, [t.start for t in tokens], [t.end for t in tokens], matched,
        fragment_size, max_fragments, pre, post, merge_contiguous, weights)


def _source_texts(source_path: str, rows: list[dict]) -> dict:
    """(conv_id, turn_idx) -> text of the hit rows, from the SOURCE
    parquet with a pushed-down filter: only the page of hits is read."""
    import pyarrow.dataset as pads

    want = {(str(r["conv_id"]), int(r["turn_idx"])) for r in rows}
    t = pads.dataset(source_path, format="parquet").to_table(
        columns=["conv_id", "turn_idx", "text"],
        filter=pads.field("conv_id").isin(sorted({c for c, _ in want})))
    return {(str(c), int(i)): x
            for c, i, x in zip(t.column("conv_id").to_pylist(),
                               t.column("turn_idx").to_pylist(),
                               t.column("text").to_pylist())
            if (str(c), int(i)) in want}


def highlight_hits(searcher, query: Query | str, rows: list[dict],
                   source_path: str, **hl_kw) -> list[dict]:
    """Attach highlight snippets to resolved hit rows (the stored-fields
    + highlighting phase of a Solr request): texts are fetched from the
    SOURCE parquet by (conv_id, turn_idx) key (``_source_texts``) and each
    row gains a ``snippet``."""
    if not rows:
        return rows
    texts = _source_texts(source_path, rows)
    n_frags = hl_kw.pop("fragments", 0)
    out = []
    for r in rows:
        text = texts.get((str(r["conv_id"]), int(r["turn_idx"])), "")
        if n_frags > 0:  # hl.snippets > 1: scored multi-fragment path
            fr = best_fragments(text, query, max_fragments=n_frags,
                                analyzer_name=searcher.analyzer_name,
                                **hl_kw)
            snip = " ... ".join(s for s, _ in fr) or text[:80]
        else:
            snip = highlight(text, query,
                             analyzer_name=searcher.analyzer_name, **hl_kw)
        out.append({**r, "snippet": snip})
    return out


def index_stats(searcher, terms: set[str]) -> dict:
    """Index statistics for the ValueSource accessors
    (DocFreqValueSource.java:35 et al.): maxdoc = every assigned doc id
    (deleted included, IndexReader.maxDoc), numdocs = maxdoc minus
    tombstones as of the searcher's open (IndexReader.numDocs), docfreq =
    global df per term."""
    stats = searcher.manifest["stats"]
    n_del = searcher.num_deleted()
    df, ttf = searcher.global_term_stats(sorted(terms)) if terms else ({}, {})
    import time

    return {"docfreq": df, "ttf": ttf,
            "numdocs": stats["num_docs"] - n_del,
            "maxdoc": stats["num_docs"],
            "sumttf": stats["sum_total_term_freq"],
            # ms(): one NOW per request (Solr's DateMathParser NOW
            # pinning), computed driver-side so every shard agrees
            "now_ms": time.time() * 1000.0}


def global_uniques(vals) -> list:
    """Sorted distinct non-null values of a doc-value column — the
    ordinal table ord()/rord() rank against (OrdFieldSource semantics:
    rank in index value order)."""
    if vals is None:
        return []
    return sorted({x for x in vals if x is not None})


def decoded_norms(searcher, docs):
    """Per-hit decoded field length (NORM_TABLE[norm_byte]) — the
    NormValueSource column for norm(field)."""
    import numpy as np

    from ..util.smallfloat import NORM_TABLE

    seg = searcher.segment
    return NORM_TABLE[seg.norms[np.asarray(docs, dtype=np.int64)
                                - seg.base]].astype(np.float64)


# --- offsets-based highlighting (PostingsHighlighter.java:100) ----------

def best_fragments_from_offsets(text: str, starts, ends,
                                matched_pos: dict[int, str],
                                fragment_size: int = 100,
                                max_fragments: int = 3,
                                pre: str = "<b>", post: str = "</b>",
                                merge_contiguous: bool = True,
                                weights: dict[str, float] | None = None,
                                ) -> list[tuple[str, float]]:
    """The fragmenter and scorer of ``best_fragments``, over given token
    spans: ``starts``/``ends`` are the doc's raw-token char spans (from
    the build-time offsets sidecar, PostingsHighlighter semantics, or from
    the analyzer), ``matched_pos`` maps raw token position -> matched
    query term (from one postings probe per query term, or from the
    analyzed tokens). With the sidecar's spans no text is tokenized;
    tests/test_highlight_offsets.py pins its fragments to the
    re-analysis ones."""
    n = len(starts)
    if n == 0:
        return []
    ends_arr = np.asarray(ends, dtype=np.int64)
    # fragment boundaries computed per FRAGMENT (searchsorted over the
    # monotone token ends), not per token — a 24k-char doc has ~40x
    # fewer fragments than tokens, and this loop was the offsets-path
    # hot spot. Semantics identical to the per-token walk: a fragment
    # is the maximal token run with end <= boundary; the token that
    # crosses starts the next fragment and pushes the boundary to the
    # next fragment_size multiple at or past its end.
    frags: list[dict] = []
    i = 0
    boundary = fragment_size
    frag_start_char = 0
    while i < n:
        # fragment = tokens [i, j): j is the first LATER token whose end
        # crosses the boundary (a fragment always takes at least one
        # token, exactly like the per-token walk's empty-cur rule)
        j = max(i + 1,
                int(np.searchsorted(ends_arr, boundary, side="right")))
        end_char = int(ends_arr[j - 1])
        frags.append({"start": frag_start_char, "toks": list(range(i, j)),
                      "idx": len(frags), "end": end_char})
        frag_start_char = end_char
        i = j
        if j < n:
            # the trigger token starts the next fragment; the boundary
            # chain advances to the next multiple at or past ITS end
            e = int(ends_arr[j])
            while boundary < e:
                boundary += fragment_size
    frags[-1]["end"] = len(text)

    def score_of(frag) -> tuple[float, list[int]]:
        seen: set[str] = set()
        sc = 0.0
        matched = []
        for i in frag["toks"]:
            term = matched_pos.get(i)
            if term is not None:
                matched.append(i)
                if term not in seen:
                    seen.add(term)
                    sc += (weights or {}).get(term, 1.0)
        return sc, matched

    scored = []
    for f in frags:
        sc, matched = score_of(f)
        if sc > 0:
            scored.append({**f, "score": sc, "matched": matched})
    if merge_contiguous and scored:
        merged = [scored[0]]
        for f in scored[1:]:
            prev = merged[-1]
            if f["idx"] == prev["idx"] + 1:
                u = {**prev, "end": f["end"], "idx": f["idx"],
                     "toks": prev["toks"] + f["toks"]}
                u["score"], u["matched"] = score_of(u)
                merged[-1] = u
            else:
                merged.append(f)
        scored = merged
    scored.sort(key=lambda f: (-f["score"], f["start"]))
    out = []
    for f in scored[:max_fragments]:
        pieces, cpos = [], f["start"]
        for i in f["matched"]:
            s, e = int(starts[i]), int(ends[i])
            pieces.append(text[cpos:s])
            pieces.append(pre + text[s:e] + post)
            cpos = e
        pieces.append(text[cpos:f["end"]])
        out.append(("".join(pieces).strip(), f["score"]))
    return out


def postings_highlight_hits(searcher, query: Query | str, rows: list[dict],
                            source_path: str, fragments: int = 3,
                            **hl_kw) -> list[dict]:
    """Offsets-based highlighting for a page of hits: texts come from
    the source parquet (pushdown read, hit-page-scale), matched token
    positions come from ONE postings probe per (query term, doc) and
    map to char spans through the index's offsets sidecar — the hit
    docs are never re-tokenized (PostingsHighlighter.java:100; the
    re-analysis fragmenter re-tokenizes every hit doc, which dominates
    highlight cost on long documents). Requires the index built with
    ``store_offsets=True``; each row gains ``snippets``."""
    if not rows:
        return rows
    parsed = searcher.parse(query) if isinstance(query, str) else query
    wanted = sorted(collect_terms(parsed))
    texts = _source_texts(source_path, rows)
    offsets = searcher.term_offsets([int(r["doc_id"]) for r in rows])
    seg = searcher.segment
    out = []
    for r in rows:
        d = int(r["doc_id"])
        text = texts.get((str(r["conv_id"]), int(r["turn_idx"])), "")
        row_off = offsets.get(d)
        if row_off is None:
            out.append({**r, "snippets": []})
            continue
        starts, ends = row_off
        matched_pos: dict[int, str] = {}
        for term in wanted:
            for p in seg.positions_of(term, d):
                matched_pos[int(p)] = term
        fr = best_fragments_from_offsets(
            text, starts, ends, matched_pos,
            max_fragments=fragments, **hl_kw)
        out.append({**r, "snippets": [s for s, _ in fr]})
    return out
