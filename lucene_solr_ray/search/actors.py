"""Query serving: one coordinator over shard groups.

A *shard group* is one ``searcher.ShardSearcher``: a run of contiguous
shards of one index, merged at open into one segment over one doc range
with one term dictionary over their union vocabulary (Lucene's leaf at
its docBase). It answers the shard side of every query method: its term
table (``term_table``), one top-k over its segment's matches
(``search_batch``), ``explain``, the ``*_partial`` aggregates behind
facets, stats, block join, collapse/expand, rerank, function boosts,
terms and suggestions, and the fetch phase (PURPOSE_GET_FIELDS) for the
docs it holds: doc values, hit keys, term vectors, stored offsets and
its tombstone count. Doc ids enter and leave it as coordinator
ids: its one doc base, ``ShardSearcher.base``, is the coordinator id of
its first doc. The same class runs in-process, or as the Ray actor
``SearchActor`` that pins its segment (postings decoded at open, norms)
in memory.

``SearchCoordinator`` implements every query method once, in SolrCloud's
scatter/gather shape (SURVEY.md §3.3, QueryComponent.distributedProcess):
parse; global statistics (which the CommonTermsQuery rewrite also needs);
a scatter to the groups; a driver-side merge by (score desc, doc_id asc)
(TopDocs.merge, TopDocs.java:199-215); the searchAfter cursor. The global
statistics come from a term table the coordinator builds once, at open,
from every group's ``term_table`` (Solr's ExactStatsCache, kept for the
searcher's lifetime: df and ttf cannot change while it is open). So a
batch of queries costs one round trip, the scoring one, and the table's
per-group presence mask skips groups that hold none of a batch's terms.
The collection statistics ship with each query too: every scoring call
carries one ``searcher.QueryStats`` per query, the query's global
docFreqs with the docCount and avgdl of the coordinator's own manifest
``stats`` (IndexSearcher.createWeight gathers collectionStatistics and
termStatistics before a leaf scores), so a group reads none at open.
Every group call goes through ``SearchCoordinator._scatter``. The
coordinator holds only its groups and the term table: it reads no index
file beyond the manifest.

Three constructors choose the groups and nothing else:

- ``IndexSearcher(dir)``: one in-process group holding every shard;
- ``MultiIndexSearcher(dirs)``: one in-process group per sub-index, each
  at its doc base, all scored with the combined statistics the
  coordinator ships (MultiReader);
- ``DistributedSearcher(dir, num_actors)``: one actor per run of
  contiguous shards.

Whatever the grouping, results are the same: a group's segment is one
contiguous doc range, and every rewrite that reads a vocabulary
(complex-phrase and surround truncations) runs on the coordinator over
the global term table, as Lucene rewrites against the top-level reader.

Group methods are read-only, so the actors are created with restarts and
task retries: a killed actor is restarted and its calls are re-run, and a
call that still fails, or outlasts ``CALL_TIMEOUT_S``, raises rather than
returning a partial merge.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..index.build import collection_stats, read_manifest
from .query import (CommonTermsQuery, Query, parse_query,
                    rewrite_common_terms, rewrite_expansions)
from .searcher import (QueryStats, ShardSearcher, _sort_key, _sorted_unique,
                       _TermDict, collect_terms)

# actor fault tolerance: restarts of a dead SearchActor, and re-runs of a
# call that was in flight on it
ACTOR_MAX_RESTARTS = 3
ACTOR_MAX_TASK_RETRIES = 3
# deadline of one scatter's results, generous enough to span the restarts
# and re-runs above (an actor restart reloads its shards)
CALL_TIMEOUT_S = 300.0


def _shard_ids(manifest: dict) -> list[int]:
    return sorted(s["shard_id"] for s in manifest["shards"])


def _top(hits: list[tuple], k: int, sort=None) -> list[tuple]:
    """The first ``k`` hits by (score desc, doc_id asc), or by the
    field-sort key of their values then doc_id asc (TopDocs.merge /
    TopFieldCollector merge)."""
    if not sort:
        hits.sort(key=lambda h: (-h[1], h[0]))
        return hits[:k]
    keys = [_sort_key(pa.array([h[2][i] for h in hits]), desc)
            for i, (_, desc) in enumerate(sort)]
    docs = np.array([h[0] for h in hits], dtype=np.int64)
    return [hits[i] for i in np.lexsort([docs] + keys[::-1])[:k]]


def _add_counts(partials) -> dict:
    """Sum per-group {key: count} partials."""
    out: dict = {}
    for p in partials:
        for key, n in p.items():
            out[key] = out.get(key, 0) + n
    return out


#: ``ShardSearcher`` as a Ray actor; every method is read-only, so a call
#: interrupted by the actor's death is safely re-run on the restarted actor
SearchActor = ray.remote(
    max_restarts=ACTOR_MAX_RESTARTS,
    max_task_retries=ACTOR_MAX_TASK_RETRIES)(ShardSearcher)


def _prunable(q: Query) -> bool:
    """True iff every doc matching ``q`` must contain at least one of
    ``collect_terms(q)`` — the condition under which pruning the groups
    that hold none of a batch's terms is exact. Conservative whitelist:
    term-enumerable leaves and positive boolean composition.
    MultiTermQuery expansions (wildcard/fuzzy/range/regexp), MatchAllDocs,
    span wrappers and any unknown node disable pruning."""
    from .query import (
        BooleanQuery,
        DisMaxQuery,
        MultiPhraseQuery,
        PhraseQuery,
        SynonymQuery,
        TermQuery,
    )

    if isinstance(q, (TermQuery, PhraseQuery, SynonymQuery,
                      MultiPhraseQuery, CommonTermsQuery)):
        return True
    if isinstance(q, DisMaxQuery):
        return bool(q.clauses) and all(_prunable(c) for c in q.clauses)
    if isinstance(q, BooleanQuery):
        pos = list(q.must) + list(q.should)
        # must_not clauses never make a doc match; only the positive
        # clauses decide whether a group can contribute
        return bool(pos) and all(_prunable(c) for c in pos)
    return False


class SearchCoordinator:
    """The query methods, over a list of shard groups (in-process
    ``ShardSearcher``s or ``SearchActor`` handles) in doc order.

    It holds the groups and one term-statistics table, and reads no index
    file: per-doc data (doc values, hit keys, offsets, tombstone counts)
    comes from the groups that hold the docs. At open it sums the groups'
    term tables into that table: sorted terms (a ``_TermDict``), their
    global df and ttf, and a terms x groups presence mask."""

    def __init__(self, manifest: dict, groups: list):
        self.manifest = manifest
        self.analyzer_name = manifest["params"]["analyzer"]
        self.groups = groups
        self._remote = bool(groups) and isinstance(groups[0],
                                                   ray.actor.ActorHandle)
        self.last_fanout: int | None = None
        parts = self._scatter("term_table")
        # one (term, df, ttf) row per distinct term, summed over groups
        table = (pa.concat_tables(parts).group_by("term")
                 .aggregate([("df", "sum"), ("ttf", "sum")])
                 .rename_columns(["term", "df", "ttf"]).sort_by("term"))
        terms = table.column("term").combine_chunks()
        self._terms = _TermDict(terms)
        self._df = table.column("df").to_numpy()
        self._ttf = table.column("ttf").to_numpy()
        self._present = np.zeros((len(terms), len(parts)), dtype=bool)
        for g, part in enumerate(parts):
            self._present[pc.index_in(part.column("term"),
                                      value_set=terms).to_numpy(), g] = True

    # --- scatter / stats ---
    def _scatter(self, method: str, *args, groups=None) -> list:
        """Call ``method(*args)`` on every group (or on ``groups``) and
        return the per-group results in group order: one round trip for
        actor groups. Raises if a call fails after the actor retries, and
        ``TimeoutError`` if the results take longer than
        ``CALL_TIMEOUT_S``."""
        groups = self.groups if groups is None else groups
        if not self._remote:
            return [getattr(g, method)(*args) for g in groups]
        refs = [getattr(g, method).remote(*args) for g in groups]
        try:
            return ray.get(refs, timeout=CALL_TIMEOUT_S)
        except ray.exceptions.GetTimeoutError:
            done, _ = ray.wait(refs, num_returns=len(refs), timeout=0)
            late = next(g for g, r in zip(groups, refs) if r not in done)
            raise TimeoutError(
                f"{method} on group {self.groups.index(late)} did not "
                f"return within {CALL_TIMEOUT_S} s") from None

    def _union(self, method: str, *args) -> dict:
        """The union of the groups' ``method(*args)`` dicts."""
        out: dict = {}
        for p in self._scatter(method, *args):
            out.update(p)
        return out

    def _rows(self, terms) -> dict[str, int]:
        """Term-table row of each of ``terms`` the index holds."""
        get = self._terms.get
        return {t: i for t in terms if (i := get(t)) is not None}

    def _prepare(self, queries: list):
        """Parse, rewrite the multi-term expansions of complex phrases and
        span trees against the whole index's vocabulary, global statistics
        for the whole batch, and the CommonTermsQuery rewrite (its df
        split needs GLOBAL stats): (parsed queries, per-query
        ``QueryStats``, term-table rows of the batch's terms)."""
        terms = self._terms.seq()
        parsed = [rewrite_expansions(self.parse(q) if isinstance(q, str)
                                     else q, terms) for q in queries]
        term_sets = [collect_terms(q) for q in parsed]
        rows = self._rows(set().union(*term_sets))
        global_df = {t: int(self._df[i]) for t, i in rows.items()}
        stats = self.manifest["stats"]
        parsed = [rewrite_common_terms(q, global_df, stats["num_docs"])
                  if isinstance(q, CommonTermsQuery) else q for q in parsed]
        batch_stats = [({t: global_df.get(t, 0) for t in ts},
                        stats["doc_count"], stats["avgdl"])
                       for ts in term_sets]
        return parsed, batch_stats, rows

    def _prepare_one(self, query):
        parsed, batch_stats, _ = self._prepare([query])
        return parsed[0], batch_stats[0]

    def _candidate_groups(self, parsed: list[Query],
                          batch_stats: list[QueryStats],
                          rows: dict[str, int]) -> list:
        """The groups a query batch scatters to. Exactness: a pruned
        group holds NONE of the batch's terms (the presence mask is
        exact), so no whitelisted query can match a doc there."""
        groups = self.groups
        if any(df_map for df_map, _, _ in batch_stats) \
                and all(_prunable(q) for q in parsed):
            hit = self._present[list(rows.values())].any(axis=0)
            groups = [g for g, h in zip(self.groups, hit) if h]
        self.last_fanout = len(groups)
        return groups

    def global_df(self, query: Query) -> dict[str, int]:
        """Global docFreq of the query's terms."""
        return self.global_term_stats(collect_terms(query))[0]

    def global_term_stats(self, terms) -> tuple[dict[str, int],
                                                dict[str, int]]:
        """Global (df, ttf) of the ``terms`` the index holds (also the
        index-statistics ValueSources' input)."""
        rows = self._rows(terms)
        return ({t: int(self._df[i]) for t, i in rows.items()},
                {t: int(self._ttf[i]) for t, i in rows.items()})

    # --- parsing ---
    def parse(self, text: str) -> Query:
        from ..analysis import get_analyzer

        return parse_query(text, get_analyzer(self.analyzer_name))

    def parse_complex(self, text: str) -> Query:
        """ComplexPhraseQueryParser surface: phrases may embed
        wildcards / fuzzy / ranges / OR groups / negation."""
        from ..analysis import get_analyzer
        from .query import parse_complex_phrase

        return parse_complex_phrase(text, get_analyzer(self.analyzer_name))

    # --- top-k ---
    def search_batch(self, queries: list[Query | str], k: int = 10,
                     sort=None, filter_range=None, after=None
                     ) -> list[list[tuple[int, float]]]:
        """Top-k per query: (doc_id, float32 score) pairs ranked by score
        desc, doc asc. ``sort``: [(docvalue_field, descending)] replaces
        score ranking (TopFieldCollector / Sort); ``filter_range``:
        {field: (lo, hi)} inclusive docvalue ranges composed with the
        query; ``after``: (score, doc_id) cursor (IndexSearcher.
        searchAfter)."""
        if after is not None and sort is not None:
            raise ValueError("after paging is defined on the score "
                             "ranking; combine field sort with "
                             "filter_range paging instead")
        parsed, batch_stats, rows = self._prepare(queries)
        groups = self._candidate_groups(parsed, batch_stats, rows)
        if not groups:
            return [[] for _ in parsed]
        per_group = self._scatter("search_batch", parsed, batch_stats, k,
                                  sort, filter_range, after, groups=groups)
        return [[(d, np.float32(s)) for d, s, *_ in
                 _top([h for g in per_group for h in g[qi]], k, sort)]
                for qi in range(len(parsed))]

    def search(self, query: Query | str, k: int = 10, sort=None,
               filter_range=None, after=None):
        return self.search_batch([query], k, sort=sort,
                                 filter_range=filter_range, after=after)[0]

    def search_after(self, query: Query | str, k: int = 10, cursor=None):
        """cursorMark page fetch: (hits, next_cursor); next_cursor is None
        when the result set is exhausted. Each page is one pruned
        scatter/gather — no re-collection of the skipped prefix."""
        hits = self.search(query, k=k, after=cursor)
        if not hits:
            return [], None
        last = hits[-1]
        nxt = (float(last[1]), int(last[0])) if len(hits) == k else None
        return hits, nxt

    def explain(self, query: Query | str, doc_id: int) -> dict | None:
        """Explanation tree for one document's score (IndexSearcher.
        explain / Solr debugQuery), answered by the group owning the doc
        with the same GLOBAL stats the search path uses, so the explained
        value equals the served score bit-for-bit. None if the doc
        doesn't match."""
        q, stats = self._prepare_one(query)
        return next((e for e in self._scatter("explain", q, int(doc_id),
                                              stats) if e is not None),
                    None)

    def all_hits(self, query: Query | str):
        """(doc_ids, scores) of every matching doc, in doc_id order."""
        q, stats = self._prepare_one(query)
        parts = self._scatter("hits_partial", q, stats)
        docs = np.concatenate([d for d, _ in parts])
        scores = np.concatenate([s for _, s in parts])
        order = np.argsort(docs, kind="stable")
        return docs[order], scores[order]

    def hit_count(self, query: Query | str) -> int:
        """Total matching docs: per-group counts, one scatter."""
        q, stats = self._prepare_one(query)
        return sum(self._scatter("count_partial", q, stats))

    def scores_for_docs(self, query: Query | str, doc_ids: list[int]
                        ) -> dict[int, float]:
        """Scores of the given docs under ``query``; docs that do not
        match are absent."""
        q, stats = self._prepare_one(query)
        return self._union("scores_for_docs", q, stats,
                           [int(d) for d in doc_ids])

    def rerank(self, query: Query | str, rerank_query: Query | str,
               k: int = 10, top_n: int = 50, weight: float = 2.0):
        """QueryRescorer / ReRankQParserPlugin (QueryRescorer.java):
        rescore the first-pass top-N, final = first + weight * second for
        docs matching the rerank query. The second pass fetches only the
        top-N docs' scores, never the rerank query's hit set."""
        first = self.search(query, k=top_n)
        if not first:
            return []
        rmap = self.scores_for_docs(rerank_query, [d for d, _ in first])
        return _top([(int(d), np.float32(s + np.float32(weight)
                                         * np.float32(rmap.get(int(d), 0.0))))
                     for d, s in first], k)

    # --- facets and stats ---
    def facet(self, query: Query | str, field: str, limit: int | None = None,
              prefix: str = "") -> list[tuple[str, int]]:
        """Field facet counts over the query's FULL result set
        (SimpleFacets.java:102-417: count desc, then value asc; docs
        without the field are omitted; ``prefix`` = facet.prefix). Group
        partials merge exactly, with no refinement phase."""
        q, stats = self._prepare_one(query)
        parts = [(u, c) for u, c in self._scatter("facet_partial", q, stats,
                                                  field) if len(u)]
        if not parts:
            return []
        uniq, inv = np.unique(np.concatenate([u for u, _ in parts]),
                              return_inverse=True)
        counts = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(counts, inv, np.concatenate([c for _, c in parts]))
        if prefix:
            keep = np.char.startswith(uniq.astype(str), prefix)
            uniq, counts = uniq[keep], counts[keep]
        order = np.lexsort((uniq, -counts))
        out = [(str(uniq[i]), int(counts[i])) for i in order]
        return out[:limit] if limit else out

    def facet_query(self, queries: list[Query | str]) -> dict[str, int]:
        """facet.query: hit count per arbitrary sub-query, in one
        counting trip."""
        parsed, batch_stats, _ = self._prepare(queries)
        totals = np.sum(np.asarray(self._scatter(
            "query_counts", parsed, batch_stats), dtype=np.int64), axis=0)
        return {str(q): int(n) for q, n in zip(queries, totals)}

    def range_facet(self, query: Query | str, field: str, start: float,
                    end: float, gap: float, hardend: bool = False
                    ) -> list[tuple[str, int]]:
        """facet.range over the query's full hit set (bucket labels
        match pipelines.relational.range_facet)."""
        q, stats = self._prepare_one(query)
        total = np.sum(np.asarray(self._scatter(
            "range_facet_partial", q, stats, field, start, end, gap,
            hardend), dtype=np.int64), axis=0)
        n_buckets = len(total) - 3
        out = []
        for i in range(n_buckets):
            lo = start + i * gap
            label = str(int(lo)) if float(lo).is_integer() else str(float(lo))
            out.append((label, int(total[i])))
        return out + [("before", int(total[n_buckets])),
                      ("after", int(total[n_buckets + 1])),
                      ("between", int(total[n_buckets + 2]))]

    def field_stats(self, query: Query | str, field: str) -> dict:
        """StatsComponent over the query's FULL hit set
        (StatsComponent.java): count/min/max/sum/mean/sumOfSquares/
        stddev/missing of a numeric docvalue. KeyError if the index does
        not carry the field."""
        q, stats = self._prepare_one(query)
        count, sum_, sumsq, missing, mn, mx = 0, 0.0, 0.0, 0, None, None
        for c, pmn, pmx, ps, psq, pmiss in self._scatter(
                "stats_partial", q, stats, field):
            count += c
            sum_ += ps
            sumsq += psq
            missing += pmiss
            if pmn is not None:
                mn = pmn if mn is None else min(mn, pmn)
                mx = pmx if mx is None else max(mx, pmx)
        if count == 0:
            return {"count": 0, "min": None, "max": None, "sum": 0.0,
                    "mean": None, "sumOfSquares": 0.0, "stddev": None,
                    "missing": missing}
        mean = sum_ / count
        # StatsValuesFactory stddev: sample stddev from (sum, sumsq, n)
        var = (sumsq - count * mean * mean) / (count - 1) if count > 1 \
            else 0.0
        return {"count": count, "min": mn, "max": mx, "sum": sum_,
                "mean": mean, "sumOfSquares": sumsq,
                "stddev": float(np.sqrt(max(var, 0.0))), "missing": missing}

    # --- block join, collapse, expand ---
    def search_conversations(self, query: Query | str, k: int = 10,
                             score_mode: str = "max"):
        """Top-k conversations by aggregated turn scores: parent/child
        block join (ToParentBlockJoinQuery, ScoreMode.Max / Total; turns
        are doc-contiguous within a conversation). Groups ship at most
        their top-k conversations plus shard-boundary ones."""
        agg: dict[str, float] = {}
        q, stats = self._prepare_one(query)
        for p in self._scatter("conv_partial", q, stats, score_mode, k):
            for c, s in p.items():
                agg[c] = (max(agg.get(c, -np.inf), s) if score_mode == "max"
                          else agg.get(c, 0.0) + s)
        out = sorted(agg.items(), key=lambda kv: (-np.float32(kv[1]), kv[0]))
        return [(c, np.float32(s)) for c, s in out[:k]]

    def collapse(self, query: Query | str, k: int = 10):
        """Field collapse on conversation (CollapsingQParserPlugin): the
        best turn per conversation (max score, tie -> lower doc_id), top-k
        conversations as (doc_id, score, conv_id)."""
        q, stats = self._prepare_one(query)
        best: dict[str, tuple[float, int]] = {}
        for p in self._scatter("collapse_partial", q, stats, k):
            for c, cand in p.items():
                cur = best.get(c)
                if cur is None or (-cand[0], cand[1]) < (-cur[0], cur[1]):
                    best[c] = cand
        return _top([(doc, np.float32(score), conv)
                     for conv, (score, doc) in best.items()], k)

    def expand(self, query: Query | str, heads: list, per_group: int = 5):
        """ExpandComponent: for each collapsed head (collapse output), the
        other matching docs of its conversation, ranked (score desc, doc
        asc), ``per_group`` each: {conv_id: [(doc_id, score)]}."""
        if not heads:
            return {}
        q, stats = self._prepare_one(query)
        conv_ids = [str(c) for _, _, c in heads]
        out: dict[str, list] = {c: [] for c in conv_ids}
        for p in self._scatter("expand_partial", q, stats, conv_ids,
                               [int(d) for d, _, _ in heads], per_group):
            for c, rows in p.items():
                out[c].extend(rows)
        return {c: _top(rows, per_group) for c, rows in out.items()}

    # --- function boosts ---
    def boosted_search(self, query: Query | str, boost_expr: str,
                       k: int = 10, mode: str = "multiply"):
        """FunctionScoreQuery / Solr ``{!boost b=f(...)}``: final score =
        BM25 * f(doc), with f a function-registry expression
        (``functions.valuesource``) over docvalue fields — e.g.
        ``recip(turn_idx,1,10,10)``. ``mode="add"`` is the dismax ``bf``
        semantics (DisMaxQParser addBoostFunctions: the function value
        ADDS to the score). Index-statistics accessors are bound once on
        the coordinator (global df) and ship as constants; ord()/rord()
        rank against one global ordinal table; norm() and termfreq()
        resolve on the shards."""
        from ..functions import parse_func
        from ..functions.valuesource import (bind_index_stats, ord_fields,
                                             stats_terms)
        from .features import index_stats

        q, stats = self._prepare_one(query)
        ast = parse_func(boost_expr)
        ofields = sorted(ord_fields(ast))
        per = self._scatter("local_unique_docvalues", ofields) \
            if ofields else []
        uniques = {f: _sorted_unique(pa.concat_arrays(parts))
                   for f in ofields
                   if (parts := [p[f] for p in per if p[f] is not None])}
        return _top([h for p in self._scatter(
            "boosted_partial", q, stats,
            bind_index_stats(ast, index_stats(self, stats_terms(ast))), k,
            mode, uniques) for h in p], k)

    # --- term dictionary: terms, spellcheck, suggest, collation ---
    def terms(self, prefix: str = "", regex: str | None = None,
              limit: int = 10, sort: str = "count") -> list[tuple[str, int]]:
        """TermsComponent: index terms with global docFreq, filtered by
        prefix and/or regex, sorted by count desc (value asc ties) or by
        value (sort="index"). Filtered slices ship whole, so counts are
        exact. An unfiltered enumeration is bounded: each group ships its
        first-N (sort=index) or overfetched top-N-by-df candidates
        (sort=count), whose counts the term table refines to exact
        global docFreq — no group ever ships its whole vocabulary."""
        bounded = not prefix and regex is None
        group_limit = (limit if sort == "index" else limit * 4 + 16) \
            if bounded else None
        agg = _add_counts(self._scatter("terms_partial", prefix, regex,
                                        group_limit, sort))
        if bounded and sort == "count":
            # a group's cut may have excluded a candidate another surfaced
            agg = self.global_term_stats(agg)[0]
        key = None if sort == "index" else (lambda kv: (-kv[1], kv[0]))
        return sorted(agg.items(), key=key)[:limit]

    def spellcheck(self, term: str, k: int = 5,
                   max_edits: int = 2) -> list[tuple[str, int]]:
        """Did-you-mean suggestions (SpellCheckComponent /
        DirectSpellChecker): index terms within Damerau-OSA edit distance
        <= max_edits of the input, ranked by (distance asc, global
        docFreq desc, term asc). The input term itself is excluded."""
        from .query import levenshtein_within

        agg = _add_counts(self._scatter("spellcheck_partial", term,
                                        max_edits))

        def dist(t: str) -> int:
            return next((d for d in range(1, max_edits + 1)
                         if levenshtein_within(term, t, d)), max_edits)

        return sorted(agg.items(),
                      key=lambda kv: (dist(kv[0]), -kv[1], kv[0]))[:k]

    def suggest(self, prefix: str, k: int = 5) -> list[tuple[str, int]]:
        """Prefix suggestions ranked by global docFreq (TermsComponent /
        suggester analog over the term dictionary)."""
        agg = _add_counts(self._scatter("suggest_partial", prefix))
        return sorted(agg.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def spellcheck_collate(self, query_text: str, max_tries: int = 5,
                           k_sugg: int = 3) -> dict | None:
        """Collation (SpellCheckCollator.java:69, ``collate=true``):
        substitute ranked suggestions for the query's zero-docFreq words
        (best everywhere first, then one word at a time moves to its
        next-ranked alternative), re-count each rewrite, and return the
        first with hits — ``{"collation", "hits", "tries"}`` — or None
        after ``max_tries`` rewrites."""
        from ..analysis import get_analyzer

        analyzer = get_analyzer(self.analyzer_name)
        chunks = query_text.split()
        misspelled: list[tuple[int, list[str]]] = []
        for i, ch in enumerate(chunks):
            if ch.upper() in ("AND", "OR", "NOT") or not ch.isalnum():
                continue
            terms, _ = analyzer.analyze(ch)
            if len(terms) != 1:
                continue
            if terms[0] not in self._terms:
                sugg = [t for t, _ in self.spellcheck(terms[0], k=k_sugg)]
                if not sugg:
                    return None  # unfixable word: no collation possible
                misspelled.append((i, sugg))
        if not misspelled:
            return None  # nothing to collate (SpellCheckCollator no-op)
        picks = [[0] * len(misspelled)]
        for depth in range(1, k_sugg):
            for which, (_, sugg) in enumerate(misspelled):
                if depth < len(sugg):
                    pick = [0] * len(misspelled)
                    pick[which] = depth
                    picks.append(pick)
        for tries, pick in enumerate(picks[:max_tries], 1):
            new_chunks = list(chunks)
            for (i, sugg), j in zip(misspelled, pick):
                new_chunks[i] = sugg[j]
            collation = " ".join(new_chunks)
            hits = self.hit_count(collation)
            if hits > 0:
                return {"collation": collation, "hits": int(hits),
                        "tries": tries}
        return None

    # --- per-doc data, fetched from the groups holding the docs ---
    def docvalues(self, field: str) -> np.ndarray | None:
        """Per-doc values of a docvalue field as Python objects indexed by
        doc_id (None where a doc has no value), built on each call from
        the groups' typed columns; None if no group carries the field.
        Queries read the typed columns."""
        parts = self._scatter("docvalues_column", field)
        if all(c is None for _, c in parts):
            return None
        return np.concatenate([
            np.asarray((pa.nulls(n) if c is None else c).to_pylist(),
                       dtype=object) for n, c in parts])

    def docmap(self) -> np.ndarray:
        """conv_id per doc_id (block-join identity / result display)."""
        return self.docvalues("conv_id")

    def resolve_hits(self, hits):
        """(doc_id, score) list -> rows with the identity columns (the
        stored-fields fetch phase, PURPOSE_GET_FIELDS analog —
        QueryComponent.java:748,766; full stored fields live in the
        source Parquet, addressable by (conv_id, turn_idx))."""
        keys = self._union("doc_rows", [int(d) for d, _ in hits],
                           ["conv_id", "turn_idx"])
        return [{"doc_id": d, "score": float(s),
                 "conv_id": keys[d][0], "turn_idx": keys[d][1]}
                for d, s in hits]

    def num_deleted(self) -> int:
        """Tombstoned docs as of open (maxDoc - numDocs)."""
        return sum(self._scatter("num_deleted"))

    def term_vectors(self, doc_ids: list[int]
                     ) -> dict[int, list[tuple[str, int, list[int]]]]:
        """TermVectorComponent: (term, freq, positions) per requested doc
        (typically the current page of hits)."""
        return {int(d): [] for d in doc_ids} | self._union(
            "term_vectors", [int(d) for d in doc_ids])

    def term_offsets(self, doc_ids: list[int]
                     ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Per-doc raw-token char spans (starts, ends) from the build-time
        offsets sidecar of ``store_offsets=True`` builds, read by the
        groups holding the docs (``ShardSearcher.term_offsets``)."""
        return self._union("term_offsets", [int(d) for d in doc_ids])

    def close(self):
        """Kill the actor groups (in-process groups need no cleanup)."""
        if self._remote:
            for g in self.groups:
                ray.kill(g)
            self.groups.clear()


class IndexSearcher(SearchCoordinator):
    """In-process searcher: one group, every shard in one segment."""

    def __init__(self, index_dir: str, similarity="bm25"):
        manifest = read_manifest(index_dir)
        seg = ShardSearcher(str(index_dir), _shard_ids(manifest), manifest,
                            similarity)
        super().__init__(manifest, [seg])
        self.index_dir = str(index_dir)
        self.segment = seg


class MultiIndexSearcher(SearchCoordinator):
    """MultiReader analog (``lucene/core/src/java/org/apache/lucene/index/
    MultiReader.java:43`` + BaseCompositeReader's docBase arithmetic):
    several standalone indexes searched as ONE logical index without
    merging, one in-process group per sub-index. Sub-index i's documents
    appear at ``[base_i, base_i + num_docs_i)`` where ``base_i`` is the
    sum of the preceding indexes' maxDocs. Query-time statistics
    (docFreq, docCount, sumTotalTermFreq → avgdl) are the COMBINED
    values: docCount and sumTotalTermFreq are summed over every
    sub-index's shard rows (``build.collection_stats``, as each index's
    own ``stats`` are) into the coordinator's manifest only, and ship
    with each query, so scores are bit-equal to an
    ``add_indexes``-merged index. Each sub-index's group opens on that
    index's own manifest, as it is, and reads no statistics from it but
    its ``num_docs`` (layout, MatchAllDocs clamping). Analyzers must
    match — the same compatible-schema rule ``add_indexes`` enforces.
    The federation is the query side of ``split_index``: split a hot
    index, keep serving both halves as one."""

    def __init__(self, index_dirs, similarity="bm25"):
        if not index_dirs:
            raise ValueError("MultiIndexSearcher needs >= 1 index")
        manifests = [read_manifest(d) for d in index_dirs]
        analyzers = {m["params"]["analyzer"] for m in manifests}
        if len(analyzers) != 1:
            raise ValueError(
                f"sub-index analyzers must match, got {sorted(analyzers)}")
        stats = collection_stats(
            sum(m["stats"]["num_docs"] for m in manifests),
            [r for m in manifests for r in m["shards"]])
        groups, base = [], 0
        for d, m in zip(index_dirs, manifests):
            groups.append(ShardSearcher(str(d), _shard_ids(m), m,
                                        similarity, base))
            base += int(m["stats"]["num_docs"])
        super().__init__({"params": manifests[0]["params"], "stats": stats},
                         groups)


class DistributedSearcher(SearchCoordinator):
    """Coordinator over a SearchActor pool: one actor per run of
    contiguous shards (``np.array_split``: run sizes differ by at most
    one), so each actor holds one segment over one doc range."""

    def __init__(self, index_dir: str, num_actors: int = 4,
                 similarity="bm25"):
        self.index_dir = str(index_dir)
        manifest = read_manifest(index_dir)
        shard_ids = _shard_ids(manifest)
        num_actors = max(1, min(num_actors, len(shard_ids)))
        self.actor_shards = [[int(s) for s in run] for run in
                             np.array_split(shard_ids, num_actors)]
        # similarity ships to the actors (a name string, or a cloudpickled
        # factory callable for parameterized similarities)
        self.actors = [SearchActor.remote(self.index_dir, sids, manifest,
                                          similarity)
                       for sids in self.actor_shards]
        try:
            super().__init__(manifest, self.actors)
        except Exception:  # the term-table call failed: free the actors
            for a in self.actors:
                ray.kill(a)
            raise
