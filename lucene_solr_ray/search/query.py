"""Query AST + a classic-QueryParser-subset parser.

AST nodes mirror the reference query classes the parity workload needs
(``lucene/core/src/java/org/apache/lucene/search/TermQuery.java``,
``BooleanQuery.java``, ``PhraseQuery.java``); the parser covers the classic
grammar subset term / AND / OR / NOT / +req / -prohibited / "phrase"
(``lucene/queryparser/.../classic/QueryParserBase.java:470-724``).

Terms inside the AST are *already analyzed* (the query-side analyzer runs at
parse time, exactly the chain used at index time).
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass, field

_SLOP_RE = _re.compile(r"~(\d+)")


class Query:
    pass


@dataclass(frozen=True)
class TermQuery(Query):
    term: str
    boost: float = 1.0


@dataclass(frozen=True)
class PhraseQuery(Query):
    terms: tuple[str, ...]
    positions: tuple[int, ...]  # relative positions (stopword holes preserved)
    boost: float = 1.0
    slop: int = 0  # 0 = exact (ExactPhraseScorer); >0 = SloppyPhraseScorer


@dataclass(frozen=True)
class MultiPhraseQuery(Query):
    """MultiPhraseQuery (``lucene/core/src/java/org/apache/lucene/search/
    MultiPhraseQuery.java:47``): a phrase where each position admits
    SEVERAL terms (synonym stacks inside a phrase). Matching unions the
    alternatives' position lists per slot (UnionPostingsEnum), then runs
    the ordinary exact/sloppy phrase alignment; the weight sums idf over
    ALL terms (same SimWeight construction as PhraseQuery)."""

    slots: tuple[tuple[str, ...], ...] = ()
    positions: tuple[int, ...] = ()  # relative position per slot
    slop: int = 0
    boost: float = 1.0


@dataclass
class BooleanQuery(Query):
    """must/should/must_not + minimum-should-match
    (``BooleanQuery.java`` setMinimumNumberShouldMatch /
    ``MinShouldMatchSumScorer.java``): a doc matches only if it satisfies
    every MUST clause and at least ``min_should_match`` SHOULD clauses
    (0 with MUST clauses present = shoulds fully optional)."""

    must: list[Query] = field(default_factory=list)
    should: list[Query] = field(default_factory=list)
    must_not: list[Query] = field(default_factory=list)
    min_should_match: int = 0

    def clauses(self):
        return self.must + self.should + self.must_not


class MatchNoDocs(Query):
    """A clause that analyzed away entirely (e.g. a pure-stopword term)."""


@dataclass(frozen=True)
class SynonymQuery(Query):
    """SynonymQuery (``lucene/core/src/java/org/apache/lucene/search/
    SynonymQuery.java:122-249``): terms stacked at one position score as
    ONE pseudo-term — docFreq = max over the synonyms (:141-147), per-doc
    freq = SUM of the synonyms' freqs (:241-246). This is what the
    classic parser emits for posIncrement-0 token stacks
    (QueryBuilder.analyzeBoolean -> newSynonymQuery)."""

    terms: tuple[str, ...] = ()
    boost: float = 1.0


@dataclass(frozen=True)
class MatchAllDocsQuery(Query):
    """MatchAllDocsQuery (``search/MatchAllDocsQuery.java``): every live
    doc matches with score = boost."""

    boost: float = 1.0


@dataclass
class DisMaxQuery(Query):
    """DisjunctionMaxQuery (``lucene/core/src/java/org/apache/lucene/
    search/DisjunctionMaxQuery.java``, the dismax parser's scoring core):
    a doc matching any clause scores max(clause scores) +
    tie_breaker * (sum of the other matching clauses' scores)."""

    clauses: list = field(default_factory=list)
    tie_breaker: float = 0.0


@dataclass(frozen=True)
class SpanFirstQuery(Query):
    """SpanFirstQuery (``lucene/core/src/java/org/apache/lucene/search/
    spans/SpanFirstQuery.java``): keeps spans whose end <= ``end``.
    ``term`` wraps a single term (the common fast path, scored with its
    own vectorized reduceat scorer); ``query`` wraps ANY span query
    (SpanPositionRangeQuery composition via the shared span kernel)."""

    term: str = ""
    end: int = 1
    boost: float = 1.0
    query: Query | None = None


@dataclass(frozen=True)
class SpanTermQuery(Query):
    """Leaf of the span algebra (``spans/SpanTermQuery.java``): every
    occurrence of the term is a width-0 span (p, p+1)."""

    term: str = ""
    boost: float = 1.0


@dataclass(frozen=True)
class SpanNearQuery(Query):
    """SpanNearQuery (``spans/SpanNearQuery.java:41``).

    ``in_order=True``: NearSpansOrdered.java — subspans matched in clause
    order, non-overlapping (each next subspan advanced to start >= the
    previous subspan's end, forward-only across candidates); match width
    = sum of the inter-span gaps, match iff width <= slop.
    ``in_order=False``: NearSpansUnordered.java — minimal-window
    enumeration over a (start, end)-ordered queue of subspans; match iff
    maxEnd - minStart - totalSpanLength <= slop, width = maxEndCell.start
    - minStart (NearSpansUnordered.java:195,258)."""

    clauses: tuple = ()
    slop: int = 0
    in_order: bool = True
    boost: float = 1.0


@dataclass(frozen=True)
class SpanOrQuery(Query):
    """SpanOrQuery (``spans/SpanOrQuery.java``): union of subspans in
    (start, end) order; each match keeps its subspan's width."""

    clauses: tuple = ()
    boost: float = 1.0


@dataclass(frozen=True)
class SpanNotQuery(Query):
    """SpanNotQuery (``spans/SpanNotQuery.java``): include-spans kept
    unless an exclude-span overlaps [start - pre, end + post). Similarity
    stats collect terms from BOTH sides (SpanNotQuery.java:99)."""

    include: Query = None
    exclude: Query = None
    pre: int = 0
    post: int = 0
    boost: float = 1.0


@dataclass(frozen=True, eq=False)
class ComplexPhraseQuery(Query):
    """ComplexPhraseQueryParser phrase placeholder
    (``lucene/queryparser/src/java/org/apache/lucene/queryparser/
    complexPhrase/ComplexPhraseQueryParser.java:210``): a quoted phrase
    whose body is itself query syntax — wildcards, fuzzy, ranges, OR
    groups and negation at phrase positions. ``clauses`` is the ORDERED
    sequence of (negated, query) phrase elements; the tree rewrites to
    the span algebra against a term dictionary at search time
    (``rewrite_complex_phrase``, the :252-345 rewrite contract)."""

    clauses: tuple = ()  # ordered (neg: bool, Query) pairs
    slop: int = 0
    in_order: bool = True
    boost: float = 1.0


@dataclass(frozen=True, eq=False)
class BoostingQuery(Query):
    """BoostingQuery (``lucene/queries/src/java/org/apache/lucene/
    queries/BoostingQuery.java:44``): matches exactly the ``match``
    query's docs; any of them ALSO matching ``context`` have their score
    multiplied by ``negative_boost`` (<1 demotes; the context query
    never selects or scores by itself, :106-130)."""

    match: Query = None
    context: Query = None
    negative_boost: float = 0.5


@dataclass(frozen=True)
class CommonTermsQuery(Query):
    """CommonTermsQuery (``lucene/queries/src/java/org/apache/lucene/
    queries/CommonTermsQuery.java:72-131``): terms split by document
    frequency at rewrite time — low-frequency terms carry the query
    (required sub-boolean), high-frequency ('common') terms become an
    optional scoring-only sub-boolean, so stopword-adjacent terms never
    drive the match set. ``max_term_frequency``: absolute df when >= 1,
    else a fraction of maxDoc (buildQuery df threshold). Rewrite needs
    GLOBAL stats, so it happens on the driver (rewrite_common_terms)
    before scoring; high/low freq boosts are fixed at 1 here."""

    terms: tuple[str, ...] = ()
    max_term_frequency: float = 0.01
    high_freq_occur: str = "SHOULD"  # MUST or SHOULD (never MUST_NOT)
    low_freq_occur: str = "SHOULD"
    low_freq_msm: int = 0
    high_freq_msm: int = 0
    boost: float = 1.0

    def __post_init__(self):
        if "MUST_NOT" in (self.high_freq_occur, self.low_freq_occur):
            raise ValueError("occur must be MUST or SHOULD, not MUST_NOT")


def rewrite_common_terms(q: CommonTermsQuery, df_map: dict[str, int],
                         max_doc: int) -> Query:
    """CommonTermsQuery.buildQuery (CommonTermsQuery.java:183-247):
    threshold split, then low-freq sub-boolean added MUST and high-freq
    sub-boolean added SHOULD; with no low-freq terms the high-freq group
    is promoted to a conjunction ('to prevent slow queries')."""
    import math as _math

    thresh_abs = q.max_term_frequency if q.max_term_frequency >= 1 else \
        _math.ceil(q.max_term_frequency * float(max_doc))
    low, high = [], []
    for t in q.terms:
        df = df_map.get(t, 0)
        (high if df > thresh_abs else low).append(TermQuery(t))
    low_occur, high_occur = q.low_freq_occur, q.high_freq_occur
    low_msm = q.low_freq_msm if (low_occur == "SHOULD" and low) else 0
    high_msm = q.high_freq_msm if (high_occur == "SHOULD" and high) else 0
    if not low and high_msm == 0 and high_occur != "MUST":
        high_occur = "MUST"

    def group(queries, occur, msm):
        if occur == "MUST":
            return BooleanQuery(must=queries)
        return BooleanQuery(should=queries, min_should_match=msm)

    outer = BooleanQuery()
    if low:
        outer.must.append(group(low, low_occur, low_msm))
    if high:
        hq = group(high, high_occur, high_msm)
        if low:
            outer.should.append(hq)
        else:
            outer.must.append(hq)
    if not low and not high:
        return MatchNoDocs()
    return outer


@dataclass(frozen=True)
class ConstantScoreQuery(Query):
    """ConstantScoreQuery (``search/ConstantScoreQuery.java``): every
    matching doc of the wrapped query scores exactly ``boost`` (the
    filter-query wrapper)."""

    query: Query = None
    boost: float = 1.0


@dataclass(frozen=True)
class MultiTermQuery(Query):
    """Base for term-expanding queries. Reference semantics: the default
    CONSTANT_SCORE_REWRITE (MultiTermQuery.java:68,94-97) scores every
    matching document with the query boost, frequency-independent."""

    boost: float = 1.0


@dataclass(frozen=True)
class PrefixQuery(MultiTermQuery):
    prefix: str = ""


@dataclass(frozen=True)
class WildcardQuery(MultiTermQuery):
    pattern: str = ""  # fnmatch syntax: * and ?


@dataclass(frozen=True)
class FuzzyQuery(MultiTermQuery):
    """Levenshtein expansion (FuzzyQuery.java; max 2 edits). Scoring is the
    constant-score simplification — the reference's blended-freq top-terms
    rewrite (TopTermsBlendedFreqScoringRewrite) is intentionally not
    reproduced; tests pin the constant-score contract."""

    term: str = ""
    max_edits: int = 2


@dataclass(frozen=True)
class TermRangeQuery(MultiTermQuery):
    lower: str = ""
    upper: str = ""
    include_lower: bool = True
    include_upper: bool = True


@dataclass(frozen=True)
class RegexpQuery(MultiTermQuery):
    """Term-dictionary regex expansion (``search/RegexpQuery.java``,
    classic ``/regex/`` syntax). Matching uses Python ``re.fullmatch``
    (a superset of the reference's automaton syntax; the common operators
    ``. * + ? | [] ()`` behave identically)."""

    pattern: str = ""


def _analyze_chunk(chunk: str, analyzer, boost: float = 1.0) -> Query:
    """One whitespace-delimited query chunk -> Term / Phrase / MatchNoDocs.

    Classic parser behavior (QueryParserBase.newFieldQuery →
    QueryBuilder.createFieldQuery): multiple tokens at DISTINCT positions
    become a phrase; multiple tokens at the SAME position (synonym /
    phonetic injection, posIncrement 0) become a SynonymQuery with the
    reference's blended stats (max df, summed freq). Mixed streams
    (several positions, some with stacked tokens) approximate
    MultiPhraseQuery as a MUST of per-position terms/SynonymQueries
    (position constraint relaxed)."""
    terms, positions = analyzer.analyze(chunk)
    if not terms:
        return MatchNoDocs()
    if len(terms) == 1:
        return TermQuery(terms[0], boost)
    by_pos: dict[int, list[str]] = {}
    for t, p in zip(terms, positions):
        by_pos.setdefault(p, []).append(t)
    if len(by_pos) == 1:  # synonym stack at one position
        return SynonymQuery(tuple(terms), boost)
    if all(len(v) == 1 for v in by_pos.values()):
        base = positions[0]
        return PhraseQuery(tuple(terms), tuple(p - base for p in positions),
                           boost)
    # mixed stream: several positions, some stacked -> MultiPhraseQuery
    # (QueryBuilder.analyzeMultiPhrase)
    base = min(by_pos)
    slots = tuple(tuple(by_pos[p]) for p in sorted(by_pos))
    rel = tuple(p - base for p in sorted(by_pos))
    return MultiPhraseQuery(slots=slots, positions=rel, boost=boost)


def levenshtein_within(a: str, b: str, k: int) -> bool:
    """Damerau (OSA) edit distance <= k with early exit — FuzzyQuery counts
    transpositions as one edit (FuzzyQuery.java defaultTranspositions)."""
    if abs(len(a) - len(b)) > k:
        return False
    if a == b:
        return True
    prev2: list[int] | None = None
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        best = i
        for j, cb in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (ca != cb))
            if (prev2 is not None and i > 1 and j > 1
                    and ca == b[j - 2] and a[i - 2] == cb):
                cur[j] = min(cur[j], prev2[j - 2] + 1)
            best = min(best, cur[j])
        if best > k:
            return False
        prev2, prev = prev, cur
    return prev[-1] <= k


def expand_multi_term(q: MultiTermQuery, sorted_terms) -> list[str]:
    """Term-dictionary expansion for a MultiTermQuery (the automaton /
    TermsEnum intersection analog, AutomatonQuery / FuzzyTermsEnum).

    ``sorted_terms``: any random-access sequence of ascending terms —
    a list, or the shard's zero-copy term-dict view (``_TermDict.seq()``)
    so prefix/range expansion is O(log V + matches) with NO vocabulary
    materialization."""
    import bisect
    import fnmatch

    n = len(sorted_terms)
    if isinstance(q, PrefixQuery):
        lo = bisect.bisect_left(sorted_terms, q.prefix)
        out = []
        for i in range(lo, n):
            t = sorted_terms[i]
            if not t.startswith(q.prefix):
                break
            out.append(t)
        return out
    if isinstance(q, WildcardQuery):
        cut = min((q.pattern.index(ch) for ch in "*?" if ch in q.pattern),
                  default=0)
        literal = q.pattern[:cut]
        lo = bisect.bisect_left(sorted_terms, literal)
        out = []
        for i in range(lo, n):
            t = sorted_terms[i]
            if literal and not t.startswith(literal):
                break
            if fnmatch.fnmatchcase(t, q.pattern):
                out.append(t)
        return out
    if isinstance(q, TermRangeQuery):
        lo = (bisect.bisect_left if q.include_lower
              else bisect.bisect_right)(sorted_terms, q.lower)
        hi = (bisect.bisect_right if q.include_upper
              else bisect.bisect_left)(sorted_terms, q.upper)
        return [sorted_terms[i] for i in range(lo, hi)]
    if isinstance(q, FuzzyQuery):
        return [t for t in sorted_terms
                if levenshtein_within(q.term, t, q.max_edits)]
    if isinstance(q, RegexpQuery):
        import re

        rx = re.compile(q.pattern)
        return [t for t in sorted_terms if rx.fullmatch(t)]
    raise TypeError(type(q))


def sloppy_phrase_freq(plists: list, offsets: list[int], slop: int) -> float:
    """SloppyPhraseScorer.phraseFreq() (SloppyPhraseScorer.java:39-75):
    a priority queue of per-term position iterators (positions adjusted by
    phrase offset), repeatedly advancing the minimum; each time the
    advanced iterator overtakes the queue head a candidate match closes
    with matchLength = end - min position, contributing
    1/(1 + matchLength) when matchLength <= slop
    (SimScorer.computeSlopFactor).

    ``plists[i]``: ascending positions of phrase term i in the doc;
    ``offsets[i]``: the term's position within the phrase. Phrases with
    repeated terms take this same (non-repeats) path — the reference's
    advanceRpts special-casing is not reproduced (documented divergence).
    """
    import heapq

    adj = [[int(p) - off for p in pl] for pl, off in zip(plists, offsets)]
    if any(len(a) == 0 for a in adj):
        return 0.0
    if len(adj) == 1:  # degenerate single-term phrase: every position is
        return float(len(adj[0]))  # a zero-length match (slop factor 1)
    idx = [0] * len(adj)
    heap = [(adj[i][0], offsets[i], i) for i in range(len(adj))]
    heapq.heapify(heap)
    end = max(a[0] for a in adj)
    freq = 0.0
    pos, off, i = heapq.heappop(heap)
    match_length = end - pos
    while True:
        idx[i] += 1
        if idx[i] >= len(adj[i]):
            break
        new_pos = adj[i][idx[i]]
        if new_pos > end:
            end = new_pos
        next_pos = heap[0][0]
        if new_pos > next_pos:  # done minimizing the current match length
            if match_length <= slop:
                freq += 1.0 / (1.0 + match_length)
            heapq.heappush(heap, (new_pos, off, i))
            pos, off, i = heapq.heappop(heap)
            next_pos = heap[0][0]
            match_length = end - pos
        else:
            ml2 = end - new_pos
            if ml2 < match_length:
                match_length = ml2
            pos = new_pos
    if match_length <= slop:
        freq += 1.0 / (1.0 + match_length)
    return freq


def _near_ordered(subs: list[list[tuple]], slop: int) -> list[tuple]:
    """NearSpansOrdered matching over materialized per-doc span lists:
    for each first-clause span (in order), later clauses advance
    forward-only to the first span starting at/after the previous span's
    end (stretchToOrder, NearSpansOrdered.java:100-118); width = sum of
    gaps; emit iff width <= slop."""
    out = []
    idx = [0] * len(subs)
    for s0, e0, _w0 in subs[0]:
        prev_end = e0
        width = 0
        ok = True
        for ci in range(1, len(subs)):
            cl = subs[ci]
            i = idx[ci]
            while i < len(cl) and cl[i][0] < prev_end:
                i += 1
            idx[ci] = i
            if i == len(cl):
                ok = False
                break
            s, e, _w = cl[i]
            width += s - prev_end
            prev_end = e
        if not ok:
            break  # forward-only subspans are exhausted for good
        if width <= slop:
            out.append((s0, prev_end, width))
    return out


def _near_unordered(subs: list[list[tuple]], slop: int) -> list[tuple]:
    """NearSpansUnordered matching: advance the (start, end)-minimum cell
    one step at a time; emit whenever maxEnd - minStart - totalSpanLength
    <= slop with width = maxEndCell.start - minStart
    (NearSpansUnordered.java:195,258)."""
    n = len(subs)
    idx = [0] * n
    cur = [subs[i][0] for i in range(n)]
    total_len = sum(e - s for s, e, _ in cur)
    out = []
    while True:
        min_i = min(range(n), key=lambda i: (cur[i][0], cur[i][1]))
        # the max-end cell is recomputed per window: with composite
        # subspans a cell's end can DECREASE when it advances, so a
        # cached max cell goes stale and emits phantom matches that
        # violate the slop bound (first-with-max-end on ties)
        max_i = max(range(n), key=lambda i: cur[i][1])
        min_s = cur[min_i][0]
        max_e = cur[max_i][1]
        if max_e - min_s - total_len <= slop:
            out.append((min_s, max_e, cur[max_i][0] - min_s))
        idx[min_i] += 1
        if idx[min_i] >= len(subs[min_i]):
            break
        s, e, _w = subs[min_i][idx[min_i]]
        total_len += (e - s) - (cur[min_i][1] - cur[min_i][0])
        cur[min_i] = (s, e, _w)
    return out


def span_spans(q: Query, pos_of) -> list[tuple]:
    """All matching spans ``(start, end, width)`` of a span query in one
    document, in (start, end) order — the shared kernel run by both the
    engine (ShardSearcher._score_span) and the brute-force oracle.

    ``pos_of(term)`` -> ascending positions of the term in the doc, or
    None when absent."""
    if isinstance(q, SpanTermQuery):
        pos = pos_of(q.term)
        return [(int(p), int(p) + 1, 0) for p in pos] if pos is not None \
            else []
    if isinstance(q, SpanFirstQuery):
        if q.query is not None:  # wraps an arbitrary span query
            return [(s, e, w) for s, e, w in span_spans(q.query, pos_of)
                    if e <= q.end]
        pos = pos_of(q.term)
        if pos is None:
            return []
        return [(int(p), int(p) + 1, 0) for p in pos if int(p) + 1 <= q.end]
    if isinstance(q, SpanNearQuery):
        subs = [span_spans(c, pos_of) for c in q.clauses]
        if any(not s for s in subs):
            return []
        if len(subs) == 1:
            return subs[0]
        return (_near_ordered(subs, q.slop) if q.in_order
                else _near_unordered(subs, q.slop))
    if isinstance(q, SpanOrQuery):
        merged: list[tuple] = []
        for c in q.clauses:
            merged.extend(span_spans(c, pos_of))
        merged.sort(key=lambda sp: (sp[0], sp[1]))
        return merged
    if isinstance(q, SpanNotQuery):
        inc = span_spans(q.include, pos_of)
        if not inc:
            return []
        exc = span_spans(q.exclude, pos_of)
        if not exc:
            return inc
        return [(s, e, w) for s, e, w in inc
                if not any(xs < e + q.post and xe > s - q.pre
                           for xs, xe, _ in exc)]
    raise TypeError(f"not a span query: {type(q)}")


def span_terms(q: Query) -> set[str]:
    """Terms contributing to a span query's similarity stats (SpanWeight
    term contexts; SpanNot collects both sides, SpanNotQuery.java:99)."""
    if isinstance(q, SpanFirstQuery):
        return span_terms(q.query) if q.query is not None else {q.term}
    if isinstance(q, SpanTermQuery):
        return {q.term}
    if isinstance(q, (SpanNearQuery, SpanOrQuery)):
        out: set[str] = set()
        for c in q.clauses:
            out |= span_terms(c)
        return out
    if isinstance(q, SpanNotQuery):
        return span_terms(q.include) | span_terms(q.exclude)
    if isinstance(q, MultiTermQuery):
        # unrewritten expansion leaf (surround/complex-phrase): its terms
        # exist only after rewrite_expansions
        return set()
    raise TypeError(f"not a span query: {type(q)}")


def span_freq(q: Query, pos_of) -> float:
    """SpanScorer.setFreqCurrentDoc: freq = sum over matches of
    1 / (1 + width) (computeSlopFactor)."""
    return float(sum(1.0 / (1.0 + w) for _, _, w in span_spans(q, pos_of)))


def parse_span(text: str, analyzer=None) -> Query:
    """Parse the span mini-syntax (the SpanQuery surface Solr exposes via
    the surround/xml parsers, reduced to a function notation):

        spanNear([clause, ...], slop, inOrder)
        spanOr([clause, ...])
        spanNot(include, exclude)
        spanFirst(term, end)
        bare-term            -> SpanTermQuery (query-side analyzed)
    """
    if analyzer is None:
        from ..analysis import get_analyzer

        analyzer = get_analyzer("standard")

    s = text.strip()
    pos = [0]

    def skip_ws():
        while pos[0] < len(s) and s[pos[0]] in " \t,":
            pos[0] += 1

    def parse_node() -> Query:
        skip_ws()
        for name in ("spanNear", "spanOr", "spanNot", "spanFirst"):
            if s.startswith(name + "(", pos[0]):
                pos[0] += len(name) + 1
                args: list = []
                while True:
                    skip_ws()
                    if pos[0] >= len(s):
                        raise ValueError(f"unterminated {name} in {text!r}")
                    ch = s[pos[0]]
                    if ch == ")":
                        pos[0] += 1
                        break
                    if ch == "[":
                        pos[0] += 1
                        lst = []
                        while True:
                            skip_ws()
                            if pos[0] < len(s) and s[pos[0]] == "]":
                                pos[0] += 1
                                break
                            lst.append(parse_node())
                        args.append(lst)
                    else:
                        args.append(parse_node())
                def _scalar(a, what: str) -> str:
                    if not isinstance(a, SpanTermQuery):
                        raise ValueError(
                            f"{name}: expected a {what}, got {a!r}")
                    return a.term

                if name == "spanNear":
                    if not args or not isinstance(args[0], list) \
                            or not args[0]:
                        raise ValueError(
                            f"spanNear needs a [clause, ...] list: {text!r}")
                    clauses, *rest = args
                    if any(isinstance(c, list) for c in clauses):
                        raise ValueError("spanNear: nested list clause")
                    slop = int(_scalar(rest[0], "slop integer")) \
                        if rest else 0
                    in_order = (_scalar(rest[1], "boolean").lower()
                                == "true") if len(rest) > 1 else True
                    return SpanNearQuery(tuple(clauses), slop, in_order)
                if name == "spanOr":
                    if not args or not isinstance(args[0], list) \
                            or not args[0] \
                            or any(isinstance(c, list) for c in args[0]):
                        raise ValueError(
                            f"spanOr needs a [clause, ...] list: {text!r}")
                    return SpanOrQuery(tuple(args[0]))
                if name == "spanNot":
                    if len(args) != 2 or any(isinstance(a, list)
                                             for a in args):
                        raise ValueError(
                            f"spanNot needs (include, exclude): {text!r}")
                    return SpanNotQuery(args[0], args[1])
                if name == "spanFirst":
                    if len(args) != 2 or isinstance(args[0], list):
                        raise ValueError(
                            f"spanFirst needs (clause, end): {text!r}")
                    end = int(_scalar(args[1], "end integer"))
                    if isinstance(args[0], SpanTermQuery):
                        return SpanFirstQuery(term=args[0].term, end=end)
                    return SpanFirstQuery(end=end, query=args[0])
        # bare token (term / number / boolean literal)
        j = pos[0]
        while j < len(s) and s[j] not in " \t,[])(":
            j += 1
        tok = s[pos[0]:j]
        pos[0] = j
        if not tok:
            raise ValueError(f"empty span clause in {text!r} at {pos[0]}")
        terms = analyzer.analyze_terms(tok)
        return SpanTermQuery(terms[0] if terms else tok)

    q = parse_node()
    skip_ws()
    if pos[0] != len(s):
        raise ValueError(f"trailing input in span query: {s[pos[0]:]!r}")
    return q


_CPX_NO_MATCH = "\x00__no_terms__"  # the reference's impossible dummy term


def _parse_complex_phrase_body(body: str, slop: int, analyzer,
                               in_order: bool = True) -> Query:
    """Phrase body -> ComplexPhraseQuery: an ordered scan of phrase
    elements (``ComplexPhraseQuery.parsePhraseElements``,
    ComplexPhraseQueryParser.java:234). Elements are whitespace-split
    chunks; ``-``/NOT marks a negative position; ``( ... )`` is an OR
    group whose members may each be term-like (wildcard/fuzzy/range)."""
    clauses: list[tuple[bool, Query]] = []
    i, n = 0, len(body)
    neg = False
    while i < n:
        c = body[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-":
            neg = c == "-"
            i += 1
            continue
        if c == "(":
            j = body.find(")", i + 1)
            if j == -1:
                j = n
            inner = body[i + 1:j]
            i = j + 1
            g_should: list[Query] = []
            g_not: list[Query] = []
            for chunk in inner.split():
                if chunk in ("OR", "AND"):
                    continue
                if chunk.startswith("-"):
                    g_not.append(_parse_term_like(chunk[1:], analyzer))
                else:
                    g_should.append(_parse_term_like(chunk, analyzer))
            clauses.append((neg, BooleanQuery(should=g_should,
                                              must_not=g_not,
                                              min_should_match=1)))
            neg = False
            continue
        if c == "[":
            j = body.find("]", i + 1)
            if j != -1:
                clauses.append((neg, _parse_term_like(body[i:j + 1],
                                                      analyzer)))
                neg = False
                i = j + 1
                continue
        j = i
        while j < n and not body[j].isspace():
            j += 1
        chunk = body[i:j]
        i = j
        if chunk.upper() == "NOT":
            neg = True
            continue
        if chunk.upper() in ("AND", "OR"):
            continue
        clauses.append((neg, _parse_term_like(chunk, analyzer)))
        neg = False
    return ComplexPhraseQuery(clauses=tuple(clauses), slop=slop,
                              in_order=in_order)


def parse_complex_phrase(text: str, analyzer=None) -> Query:
    """ComplexPhraseQueryParser.parse: classic syntax, but every quoted
    phrase may embed wildcards / fuzzy / ranges / OR groups / negation
    (ComplexPhraseQueryParser.java:65; ``inOrder`` defaults true, :70)."""
    if analyzer is None:
        from ..analysis import get_analyzer

        analyzer = get_analyzer("standard")
    return parse_query(text, analyzer, complex_phrases=True)


def span_has_multiterm(q: Query) -> bool:
    """True when a span tree contains unrewritten MultiTermQuery leaves
    (surround truncations, SpanMultiTermQueryWrapper analog)."""
    if isinstance(q, MultiTermQuery):
        return True
    if isinstance(q, (SpanNearQuery, SpanOrQuery)):
        return any(span_has_multiterm(c) for c in q.clauses)
    if isinstance(q, SpanNotQuery):
        return span_has_multiterm(q.include) or \
            span_has_multiterm(q.exclude)
    if isinstance(q, SpanFirstQuery) and q.query is not None:
        return span_has_multiterm(q.query)
    return False


def rewrite_span_multiterms(q: Query, sorted_terms) -> Query:
    """SpanMultiTermQueryWrapper.rewrite (``lucene/core/.../spans/
    SpanMultiTermQueryWrapper.java:105`` SpanRewriteMethod): replace each
    MultiTermQuery leaf inside a span tree with the SpanOr of its
    term-dictionary expansions (single term -> SpanTerm; empty ->
    the impossible dummy term, so the enclosing near can never match)."""
    if isinstance(q, MultiTermQuery):
        terms = expand_multi_term(q, sorted_terms)
        if not terms:
            return SpanTermQuery(_CPX_NO_MATCH)
        if len(terms) == 1:
            return SpanTermQuery(terms[0])
        return SpanOrQuery(tuple(SpanTermQuery(t) for t in terms))
    if isinstance(q, SpanNearQuery):
        return SpanNearQuery(
            tuple(rewrite_span_multiterms(c, sorted_terms)
                  for c in q.clauses),
            slop=q.slop, in_order=q.in_order, boost=q.boost)
    if isinstance(q, SpanOrQuery):
        return SpanOrQuery(
            tuple(rewrite_span_multiterms(c, sorted_terms)
                  for c in q.clauses), boost=q.boost)
    if isinstance(q, SpanNotQuery):
        return SpanNotQuery(
            include=rewrite_span_multiterms(q.include, sorted_terms),
            exclude=rewrite_span_multiterms(q.exclude, sorted_terms),
            pre=q.pre, post=q.post, boost=q.boost)
    if isinstance(q, SpanFirstQuery) and q.query is not None:
        return SpanFirstQuery(
            term=q.term, end=q.end, boost=q.boost,
            query=rewrite_span_multiterms(q.query, sorted_terms))
    return q


def rewrite_complex_phrase(q: ComplexPhraseQuery, sorted_terms) -> Query:
    """ComplexPhraseQuery.rewrite (ComplexPhraseQueryParser.java:252-345)
    against a sorted term sequence:

    - a single plain-term phrase returns the TermQuery unchanged (:257);
    - each element rewrites to spans: term -> SpanTerm; multi-term ->
      SpanOr of its expansions, or the impossible dummy term when the
      expansion is empty (:296-299, 'must match nothing'); OR group ->
      SpanOr of positives, wrapped in SpanNot when the group carries
      negated members (addComplexPhraseClause, :347-392);
    - no negative elements -> SpanNear(all, slop, inOrder) (:315);
    - with negatives -> SpanNot(include=SpanNear(positives,
      slop+numNegatives), exclude=SpanNear(all, slop)) (:317-345).
    """
    def leaf_to_span(qc: Query):
        if isinstance(qc, TermQuery):
            return SpanTermQuery(qc.term)
        if isinstance(qc, MatchNoDocs):
            return None
        if isinstance(qc, MultiTermQuery):
            terms = expand_multi_term(qc, sorted_terms)
            if not terms:
                return None
            if len(terms) == 1:
                return SpanTermQuery(terms[0])
            return SpanOrQuery(tuple(SpanTermQuery(t) for t in terms))
        if isinstance(qc, PhraseQuery):
            # an analyzed chunk that split into several tokens ("a.b")
            return SpanNearQuery(tuple(SpanTermQuery(t) for t in qc.terms),
                                 slop=0, in_order=True)
        if isinstance(qc, BooleanQuery):
            ors = [s for c in (qc.must + qc.should)
                   if (s := leaf_to_span(c)) is not None]
            if not ors:
                return None
            soq = ors[0] if len(ors) == 1 else SpanOrQuery(tuple(ors))
            nots = [s for c in qc.must_not
                    if (s := leaf_to_span(c)) is not None]
            if nots:
                snqs = nots[0] if len(nots) == 1 else \
                    SpanOrQuery(tuple(nots))
                return SpanNotQuery(include=soq, exclude=snqs)
            return soq
        raise TypeError(
            f"unsupported query type in complex phrase: {type(qc)}")

    if len(q.clauses) == 1 and not q.clauses[0][0] \
            and isinstance(q.clauses[0][1], TermQuery):
        return q.clauses[0][1]

    all_spans = tuple(leaf_to_span(qc) or SpanTermQuery(_CPX_NO_MATCH)
                      for _, qc in q.clauses)
    num_neg = sum(1 for neg, _ in q.clauses if neg)
    if num_neg == 0:
        if len(all_spans) == 1:
            return all_spans[0]
        return SpanNearQuery(all_spans, slop=q.slop, in_order=q.in_order,
                             boost=q.boost)
    positives = tuple(s for (neg, _), s in zip(q.clauses, all_spans)
                      if not neg)
    if len(positives) == 1:
        include = positives[0]
    else:
        include = SpanNearQuery(positives, slop=q.slop + num_neg,
                                in_order=q.in_order)
    exclude = SpanNearQuery(all_spans, slop=q.slop, in_order=q.in_order)
    return SpanNotQuery(include=include, exclude=exclude, boost=q.boost)


def rewrite_expansions(q: Query, sorted_terms) -> Query:
    """IndexSearcher.rewrite against the top-level reader: every
    ComplexPhraseQuery, and every span tree holding MultiTermQuery leaves,
    anywhere in ``q`` is rewritten against ``sorted_terms`` (the whole
    index's vocabulary), so the expanded terms, and their global df, do
    not depend on how the index is split into segments. Other nodes are
    returned as they are."""
    from dataclasses import fields, is_dataclass, replace

    if isinstance(q, ComplexPhraseQuery):
        return rewrite_complex_phrase(q, sorted_terms)
    if isinstance(q, (SpanNearQuery, SpanOrQuery, SpanNotQuery,
                      SpanFirstQuery)):
        return rewrite_span_multiterms(q, sorted_terms) \
            if span_has_multiterm(q) else q
    if not is_dataclass(q):
        return q
    changes = {}
    for f in fields(q):
        v = getattr(q, f.name)
        if isinstance(v, Query):
            new = rewrite_expansions(v, sorted_terms)
        elif isinstance(v, (list, tuple)) and any(isinstance(c, Query)
                                                  for c in v):
            new = type(v)(rewrite_expansions(c, sorted_terms) for c in v)
        else:
            continue
        if new != v:
            changes[f.name] = new
    return replace(q, **changes) if changes else q


#: ExtendableQueryParser registry (``lucene/queryparser/src/java/org/
#: apache/lucene/queryparser/ext/ExtendableQueryParser.java:30-70`` +
#: ``Extensions.java``): a ``key -> fn(raw_term, analyzer) -> Query``
#: mapping; ``key:term`` atoms dispatch to the registered extension
#: with the RAW (unanalyzed) term, like ParserExtension.parse receives
#: the ExtensionQuery's raw query string.
QUERY_EXTENSIONS: dict = {}


def register_query_extension(key: str, fn) -> None:
    QUERY_EXTENSIONS[key] = fn


def _parse_term_like(chunk: str, analyzer) -> Query:
    """Classify a non-phrase chunk: range, fuzzy, wildcard/prefix, or an
    analyzed term. Handles ``field:term`` prefixes (single text field —
    the prefix is validated away), ``ext_key:term`` parser extensions,
    and ``term^boost``. Expanded-term queries are lowercased but NOT
    tokenized (classic parser lowercase_expanded_terms behavior)."""
    from ..analysis.analyzer import java_lowercase

    boost = 1.0
    if "^" in chunk:
        base, _, b = chunk.rpartition("^")
        try:
            boost = float(b)
            chunk = base
        except ValueError:
            pass
    if ":" in chunk and not chunk.startswith("["):
        field, _, rest = chunk.partition(":")
        if field in QUERY_EXTENSIONS:
            q = QUERY_EXTENSIONS[field](rest, analyzer)
            if boost != 1.0 and hasattr(q, "boost"):
                q = type(q)(**{**q.__dict__, "boost": boost})
            return q
        # single-field engine: accept the default field name, otherwise
        # treat the colon as token text (e.g. "12:30")
        if field in ("text", "body", "content"):
            chunk = rest

    q = _parse_term_like_body(chunk, analyzer)
    if boost != 1.0 and hasattr(q, "boost"):
        q = type(q)(**{**q.__dict__, "boost": boost})
    return q


def _parse_term_like_body(chunk: str, analyzer) -> Query:
    from ..analysis.analyzer import java_lowercase

    if chunk.startswith("[") and chunk.endswith("]") and " TO " in chunk:
        lower, upper = chunk[1:-1].split(" TO ", 1)
        return TermRangeQuery(lower=java_lowercase(lower.strip()),
                              upper=java_lowercase(upper.strip()))
    if len(chunk) >= 2 and chunk.startswith("/") and chunk.endswith("/"):
        return RegexpQuery(pattern=chunk[1:-1])
    if "~" in chunk and not chunk.startswith("~"):
        base, _, edits = chunk.rpartition("~")
        if edits in ("", "1", "2") and "*" not in base and "?" not in base:
            return FuzzyQuery(term=java_lowercase(base),
                              max_edits=int(edits) if edits else 2)
    if "*" in chunk or "?" in chunk:
        body = chunk
        if body.endswith("*") and "*" not in body[:-1] and "?" not in body[:-1]:
            return PrefixQuery(prefix=java_lowercase(body[:-1]))
        return WildcardQuery(pattern=java_lowercase(body))
    return _analyze_chunk(chunk, analyzer)


def parse_query(text: str, analyzer=None,
                complex_phrases: bool = False,
                default_operator: str = "OR") -> Query:
    """Parse the classic-syntax subset into an AST.

    Supported: bare terms (implicit OR), AND / OR / NOT connectives,
    +required / -prohibited prefixes, "quoted phrases". Field prefixes and
    the wildcard/fuzzy/range syntax are not part of the parity surface.
    ``default_operator="AND"`` reproduces ``QueryParser.setDefaultOperator
    (AND_OPERATOR)`` / Solr ``q.op=AND`` (QueryParserBase.java:43,
    addClause): bare clauses become required unless an explicit OR
    connective precedes them (which also demotes the clause before it).
    With ``complex_phrases=True`` (ComplexPhraseQueryParser surface),
    quoted phrases parse their bodies as query syntax instead of plain
    analyzed text.
    """
    if analyzer is None:
        from ..analysis import get_analyzer

        analyzer = get_analyzer("standard")

    # span function-notation queries are whole-query atoms
    stripped = text.strip()
    if any(stripped.startswith(n + "(")
           for n in ("spanNear", "spanOr", "spanNot", "spanFirst")):
        return parse_span(stripped, analyzer)

    # tokenize the query surface: quoted phrases are atoms
    i, n = 0, len(text)
    pending_op = ""
    pending_bool: str | None = None
    clauses: list[tuple[str | None, str, Query]] = []  # (bool_conn, op, query)

    def flush(chunk: str, is_phrase: bool, slop: int = 0):
        nonlocal pending_op, pending_bool
        if is_phrase:
            if complex_phrases:
                q: Query = _parse_complex_phrase_body(chunk, slop, analyzer)
            else:
                terms, positions = analyzer.analyze(chunk)
                if not terms:
                    q = MatchNoDocs()
                else:
                    base = positions[0]
                    q = PhraseQuery(tuple(terms),
                                    tuple(p - base for p in positions),
                                    slop=slop)
        else:
            upper = chunk.upper()
            if upper == "AND":
                pending_bool = "AND"
                return
            if upper == "OR":
                pending_bool = "OR"
                return
            if upper == "NOT":
                pending_op = "-"
                return
            q = _parse_term_like(chunk, analyzer)
        clauses.append((pending_bool, pending_op, q))
        pending_op = ""
        pending_bool = None

    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-":
            pending_op = c
            i += 1
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j == -1:
                j = n
            body = text[i + 1:j]
            i = j + 1
            slop = 0  # "..."~N sloppy phrase (QueryParserBase.java:470-724)
            if i < n and text[i] == "~":
                m = _SLOP_RE.match(text, i)
                if m:
                    slop = int(m.group(1))
                    i = m.end()
            flush(body, True, slop)
            continue
        if c == "[":  # range atom contains spaces: [a TO b]
            j = text.find("]", i + 1)
            if j != -1:
                flush(text[i:j + 1], False)
                i = j + 1
                continue
        if c == "/":  # /regex/ atom may contain spaces
            j = text.find("/", i + 1)
            if j != -1:
                flush(text[i:j + 1], False)
                i = j + 1
                continue
        j = i
        while j < n and not text[j].isspace() and text[j] != '"':
            j += 1
        flush(text[i:j], False)
        i = j

    # assemble: classic parser semantics — AND promotes both adjacent
    # clauses to MUST; NOT/- makes MUST_NOT; with q.op=AND the default
    # is MUST and an explicit OR demotes both adjacent clauses
    and_default = default_operator.upper() == "AND"
    entries: list[list] = []  # [op, query, promoted] op in {"", "+", "-"}
    for conn, op, q in clauses:
        entry = [op, q, False]
        if conn == "AND":
            if entries and entries[-1][0] == "":
                entries[-1][0] = "+"
            if entry[0] == "":
                entry[0] = "+"
        elif and_default and conn != "OR" and entry[0] == "":
            entry[0] = "+"
        if and_default and conn == "OR" and entries \
                and entries[-1][0] != "-":
            # QueryParserBase.addClause: under AND_OPERATOR, CONJ_OR
            # unconditionally demotes the (non-prohibited) preceding
            # clause to SHOULD — explicit '+' included
            entries[-1][0] = ""
        entries.append(entry)

    bq = BooleanQuery()
    for op, q, _ in entries:
        if isinstance(q, MatchNoDocs):
            continue
        if op == "+":
            bq.must.append(q)
        elif op == "-":
            bq.must_not.append(q)
        else:
            bq.should.append(q)

    # collapse single positive clause
    if not bq.must_not and len(bq.must) + len(bq.should) == 1:
        return (bq.must or bq.should)[0]
    return bq
