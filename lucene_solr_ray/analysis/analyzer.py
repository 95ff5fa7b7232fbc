"""Analyzer chains: StandardAnalyzer parity plus a SQL-checkable simple chain.

StandardAnalyzer = StandardTokenizer -> (StandardFilter: no-op) ->
LowerCaseFilter -> StopFilter(33 English stopwords), reference
``lucene/analysis/common/src/java/org/apache/lucene/analysis/standard/
StandardAnalyzer.java:84-97``.

- LowerCaseFilter lowercases per *codepoint* with Java's simple 1:1 mapping
  (``Character.toLowerCase(int)``, CharacterUtils.java:111-122) — not
  full-string casing. Python's single-codepoint ``str.lower()`` equals the
  simple mapping except where full lowering is multi-char (U+0130 dotted
  capital I), special-cased to match Java.
- StopFilter drops the 33-word English stop set (StopAnalyzer.java:42-48)
  and accumulates dropped positions into the next token's position
  increment (FilteringTokenFilter.java:34-58) — "position holes".

SimpleAnalyzer is a deliberately SQL-expressible chain (lowercase then split
on ``[^a-z0-9]+``) used only for the DuckDB-checkable operator suite; it has
no reference counterpart.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .tokenizer import DEFAULT_MAX_TOKEN_LENGTH, StandardTokenizer

#: StopAnalyzer.ENGLISH_STOP_WORDS_SET (StopAnalyzer.java:42-48), 33 words.
ENGLISH_STOP_WORDS = frozenset([
    "a", "an", "and", "are", "as", "at", "be", "but", "by",
    "for", "if", "in", "into", "is", "it",
    "no", "not", "of", "on", "or", "such",
    "that", "the", "their", "then", "there", "these",
    "they", "this", "to", "was", "will", "with",
])

# Java Character.toLowerCase uses the simple (1:1) lowercase mapping; the only
# codepoint whose Python full lowering is multi-char and differs: U+0130.
_SIMPLE_LOWER_SPECIAL = {"İ": "i"}


def java_lowercase(token: str) -> str:
    """Per-codepoint simple lowercase, matching Java Character.toLowerCase."""
    if token.isascii():
        return token.lower()
    out = []
    for ch in token:
        special = _SIMPLE_LOWER_SPECIAL.get(ch)
        if special is not None:
            out.append(special)
            continue
        low = ch.lower()
        out.append(low if len(low) == 1 else ch)
    return "".join(out)


class StandardAnalyzer:
    """The reference's default analysis chain, position-increment faithful.

    ``analyze(text)`` returns ``(terms, positions)`` where ``positions`` are
    absolute token positions (first token at the value of its increment - 1,
    i.e. position = cumulative sum of increments - 1, matching Lucene's
    FieldInvertState position accounting).
    """

    def __init__(self, max_token_length: int = DEFAULT_MAX_TOKEN_LENGTH,
                 stopwords: frozenset[str] | None = ENGLISH_STOP_WORDS,
                 tokenizer_cls: type = StandardTokenizer):
        self.tokenizer = tokenizer_cls(max_token_length)
        self.stopwords = stopwords if stopwords is not None else frozenset()

    def analyze(self, text: str) -> tuple[list[str], list[int]]:
        # ASCII fast path: lowercase the whole string once (equivalent to
        # per-token Character.toLowerCase for ASCII) and scan with the
        # compiled re pattern directly — hot in query parsing, suggesters
        # and MoreLikeThis. The URL/email tokenizer uses the tokenizer path.
        if text.isascii() and type(self.tokenizer) is StandardTokenizer:
            from .tokenizer import DEFAULT_MAX_TOKEN_LENGTH, _ascii_scanner

            word_re, _ = _ascii_scanner()
            raw_tokens = word_re.findall(text.lower())
            mtl = self.tokenizer.max_token_length
            # a token can only exceed mtl if the whole text does
            if len(text) > mtl and any(len(t) > mtl for t in raw_tokens):
                if mtl < DEFAULT_MAX_TOKEN_LENGTH:
                    # non-default limit: the reference SKIPS over-long
                    # tokens, leaving a position hole (skippedPositions,
                    # StandardTokenizer.java:165-166)
                    raw_tokens = [t if len(t) <= mtl else None
                                  for t in raw_tokens]
                else:  # default 255 == jflex buffer: chunking IS the
                    chunked: list = []  # reference behavior
                    for t in raw_tokens:
                        if len(t) <= mtl:
                            chunked.append(t)
                        else:
                            chunked.extend(t[i:i + mtl]
                                           for i in range(0, len(t), mtl))
                    raw_tokens = chunked
            stop = self.stopwords
            terms = []
            positions = []
            for pos, term in enumerate(raw_tokens):
                if term is not None and term not in stop:
                    terms.append(term)
                    positions.append(pos)
            return terms, positions

        terms = []
        positions = []
        pos = -1
        stop = self.stopwords
        for raw, _, _, _ in self.tokenizer._chunks(text, False):
            pos += 1
            if raw is None:  # skipped over-long token: position hole
                continue
            term = java_lowercase(raw)
            if term in stop:
                continue
            terms.append(term)
            positions.append(pos)
        return terms, positions

    def analyze_terms(self, text: str) -> list[str]:
        """Terms only (query-side convenience)."""
        return self.analyze(text)[0]


_SIMPLE_SPLIT = re.compile(r"[^a-z0-9]+")


class SimpleAnalyzer:
    """lower(text) split on [^a-z0-9]+ — exactly expressible in DuckDB SQL as
    ``unnest(string_split_regex(lower(text), '[^a-z0-9]+'))`` with empty
    strings removed. Used by the SQL-checked operator suite only."""

    def __init__(self):
        pass

    def analyze(self, text: str) -> tuple[list[str], list[int]]:
        terms = [t for t in _SIMPLE_SPLIT.split(text.lower()) if t]
        return terms, list(range(len(terms)))

    def analyze_terms(self, text: str) -> list[str]:
        return self.analyze(text)[0]


@lru_cache(maxsize=16)
def get_analyzer(name: str = "standard"):
    """Analyzer registry (analysis SPI analog, TokenizerFactory.java).

    Besides the built-ins, any chain in ``filters.CUSTOM_CHAINS`` resolves
    by name (e.g. "english_stemmed"), so custom chains work everywhere an
    analyzer name is accepted, including ``build_index(analyzer=...)``.
    """
    if name == "standard":
        return StandardAnalyzer()
    if name == "standard_nostop":
        return StandardAnalyzer(stopwords=None)
    if name == "simple":
        return SimpleAnalyzer()
    if name == "uax29_url_email":
        from .tokenizer import UAX29URLEmailTokenizer

        return StandardAnalyzer(tokenizer_cls=UAX29URLEmailTokenizer)
    if name == "icu":
        # script-aware segmentation + CJK bigrams, no stopwords
        # (ICUTokenizer.java:48; see analysis/icu.py)
        from .icu import ICUTokenizer

        return StandardAnalyzer(tokenizer_cls=ICUTokenizer, stopwords=None)
    if name == "cjk":
        # CJKAnalyzer flavor: same tokenizer + English stops
        # (lucene/analysis/common/.../cjk/CJKAnalyzer.java:45)
        from .icu import ICUTokenizer

        return StandardAnalyzer(tokenizer_cls=ICUTokenizer)
    from .filters import CUSTOM_CHAINS

    if name in CUSTOM_CHAINS:
        return CUSTOM_CHAINS[name]
    raise KeyError(f"unknown analyzer: {name!r}")


def analyze_debug(text: str, analyzer: str = "standard") -> list[dict]:
    """Per-stage token streams for analysis debugging
    (``solr/core/src/java/org/apache/solr/handler/
    FieldAnalysisRequestHandler.java`` / AnalysisRequestHandlerBase:
    the response lists every chain stage with its (term, position)
    stream). Works for the built-in analyzers and any registered
    CustomAnalyzer chain."""
    from .filters import CustomAnalyzer

    a = get_analyzer(analyzer)
    stages: list[dict] = []
    if isinstance(a, CustomAnalyzer):
        tokens = [(t, p) for p, t in enumerate(a.tokenizer.tokenize(text))]
        stages.append({"stage": type(a.tokenizer).__name__,
                       "tokens": list(tokens)})
        for f in a.filters:
            tokens = f(tokens)
            stages.append({"stage": getattr(f, "__name__", repr(f)),
                           "tokens": list(tokens)})
        return stages
    if isinstance(a, SimpleAnalyzer):
        terms, positions = a.analyze(text)
        return [{"stage": "SimpleAnalyzer",
                 "tokens": list(zip(terms, positions))}]
    # StandardAnalyzer: tokenizer -> lowercase -> stop, synthesized from
    # the same components the fused path uses
    raw = list(a.tokenizer.tokenize(text))
    toks = [(t, p) for p, t in enumerate(raw) if t is not None]
    stages.append({"stage": type(a.tokenizer).__name__, "tokens": toks})
    lowered = [(java_lowercase(t), p) for t, p in toks]
    stages.append({"stage": "LowerCaseFilter", "tokens": lowered})
    stop = a.stopwords
    stopped = [(t, p) for t, p in lowered if t not in stop]
    stages.append({"stage": "StopFilter", "tokens": stopped})
    # invariant: the final stage equals analyze() (asserted in tests)
    return stages
