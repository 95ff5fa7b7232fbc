"""Script-aware segmentation (``lucene/analysis/icu/src/java/org/apache/
lucene/analysis/icu/segmentation/ICUTokenizer.java:48`` analog).

The reference tokenizer splits text into same-script runs (ScriptIterator)
and applies a per-script BreakIterator; CJKAnalyzer composes Standard
segmentation with ``CJKBigramFilter`` (``lucene/analysis/common/.../cjk/
CJKBigramFilter.java:40``): overlapping bigrams over adjacent CJK
codepoints, a lone codepoint passing through as a unigram (outputUnigrams
semantics for isolated chars).

Re-expression without ICU (no native libs in scope):

- script runs come from a small codepoint-range table (the scripts the
  break rules distinguish), not ICU's full Script property;
- Han and Hiragana runs emit overlapping BIGRAMS, each script run on its
  own. DOCUMENTED DIVERGENCES from CJKBigramFilter, whose default flags
  (Han|Hiragana|Katakana|Hangul) buffer adjacent flagged codepoints as
  one bigram domain: no bigram spans a Han<->Hiragana run boundary
  (``語は`` is never emitted), and Katakana and Hangul runs are not
  bigrammed, so Japanese and Korean text indexes different terms than
  the reference chain;
- Katakana, Hangul and Southeast-Asian runs (Thai/Lao/Khmer/Myanmar)
  stay whole-run tokens. DOCUMENTED DIVERGENCE: ICU breaks Thai by a
  dictionary BreakIterator; with no dictionary available the run is the
  deterministic, golden-pinned unit (the standard chain does the same,
  so mixed-script corpora lose no recall moving to this chain);
- every other run delegates to the UAX#29 StandardTokenizer machinery,
  offset-shifted, so Latin/Cyrillic/Greek/digits tokenize byte-identically
  to the standard chain.

The chain registers as analyzer name ``"icu"`` (and ``"cjk"`` for the
CJKAnalyzer-flavored lowercased/stopped variant): lowercase + English
stops over this tokenizer, usable everywhere an analyzer name is
accepted, including ``build_index(analyzer="icu")``.
"""

from __future__ import annotations

from .tokenizer import DEFAULT_MAX_TOKEN_LENGTH, Token

# token types (the standard scanner's names, plus CJKBigramFilter's
# <DOUBLE> for bigrams)
ALPHANUM = "<ALPHANUM>"
IDEOGRAPHIC = "<IDEOGRAPHIC>"
HIRAGANA = "<HIRAGANA>"
KATAKANA = "<KATAKANA>"
HANGUL = "<HANGUL>"
SOUTHEAST_ASIAN = "<SOUTHEAST_ASIAN>"
DOUBLE = "<DOUBLE>"

# script classes with dedicated break behavior
_HAN = "han"
_HIRA = "hira"
_KATA = "kata"
_HANG = "hang"
_SEA = "sea"
_OTHER = "other"

_RANGES = (
    (0x3040, 0x309F, _HIRA),
    (0x30A0, 0x30FF, _KATA),
    (0x31F0, 0x31FF, _KATA),
    (0x3400, 0x4DBF, _HAN),
    (0x4E00, 0x9FFF, _HAN),
    (0xF900, 0xFAFF, _HAN),
    (0x20000, 0x2FA1F, _HAN),
    (0x1100, 0x11FF, _HANG),
    (0x3130, 0x318F, _HANG),
    (0xAC00, 0xD7AF, _HANG),
    (0x0E00, 0x0E7F, _SEA),   # Thai
    (0x0E80, 0x0EFF, _SEA),   # Lao
    (0x1780, 0x17FF, _SEA),   # Khmer
    (0x1000, 0x109F, _SEA),   # Myanmar
)

def _script(cp: int) -> str:
    for lo, hi, cls in _RANGES:
        if lo <= cp <= hi:
            return cls
    return _OTHER


_RUN_TYPE = {_KATA: KATAKANA, _HANG: HANGUL, _SEA: SOUTHEAST_ASIAN}
_CHAR_TYPE = {_HAN: IDEOGRAPHIC, _HIRA: HIRAGANA}


class ICUTokenizer:
    """Script-run segmentation + CJK bigrams; same ``_chunks`` contract
    as StandardTokenizer (yields (text|None, start, end, type)), so the
    StandardAnalyzer machinery (lowercase, stop, position holes) and the
    offsets sidecar compose unchanged."""

    def __init__(self, max_token_length: int = DEFAULT_MAX_TOKEN_LENGTH):
        self.max_token_length = max_token_length
        from .tokenizer import StandardTokenizer

        self._std = StandardTokenizer(max_token_length)

    def _runs(self, text: str):
        """Maximal same-script-class runs as (cls, start, end)."""
        n = len(text)
        i = 0
        while i < n:
            cls = _script(ord(text[i]))
            j = i + 1
            while j < n and _script(ord(text[j])) == cls:
                j += 1
            yield cls, i, j
            i = j

    def _chunks(self, text: str, spans: bool):
        mtl = self.max_token_length
        for cls, a, b in self._runs(text):
            if cls in (_HAN, _HIRA):
                if b - a == 1:
                    yield text[a], a, a + 1, _CHAR_TYPE[cls]
                else:
                    for i in range(a, b - 1):
                        yield text[i:i + 2], i, i + 2, DOUBLE
            elif cls in _RUN_TYPE:
                # whole-run token (dictionary break unavailable —
                # documented divergence), maxTokenLength-chunked
                for off in range(a, b, mtl):
                    e = min(off + mtl, b)
                    yield text[off:e], off, e, _RUN_TYPE[cls]
            else:
                for tok, s, e, typ in self._std._chunks(text[a:b], spans):
                    yield tok, s + a, e + a, typ

    def tokenize(self, text: str) -> list[str]:
        return [t for t, _, _, _ in self._chunks(text, False)
                if t is not None]

    def tokenize_full(self, text: str) -> list[Token]:
        return [Token(t, s, e, ty)
                for t, s, e, ty in self._chunks(text, True)
                if t is not None]
