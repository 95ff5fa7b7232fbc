"""N-gram spelling index: IndexBasedSpellChecker / FileBasedSpellChecker
(``solr/core/src/java/org/apache/solr/spelling/IndexBasedSpellChecker.java:43``,
``FileBasedSpellChecker.java``, both over the classic
``lucene/suggest/src/java/org/apache/lucene/search/spell/SpellChecker.java``).

The reference builds a SEPARATE spelling index: each dictionary word is
decomposed into character n-grams (gram size 2-3 for short words, 3-4
for long, ``SpellChecker.getMin/getMax``), with the start gram boosted —
candidate retrieval is a boolean OR over gram clauses, then candidates
are ranked by a StringDistance (LevensteinDistance: ``1 - edits /
max(len)``) and filtered by ``accuracy`` (0.5 default).
``IndexBasedSpellChecker`` sources the dictionary from an index field
with ``thresholdTokenFrequency`` (minimum RELATIVE doc frequency);
``FileBasedSpellChecker`` sources it from a word-list file.

Ray-native mapping: the dictionary is vocabulary-scale (tiny next to
the corpus), so the spelling index is a driver-side structure built
from the searcher's term table (sorted terms with global df, built at
open; any coordinator) — no shuffle — or from a file; gram postings are
numpy int32 arrays and candidate scoring is one ``np.bincount`` per
query (no per-term Python during retrieval). Persistence: one parquet
sidecar, atomic publish.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def _grams_of(word: str) -> list[str]:
    """SpellChecker.formGrams + the reference's length-dependent sizes
    (SpellChecker.getMin/getMax): len>5 -> 3..4, len==5 -> 2..3,
    else 1..2; start grams marked (the reference boosts start^2.0 via a
    dedicated start-gram field)."""
    if len(word) > 5:
        n_lo, n_hi = 3, 4
    elif len(word) == 5:
        n_lo, n_hi = 2, 3
    else:
        n_lo, n_hi = 1, 2
    out = []
    for n in range(n_lo, n_hi + 1):
        if len(word) < n:
            continue
        for i in range(len(word) - n + 1):
            g = word[i:i + n]
            out.append(("^" + g) if i == 0 else g)
    return out


def levenshtein(a: str, b: str) -> int:
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        ca = a[i - 1]
        for j in range(1, lb + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (ca != b[j - 1]))
        prev = cur
    return prev[lb]


def string_distance(a: str, b: str) -> float:
    """LevensteinDistance.getDistance: 1 - edits / max(len)."""
    m = max(len(a), len(b))
    return 1.0 if m == 0 else 1.0 - levenshtein(a, b) / m


class SpellingIndex:
    """The built spelling index: gram -> word-id postings."""

    def __init__(self, words: list[str], freqs: np.ndarray):
        self.words = list(words)
        self.freqs = np.asarray(freqs, dtype=np.int64)
        self._gram_post: dict[str, list[int]] = {}
        for i, w in enumerate(self.words):
            for g in set(_grams_of(w)):
                self._gram_post.setdefault(g, []).append(i)
        self._gram_arr = {g: np.asarray(ids, dtype=np.int32)
                          for g, ids in self._gram_post.items()}

    # --- builders ---
    @classmethod
    def from_searcher(cls, searcher, threshold_token_frequency: float = 0.0
                      ) -> "SpellingIndex":
        """IndexBasedSpellChecker.build: dictionary = the index's term
        dictionary, keeping terms whose RELATIVE docFreq >= threshold
        (HighFrequencyDictionary semantics — low-frequency garbage terms
        never become suggestions)."""
        num_docs = max(1, int(searcher.manifest["stats"]["num_docs"]))
        keep = searcher._df / num_docs >= threshold_token_frequency
        # the coordinator's term table: sorted terms with global df
        terms = searcher._terms._arr.filter(pa.array(keep)).to_pylist()
        return cls(terms, searcher._df[keep].astype(np.int64))

    @classmethod
    def from_file(cls, path: str) -> "SpellingIndex":
        """FileBasedSpellChecker.build: one word per line (the reference
        also supports a trailing tab-separated weight; kept)."""
        words, freqs = [], []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            w, _, f = line.partition("\t")
            words.append(w)
            freqs.append(int(f) if f else 1)
        order = np.argsort(np.asarray(words, dtype=object), kind="stable")
        return cls([words[i] for i in order],
                   np.asarray(freqs, dtype=np.int64)[order])

    # --- persistence (Lookup.store/load-style sidecar) ---
    def save(self, path: str) -> None:
        t = pa.table({
            "word": pa.array(self.words, type=pa.string()),
            "freq": pa.array(self.freqs, type=pa.int64()),
        })
        tmp = str(path) + ".tmp"
        pq.write_table(t, tmp)
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "SpellingIndex":
        t = pq.read_table(path)
        return cls(t.column("word").to_pylist(),
                   t.column("freq").to_numpy())

    # --- query ---
    def suggest(self, word: str, k: int = 5, accuracy: float = 0.5,
                more_popular_than: int | None = None
                ) -> list[tuple[str, float, int]]:
        """SpellChecker.suggestSimilar: candidates by gram overlap (the
        start gram counts double — the reference's start-field boost),
        top 10*k candidates ranked by (distance desc, freq desc, word),
        filtered by ``accuracy``; the input word itself is excluded.
        ``more_popular_than`` replicates SuggestMode
        SUGGEST_MORE_POPULAR: only words with freq > the given value."""
        grams = _grams_of(word)
        if not grams:
            return []
        scores = np.zeros(len(self.words), dtype=np.float64)
        for g in set(grams):
            ids = self._gram_arr.get(g)
            if ids is None and g.startswith("^"):
                ids = self._gram_arr.get(g[1:])
            if ids is not None:
                scores[ids] += 2.0 if g.startswith("^") else 1.0
        cand = np.nonzero(scores > 0)[0]
        if len(cand) == 0:
            return []
        top = cand[np.argsort(-scores[cand], kind="stable")[:10 * k]]
        out = []
        for i in top:
            w = self.words[int(i)]
            if w == word:
                continue
            if more_popular_than is not None \
                    and int(self.freqs[int(i)]) <= more_popular_than:
                continue
            d = string_distance(word, w)
            if d >= accuracy:
                out.append((w, d, int(self.freqs[int(i)])))
        out.sort(key=lambda x: (-x[1], -x[2], x[0]))
        return out[:k]


def index_based_spellchecker(searcher, threshold_token_frequency: float = 0.0,
                             cache_dir: str | None = None) -> SpellingIndex:
    """Build (or load the cached) spelling index for a searcher — the
    IndexBasedSpellChecker lifecycle: build once per index version,
    reuse for every request."""
    if cache_dir is not None:
        tag = f"spell_{searcher.manifest.get('version', 0)}_" \
              f"{threshold_token_frequency}.parquet"
        p = Path(cache_dir) / tag
        if p.exists():
            return SpellingIndex.load(str(p))
        idx = SpellingIndex.from_searcher(searcher,
                                          threshold_token_frequency)
        p.parent.mkdir(parents=True, exist_ok=True)
        idx.save(str(p))
        return idx
    return SpellingIndex.from_searcher(searcher, threshold_token_frequency)
