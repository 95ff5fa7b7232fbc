"""BM25 scoring, float32-faithful to the reference Okapi variant.

Reference math (``lucene/core/src/java/org/apache/lucene/search/similarities/
BM25Similarity.java``):

- idf        = (float) ln(1 + (docCount - df + 0.5) / (df + 0.5))     (:71-74)
- avgdl      = (float) (sumTotalTermFreq / (double) docCount)         (:86-97)
- cache[v]   = k1 * ((1 - b) + b * NORM_TABLE[v] / avgdl)             (:213-217)
- weight     = idf * boost; weightValue = weight * (k1 + 1)           (:238,296)
- score(d,f) = weightValue * f / (f + cache[norm_byte[d]])            (:243-245)

defaults k1 = 1.2, b = 0.75 (:61-69). All per-element arithmetic is float32
(Java float); idf's inner expression is computed in float64 then cast, same
as Java's ``(float) Math.log(double)``.
"""

from __future__ import annotations

import math

import numpy as np

from ..util.smallfloat import NORM_TABLE

K1 = np.float32(1.2)
B = np.float32(0.75)


def idf(doc_freq: int, doc_count: int) -> np.float32:
    """float32 idf; inner math in float64 like Java."""
    return np.float32(math.log(1 + (doc_count - doc_freq + 0.5) / (doc_freq + 0.5)))


def avg_field_length(sum_total_term_freq: int, doc_count: int) -> np.float32:
    if sum_total_term_freq <= 0:
        return np.float32(1.0)
    return np.float32(sum_total_term_freq / float(doc_count))


def norm_cache(avgdl: np.float32, k1: np.float32 = K1, b: np.float32 = B) -> np.ndarray:
    """cache[v] = k1 * ((1-b) + b * decodeNorm(v) / avgdl), float32[256]."""
    one = np.float32(1.0)
    return (k1 * ((one - b) + b * NORM_TABLE / np.float32(avgdl))).astype(np.float32)


def score_freqs(
    freqs: np.ndarray,
    norm_bytes: np.ndarray,
    cache: np.ndarray,
    weight_value: np.float32,
) -> np.ndarray:
    """Vectorized BM25DocScorer.score: weightValue * f / (f + cache[norm])."""
    f = freqs.astype(np.float32)
    norm = cache[norm_bytes.astype(np.int64)]
    return (np.float32(weight_value) * f / (f + norm)).astype(np.float32)


def weight_value(idf_value: np.float32, boost: float = 1.0,
                 k1: np.float32 = K1) -> np.float32:
    """weight = idf * boost; weightValue = weight * (k1 + 1)."""
    return np.float32(np.float32(idf_value) * np.float32(boost) * (k1 + np.float32(1.0)))


# --- pluggable similarity strategies (Similarity SPI) ------------------

class BM25Sim:
    """The default scorer, wrapping the module kernels (BM25Similarity)."""

    name = "bm25"

    def __init__(self, avgdl: np.float32):
        self.cache = norm_cache(avgdl)

    def idf(self, doc_freq: int, doc_count: int) -> np.float32:
        return idf(doc_freq, doc_count)

    def weight(self, idf_sum: np.float32, boost: float = 1.0) -> np.float32:
        return weight_value(idf_sum, boost)

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray,
              w: np.float32) -> np.ndarray:
        return score_freqs(freqs, norm_bytes, self.cache, w)


class ClassicSim:
    """ClassicSimilarity / TFIDFSimilarity (``lucene/core/src/java/org/
    apache/lucene/search/similarities/ClassicSimilarity.java``):

    - tf        = (float) sqrt(freq)                               (:120-122)
    - idf       = (float)(log((docCount+1)/(docFreq+1)) + 1)       (:138-140)
    - value     = queryWeight * idf = boost * idf^2 with the 7.0
      queryNorm fixed at 1 (TFIDFSimilarity.java:755-763)
    - norm      = decodeNormValue(norm_byte) = byte315ToFloat — the
      stored byte IS floatToByte315(1/sqrt(numTerms)), shared with the
      BM25 writer in this snapshot, so Classic decoding is bit-exact
      with a reference Classic index (ClassicSimilarity.java:95-98,109)
    - score     = tf(freq) * value * norm (TFIDFSimScorer.score,
      TFIDFSimilarity.java:712-716)
    """

    name = "classic"

    def __init__(self, avgdl: np.float32 = np.float32(1.0)):
        from ..util.smallfloat import byte315_to_float

        self._norm_table = byte315_to_float(
            np.arange(256, dtype=np.uint8)).astype(np.float32)

    def idf(self, doc_freq: int, doc_count: int) -> np.float32:
        return np.float32(
            math.log((doc_count + 1) / float(doc_freq + 1)) + 1.0)

    def weight(self, idf_sum: np.float32, boost: float = 1.0) -> np.float32:
        i = np.float32(idf_sum)
        return np.float32(np.float32(boost) * i * i)

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray,
              w: np.float32) -> np.ndarray:
        f = np.sqrt(freqs.astype(np.float32)).astype(np.float32)
        norm = self._norm_table[norm_bytes.astype(np.int64)]
        return (np.float32(w) * f * norm).astype(np.float32)


SIMILARITIES = {"bm25": BM25Sim, "classic": ClassicSim}


def similarity_class(name: str):
    """The similarity registered as ``name``: a factory avgdl -> sim."""
    try:
        return SIMILARITIES[name]
    except KeyError:
        raise ValueError(f"unknown similarity {name!r}; "
                         f"one of {sorted(SIMILARITIES)}") from None


class SweetSpotSim(ClassicSim):
    """SweetSpotSimilarity (``lucene/misc/src/java/org/apache/lucene/
    misc/SweetSpotSimilarity.java``): ClassicSimilarity with a
    plateaued length norm and baseline/hyperbolic tf.

    - computeLengthNorm(L) = 1/sqrt(steepness * (|L-min| + |L-max| -
      (max-min)) + 1) — flat 1.0 across [min, max] (:120-151)
    - baselineTf(f) = 0 if f==0; base if f <= tf_min; else
      sqrt(f + base^2 - tf_min) (:177-185)
    - hyperbolicTf(f) = min + (max-min)/2 * (tanh-like in base^x)
      (:200-216), selected with ``tf_fn='hyperbolic'``

    Norm derivation: the index stores byte315(1/sqrt(L)); the decoded
    length NORM_TABLE[byte] is already SmallFloat-quantized, so the
    sweet-spot norm here is byte315-roundtripped computeLengthNorm of
    the QUANTIZED length — identical to a reference SweetSpot index
    wherever the byte round-trips the true length (e.g. powers of two),
    and one quantization step apart otherwise."""

    name = "sweetspot"

    def __init__(self, avgdl: np.float32 = np.float32(1.0), *,
                 ln_min: int = 1, ln_max: int = 1, steepness: float = 0.5,
                 tf_min: float = 0.0, tf_base: float = 0.0,
                 tf_fn: str = "baseline", hyper_min: float = 0.0,
                 hyper_max: float = 2.0, hyper_base: float = 1.3,
                 hyper_xoffset: float = 10.0):
        from ..util.smallfloat import (NORM_TABLE, byte315_to_float,
                                       float_to_byte315)

        lengths = NORM_TABLE  # decoded doc length per norm byte
        raw = np.float32(1.0) / np.sqrt(
            (np.float32(steepness)
             * (np.abs(lengths - np.float32(ln_min))
                + np.abs(lengths - np.float32(ln_max))
                - np.float32(ln_max - ln_min))
             + np.float32(1.0)).astype(np.float32)).astype(np.float32)
        # what a reference SweetSpot index would STORE and decode
        self._norm_table = byte315_to_float(
            float_to_byte315(raw)).astype(np.float32)
        self._tf_fn = tf_fn
        self._tf_min = np.float32(tf_min)
        self._tf_base = np.float32(tf_base)
        self._hyper = (np.float32(hyper_min), np.float32(hyper_max),
                       np.float64(hyper_base), np.float64(hyper_xoffset))

    def _tf(self, freqs: np.ndarray) -> np.ndarray:
        f = freqs.astype(np.float32)
        if self._tf_fn == "hyperbolic":
            mn, mx, base, xoff = self._hyper
            x = f.astype(np.float64) - xoff
            bx = np.power(base, x)
            bnx = np.power(base, -x)
            out = (mn + ((mx - mn) / np.float32(2.0)
                         * ((bx - bnx) / (bx + bnx) + 1.0)).astype(
                np.float32)).astype(np.float32)
        else:
            out = np.where(
                f <= self._tf_min, self._tf_base,
                np.sqrt(f + self._tf_base * self._tf_base
                        - self._tf_min).astype(np.float32))
        return np.where(f == np.float32(0.0), np.float32(0.0),
                        out).astype(np.float32)

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray,
              w: np.float32) -> np.ndarray:
        norm = self._norm_table[norm_bytes.astype(np.int64)]
        return (np.float32(w) * self._tf(freqs) * norm).astype(np.float32)


SIMILARITIES["sweetspot"] = SweetSpotSim
