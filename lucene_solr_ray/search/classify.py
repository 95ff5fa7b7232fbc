"""Index-driven document classifiers (``lucene/classification`` analog).

Reference semantics:

- ``SimpleNaiveBayesClassifier`` (``lucene/classification/src/java/org/
  apache/lucene/classification/SimpleNaiveBayesClassifier.java:48,
  144-160, 208-283``): multinomial NB with add-1 smoothing over the
  indexed corpus. For input tokens w and class c,
  ``score(c) = ln(df(c)) - ln(docsWithClass)
             + Σ_w ln((hits(w,c) + 1) / (avgUniqueTermsPerDoc * df(c)
                                          + docsWithClass))``
  where ``hits(w,c)`` = docs of class c containing w (:255-270),
  ``avgUniqueTermsPerDoc`` = sumDocFreq / docCount of the text field
  (:236-246), and the prior is :271-273. Tokens NOT in the vocabulary
  still contribute the smoothed ``ln(1/den)`` term (the +1 numerator).

- ``KNearestNeighborClassifier`` (``KNearestNeighborClassifier.java:
  46-136, 192-236``): a MoreLikeThis query from the input text retrieves
  the top-k neighbours; per class,
  ``score = Σ_{doc∈c}(doc.score / maxScore) / k`` (count * normalized
  boost / k, :220-225), scaled by ``k/sumdoc`` when fewer than k docs
  carried the class field (:229-233); highest score wins.

Ray-native mapping: TRAINING is a distributed pass — one vectorized
explode of distinct (doc, term) pairs per batch and a bucketed
(term, class) → docfreq shuffle — producing a term×class count matrix
(vocabulary-scale, like the term dictionary). Bulk CLASSIFICATION is a
stateless ``map_batches`` stage: token→matrix-row lookup via
searchsorted, per-doc log-sums via one bincount per class column, no
per-row Python. This turns the reference's per-document, per-term index
probes into a weak-labeling operator that streams a whole corpus.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd


class NaiveBayesModel:
    """Trained SimpleNaiveBayes state: sorted term vocabulary, term×class
    docfreq matrix, class priors and smoothing denominators."""

    def __init__(self, terms: np.ndarray, tc_df: np.ndarray,
                 classes: list[str], df_c: np.ndarray,
                 docs_with_class: int, avg_unique_terms: float):
        self.terms = terms                    # sorted object array (V,)
        self.tc_df = tc_df                    # int64 (V, C)
        self.classes = classes                # sorted class values
        self.df_c = df_c.astype(np.float64)   # docs per class (C,)
        self.docs_with_class = float(docs_with_class)
        self.avg_unique_terms = float(avg_unique_terms)
        # den_c = avgUnique * df(c) + docsWithClass (:218-219)
        self.den = self.avg_unique_terms * self.df_c + self.docs_with_class
        self.log_prior = np.log(self.df_c) - np.log(self.docs_with_class)

    def scores_flat(self, doc_idx: np.ndarray, flat: np.ndarray,
                    n: int) -> np.ndarray:
        """(n, n_classes) float64 log-scores from flat (doc_index, token)
        arrays, fully vectorized: one searchsorted over the vocabulary +
        one bincount per class column."""
        C = len(self.classes)
        counts = np.bincount(doc_idx, minlength=n).astype(np.int64)
        out = np.tile(self.log_prior, (n, 1))
        out -= counts[:, None] * np.log(self.den)[None, :]
        if len(flat) and len(self.terms):
            pos = np.searchsorted(self.terms, flat)
            pos_c = np.minimum(pos, len(self.terms) - 1)
            known = self.terms[pos_c] == flat
            hits = np.where(known[:, None],
                            self.tc_df[pos_c], 0)      # (ntok, C)
            logs = np.log1p(hits.astype(np.float64))   # ln(hits + 1)
            for c in range(C):
                out[:, c] += np.bincount(doc_idx, weights=logs[:, c],
                                         minlength=n)
        return out

    def scores(self, token_lists: list[list[str]]) -> np.ndarray:
        n = len(token_lists)
        counts = np.fromiter((len(t) for t in token_lists),
                             dtype=np.int64, count=n)
        flat = (np.concatenate([np.asarray(t, dtype=object)
                                for t in token_lists if t])
                if counts.sum() else np.empty(0, dtype=object))
        return self.scores_flat(np.repeat(np.arange(n), counts), flat, n)

    def predict_flat(self, doc_idx: np.ndarray, flat: np.ndarray, n: int,
                     ndigits: int | None = 6) -> list[str]:
        """argmax class per doc; scores rounded (DuckDB ROUND semantics)
        before comparison so oracle ties break identically (class asc —
        np.argmax keeps the first/lowest class on equal scores)."""
        s = self.scores_flat(doc_idx, flat, n)
        if ndigits is not None:
            from ..pipelines.util import round_away
            s = np.column_stack([
                round_away(pa.array(s[:, c]), ndigits).to_numpy()
                for c in range(s.shape[1])])
        idx = np.argmax(s, axis=1)
        return [self.classes[int(i)] for i in idx]

    def predict(self, token_lists: list[list[str]],
                ndigits: int | None = 6) -> list[str]:
        n = len(token_lists)
        counts = np.fromiter((len(t) for t in token_lists),
                             dtype=np.int64, count=n)
        flat = (np.concatenate([np.asarray(t, dtype=object)
                                for t in token_lists if t])
                if counts.sum() else np.empty(0, dtype=object))
        return self.predict_flat(np.repeat(np.arange(n), counts), flat, n,
                                 ndigits=ndigits)


def train_naive_bayes(ds: rd.Dataset, text_field: str, class_field: str,
                      ) -> NaiveBayesModel:
    """Distributed NB training: per-batch vectorized distinct-(doc, term)
    explode + class column, one bucketed (term, class)→docfreq shuffle;
    class counts and the (doc,term)-pair total ride along as partials.
    The finished model is vocabulary×classes-scale."""
    from ..pipelines.textstats import _explode_terms
    from ..pipelines.util import bucketed_group_agg, materialize_typed

    def partial(t: pa.Table) -> pd.DataFrame:
        doc_idx, terms = _explode_terms(
            pa.table({"text": t.column(text_field)}))
        cls = t.column(class_field).to_numpy(zero_copy_only=False)
        f = pd.DataFrame({"doc": doc_idx, "term": terms})
        f = f.drop_duplicates()                      # distinct (doc, term)
        f["cls"] = cls[f["doc"].to_numpy()]
        out = (f.groupby(["term", "cls"], as_index=False)
               .size().rename(columns={"size": "df"}))
        out["df"] = out["df"].astype(np.int64)
        return out

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(["term", "cls"], as_index=False)["df"].sum())
        out["df"] = out["df"].astype(np.int64)
        return out

    schema = pa.schema([("term", pa.string()), ("cls", pa.string()),
                        ("df", pa.int64())])
    tc = materialize_typed(
        bucketed_group_agg(
            ds.map_batches(partial, batch_format="pyarrow"),
            ["term", "cls"], merge),
        schema).to_pandas()

    # class doc counts: tiny single-column aggregate
    cls_counts = (ds.select_columns([class_field])
                  .groupby(class_field).count().to_pandas())
    cls_counts = cls_counts.rename(columns={
        class_field: "cls", "count()": "n"})
    classes = sorted(cls_counts["cls"].astype(str))
    df_c = np.array([int(cls_counts.set_index("cls")["n"][c])
                     for c in classes], dtype=np.int64)
    docs_with_class = int(df_c.sum())
    # sumDocFreq / docCount of the text field == total distinct
    # (doc, term) pairs / docs (SimpleNaiveBayesClassifier.java:238-241)
    avg_unique = float(tc["df"].sum()) / max(docs_with_class, 1)

    terms = np.asarray(sorted(tc["term"].unique()), dtype=object)
    tc_df = np.zeros((len(terms), len(classes)), dtype=np.int64)
    trow = pd.Series(np.arange(len(terms)), index=terms)
    ccol = {c: i for i, c in enumerate(classes)}
    tc_df[trow[tc["term"]].to_numpy(),
          tc["cls"].map(ccol).to_numpy()] = tc["df"].to_numpy()
    return NaiveBayesModel(terms, tc_df, classes, df_c,
                           docs_with_class, avg_unique)


def classify_batches(ds: rd.Dataset, model: NaiveBayesModel,
                     text_field: str, id_field: str,
                     out_field: str = "pred") -> rd.Dataset:
    """Bulk weak-labeling stage: broadcast the model once (ray.put),
    classify each batch vectorized."""
    import ray

    from ..pipelines.textstats import _explode_terms

    model_ref = ray.put(model)

    class _Classify:
        def __init__(self):
            self.model = ray.get(model_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            doc_idx, terms = _explode_terms(
                pa.table({"text": t.column(text_field)}))
            preds = self.model.predict_flat(doc_idx, terms, len(t))
            return pa.table({
                id_field: t.column(id_field),
                out_field: pa.array(preds, type=pa.string()),
            })

    return ds.map_batches(_Classify, batch_format="pyarrow",
                          concurrency=(1, 8), num_cpus=1)


def nb_classify_docs(sf_dir: str):
    """Driver query: train NB on documents (class = lang), self-classify
    every document -> (doc_id, pred_lang)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang"])
    model = train_naive_bayes(ds, "text", "lang")
    out = classify_batches(ds, model, "text", "doc_id",
                           out_field="pred_lang")
    return out


class KNearestNeighborClassifier:
    """MLT-vote classifier over an IndexSearcher
    (KNearestNeighborClassifier.java:46-136,192-236)."""

    def __init__(self, searcher, class_field: str, k: int = 10,
                 max_query_terms: int = 25, min_doc_freq: int = 2):
        self.searcher = searcher
        self.classes = searcher.docvalues(class_field)
        self.k = k
        self.max_query_terms = max_query_terms
        self.min_doc_freq = min_doc_freq

    def get_classes(self, text: str) -> list[tuple[str, float]]:
        from .features import more_like_this

        hits = more_like_this(self.searcher, text, k=self.k,
                              max_query_terms=self.max_query_terms,
                              min_doc_freq=self.min_doc_freq)
        if not hits:
            return []
        max_score = max(s for _, s in hits)
        boosts: dict[str, float] = {}
        counts: dict[str, int] = {}
        for doc, score in hits:
            cl = self.classes[doc] if self.classes is not None else None
            if cl is None:
                continue
            cl = str(cl)
            counts[cl] = counts.get(cl, 0) + 1
            boosts[cl] = boosts.get(cl, 0.0) + score / max_score
        sumdoc = sum(counts.values())
        if sumdoc == 0:
            return []
        out = []
        for cl, cnt in counts.items():
            score = (cnt * (boosts[cl] / cnt)) / self.k   # :220-225
            if sumdoc < self.k:                            # :229-233
                score = score * self.k / sumdoc
            out.append((cl, score))
        out.sort(key=lambda r: (-r[1], r[0]))
        return out

    def assign_class(self, text: str) -> tuple[str, float] | None:
        classes = self.get_classes(text)
        return classes[0] if classes else None
