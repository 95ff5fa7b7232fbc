"""BooleanPerceptronClassifier analog: exact-semantics reference pass
(hand-checked, quirks pinned), iterative-parameter-mixing distributed
trainer, vectorized bulk classification."""

import math

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from lucene_solr_ray.search.perceptron import (
    PerceptronModel,
    classify_batches,
    corpus_init_stats,
    train_perceptron_mixed,
    train_reference,
    training_sample,
)

DOCS = ["good good stuff", "bad stuff", "good win", "bad loss"]
LABELS = [True, False, True, False]
TOKS = [d.split() for d in DOCS]


def _ds(texts, labels):
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts),
        "label": pa.array(labels),
    }))


def test_corpus_init_stats(ray_session):
    terms, ttf, threshold = corpus_init_stats(_ds(DOCS, LABELS), "text")
    idx = {t: i for i, t in enumerate(terms)}
    # totalTermFreq init (BooleanPerceptronClassifier.java:109-117)
    assert ttf[idx["good"]] == 3 and ttf[idx["bad"]] == 2
    assert ttf[idx["stuff"]] == 2 and ttf[idx["win"]] == 1
    # threshold = sumDocFreq/2 = 8 distinct (doc,term) pairs / 2 (:95-101)
    assert threshold == 4.0


def test_reference_pass_hand(ray_session):
    terms, ttf, threshold = corpus_init_stats(_ds(DOCS, LABELS), "text")
    m = train_reference(TOKS, LABELS, terms, ttf, threshold, batch_size=1)
    w = {t: int(v) for t, v in zip(m.terms, m.weights)}
    # d0 (8 >= 4, correct), d1 misclassified (4 >= 4 -> True but False):
    # modifier -1 lowers bad/stuff by their in-doc tf, d2/d3 then correct
    assert w == {"good": 3, "bad": 1, "stuff": 1, "win": 1, "loss": 1}
    assigned, score = m.assign(["bad", "loss"])
    assert assigned is False
    assert score == pytest.approx(1 - math.exp(-2 / 4))
    # boundary: output == threshold assigns True with score 0 (:219-220)
    assigned, score = m.assign(["good", "stuff"])
    assert assigned is True and score == pytest.approx(0.0)


def test_quirk_pending_discarded_after_last_refresh(ray_session):
    # with batch_size=2 the d1 misclassification happens at batchCount=1
    # (1 % 2 != 0): the FST never refreshes and the final model is the
    # initial snapshot (BooleanPerceptronClassifier.java:146-151)
    terms, ttf, threshold = corpus_init_stats(_ds(DOCS, LABELS), "text")
    m = train_reference(TOKS, LABELS, terms, ttf, threshold, batch_size=2)
    assert m.weights.tolist() == ttf.tolist()


def test_mixed_single_partition_equals_reference(ray_session):
    rng = np.random.default_rng(7)
    pos_v = ["win", "great", "good", "nice"]
    neg_v = ["loss", "awful", "bad", "poor"]
    texts, labels = [], []
    for i in range(60):
        lab = bool(i % 2)
        vocab = pos_v if lab else neg_v
        texts.append(" ".join(rng.choice(vocab + ["stuff", "thing"], 6)))
        labels.append(lab)
    ds = _ds(texts, labels)
    mixed = train_perceptron_mixed(ds, "text", "label", epochs=1,
                                   num_partitions=1)
    terms, ttf, threshold = corpus_init_stats(ds, "text")
    toks = [t.split() for t in texts]
    ref = train_reference(toks, labels, terms, ttf, threshold, batch_size=1)
    assert mixed.terms.tolist() == ref.terms.tolist()
    assert mixed.weights.tolist() == ref.weights.tolist()
    assert mixed.threshold == ref.threshold


def test_mixed_separates_planted_corpus(ray_session):
    rng = np.random.default_rng(11)
    texts, labels = [], []
    for i in range(200):
        lab = bool(i % 2)
        marker = "happy" if lab else "gloomy"
        filler = [str(x) for x in rng.integers(0, 50, 5)]
        texts.append(" ".join([marker] + filler))
        labels.append(lab)
    ds = _ds(texts, labels)
    m = train_perceptron_mixed(ds, "text", "label", epochs=4,
                               num_partitions=4, threshold=120.0)
    out = classify_batches(_ds(texts, labels), m, "text", "doc_id")
    tab = out.to_pandas().sort_values("doc_id")
    acc = float((tab["assigned"].to_numpy()
                 == np.asarray(labels)).mean())
    assert acc >= 0.9
    # deterministic: a second identical run trains identical weights
    m2 = train_perceptron_mixed(ds, "text", "label", epochs=4,
                                num_partitions=4, threshold=120.0)
    assert m.weights.tolist() == m2.weights.tolist()


def test_bulk_classify_matches_model(ray_session):
    terms = np.asarray(["alpha", "beta", "gamma"], dtype=object)
    m = PerceptronModel(terms, np.array([5, -2, 1]), threshold=3.0)
    texts = ["alpha beta", "gamma gamma", "alpha alpha", "", "zzz beta"]
    ds = _ds(texts, [True] * 5)
    tab = (classify_batches(ds, m, "text", "doc_id")
           .to_pandas().sort_values("doc_id"))
    for i, text in enumerate(texts):
        want_a, want_s = m.assign(text.split())
        assert bool(tab["assigned"].iloc[i]) == want_a
        assert tab["score"].iloc[i] == pytest.approx(want_s, abs=1e-6)


def test_training_sample_is_sort_limit(ray_session):
    """The per-batch bottom-128 sample holds exactly the rows of a global
    sort by doc_id cut at 128, in that order."""
    rng = np.random.default_rng(3)
    ids = rng.permutation(1000)
    blocks = [pa.table({"doc_id": pa.array(ids[i:i + 97], type=pa.int64()),
                        "text": pa.array([f"t{d}" for d in ids[i:i + 97]])})
              for i in range(0, 1000, 97)]
    ds = rd.from_arrow(blocks).repartition(5)
    want = ds.sort("doc_id").limit(128).take_all()
    assert training_sample(ds) == want
    assert [r["doc_id"] for r in want] == list(range(128))
    # an empty corpus gives an empty sample, as the sort did
    empty = ds.filter(expr="doc_id < 0")
    assert training_sample(empty) == empty.sort("doc_id").limit(128).take_all() == []


def test_driver_query_smoke(ray_session):
    from lucene_solr_ray.search.perceptron import perceptron_classify_docs

    out = perceptron_classify_docs("/root/testdata/sf0.001")
    tab = out.to_pandas()
    n_docs = rd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet").count()
    assert len(tab) == n_docs
    assert set(tab.columns) == {"doc_id", "assigned", "score"}
    assert tab["assigned"].dtype == bool
