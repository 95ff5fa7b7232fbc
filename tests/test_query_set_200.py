"""FIXTURES.md §4: 200 seeded queries over sf_small, rank- and
score-identical between the distributed engine and the oracle."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.data.transcripts import transcripts_path
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.search.oracle import OracleIndex
from lucene_solr_ray.search.searcher import IndexSearcher


def build_query_set(seed: int = 42) -> list[str]:
    """200 queries: 80 single-term (rare/mid/heavy mix), 60 two-term OR,
    40 two-term AND, 20 three-term with one stopword."""
    from lucene_solr_ray.data.transcripts import VOCAB

    rng = np.random.default_rng(seed)
    heavy = VOCAB[:10]          # stopword-adjacent
    mid = VOCAB[10:70]          # domain words
    rare = VOCAB[70:]           # t00000..
    qs: list[str] = []
    for _ in range(80):
        pool = [heavy, mid, rare][int(rng.integers(0, 3))]
        qs.append(pool[int(rng.integers(0, len(pool)))])
    for _ in range(60):
        a, b = (mid[int(rng.integers(0, len(mid)))],
                rare[int(rng.integers(0, len(rare)))])
        qs.append(f"{a} OR {b}")
    for _ in range(40):
        a, b = (mid[int(rng.integers(0, len(mid)))],
                mid[int(rng.integers(0, len(mid)))])
        qs.append(f"{a} AND {b}")
    stops = ["the", "and", "of", "to", "is"]
    for _ in range(20):
        a, b = (mid[int(rng.integers(0, len(mid)))],
                mid[int(rng.integers(0, len(mid)))])
        s = stops[int(rng.integers(0, len(stops)))]
        qs.append(f"{a} {s} {b}")
    assert len(qs) == 200
    return qs


@pytest.fixture(scope="module")
def engine_and_oracle(ray_session, tmp_path_factory):
    src = transcripts_path("small")  # ~13k turns
    out = tmp_path_factory.mktemp("q200") / "idx"
    build_index(src, str(out), num_shards=4)
    searcher = IndexSearcher(str(out))
    texts = pq.read_table(src, columns=["text"]).column("text").to_pylist()
    oracle = OracleIndex()
    oracle.add_all(enumerate(texts))
    return searcher, oracle


def test_200_queries_rank_identical(engine_and_oracle):
    searcher, oracle = engine_and_oracle
    mismatches = []
    for q in build_query_set():
        got = searcher.search(q, k=10)
        want = oracle.search(q, k=10)
        if [(d, float(s)) for d, s in got] != [(d, float(s)) for d, s in want]:
            mismatches.append((q, got[:3], want[:3]))
    assert not mismatches, mismatches[:5]


#: long ORs, a missing term, rare-term pairs and a stopword
OR_QUERIES = [
    "ray OR data", "ray OR data OR index OR query OR merge",
    "t00001 OR the OR data", "engine OR scale OR batch OR t01999",
    "data OR index OR term OR actor OR shard OR stream OR cache",
    "t00042 OR t00043", "ray OR zzzmissing",
]


@pytest.mark.parametrize("q", OR_QUERIES)
@pytest.mark.parametrize("k", [1, 3, 10])
def test_disjunctions_rank_identical(engine_and_oracle, q, k):
    searcher, oracle = engine_and_oracle
    got = searcher.search(q, k=k)
    want = oracle.search(q, k=k)
    assert [(d, float(s)) for d, s in got] == \
        [(d, float(s)) for d, s in want], (q, k)


def test_fuzz_random_query_strings(engine_and_oracle):
    """Hypothesis-style robustness: random query strings (including
    operator soup) never crash and stay engine==oracle."""
    rng = np.random.default_rng(7)
    pieces = ["ray", "data", "t00007", "the", "AND", "OR", "NOT", "+", "-",
              '"ray data"', "ra*", "?ndex", "merg~1", "[data TO ray]",
              "x^2", "", "  ", "(", ")", "foo.bar", "12:30", "~", "*"]
    searcher, oracle = engine_and_oracle
    for _ in range(150):
        n = int(rng.integers(1, 5))
        q = " ".join(pieces[int(rng.integers(0, len(pieces)))]
                     for _ in range(n))
        got = searcher.search(q, k=10)
        want = oracle.search(q, k=10)
        assert [(d, float(s)) for d, s in got] == \
            [(d, float(s)) for d, s in want], repr(q)


def test_quality_harness(engine_and_oracle):
    """QualityBenchmark analog: under the conjunctive judge, a single-term
    query's BM25 top-k is perfectly precise (every hit contains the term),
    and MRR is 1.0."""
    from lucene_solr_ray.search.quality import evaluate

    searcher, _ = engine_and_oracle
    single = ["ray", "data", "index", "merge", "t00042"]
    report = evaluate(searcher, single, k=10)
    assert report["queries_judged"] == len(single)
    assert report["precision_at_10"] == 1.0
    assert report["mrr"] == 1.0

    mixed = ["ray data", "index OR merge", "engine scale batch"]
    r2 = evaluate(searcher, mixed, k=10)
    assert 0.0 <= r2["precision_at_10"] <= 1.0
    assert r2["queries_judged"] >= 1
