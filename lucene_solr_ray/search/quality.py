"""Relevance-quality harness (the TREC-style quality package analog,
``lucene/benchmark/src/java/org/apache/lucene/benchmark/quality/
QualityBenchmark.java`` / ``Judge.java``): run a query set against a
searcher and score the rankings against a judge.

No external judgments exist in this sandbox, so the bundled judge is
programmatic: a document is relevant to a query iff it contains every
non-stopword query term (the boolean-AND judge) — enough to exercise
precision@k / recall@k / MRR plumbing and to regression-track ranking
quality across engine changes.
"""

from __future__ import annotations

import numpy as np

from .query import BooleanQuery, PhraseQuery, TermQuery
from .searcher import IndexSearcher, collect_terms


def conjunctive_judge(searcher: IndexSearcher, query) -> set[int]:
    """Relevant docs = those matching ALL of the query's terms."""
    terms = sorted(collect_terms(query))
    if not terms:
        return set()
    must = BooleanQuery(must=[TermQuery(t) for t in terms])
    docs, _ = searcher.all_hits(must)
    return set(int(d) for d in docs)


def evaluate(searcher: IndexSearcher, queries: list[str], k: int = 10,
             judge=conjunctive_judge) -> dict:
    """precision@k / recall@k / MRR over the query set."""
    precisions, recalls, rrs = [], [], []
    judged = 0
    for q in queries:
        parsed = searcher.parse(q)
        relevant = judge(searcher, parsed)
        if not relevant:
            continue
        judged += 1
        hits = [d for d, _ in searcher.search(parsed, k=k)]
        rel_hits = [d for d in hits if d in relevant]
        precisions.append(len(rel_hits) / max(len(hits), 1))
        recalls.append(len(rel_hits) / len(relevant))
        rr = 0.0
        for rank, d in enumerate(hits, 1):
            if d in relevant:
                rr = 1.0 / rank
                break
        rrs.append(rr)
    return {
        "queries_judged": judged,
        f"precision_at_{k}": float(np.mean(precisions)) if precisions else 0.0,
        f"recall_at_{k}": float(np.mean(recalls)) if recalls else 0.0,
        "mrr": float(np.mean(rrs)) if rrs else 0.0,
    }
