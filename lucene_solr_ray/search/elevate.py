"""Query elevation (``solr/core/src/java/org/apache/solr/handler/
component/QueryElevationComponent.java:102``): editorial overrides that
pin configured documents to the top of specific queries' results.

Reference semantics re-expressed:

- the elevation config maps an ANALYZED query text to an ordered list of
  elevated ids plus optional excluded ids (``elevate.xml``; the analyzed
  form is the match key — ``getAnalyzedQuery``, so "AAA" and "aaa" hit
  the same entry);
- elevated docs come first IN CONFIG ORDER (``BOOSTED_PRIORITY``), ahead
  of every organic hit, then organic hits in score order with elevated
  and excluded ids removed;
- an elevated doc that matches the query is pinned with its real score,
  however deep it ranks; ``forceElevation`` also pins elevated docs that
  do not match at all, at score 0 (the reference injects them into the
  result set regardless of the query);
- ``exclusive=true``: ONLY the elevated documents come back;
- ``markExcludes=true``: excluded docs stay in the list, flagged
  ``[excluded]``, instead of being removed.

Ray-native mapping: elevation is a driver-side rewrite of the top-k
merge output — the config is request-scale, never shipped to actors; the
elevated ids' scores come from one per-doc score scatter
(``scores_for_docs``), so only those ids travel."""

from __future__ import annotations


class ElevationConfig:
    """query text (analyzed form) -> (elevated ids, excluded ids)."""

    def __init__(self, entries: dict[str, dict], analyzer_name: str = "standard"):
        from ..analysis import get_analyzer

        self._an = get_analyzer(analyzer_name)
        self._map: dict[tuple[str, ...], tuple[list[int], set[int]]] = {}
        for qtext, spec in entries.items():
            key = tuple(self._an.analyze_terms(qtext))
            self._map[key] = (
                [int(d) for d in spec.get("elevate", [])],
                {int(d) for d in spec.get("exclude", set())},
            )

    def lookup(self, query_text: str):
        key = tuple(self._an.analyze_terms(query_text))
        return self._map.get(key)


def elevate_hits(searcher, query_text: str, hits: list[tuple],
                 config: ElevationConfig, k: int = 10, *,
                 force_elevation: bool = False, exclusive: bool = False,
                 mark_excludes: bool = False) -> list[dict]:
    """Apply elevation to an organic (doc_id, score) hit list; returns
    row dicts with an ``elevated`` flag (the reference's ``[elevated]``
    transformer) and, with ``mark_excludes``, an ``excluded`` flag."""
    entry = config.lookup(query_text)
    if entry is None:
        return [{"doc_id": int(d), "score": float(s), "elevated": False}
                for d, s in hits[:k]]
    elev_ids, excl_ids = entry
    scores = searcher.scores_for_docs(query_text, elev_ids)
    out: list[dict] = []
    for d in elev_ids:
        if d in scores or force_elevation:
            out.append({"doc_id": int(d), "score": scores.get(d, 0.0),
                        "elevated": True})
    if not exclusive:
        elev_set = set(elev_ids)
        for d, s in hits:
            d = int(d)
            if d in elev_set:
                continue
            if d in excl_ids:
                if mark_excludes:
                    out.append({"doc_id": d, "score": float(s),
                                "elevated": False, "excluded": True})
                continue
            out.append({"doc_id": d, "score": float(s),
                        "elevated": False})
    return out[:k]


def elevated_search(searcher, query_text: str, config: ElevationConfig,
                    k: int = 10, **kw) -> list[dict]:
    """search + elevation in one call. The organic search over-fetches
    by the elevation depth so removals cannot leave the page short; the
    elevated docs are scored directly, whatever their organic rank."""
    entry = config.lookup(query_text)
    extra = len(entry[0]) + len(entry[1]) if entry else 0
    hits = searcher.search(query_text, k=k + extra)
    return elevate_hits(searcher, query_text, hits, config, k=k, **kw)
