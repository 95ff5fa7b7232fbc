"""Offsets-based highlighting (PostingsHighlighter.java:100 analog):
token char spans stored at build time (store_offsets=True), highlight
from postings positions + stored spans with NO re-analysis — pinned for
fragment parity against the re-analysis best_fragments path."""

import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.data.transcripts import generate_transcripts, transcripts_path
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.search.features import (
    best_fragments,
    best_fragments_from_offsets,
    postings_highlight_hits,
)
from lucene_solr_ray.search.searcher import IndexSearcher


@pytest.fixture(scope="module")
def off_index(ray_session, tmp_path_factory):
    src = transcripts_path("tiny")
    out = tmp_path_factory.mktemp("hloff") / "idx"
    build_index(src, str(out), num_shards=3, store_offsets=True)
    return str(out), src


QUERIES = ["ray", "ray AND data", "index OR merge", '"ray data"',
           "data -merge"]


def _offsets_fragments(s, doc_id, text, parsed, **kw):
    from lucene_solr_ray.search.searcher import collect_terms

    starts, ends = s.term_offsets([doc_id])[doc_id]
    matched = {}
    for term in sorted(collect_terms(parsed)):
        for p in s.segment.positions_of(term, doc_id):
            matched[int(p)] = term
    return best_fragments_from_offsets(text, starts, ends, matched, **kw)


def test_fragment_parity_with_reanalysis(off_index):
    """Golden parity: every (snippet, score) pair the offsets path emits
    equals the re-analysis best_fragments output, per hit, for term /
    AND / OR / phrase-terms / MUST_NOT queries."""
    idx, src = off_index
    s = IndexSearcher(idx)
    t = pq.read_table(src, columns=["conv_id", "turn_idx", "text"])
    texts = {(c, int(i)): x for c, i, x in
             zip(t.column("conv_id").to_pylist(),
                 t.column("turn_idx").to_pylist(),
                 t.column("text").to_pylist())}
    checked = 0
    for q in QUERIES:
        parsed = s.parse(q)
        for r in s.resolve_hits(s.search(q, k=8)):
            text = texts[(r["conv_id"], int(r["turn_idx"]))]
            want = best_fragments(text, parsed, analyzer_name="standard",
                                  fragment_size=60, max_fragments=3)
            got = _offsets_fragments(s, int(r["doc_id"]), text, parsed,
                                     fragment_size=60, max_fragments=3)
            assert got == want, (q, r["doc_id"])
            checked += 1
    assert checked >= 20


def test_postings_highlight_hits_end_to_end(off_index):
    idx, src = off_index
    s = IndexSearcher(idx)
    rows = s.resolve_hits(s.search("ray AND data", k=5))
    out = postings_highlight_hits(s, "ray AND data", rows, src)
    assert out and all("snippets" in r for r in out)
    assert any("<b>" in sn for r in out for sn in r["snippets"])


def test_dataset_source_offsets_match_path_build(off_index, tmp_path):
    """store_offsets holds for a Dataset source: its stored spans and its
    offsets-based highlights equal the path build's."""
    import ray.data as rd

    idx, src = off_index
    out = tmp_path / "ds"
    build_index(rd.read_parquet(src), str(out), num_shards=3,
                store_offsets=True)
    a, b = IndexSearcher(idx), IndexSearcher(str(out))
    docs = list(range(a.manifest["stats"]["num_docs"]))

    def spans(s):
        return {d: (list(st), list(en))
                for d, (st, en) in s.term_offsets(docs).items()}

    assert spans(a) and spans(b) == spans(a)
    for q in QUERIES:
        want = postings_highlight_hits(
            a, q, a.resolve_hits(a.search(q, k=8)), src)
        got = postings_highlight_hits(
            b, q, b.resolve_hits(b.search(q, k=8)), src)
        assert got == want, q


def test_offsets_align_under_stopword_holes(ray_session, tmp_path):
    """Positions in postings skip stopwords (holes); the offsets arrays
    index RAW tokens, so position->span mapping must still point at the
    exact surface form of the matched term."""
    import pyarrow as pa

    t = generate_transcripts(40, seed=3)
    texts = ["The data AND the ray runs the index"] + \
        t.column("text").to_pylist()[1:]
    t = t.set_column(t.column_names.index("text"), "text", pa.array(texts))
    src = tmp_path / "s.parquet"
    pq.write_table(t, src)
    idx = tmp_path / "idx"
    build_index(str(src), str(idx), num_shards=2, store_offsets=True)
    s = IndexSearcher(str(idx))
    d = int(s.resolve_hits(s.search('"data and the ray"', k=1)
                           or s.search("ray AND data", k=1))[0]["doc_id"])
    starts, ends = s.term_offsets([d])[d]
    text = texts[0]
    for term in ("data", "ray", "index"):
        pos = s.segment.positions_of(term, d)
        assert pos, term
        for p in pos:
            assert text[starts[p]:ends[p]].lower() == term


def test_manifest_flag_and_graceful_without_offsets(ray_session, tmp_path):
    src = transcripts_path("tiny")
    idx = tmp_path / "plain"
    m = build_index(src, str(idx), num_shards=2)
    assert m["params"]["offsets"] is False
    s = IndexSearcher(str(idx))
    assert s.term_offsets([0, 1]) == {}
    rows = s.resolve_hits(s.search("ray", k=2))
    out = postings_highlight_hits(s, "ray", rows, src)
    assert all(r["snippets"] == [] for r in out)


def test_fragmenter_parity_with_overlong_tokens(off_index):
    """fragment_size SMALLER than single tokens: the searchsorted
    fragmenter must replicate the per-token walk's rule that a fragment
    always absorbs at least one token and the boundary chain advances on
    the trigger token (parity across tiny and large fragment sizes)."""
    idx, src = off_index
    s = IndexSearcher(idx)
    t = pq.read_table(src, columns=["conv_id", "turn_idx", "text"])
    texts = {(c, int(i)): x for c, i, x in
             zip(t.column("conv_id").to_pylist(),
                 t.column("turn_idx").to_pylist(),
                 t.column("text").to_pylist())}
    parsed = s.parse("ray OR data")
    rows = s.resolve_hits(s.search("ray OR data", k=6))
    for fs in (3, 5, 18, 40, 250):
        for r in rows:
            text = texts[(r["conv_id"], int(r["turn_idx"]))]
            want = best_fragments(text, parsed, analyzer_name="standard",
                                  fragment_size=fs, max_fragments=4)
            got = _offsets_fragments(s, int(r["doc_id"]), text, parsed,
                                     fragment_size=fs, max_fragments=4)
            assert got == want, (fs, r["doc_id"])


def test_offsets_after_incremental_update_match_rebuild(ray_session,
                                                        tmp_path):
    """update_index extends the offsets sidecar: every hit's snippets,
    appended docs included, equal those of a ``store_offsets=True`` build
    of the concatenated source."""
    import pyarrow as pa

    from lucene_solr_ray.data.transcripts import generate_transcripts
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.update import update_index

    t = generate_transcripts(60, seed=6)
    src = tmp_path / "a.parquet"
    pq.write_table(t, src)
    idx = tmp_path / "idx"
    build_index(str(src), str(idx), num_shards=2, store_offsets=True)

    t2 = generate_transcripts(30, seed=7)
    # re-key past the checkpoint ('z' > 'c' keeps global sort order)
    new_ids = ["zz-" + c for c in t2.column("conv_id").to_pylist()]
    t2 = t2.set_column(t2.column_names.index("conv_id"), "conv_id",
                       pa.array(new_ids))
    texts2 = ["appended ray data doc"] * t2.num_rows
    t2 = t2.set_column(t2.column_names.index("text"), "text",
                       pa.array(texts2))
    src2 = tmp_path / "b.parquet"
    pq.write_table(t2, src2)
    update_index(str(idx), str(src2))
    combined = tmp_path / "all.parquet"
    pq.write_table(pa.concat_tables([t, t2]), combined)
    full = tmp_path / "full"
    build_index(str(combined), str(full), num_shards=2, store_offsets=True)

    def snippets(index_dir):
        s = IndexSearcher(str(index_dir))
        rows = s.resolve_hits(s.search("ray", k=1000))
        return {(r["conv_id"], int(r["turn_idx"])): r["snippets"]
                for r in postings_highlight_hits(s, "ray", rows,
                                                 str(combined))}

    got, want = snippets(idx), snippets(full)
    assert got == want
    new = [v for (c, _), v in got.items() if c.startswith("zz-")]
    assert len(new) == t2.num_rows
    assert all(v == ["appended <b>ray</b> data doc"] for v in new)


def test_offsets_refuse_non_default_max_token_length(ray_session, tmp_path,
                                                    monkeypatch):
    """A non-default max_token_length skips over-long tokens with a
    position hole the offsets sidecar has no span for, so the build
    refuses store_offsets before writing anything."""
    from lucene_solr_ray.analysis.analyzer import StandardAnalyzer
    from lucene_solr_ray.analysis.filters import CUSTOM_CHAINS

    monkeypatch.setitem(CUSTOM_CHAINS, "short_tokens",
                        StandardAnalyzer(max_token_length=10))
    src = tmp_path / "a.parquet"
    pq.write_table(generate_transcripts(5, seed=3), src)
    idx = tmp_path / "idx"
    with pytest.raises(ValueError, match="max_token_length"):
        build_index(str(src), str(idx), num_shards=1,
                    analyzer="short_tokens", store_offsets=True)
    assert not idx.exists()
