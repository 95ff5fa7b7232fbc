"""Script-aware segmentation (ICUTokenizer.java:48 analog) + CJK bigram
goldens; the standard chain must remain byte-identical."""

import pytest

from lucene_solr_ray.analysis import get_analyzer


GOLDENS = [
    # mixed Latin + Han: bigrams over the Han run, UAX#29 Latin
    ("Ray Data 处理中文文本 quickly",
     ["ray", "data", "处理", "理中", "中文", "文文", "文本", "quickly"]),
    # Hiragana bigrams, Katakana whole-run (standard-scanner parity)
    ("こんにちは world ハローワールド",
     ["こん", "んに", "にち", "ちは", "world", "ハローワールド"]),
    # Thai run stays one token (documented: no dictionary break)
    ("ภาษาไทยไม่มีช่องว่าง and English",
     ["ภาษาไทยไม่มีช่องว่าง", "and", "english"]),
    # Hangul whole-run words
    ("한국어 텍스트 processing", ["한국어", "텍스트", "processing"]),
    # isolated Han char -> unigram; digits stay UAX#29
    ("mixed123 数 ひらがな カタカナ",
     ["mixed123", "数", "ひら", "らが", "がな", "カタカナ"]),
    # punctuation splits script runs; bigram never crosses it
    ("中文,标点", ["中文", "标点"]),
]


@pytest.mark.parametrize("text,want", GOLDENS)
def test_icu_goldens(text, want):
    assert get_analyzer("icu").analyze_terms(text) == want


def test_cjk_variant_drops_english_stops():
    got = get_analyzer("cjk").analyze_terms(
        "ภาษาไทยไม่มีช่องว่าง and English 中文")
    assert got == ["ภาษาไทยไม่มีช่องว่าง", "english", "中文"]


def test_positions_have_holes_under_stops():
    terms, pos = get_analyzer("cjk").analyze("the 中文 and more")
    assert terms == ["中文", "more"]
    assert pos == [1, 3]


def test_offsets_map_back_to_surface():
    text = "Ray 处理中文 data"
    toks = get_analyzer("icu").tokenizer.tokenize_full(text)
    for t in toks:
        assert text[t.start:t.end] == t.text


STANDARD_GOLDENS = [
    ("Ray Data 处理中文文本 quickly",
     ["ray", "data", "处", "理", "中", "文", "文", "本", "quickly"]),
    ("こんにちは world ハローワールド",
     ["こ", "ん", "に", "ち", "は", "world", "ハローワールド"]),
]


@pytest.mark.parametrize("text,want", STANDARD_GOLDENS)
def test_standard_chain_byte_identical(text, want):
    """Adding the icu/cjk names must not perturb the standard chain."""
    assert get_analyzer("standard").analyze_terms(text) == want


def test_icu_index_build_end_to_end(ray_session, tmp_path):
    """build_index(analyzer='icu') + phrase-free search over bigrams."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.data.transcripts import generate_transcripts
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.searcher import IndexSearcher

    t = generate_transcripts(40, seed=2)
    texts = t.column("text").to_pylist()
    texts[0] = "分布式搜索引擎 with ray data"
    texts[1] = "分布式系统 another doc"
    t = t.set_column(t.column_names.index("text"), "text", pa.array(texts))
    src = tmp_path / "s.parquet"
    pq.write_table(t, src)
    idx = tmp_path / "idx"
    build_index(str(src), str(idx), num_shards=2, analyzer="icu",
                store_offsets=True)
    s = IndexSearcher(str(idx))
    hits = s.search("分布", k=5)       # a bigram term
    assert {d for d, _ in hits} == {0, 1}
    # offsets sidecar aligns: matched bigram's span maps to the surface
    starts, ends = s.term_offsets([0])[0]
    for p in s.segment.positions_of("分布", 0):
        assert texts[0][starts[p]:ends[p]] == "分布"
