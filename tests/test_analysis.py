"""Golden token-stream tests (BaseTokenStreamTestCase.assertAnalyzesTo style,
test-framework/.../analysis/BaseTokenStreamTestCase.java:122-323) plus
ASCII-fast-path equivalence fuzzing."""

import numpy as np
import pyarrow as pa
import pytest
import regex as regex_mod
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_solr_ray.analysis import StandardAnalyzer, StandardTokenizer
from lucene_solr_ray.analysis.analyzer import (
    ENGLISH_STOP_WORDS,
    get_analyzer,
    java_lowercase,
)
from lucene_solr_ray.analysis.tokenizer import (
    ALPHANUM,
    HANGUL,
    HIRAGANA,
    IDEOGRAPHIC,
    KATAKANA,
    NUM,
    SOUTHEAST_ASIAN,
)
from lucene_solr_ray.index.build import tokenize_table
from lucene_solr_ray.util.smallfloat import encode_norm


def toks(text):
    return StandardTokenizer().tokenize(text)


def typed(text):
    return [(t.text, t.type) for t in StandardTokenizer().tokenize_full(text)]


def analyze(text):
    return StandardAnalyzer().analyze(text)


# --- tokenizer goldens (UAX#29 / StandardTokenizerImpl.jflex semantics) ---

def test_basic_words():
    assert toks("The Quick Brown FOX jumped") == ["The", "Quick", "Brown", "FOX", "jumped"]


def test_hyphen_splits_underscore_joins():
    # '-' has no WB join property; '_' is ExtendNumLet (WB13a/b)
    assert toks("ray-data map_batches") == ["ray", "data", "map_batches"]


def test_interior_dot_joins_letters_and_numbers():
    # '.' is MidNumLet: joins letter.letter (WB6/7) and num.num (WB11/12)
    assert toks("foo.bar v2.5 e.g. end.") == ["foo.bar", "v2.5", "e.g", "end"]


def test_numbers_and_types():
    assert typed("abc 123 abc123 123abc 2.5") == [
        ("abc", ALPHANUM), ("123", NUM), ("abc123", ALPHANUM),
        ("123abc", ALPHANUM), ("2.5", NUM),
    ]


def test_email_splits_under_standard_tokenizer():
    # StandardTokenizer (UAX#29) has no email rule (that is
    # UAX29URLEmailTokenizer); '@' always breaks.
    assert toks("a@b.co") == ["a", "b.co"]


def test_colon_joins_letters_not_numbers():
    # ':' is MidLetter: joins letters (WB6/7) but not digits (MidNum excludes it)
    assert toks("ab:cd 12:30") == ["ab:cd", "12", "30"]


def test_comma_joins_numbers_not_letters():
    # ',' is MidNum: 1,000 joins; letter,letter breaks
    assert toks("1,000 ab,cd") == ["1,000", "ab", "cd"]


def test_apostrophe():
    # "'" is Single_Quote: joins via WB6/7 MidLetter role between letters
    assert toks("O'Neill's dog isn't") == ["O'Neill's", "dog", "isn't"]


def test_cjk_ideographic_per_char():
    assert typed("日本語 text") == [
        ("日", IDEOGRAPHIC), ("本", IDEOGRAPHIC), ("語", IDEOGRAPHIC), ("text", ALPHANUM),
    ]


def test_hiragana_per_char_katakana_run():
    assert typed("ひらがな カタカナ") == [
        ("ひ", HIRAGANA), ("ら", HIRAGANA), ("が", HIRAGANA), ("な", HIRAGANA),
        ("カタカナ", KATAKANA),
    ]


def test_hangul_run():
    assert typed("한국어") == [("한국어", HANGUL)]


def test_southeast_asian_run():
    assert typed("ไทย abc") == [("ไทย", SOUTHEAST_ASIAN), ("abc", ALPHANUM)]


def test_emoji_and_punct_dropped():
    assert toks("hi! 🙂 \U0001F1FA\U0001F1F8 (ok)") == ["hi", "ok"]


def test_max_token_length_chunks():
    # DEFAULT limit == jflex scanner buffer, growth disabled (LUCENE-5897):
    # over-long runs are split into <=255-char chunks, not dropped
    long = "x" * 300
    assert toks(f"alpha {long} beta") == ["alpha", "x" * 255, "x" * 45, "beta"]


def test_non_default_max_token_length_skips_with_hole():
    # NON-default limit: the reference SKIPS tokens over maxTokenLength
    # and accumulates skippedPositions (StandardTokenizer.java:165-166)
    t = StandardTokenizer(max_token_length=5)
    assert t.tokenize("abcdefghij kl") == ["kl"]
    from lucene_solr_ray.analysis.analyzer import StandardAnalyzer

    an = StandardAnalyzer(max_token_length=5, stopwords=None)
    terms, positions = an.analyze("abcdefghij kl mn")
    assert terms == ["kl", "mn"]
    assert positions == [1, 2]  # the skipped token held position 0
    # non-ascii path: same hole accounting
    terms2, positions2 = an.analyze("ábcdefghij kl")
    assert terms2 == ["kl"] and positions2 == [1]


def test_empty_and_whitespace():
    assert toks("") == []
    assert toks("   \t\n ") == []


# --- lowercase filter (Character.toLowerCase per codepoint) ---

def test_lowercase_ascii():
    assert java_lowercase("FooBAR") == "foobar"


def test_lowercase_dotted_capital_i():
    # Java simple mapping: U+0130 -> 'i' (not Python's 'i' + combining dot)
    assert java_lowercase("İstanbul") == "istanbul"
    assert len(java_lowercase("İ")) == 1


def test_lowercase_sigma_and_sharp_s():
    # per-codepoint: final sigma handling does NOT apply (Java maps Σ->σ always)
    assert java_lowercase("ΣΟΣ") == "σοσ"
    # ß has no simple lowercase change
    assert java_lowercase("STRASSE ß") == "strasse ß"


# --- stop filter with position holes (FilteringTokenFilter.java:34-58) ---

def test_stopwords_33():
    assert len(ENGLISH_STOP_WORDS) == 33


def test_analyze_with_holes():
    terms, positions = analyze("The Quick Brown FOX jumped")
    assert terms == ["quick", "brown", "fox", "jumped"]
    assert positions == [1, 2, 3, 4]  # hole at position 0 ("the")


def test_analyze_interior_holes():
    terms, positions = analyze("ray is the fast engine")
    assert terms == ["ray", "fast", "engine"]
    assert positions == [0, 3, 4]


def test_analyze_all_stopwords():
    terms, positions = analyze("the and of to is")
    assert terms == []
    assert positions == []


def test_stopword_case_sensitive_after_lowercase():
    # stop filter runs after lowercase: "The" and "THE" are both dropped
    terms, _ = analyze("The THE the tHe")
    assert terms == []


# --- ASCII fast path == full Unicode path ---

ascii_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=80)


@given(ascii_text)
@settings(max_examples=500, deadline=None)
def test_ascii_fast_path_equivalence(text):
    tok = StandardTokenizer()
    fast = tok.tokenize(text)
    # force the Unicode path by appending a non-ASCII char the scanner ignores
    # (U+00A0 NBSP is WB=Other -> dropped, changes no tokens)
    slow = tok.tokenize(text + " ")
    assert fast == slow


@given(ascii_text)
@settings(max_examples=200, deadline=None)
def test_types_consistent_between_paths(text):
    tok = StandardTokenizer()
    fast = [(t.text, t.type) for t in tok.tokenize_full(text)]
    slow = [(t.text, t.type) for t in tok.tokenize_full(text + " ")]
    assert fast == slow


# --- build front end == per-doc analyze() ---

_piece = st.one_of(
    st.text(alphabet="aZq09_.,:;'-/!?()@\" \t\n", min_size=1, max_size=12),
    st.sampled_from(sorted(ENGLISH_STOP_WORDS) + ["The", "AND", "e.g.",
                                                  "1,000", "o'neill's"]),
    # runs around and over the 255-char token limit
    st.builds(lambda run, n: run * n, st.sampled_from(["a", "Z7", "x_"]),
              st.integers(120, 300)),
)
_doc = st.one_of(st.none(), st.just(""),
                 st.lists(_piece, max_size=10).map("".join))
_docs = st.lists(_doc, min_size=1, max_size=8).map(
    lambda docs: docs + ["Ünïcode café " + (docs[0] or "")])


def _postings_by_analyze(analyzer, text):
    terms, positions = analyzer.analyze(text or "")
    postings: dict[str, list[int]] = {}
    for t, p in zip(terms, positions):
        postings.setdefault(t, []).append(p)
    return len(terms), postings


@pytest.mark.parametrize("analyzer", [
    get_analyzer("standard"), get_analyzer("standard_nostop"),
    StandardAnalyzer(max_token_length=10)],
    ids=["standard", "standard_nostop", "max_token_length_10"])
@given(texts=_docs)
@settings(max_examples=150, deadline=None)
def test_build_front_end_matches_analyze(analyzer, texts):
    """``tokenize_table`` (the Arrow front end plus its per-doc fallback)
    gives every doc exactly ``analyze()``'s terms, freqs, positions,
    doc_len and norm byte."""
    n = len(texts)
    out = tokenize_table(pa.table({
        "doc_id": pa.array(range(n), type=pa.int64()),
        "doc_shard": pa.array([0] * n, type=pa.int32()),
        "conv_id": pa.array(["c"] * n),
        "turn_idx": pa.array(range(n), type=pa.int32()),
        "text": pa.array(texts, type=pa.string()),
    }), analyzer)
    for text, row in zip(texts, out.to_pylist()):
        doc_len, want = _postings_by_analyze(analyzer, text)
        got, pos = {}, iter(row["pos_flat"])
        for term, freq in zip(row["terms"], row["freqs"]):
            got[term] = [next(pos) for _ in range(freq)]
        assert got == want, text
        assert row["doc_len"] == doc_len
        assert row["norm_byte"] == int(
            encode_norm(np.array([max(doc_len, 1)]))[0])


unicode_text = st.text(
    alphabet=st.characters(min_codepoint=1, max_codepoint=0x2FFFF,
                           blacklist_categories=("Cs",)), max_size=60)


@given(unicode_text)
@settings(max_examples=300, deadline=None)
def test_tokenizer_never_crashes_on_unicode(text):
    tok = StandardTokenizer()
    tokens = tok.tokenize(text)
    assert all(isinstance(t, str) and t for t in tokens)
    # analyzer chain also holds and positions stay monotone
    terms, positions = StandardAnalyzer().analyze(text)
    assert len(terms) == len(positions)
    assert positions == sorted(positions)


# --- UAX29URLEmailTokenizer (email/URL-aware variant) ---

def test_url_email_tokenizer_keeps_addresses_whole():
    from lucene_solr_ray.analysis.tokenizer import (
        EMAIL,
        URL,
        UAX29URLEmailTokenizer,
    )

    t = UAX29URLEmailTokenizer()
    out = t.tokenize_full("mail bob.smith+tag@example.co.uk or "
                          "https://ray.io/docs?x=1 now")
    texts = [tok.text for tok in out]
    assert "bob.smith+tag@example.co.uk" in texts
    assert "https://ray.io/docs?x=1" in texts
    types = {tok.text: tok.type for tok in out}
    assert types["bob.smith+tag@example.co.uk"] == EMAIL
    assert types["https://ray.io/docs?x=1"] == URL
    assert texts[0] == "mail" and texts[-1] == "now"
    # offsets are absolute in the original string
    for tok in out:
        assert ("mail bob.smith+tag@example.co.uk or "
                "https://ray.io/docs?x=1 now")[tok.start:tok.end] == tok.text


def test_url_email_tokenizer_www_and_gap_text():
    from lucene_solr_ray.analysis.tokenizer import UAX29URLEmailTokenizer

    t = UAX29URLEmailTokenizer()
    assert t.tokenize("see www.example.com, thanks") == \
        ["see", "www.example.com", "thanks"]
    # trailing sentence punctuation stays out of the URL
    assert t.tokenize("go to http://a.b/c.") == ["go", "to", "http://a.b/c"]


def test_url_email_analyzer_chain():
    from lucene_solr_ray.analysis import get_analyzer

    an = get_analyzer("uax29_url_email")
    terms, positions = an.analyze("The page HTTPS://Example.COM/A is live")
    # lowercase filter applies to URL tokens; stopwords still dropped
    assert "https://example.com/a" in terms
    assert "the" not in terms
    # plain text through the same analyzer matches the standard chain
    std = get_analyzer("standard")
    assert an.analyze("ray data builds indexes") == \
        std.analyze("ray data builds indexes")


def test_analyze_debug_stages():
    """FieldAnalysisRequestHandler analog: per-stage streams, final stage
    == analyze()."""
    from lucene_solr_ray.analysis import get_analyzer
    from lucene_solr_ray.analysis.analyzer import analyze_debug

    text = "The Quick-Brown foxes JUMPED"
    stages = analyze_debug(text, "standard")
    names = [s["stage"] for s in stages]
    assert names == ["StandardTokenizer", "LowerCaseFilter", "StopFilter"]
    # tokenizer stage keeps case, stop stage drops 'the' with a hole
    assert stages[0]["tokens"][0][0] == "The"
    assert stages[1]["tokens"][0][0] == "the"
    final = stages[-1]["tokens"]
    terms, positions = get_analyzer("standard").analyze(text)
    assert final == list(zip(terms, positions))
    # custom chain exposes each filter by name
    stages2 = analyze_debug("Running QUICKLY", "english_stemmed")
    assert [s["stage"] for s in stages2][0] == "StandardTokenizer"
    assert len(stages2) == 4  # tokenizer + 3 filters
    terms2, pos2 = get_analyzer("english_stemmed").analyze("Running QUICKLY")
    assert stages2[-1]["tokens"] == list(zip(terms2, pos2))
