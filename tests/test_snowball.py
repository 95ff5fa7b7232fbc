"""Snowball stemmers vs the reference's full TestSnowballVocab goldens
(lucene/analysis/common/src/test/.../snowball/TestSnowballVocabData.zip):
every vocabulary word must stem to exactly the reference output. Where
the reference tree is absent those cases skip, and an in-repo regression
golden (a generated word list per language, pinned by the SHA-256 of the
stemmer output that matched every reference word) still guards the
stemmers."""

import hashlib
import io
import os
import random
import zipfile

import pytest

from lucene_solr_ray.analysis.snowball import SNOWBALL_STEMS

ZIP = ("/root/reference/lucene/analysis/common/src/test/org/apache/"
       "lucene/analysis/snowball/TestSnowballVocabData.zip")


def _vocab(lang: str):
    with zipfile.ZipFile(ZIP) as z:
        # splitlines, not split: the porter golden stems 's' to the
        # EMPTY string, which split() would silently drop
        voc = io.TextIOWrapper(z.open(f"{lang}/voc.txt"),
                               encoding="utf-8").read().splitlines()
        out = io.TextIOWrapper(z.open(f"{lang}/output.txt"),
                               encoding="utf-8").read().splitlines()
        while voc and voc[-1] == "":     # trailing blank lines only
            voc.pop()
        while out and len(out) > len(voc):
            out.pop()
    assert len(voc) == len(out) and len(voc) > 10000
    return voc, out


@pytest.mark.skipif(not os.path.exists(ZIP),
                    reason="reference TestSnowballVocabData.zip not present")
@pytest.mark.parametrize("lang", sorted(SNOWBALL_STEMS))
def test_full_vocab_golden(lang):
    stem = SNOWBALL_STEMS[lang]
    voc, out = _vocab(lang)
    bad = [(v, o, stem(v)) for v, o in zip(voc, out) if stem(v) != o]
    assert not bad, (len(bad), bad[:10])


_LATIN = "abcdefghijklmnopqrstuvwxyz"
ALPHABETS = {
    "danish": _LATIN + "æøå", "dutch": _LATIN + "äëïöüáéíóú",
    "english": _LATIN, "finnish": _LATIN + "äö",
    "french": _LATIN + "àâäçéèêëîïôöùûüÿœ", "german": _LATIN + "äöüß",
    "german2": _LATIN + "äöüß", "hungarian": _LATIN + "áéíóöőúüű",
    "italian": _LATIN + "àèéìíîòóùú", "lovins": _LATIN,
    "norwegian": _LATIN + "æøå", "porter": _LATIN,
    "portuguese": _LATIN + "áâãàçéêíóôõú", "romanian": _LATIN + "ăâîşţșț",
    "russian": "абвгдеёжзийклмнопрстуфхцчшщъыьэюя",
    "spanish": _LATIN + "áéíóúüñ", "swedish": _LATIN + "åäö",
}
#: SHA-256 of "\n".join(stem(w) for w in _words(lang)), recorded from the
#: stemmers that reproduce all 548,610 reference golden words
STEM_SHA256 = {
    "danish":
        "0d3cdf7ec0b0b7a932b60eeb644c4a59951cdc050fec5e798006781987dc1f81",
    "dutch":
        "6f58bf2aade1cae503c4a62639fd215ba1239e1507eed27909a86c546a57c314",
    "english":
        "be96ed0ab185f411f4472e68676c9b2479a2219343f68f18baa5c1bc06182fa7",
    "finnish":
        "9362388b070bbd296a11cfa7b1a6aa778e94f6a567662d6b466260f8a48a4513",
    "french":
        "1f3fd59db8fdddfa4fa39cc6daa025612a88db65011d11d058543ccc2d6f7dc6",
    "german":
        "e2760602f61167b1b523a97244baa97cf0965ec6370195c6198e2a6430199c94",
    "german2":
        "54354e98e1c79ca590793e1062a9bb28f7d82296dd66c8704872cc800928a7e2",
    "hungarian":
        "8b3673653e1ade06bf44cd629b53e121275a779e39648e1498cb0853d61ff429",
    "italian":
        "c8372220d8678b57c15abdef8a359a590c55c3d014bdd1935e3f097b925a0c0f",
    "lovins":
        "dc3a79b547a9dce279839adb9c5a69cf013cab04f877569543273ca460f8a3a0",
    "norwegian":
        "f9cd4653b3afdd7115008e716903304d745f7c8e54f77b57a384f53ae0f7f21e",
    "porter":
        "14e658340d7151da5ccb064a176c7158e68d0ee14d98a88a46555040ba04dc16",
    "portuguese":
        "ed9eea0be80a0edb54ebe61e38328dd41cd317ba6585c4dee64f2450e996d120",
    "romanian":
        "cdbaa034f327d4c0a4042008f712920f8a967b440abcaef5eefc4d733d636aef",
    "russian":
        "bbecd8ca4f87c7d6c4badb85e78354f396033d9063b09225bca2df1f8492b0a8",
    "spanish":
        "edf12adae4b532368272213d1a8c9267eb7a1838761eac4d835963290674f205",
    "swedish":
        "a0297255eb0901576f7ee63a10bfa8c011336709031e72d28626fe945e6a1dc9",
}


def _words(lang: str, n: int = 4000) -> list[str]:
    """Deterministic pseudo-words over the language's alphabet, with
    vowels over-weighted so suffix and R1/R2 region rules fire."""
    rng = random.Random(f"snowball-{lang}")
    alphabet = ALPHABETS[lang]
    vowels = "".join(c for c in alphabet if c in
                     "aeiouyäöüåæøáéíóúàèìòùâêîôûãõëïÿœőűăаеёиоуыэюя")
    pool = alphabet + vowels * 2
    return ["".join(rng.choice(pool) for _ in range(rng.randint(1, 15)))
            for _ in range(n)]


@pytest.mark.parametrize("lang", sorted(SNOWBALL_STEMS))
def test_generated_vocab_regression(lang):
    stem = SNOWBALL_STEMS[lang]
    digest = hashlib.sha256("\n".join(
        stem(w) for w in _words(lang)).encode()).hexdigest()
    assert digest == STEM_SHA256[lang]


def test_registered_chains():
    from lucene_solr_ray.analysis import get_analyzer

    a = get_analyzer("german_stemmed")
    assert a.analyze_terms("Die Bäuerinnen arbeiten") == \
        ["die", "bauerinn", "arbeit"]
    f = get_analyzer("french_stemmed")
    assert f.analyze_terms("les bibliothèques nationales") == \
        ["le", "bibliothequ", "national"]
    s = get_analyzer("spanish_stemmed")
    # 'rap' is the reference golden for rápidas (TestSnowballVocabData)
    assert s.analyze_terms("las comunicaciones rápidas") == \
        ["las", "comun", "rap"]
