import logging
import random
import unicodedata

import pytest

from minismt import artok
from minismt.artok import Scheme
from minismt.errors import FormatError

# Buckwalter fixture sentences (undiacritized by convention)
BW_SENTENCES = [
    "wAlktAb Aljdyd jmyl .",
    ">qrA Alrjl AlktAb llwld ?",
    "$Ahd AlTfl Swrp bAlmdrsp .",
    "ktAbhA Sgyr w ktAbnA kbyr .",
    "zArt Albnt Hdyqp Almdynp hnAk .",
    "fqrA Alwld qSp llmElm .",
    "dxl AlmElm Albyt wAlHdyqp .",
    "qrAt bnthm AlqSp fy Albyt .",
]

# Arabic-script fixtures, NFC-composed, some fully diacritized
AR_SENTENCES = [
    "وَالْكِتَابُ الجَدِيدُ جَمِيلٌ .",
    "قَرَأَ الوَلَدُ القِصَّةَ فِي البَيْتِ .",
    "أَقَرَأَ الرَّجُلُ الكِتَابَ لِلْوَلَدِ ؟",
    "شَاهَدْنَا النَّهْرَ وَالْجَبَلَ هُنَاكَ .",
    "زَارَتِ البِنْتُ مَدْرَسَةَ المَدِينَةِ .",
    "كِتَابُهَا صَغِيرٌ وَكِتَابُنَا كَبِيرٌ .",
    "فَتَحَ الطِّفْلُ البَابَ وَدَخَلَ البَيْتَ .",
    "والكتاب القديم للمعلم .",
]

_ARABIC_BLOCK = ("؀", "ۿ")


def _category_oracle_strip(text):
    """Per-codepoint oracle: drop Arabic-block nonspacing marks."""
    return "".join(
        ch
        for ch in text
        if not (_ARABIC_BLOCK[0] <= ch <= _ARABIC_BLOCK[1] and unicodedata.category(ch) == "Mn")
    )


def scheme_normal_form(token, scheme):
    if scheme is Scheme.MYD3:
        return artok.normalize(artok.dediacritize(token))
    return artok.normalize(token)


# ---- dediacritize ------------------------------------------------------


def test_dediacritize_identity_without_marks():
    assert artok.dediacritize("ktAb jdyd") == "ktAb jdyd"
    assert artok.dediacritize("كتاب") == "كتاب"


def test_dediacritize_fatha_skeleton():
    assert artok.dediacritize("كَتَبَ") == "كتب"
    assert artok.dediacritize("مُدَرِّسَةٌ") == "مدرسة"


def test_dediacritize_matches_category_oracle():
    for sentence in AR_SENTENCES:
        assert artok.dediacritize(sentence) == _category_oracle_strip(sentence)


def test_dediacritize_mixed_script():
    mixed = "abc كَتَبَ def é"
    out = artok.dediacritize(mixed)
    assert out == "abc كتب def é"
    # every non-Arabic codepoint untouched
    assert [c for c in out if not ("؀" <= c <= "ۿ")] == [
        c for c in mixed if not ("؀" <= c <= "ۿ")
    ]


# ---- normalize ---------------------------------------------------------


def test_normalize_bare_alif_unchanged():
    assert artok.normalize("ال") == "ال"
    assert artok.normalize("Al") == "Al"


def test_normalize_alif_variants():
    assert artok.normalize("آكل") == "اكل"  # madda
    assert artok.normalize("أكل") == "اكل"  # hamza above
    assert artok.normalize("إلى") == "الي"  # hamza below + final alif maqsura
    assert artok.normalize(">klh") == "Aklh"
    assert artok.normalize("|n") == "An"


def test_normalize_final_ya_only():
    assert artok.normalize("رمى") == "رمي"
    assert artok.normalize("رمىها") == "رمىها"  # internal alif maqsura stays
    assert artok.normalize("mdY") == "mdy"
    # the word-final test skips trailing diacritics
    assert artok.normalize("رمىً") == "رميً"


def test_normalize_idempotent_and_commutes():
    rng = random.Random(7)
    samples = AR_SENTENCES + BW_SENTENCES
    for _ in range(50):
        s = rng.choice(samples)
        n = artok.normalize(s)
        assert artok.normalize(n) == n
        d = artok.dediacritize(s)
        assert artok.dediacritize(artok.normalize(s)) == artok.normalize(d)
        dd = artok.dediacritize(d)
        assert dd == d


def test_normalize_preserves_length():
    for s in AR_SENTENCES:
        assert len(artok.normalize(s)) == len(s)


# ---- inventory and lexicon ---------------------------------------------


def test_inventory_load_and_classes(bw_inventory):
    assert "w" in bw_inventory.proclitics["CONJ"]
    assert "Al" in bw_inventory.proclitics["DET"]
    assert ">" in bw_inventory.proclitics["QUES"]
    assert "hA" in bw_inventory.enclitics


def test_inventory_rejects_overlapping_classes(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("w\tCONJ\nw\tPART\n", encoding="utf-8")
    with pytest.raises(FormatError):
        artok.CliticInventory.load(bad)


def test_inventory_rejects_unknown_class(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("w\tWEIRD\n", encoding="utf-8")
    with pytest.raises(FormatError):
        artok.CliticInventory.load(bad)


def test_a_lexicon_line_ends_at_newline_only(tmp_path):
    # as in a corpus, a lone "\r" is part of its line, not a line break
    path = tmp_path / "stems.txt"
    path.write_bytes(b"ktAb\rqlm\n")
    assert artok.load_lexicon(path) == frozenset({"ktAb\rqlm"})


# ---- tokenize -----------------------------------------------------------


def tok1(token, scheme, inv, lex):
    return artok.tokenize((token,), scheme, inv, lex)


def test_atb_keeps_article(bw_inventory, bw_lexicon):
    assert tok1("wAlktAb", Scheme.ATB, bw_inventory, bw_lexicon) == ("w+", "AlktAb")


def test_myd3_splits_article(bw_inventory, bw_lexicon):
    assert tok1("wAlktAb", Scheme.MYD3, bw_inventory, bw_lexicon) == ("w+", "Al+", "ktAb")


def test_no_clitic_token_passthrough(bw_inventory, bw_lexicon):
    for scheme in Scheme:
        assert tok1("jdyd", scheme, bw_inventory, bw_lexicon) == ("jdyd",)
        assert tok1(".", scheme, bw_inventory, bw_lexicon) == (".",)


def test_lexicon_blocks_false_splits(bw_inventory, bw_lexicon):
    # ktAb is a known stem, so the particle reading k+tAb loses
    assert tok1("ktAb", Scheme.MYD3, bw_inventory, bw_lexicon) == ("ktAb",)
    assert tok1("ktAbh", Scheme.MYD3, bw_inventory, bw_lexicon) == ("ktAb", "+h")
    assert tok1("fy", Scheme.MYD3, bw_inventory, bw_lexicon) == ("fy",)


def test_enclitics_and_particles(bw_inventory, bw_lexicon):
    assert tok1("bAlbyt", Scheme.MYD3, bw_inventory, bw_lexicon) == ("b+", "Al+", "byt")
    assert tok1("bAlbyt", Scheme.ATB, bw_inventory, bw_lexicon) == ("b+", "Albyt")
    assert tok1("ktAbhm", Scheme.ATB, bw_inventory, bw_lexicon) == ("ktAb", "+hm")
    assert tok1(">qrA", Scheme.ATB, bw_inventory, bw_lexicon) == ("A+", "qrA")


def test_lam_article_contraction(bw_inventory, bw_lexicon):
    assert tok1("llktAb", Scheme.MYD3, bw_inventory, bw_lexicon) == ("l+", "Al+", "ktAb")
    # ATB cannot split the article: the bare lam analysis remains
    assert tok1("llktAb", Scheme.ATB, bw_inventory, bw_lexicon) == ("l+", "lktAb")


def test_atb_keeps_diacritics_myd3_strips(ar_inventory, ar_lexicon):
    token = "وَالْكِتَابُ"
    atb = tok1(token, Scheme.ATB, ar_inventory, ar_lexicon)
    myd3 = tok1(token, Scheme.MYD3, ar_inventory, ar_lexicon)
    assert atb == ("وَ+", "الْكِتَابُ")
    assert myd3 == ("و+", "ال+", "كتاب")


def test_tokenize_normalizes_hamza(ar_inventory, ar_lexicon):
    # the question particle is recognized before normalization
    assert tok1("أزار", Scheme.MYD3, ar_inventory, ar_lexicon) == ("ا+", "زار")


@pytest.mark.parametrize("scheme", list(Scheme))
def test_tokenize_all_equals_segmenting_each_token(toy_train, bw_inventory, bw_lexicon, scheme):
    sentences = [p.target for p in toy_train.pairs]
    got = list(artok.tokenize_all(iter(sentences), scheme, bw_inventory, bw_lexicon))
    assert got == [artok.tokenize(s, scheme, bw_inventory, bw_lexicon) for s in sentences]
    assert got == [
        tuple(seg for token in s
              for seg in artok.segment_token(token, scheme, bw_inventory, bw_lexicon))
        for s in sentences
    ]


def test_tokenize_all_warns_at_each_diacritics_only_token(caplog, ar_inventory, ar_lexicon):
    fatha = "َ"
    sentences = [(fatha, "كتاب"), (fatha,), ("كتاب", fatha, fatha)]
    with caplog.at_level(logging.WARNING):
        got = list(artok.tokenize_all(sentences, Scheme.MYD3, ar_inventory, ar_lexicon))
    assert got == [(fatha, "كتاب"), (fatha,), ("كتاب", fatha, fatha)]
    warnings = [r for r in caplog.records if "no characters left" in r.message]
    assert len(warnings) == 4


def test_marker_discipline(bw_inventory, bw_lexicon, ar_inventory, ar_lexicon):
    cases = [(s, bw_inventory, bw_lexicon) for s in BW_SENTENCES] + [
        (s, ar_inventory, ar_lexicon) for s in AR_SENTENCES
    ]
    for text, inv, lex in cases:
        for scheme in Scheme:
            out = artok.tokenize(tuple(text.split()), scheme, inv, lex)
            assert "+" not in out  # no bare marker tokens
            if scheme is Scheme.ATB:
                assert "Al+" not in out and "ال+" not in out
            det = [t for t in out if t in ("Al+", "ال+")]
            assert len(det) <= sum(1 for t in out if t.endswith("+"))
            for a, b in zip(out, out[1:]):
                assert not (a in ("Al+", "ال+") and b in ("Al+", "ال+"))


# ---- detokenize and round trip ------------------------------------------


def test_detokenize_examples():
    assert artok.detokenize(("w+", "AlktAb")) == ("wAlktAb",)
    assert artok.detokenize(("w+", "Al+", "ktAb")) == ("wAlktAb",)
    assert artok.detokenize(("l+", "Al+", "ktAb")) == ("llktAb",)
    assert artok.detokenize(("ktAb", "+h")) == ("ktAbh",)
    assert artok.detokenize(("jdyd", ".")) == ("jdyd", ".")


def test_detokenize_dangling_markers(caplog):
    with caplog.at_level(logging.WARNING):
        assert artok.detokenize(("w+",)) == ("w",)
    assert any("dangling" in r.message for r in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        assert artok.detokenize(("+h", "ktAb")) == ("h", "ktAb")
    assert any("dangling" in r.message for r in caplog.records)


def test_round_trip_all_fixtures(bw_inventory, bw_lexicon, ar_inventory, ar_lexicon):
    cases = [(s, bw_inventory, bw_lexicon) for s in BW_SENTENCES] + [
        (s, ar_inventory, ar_lexicon) for s in AR_SENTENCES
    ]
    for text, inv, lex in cases:
        sentence = tuple(text.split())
        for scheme in Scheme:
            tokenized = artok.tokenize(sentence, scheme, inv, lex)
            restored = artok.detokenize(tokenized)
            expected = tuple(scheme_normal_form(t, scheme) for t in sentence)
            assert restored == expected, (text, scheme)


def test_round_trip_preserves_token_count(toy_train, bw_inventory, bw_lexicon):
    for pair in toy_train.pairs[:200]:
        for scheme in Scheme:
            tokenized = artok.tokenize(pair.target, scheme, bw_inventory, bw_lexicon)
            assert len(artok.detokenize(tokenized)) == len(pair.target)


def _compose_surface(rng, inventory, stems):
    """Random well-ordered clitic composition over a lexicon stem."""
    token = rng.choice(stems)
    if rng.random() < 0.5 and inventory.enclitics:
        token = token + rng.choice(inventory.enclitics)
    use_det = rng.random() < 0.5 and inventory.proclitics["DET"]
    if use_det:
        det = rng.choice(inventory.proclitics["DET"])
        token = det + token
    for cls in ("PART", "CONJ", "QUES"):
        if rng.random() < 0.35 and inventory.proclitics.get(cls):
            clitic = rng.choice(inventory.proclitics[cls])
            is_lam = clitic in ("l", "ل")
            has_article = token.startswith(("Al", "ال"))
            if use_det and cls == "PART" and is_lam and has_article:
                token = clitic + token[1:]  # l + Al contracts to ll in writing
            else:
                token = clitic + token
            use_det = False  # contraction only applies adjacent to the article
    return token


def test_round_trip_fuzzed_compositions(bw_inventory, bw_lexicon, ar_inventory, ar_lexicon):
    rng = random.Random(8128)
    for inventory, lexicon in ((bw_inventory, bw_lexicon), (ar_inventory, ar_lexicon)):
        stems = sorted(lexicon)
        for _ in range(300):
            token = _compose_surface(rng, inventory, stems)
            for scheme in Scheme:
                restored = artok.detokenize(
                    artok.tokenize((token,), scheme, inventory, lexicon)
                )
                assert restored == (scheme_normal_form(token, scheme),), (token, scheme)
