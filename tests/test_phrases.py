import random
import tracemalloc

import pytest

from minismt import align, corpus, phrases, pipeline
from minismt.align import NULL_WORD, AlignmentMatrix, TranslationLexicon
from minismt.corpus import SentencePair
from minismt.cli import main
from minismt.errors import FormatError, ParameterError, TrainingError

from conftest import random_alignment
from oracles import brute_force_extract


def _pair(n, m):
    return SentencePair(tuple("f%d" % i for i in range(n)), tuple("e%d" % j for j in range(m)))


def _mat(links, n, m):
    return AlignmentMatrix(frozenset(links), n, m)


def _entries(table):
    """{(source, target): Scores} read back off the table's source index."""
    return {(src, tgt): s for src, options in table.by_source.items() for tgt, s in options}


# ---- extraction -------------------------------------------------------------


def test_extract_smallest_case():
    pair = _pair(1, 1)
    got = phrases.extract(pair, _mat({(0, 0)}, 1, 1), 7)
    assert {(p.source, p.target) for p in got} == {(("f0",), ("e0",))}


def test_extract_monotone_diagonal():
    pair = _pair(2, 2)
    got = phrases.extract(pair, _mat({(0, 0), (1, 1)}, 2, 2), 7)
    assert {(p.source, p.target) for p in got} == {
        (("f0",), ("e0",)),
        (("f1",), ("e1",)),
        (("f0", "f1"), ("e0", "e1")),
    }


def test_extract_unaligned_word_extension():
    # target word e1 unaligned between two links
    pair = _pair(2, 3)
    alignment = _mat({(0, 0), (1, 2)}, 2, 3)
    assert phrases.extract(pair, alignment, 7) == brute_force_extract(pair, alignment, 7)


def test_extract_equals_bruteforce_random():
    rng = random.Random(13)
    for trial in range(80):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        pair = _pair(n, m)
        alignment = _mat(random_alignment(rng, n, m), n, m)
        L = rng.choice([2, 3, 7])
        assert phrases.extract(pair, alignment, L) == brute_force_extract(
            pair, alignment, L
        ), (trial, sorted(alignment.links), L)


def test_extract_equals_bruteforce_with_spans_wider_than_max_len():
    """Longer pairs and max_len down to 1, so that the links of a target window
    often span more than max_len source words and the window stops early."""
    rng = random.Random(15)
    wide = 0
    for trial in range(300):
        n, m = rng.randint(1, 12), rng.randint(1, 12)
        pair = _pair(n, m)
        alignment = _mat(random_alignment(rng, n, m), n, m)
        L = rng.choice([1, 2, 3, 7])
        got = phrases.extract(pair, alignment, L)
        want = brute_force_extract(pair, alignment, L)
        assert got == want, (trial, sorted(alignment.links), L)
        # each link set iterates as the oracle's, which filters `links` in its
        # order; the lexical weights sum the links in that order
        order = {(pp.source_span, pp.target_span): list(pp.links) for pp in want}
        assert all(list(pp.links) == order[pp.source_span, pp.target_span] for pp in got)
        wide += any(abs(j - jj) < L <= abs(i - ii)
                    for i, j in alignment.links for ii, jj in alignment.links)
    assert wide >= 100


def test_extract_every_pair_has_a_link():
    rng = random.Random(14)
    for _ in range(20):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        pair = _pair(n, m)
        alignment = _mat(random_alignment(rng, n, m), n, m)
        for pp in phrases.extract(pair, alignment, 7):
            assert pp.links


def test_extract_respects_max_len():
    pair = _pair(4, 4)
    alignment = _mat({(i, i) for i in range(4)}, 4, 4)
    for pp in phrases.extract(pair, alignment, 2):
        assert len(pp.source) <= 2 and len(pp.target) <= 2


def test_extract_bad_max_len():
    with pytest.raises(ParameterError):
        phrases.extract(_pair(1, 1), _mat({(0, 0)}, 1, 1), 0)


# ---- scoring ----------------------------------------------------------------


def _uniform_lexicons(sources, targets):
    fwd = {f: {e: 0.5 for e in targets} for f in sources + [NULL_WORD]}
    bwd = {e: {f: 0.5 for f in sources} for e in targets + [NULL_WORD]}
    for row in bwd.values():
        row.update({f: 0.5 for f in sources})
    return TranslationLexicon(fwd), TranslationLexicon(bwd)


def test_score_single_pair():
    pair = _pair(1, 1)
    extracted = [phrases.extract(pair, _mat({(0, 0)}, 1, 1), 7)]
    fwd, bwd = _uniform_lexicons(["f0"], ["e0"])
    table = phrases.score(extracted, fwd, bwd)
    scores = _entries(table)[(("f0",), ("e0",))]
    assert scores.phi_fwd == 1.0 and scores.phi_rev == 1.0


def test_score_relative_frequencies():
    src, tgt_a, tgt_b = ("s",), ("a",), ("b",)
    pp = lambda tgt: phrases.PhrasePair(src, tgt, (0, 0), (0, 0), frozenset({(0, 0)}))
    extracted = [[pp(tgt_a)] for _ in range(3)] + [[pp(tgt_b)]]
    fwd, bwd = _uniform_lexicons(["s"], ["a", "b"])
    table = phrases.score(extracted, fwd, bwd)
    assert _entries(table)[(src, tgt_a)].phi_fwd == pytest.approx(0.75)
    assert _entries(table)[(src, tgt_b)].phi_fwd == pytest.approx(0.25)
    assert _entries(table)[(src, tgt_a)].phi_rev == 1.0


def test_lexical_weight_degenerate_1x1():
    fwd = TranslationLexicon({"s": {"t": 0.37}, NULL_WORD: {"t": 0.01}})
    bwd = TranslationLexicon({"t": {"s": 0.21}, NULL_WORD: {"s": 0.02}})
    pp = phrases.PhrasePair(("s",), ("t",), (0, 0), (0, 0), frozenset({(0, 0)}))
    table = phrases.score([[pp]], fwd, bwd)
    scores = _entries(table)[(("s",), ("t",))]
    assert scores.lex_fwd == 0.37
    assert scores.lex_rev == 0.21


def test_lexical_weight_unaligned_scores_against_null():
    fwd = TranslationLexicon({"s": {"t": 0.4, "u": 0.6}, NULL_WORD: {"t": 0.4, "u": 0.25}})
    bwd = TranslationLexicon({"t": {"s": 0.5}, "u": {"s": 0.5}, NULL_WORD: {"s": 0.125}})
    pp = phrases.PhrasePair(("s",), ("t", "u"), (0, 0), (0, 1), frozenset({(0, 0)}))
    table = phrases.score([[pp]], fwd, bwd)
    scores = _entries(table)[(("s",), ("t", "u"))]
    assert scores.lex_fwd == pytest.approx(0.4 * 0.25)  # u unaligned -> null word
    assert scores.lex_rev == pytest.approx(0.5)  # s linked only to t


def test_lexical_weight_averages_multiple_links():
    fwd = TranslationLexicon({"s": {"t": 0.4}, "r": {"t": 0.2}, NULL_WORD: {"t": 0.1}})
    bwd = TranslationLexicon({"t": {"s": 0.3, "r": 0.6}, NULL_WORD: {"s": 0.05, "r": 0.01}})
    pp = phrases.PhrasePair(("s", "r"), ("t",), (0, 1), (0, 0), frozenset({(0, 0), (1, 0)}))
    table = phrases.score([[pp]], fwd, bwd)
    scores = _entries(table)[(("s", "r"), ("t",))]
    assert scores.lex_fwd == pytest.approx((0.4 + 0.2) / 2)
    assert scores.lex_rev == pytest.approx(0.3 * 0.6)  # each source word linked to t


def test_score_refuses_a_zero_lexical_weight(tmp_path, capsys, monkeypatch):
    """A lexicon that lacks a linked word pair would give a table that
    read_table refuses, so extract stops with one error line and no table."""
    fwd = TranslationLexicon({"s": {"u": 1.0}, NULL_WORD: {"t": 0.5}})
    bwd = TranslationLexicon({"t": {"s": 1.0}, NULL_WORD: {"s": 0.5}})
    pp = phrases.PhrasePair(("s",), ("t",), (0, 0), (0, 0), frozenset({(0, 0)}))
    with pytest.raises(TrainingError, match="'s' \\|\\|\\| 't'"):
        phrases.score([[pp]], fwd, bwd)
    files = {"src": "a b\n", "tgt": "x y\n", "al": "0-0 1-1\n",
             "fwd": "a\tx\t1\n<null>\tx\t0.5\n<null>\ty\t0.5\n",
             "bwd": "x\ta\t1\ny\tb\t1\n<null>\ta\t0.5\n<null>\tb\t0.5\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main("extract --source src --target tgt --alignments al --lex-fwd fwd --lex-bwd bwd "
                "-o table".split()) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR data: "), err
    assert not (tmp_path / "table").exists()


def test_extract_refuses_a_phrase_holding_the_field_separator(tmp_path, capsys, monkeypatch):
    """A token ||| would split a table line into more than three fields, a
    table decode refuses, so extract stops with one error line and no table."""
    corpus_files = {"src": "a ||| b\nc d\na c\n", "tgt": "x y z\nu v\nx v\n"}
    for name, text in corpus_files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main("align --source src --target tgt -o al".split()) == 0
    capsys.readouterr()
    assert main("extract --source src --target tgt --alignments al --lex-fwd al.lex.fwd "
                "--lex-bwd al.lex.bwd -o table".split()) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR data: "), err
    assert "|||" in err[0]
    assert not (tmp_path / "table").exists()


def test_phi_distributions_normalize(toy_train):
    rng = random.Random(21)
    pairs = toy_train.pairs[:60]
    extracted = []
    for pair in pairs:
        links = random_alignment(rng, len(pair.source), len(pair.target))
        extracted.append(
            phrases.extract(pair, _mat(links, len(pair.source), len(pair.target)), 4)
        )
    sources = sorted({w for p in pairs for w in p.source})
    targets = sorted({w for p in pairs for w in p.target})
    fwd, bwd = _uniform_lexicons(sources, targets)
    table = phrases.score(extracted, fwd, bwd)
    by_source, by_target = {}, {}
    for (src, tgt), scores in _entries(table).items():
        by_source.setdefault(src, 0.0)
        by_source[src] += scores.phi_fwd
        by_target.setdefault(tgt, 0.0)
        by_target[tgt] += scores.phi_rev
    for total in list(by_source.values()) + list(by_target.values()):
        assert total == pytest.approx(1.0, abs=1e-6)


def _peak_bytes(fn):
    """fn's tracemalloc peak, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_phrases_stage_streams_the_list_forms_table(tmp_path, toy_paths):
    """stage_phrases writes the bytes of write_table(score(extract_corpus(...)))
    while holding under half the memory, since no pair's set outlives it."""
    src, tgt = toy_paths["train_en"], toy_paths["train_ar"]
    al, fwd, bwd = tmp_path / "al", tmp_path / "fwd", tmp_path / "bwd"
    pipeline.stage_align(src, tgt, al, fwd, bwd, iterations=2, heuristic="grow-diag-final")
    streamed, listed = tmp_path / "streamed", tmp_path / "listed"

    def list_form():
        corp = corpus.load_parallel(src, tgt)
        matrices = list(align.read_alignments(al, corp))
        table = phrases.score(phrases.extract_corpus(corp, matrices, 7),
                              align.read_lexicon(fwd), align.read_lexicon(bwd))
        phrases.write_table(table, listed)

    stream_peak = _peak_bytes(
        lambda: pipeline.stage_phrases(src, tgt, al, fwd, bwd, streamed, max_len=7))
    list_peak = _peak_bytes(list_form)
    assert streamed.read_bytes() == listed.read_bytes()
    assert stream_peak < list_peak / 2, (stream_peak, list_peak)


# ---- distortion ---------------------------------------------------------------


def test_distortion_cost_cases():
    assert phrases.distortion_cost(1, 2) == 0  # monotone adjacency
    assert phrases.distortion_cost(1, 4) == 2  # skip forward by two
    assert phrases.distortion_cost(2, 0) == 3  # jump back across three positions
    assert phrases.distortion_cost(-1, 0) == 0  # sentence-initial monotone


def test_distortion_symmetric_in_displacement():
    for prev_end in range(5):
        for ahead in range(1, 4):
            fwd = phrases.distortion_cost(prev_end, prev_end + 1 + ahead)
            bwd = phrases.distortion_cost(prev_end, prev_end + 1 - ahead)
            assert fwd == bwd == ahead


# ---- table io -------------------------------------------------------------------


def test_table_write_read_round_trip(tmp_path):
    entries = {
        (("a",), ("x",)): phrases.Scores(0.5, 0.25, 1.0, 0.125),
        (("a",), ("y",)): phrases.Scores(0.5, 0.5, 1.0, 0.5),
        (("a", "b"), ("x", "y")): phrases.Scores(1.0, 0.0625, 1.0, 0.03125),
    }
    table = phrases.PhraseTable(entries)
    path = tmp_path / "pt"
    phrases.write_table(table, path)
    text = path.read_text(encoding="utf-8")
    assert "a ||| x ||| 0.5 0.25 1 0.125" in text
    keys = [
        (tuple(line.split(" ||| ")[0].split()), tuple(line.split(" ||| ")[1].split()))
        for line in text.splitlines()
    ]
    assert keys == sorted(keys)  # sorted by source then target, as token tuples
    back = phrases.read_table(path)
    assert _entries(back) == entries
    assert len(back) == 3 and back.max_source_len == 2


def test_table_prune_keeps_best_by_phi(tmp_path):
    # three targets more than the limit; t20 and t21 tie at the cut, where
    # the smaller target wins
    limit = phrases.TABLE_PRUNE_LIMIT
    phis = [0.05] + [0.9 - 0.01 * i for i in range(limit - 1)] + [0.5, 0.5, 0.1]
    entries = {
        (("a",), ("t%02d" % i,)): phrases.Scores(p, 0.5, 0.5, 0.5)
        for i, p in enumerate(phis)
    }
    table = phrases.PhraseTable(entries)
    path = tmp_path / "pt"
    phrases.write_table(table, path)
    kept = [line.split(" ||| ")[1] for line in path.read_text().splitlines()]
    assert sorted(kept) == kept and len(kept) == limit
    assert set(kept) == {"t%02d" % i for i in range(1, limit + 1)}


def test_table_rejects_bad_lines(tmp_path):
    path = tmp_path / "pt"
    path.write_text("a ||| x ||| 0.5 0.5\n", encoding="utf-8")
    with pytest.raises(FormatError):
        phrases.read_table(path)
    path.write_text("a ||| x ||| 0.5 0.5 1.5 0.5\n", encoding="utf-8")
    with pytest.raises(FormatError):
        phrases.read_table(path)
