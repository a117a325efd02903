import os
import random

import pytest

from minismt import align, corpus, parallel, pipeline
from minismt.align import NULL_WORD, AlignmentMatrix, TranslationLexicon
from minismt.cli import main
from minismt.errors import ParameterError, TrainingError

from oracles import em_train_reference


def make_corpus(*pairs):
    return corpus.ParallelCorpus(
        tuple(corpus.SentencePair(tuple(s.split()), tuple(t.split())) for s, t in pairs)
    )


# ---- EM ------------------------------------------------------------------


def test_forced_association():
    lex = align.em_train(make_corpus(("a", "x")), 1)
    assert lex.prob("x", "a") == 1.0
    assert lex.prob("x", NULL_WORD) == 1.0


def test_hand_run_em_prefers_cooccurrence():
    lex = align.em_train(make_corpus(("a b", "x y"), ("a", "x")), 3)
    assert lex.prob("x", "a") > lex.prob("y", "a")
    assert lex.prob("y", "b") > 0.0


def test_log_likelihood_non_decreasing():
    corp = make_corpus(("a b c", "x y"), ("b a", "y x"), ("c", "z"), ("a c", "x z"))
    lex = align.em_train(corp, 5)
    history = lex.log_likelihood_history
    assert len(history) == 5
    for earlier, later in zip(history, history[1:]):
        assert later >= earlier - 1e-9


def test_conditional_distributions_normalize():
    corp = make_corpus(("a b c", "x y"), ("b a", "y x"), ("c a", "z x"))
    lex = align.em_train(corp, 4)
    for given, row in lex.table.items():
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-6)


def _random_corpus(rng):
    """Words repeat within and across sentences, sides may be one word long,
    and the source and target vocabularies share a spelling ("x")."""
    def sentence(vocab):
        return tuple(rng.choice(vocab) for _ in range(rng.choice((1, 1, 2, 3, 4, 6))))
    return corpus.ParallelCorpus(tuple(
        corpus.SentencePair(sentence("abcdx"), sentence("xyzuv"))
        for _ in range(rng.randint(1, 12))))


@pytest.mark.parametrize("reverse", [False, True])
def test_em_equals_the_dict_of_dicts_reference(reverse):
    """The same floats, rows and row order as the plain dict-of-dicts EM."""
    rng = random.Random(1993)
    for trial in range(100):
        corp = _random_corpus(rng)
        if reverse:
            corp = align.transpose_corpus(corp)
        iterations = rng.randint(1, 5)
        got, want = align.em_train(corp, iterations), em_train_reference(corp, iterations)
        assert list(got.table.items()) == list(want.table.items()), trial
        for given, row in want.table.items():
            assert list(got.table[given].items()) == list(row.items()), (trial, given)
        assert got.log_likelihood_history == want.log_likelihood_history, trial


def test_em_errors():
    with pytest.raises(TrainingError):
        align.em_train(corpus.ParallelCorpus(()), 3)
    with pytest.raises(ParameterError):
        align.em_train(make_corpus(("a", "x")), 0)
    # its counts would go to the null word's row
    with pytest.raises(TrainingError, match="line 2 holds <null>, the null word's name"):
        align.em_train(make_corpus(("b c", "u v"), ("a <null>", "x y")), 2)


def test_align_corpus_on_one_and_two_cpus(monkeypatch, toy_train):
    """The two EM directions in two forked workers give the serial values."""
    corp = corpus.ParallelCorpus(toy_train.pairs[:200])
    em_train, parent = align.em_train, os.getpid()

    def em_in_a_worker(c, iterations):
        assert os.getpid() != parent
        return em_train(c, iterations)

    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(parallel, "_available_cpus", lambda: workers)
        if workers == 2:
            monkeypatch.setattr(align, "em_train", em_in_a_worker)
        matrices, fwd, bwd = align.align_corpus(corp, 3, "grow-diag-final")
        runs.append((list(matrices), fwd, bwd))
    (m1, fwd1, bwd1), (m2, fwd2, bwd2) = runs
    assert m1 == m2
    assert (fwd1, bwd1) == (fwd2, bwd2)
    # compare=False keeps the histories out of ==
    assert fwd1.log_likelihood_history == fwd2.log_likelihood_history
    assert bwd1.log_likelihood_history == bwd2.log_likelihood_history
    assert len(fwd1.log_likelihood_history) == 3


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("side", ["source", "target"])
def test_align_refuses_the_null_word_on_either_side(monkeypatch, tmp_path, capsys, side, workers):
    """The reverse direction trains with the sides swapped, so a target word
    of the null word's name is refused too: one error line and no file."""
    lines = {"source": ["a b", "b c", "a c"], "target": ["x y", "u v", "x v"]}
    lines[side][0] = lines[side][0].split()[0] + " <null>"
    for name, text in lines.items():
        (tmp_path / name).write_text("\n".join(text) + "\n", encoding="utf-8")
    monkeypatch.setattr(parallel, "_available_cpus", lambda: workers)
    monkeypatch.chdir(tmp_path)
    assert main("align --source source --target target -o al".split()) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["ERROR data: line 1 holds <null>, the null word's name"], err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["source", "target"]


@pytest.mark.parametrize("workers", [1, 2])
def test_align_refuses_an_unknown_heuristic_before_training(monkeypatch, tmp_path, workers):
    src, tgt = tmp_path / "train.en", tmp_path / "train.ar"
    src.write_text("a b\nc\n", encoding="utf-8")
    tgt.write_text("x y\nz\n", encoding="utf-8")
    ran = tmp_path / "em-ran"  # a file, so a forked worker's call shows too

    def em_train(c, iterations):
        ran.touch()
        raise AssertionError("em_train ran")

    monkeypatch.setattr(parallel, "_available_cpus", lambda: workers)
    monkeypatch.setattr(align, "em_train", em_train)
    outputs = [tmp_path / name for name in ("train.align", "lex.fwd", "lex.bwd")]
    with pytest.raises(ParameterError, match="unknown symmetrization heuristic 'nope'"):
        pipeline.stage_align(src, tgt, *outputs, iterations=2, heuristic="nope")
    assert not ran.exists()
    assert not any(path.exists() for path in outputs)


# ---- viterbi --------------------------------------------------------------


def test_viterbi_argmax():
    lex = TranslationLexicon({"a": {"x": 0.9}, NULL_WORD: {"x": 0.1}})
    pair = corpus.SentencePair(("a",), ("x",))
    assert align.viterbi_align(lex, pair).links == {(0, 0)}


def test_viterbi_tie_prefers_smaller_index():
    lex = TranslationLexicon({"a": {"x": 0.5}, "b": {"x": 0.5}, NULL_WORD: {"x": 0.1}})
    pair = corpus.SentencePair(("a", "b"), ("x",))
    assert align.viterbi_align(lex, pair).links == {(0, 0)}


def test_viterbi_null_wins_ties():
    lex = TranslationLexicon({"a": {"x": 0.1}, NULL_WORD: {"x": 0.1}})
    pair = corpus.SentencePair(("a",), ("x",))
    assert align.viterbi_align(lex, pair).links == frozenset()


def test_viterbi_matches_bruteforce_argmax():
    rng = random.Random(5)
    src = ("f0", "f1", "f2")
    tgt = ("e0", "e1", "e2")
    table = {f: {e: rng.random() for e in tgt} for f in src + (NULL_WORD,)}
    lex = TranslationLexicon(table)
    got = align.viterbi_align(lex, corpus.SentencePair(src, tgt)).links
    expected = set()
    for j, e in enumerate(tgt):
        candidates = [(table[NULL_WORD][e], -1)] + [(table[f][e], i) for i, f in enumerate(src)]
        best_p = max(p for p, _ in candidates)
        best_i = min(i for p, i in candidates if p == best_p)
        if best_i >= 0:
            expected.add((best_i, j))
    assert got == expected


# ---- symmetrization --------------------------------------------------------


def _mat(links, n, m):
    return AlignmentMatrix(frozenset(links), n, m)


def test_symmetrize_fixed_point():
    a = _mat({(0, 0), (1, 1)}, 2, 2)
    for heuristic in align.HEURISTICS:
        assert align.symmetrize(a, a.transpose(), heuristic).links == a.links


def test_symmetrize_disjoint():
    fwd = _mat({(0, 0)}, 2, 2)
    bwd = _mat({(1, 1)}, 2, 2).transpose()
    assert align.symmetrize(fwd, bwd, "intersection").links == frozenset()
    assert align.symmetrize(fwd, bwd, "union").links == {(0, 0), (1, 1)}


def test_symmetrize_dimension_mismatch():
    with pytest.raises(ParameterError):
        align.symmetrize(_mat({(0, 0)}, 2, 2), _mat({(0, 0)}, 3, 2).transpose(), "union")


def test_grow_diag_final_hand_trace():
    # 4x4 case executed by hand against the documented procedure:
    # intersection {(0,0),(1,2)}; grow adds (1,1) then, from (1,2), (0,3)
    # and (2,1); (2,3) stays out because both its words are then aligned;
    # final adds (3,3) whose source is still unaligned.
    fwd = _mat({(0, 0), (1, 1), (1, 2), (3, 3), (0, 3)}, 4, 4)
    bwd_links_in_fwd_coords = {(0, 0), (2, 1), (1, 2), (2, 3)}
    bwd = _mat({(j, i) for i, j in bwd_links_in_fwd_coords}, 4, 4)
    result = align.symmetrize(fwd, bwd, "grow-diag-final").links
    assert result == {(0, 0), (0, 3), (1, 1), (1, 2), (2, 1), (3, 3)}


def test_intersection_subset_gdf_subset_union():
    rng = random.Random(9)
    for _ in range(50):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        fwd = _mat(
            {(rng.randrange(n), rng.randrange(m)) for _ in range(rng.randint(0, n * m))}, n, m
        )
        bwd_fwd_coords = {
            (rng.randrange(n), rng.randrange(m)) for _ in range(rng.randint(0, n * m))
        }
        bwd = _mat({(j, i) for i, j in bwd_fwd_coords}, m, n)
        inter = align.symmetrize(fwd, bwd, "intersection").links
        gdf = align.symmetrize(fwd, bwd, "grow-diag-final").links
        union = align.symmetrize(fwd, bwd, "union").links
        assert inter <= gdf <= union


def test_alignment_matrix_bounds():
    with pytest.raises(ParameterError):
        _mat({(2, 0)}, 2, 2)


# ---- file formats -----------------------------------------------------------


def test_alignment_file_round_trip(tmp_path):
    corp = make_corpus(("a b", "x y"), ("c", "z"))
    mats = [_mat({(0, 1), (1, 0)}, 2, 2), _mat({(0, 0)}, 1, 1)]
    path = tmp_path / "al"
    align.write_alignments(mats, path)
    assert path.read_text(encoding="utf-8") == "0-1 1-0\n0-0\n"
    back = align.read_alignments(path, corp)
    assert [m.links for m in back] == [m.links for m in mats]


def test_lexicon_dump_round_trip(tmp_path):
    lex = align.em_train(make_corpus(("a b", "x y"), ("a", "x")), 2)
    path = tmp_path / "lex"
    align.write_lexicon(lex, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert all(len(line.split("\t")) == 3 for line in lines)
    assert lines == sorted(lines)
    back = align.read_lexicon(path)
    for given, row in lex.table.items():
        for out, p in row.items():
            assert back.prob(out, given) == pytest.approx(p, rel=1e-9)
