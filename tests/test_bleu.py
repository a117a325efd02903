import math
import random

import pytest

from minismt import bleu
from minismt.errors import ParameterError
from minismt.pipeline import parse_number

from oracles import clipped_matches, sentence_stats_reference


# literal statistics follow the layout stated at bleu.ZERO

def test_identity_hypothesis_scores_one():
    ref = tuple("the quick brown fox jumps".split())
    stats = bleu.sentence_stats(ref, [ref])
    assert stats == (5, 4, 3, 2, 5, 4, 3, 2, 5, 5)
    assert bleu.corpus_bleu(stats) == 1.0


def test_canonical_clipping_case():
    stats = bleu.sentence_stats(("the", "the", "the"), [("the", "cat")])
    # one unigram match: clipped to the reference count
    assert stats == (1, 0, 0, 0, 3, 2, 1, 0, 3, 2)
    assert bleu.corpus_bleu(stats, max_order=1) == pytest.approx(1 / 3)


def test_effective_length_tie_prefers_shorter():
    refs = [tuple("r" for _ in range(4)), tuple("r" for _ in range(6))]
    stats = bleu.sentence_stats(tuple("h" for _ in range(5)), refs)
    assert stats == (0, 0, 0, 0, 5, 4, 3, 2, 5, 4)


def test_brevity_penalty_hand_case():
    # hyp 'the cat sat' vs ref 'the cat sat down': p1..p3 perfect, no 4-grams
    stats = bleu.sentence_stats(("the", "cat", "sat"), [("the", "cat", "sat", "down")])
    assert bleu.corpus_bleu(stats) == 0.0  # strict mode: zero 4-gram matches
    score3 = bleu.corpus_bleu(stats, max_order=3)
    assert score3 == pytest.approx(math.exp(1 - 4 / 3), abs=1e-4)
    assert score3 == pytest.approx(0.7165, abs=1e-3)


def test_empty_hypothesis():
    stats = bleu.sentence_stats((), [("a", "b")])
    assert stats == (0, 0, 0, 0, 0, 0, 0, 0, 0, 2)
    assert bleu.corpus_bleu(stats) == 0.0
    assert bleu.brevity_penalty(stats) == 0.0


def test_stats_additive():
    refs = [[("a", "b", "c", "d", "e")], [("x", "y", "z", "w", "q")]]
    hyps = [("a", "b", "c", "d"), ("x", "y", "z", "w", "q")]
    joint = bleu.corpus_stats(hyps, refs)
    first, second = (bleu.sentence_stats(h, r) for h, r in zip(hyps, refs))
    assert joint == tuple(a + b for a, b in zip(first, second))
    assert bleu.corpus_stats([], []) == bleu.ZERO


def test_reference_order_invariance():
    rng = random.Random(3)
    refs = [tuple(rng.choice("abc") for _ in range(6)) for _ in range(3)]
    hyp = tuple(rng.choice("abc") for _ in range(6))
    base = bleu.sentence_stats(hyp, refs)
    assert bleu.sentence_stats(hyp, list(reversed(refs))) == base


def test_adding_reference_never_decreases_matches():
    rng = random.Random(4)
    hyp = tuple(rng.choice("abcd") for _ in range(8))
    refs = [tuple(rng.choice("abcd") for _ in range(8))]
    base = bleu.sentence_stats(hyp, refs)
    extended = bleu.sentence_stats(hyp, refs + [tuple(rng.choice("abcd") for _ in range(8))])
    for e, b in zip(clipped_matches(extended), clipped_matches(base)):
        assert e >= b


def test_bounds_random():
    rng = random.Random(5)
    hyps, refs = [], []
    for _ in range(30):
        hyps.append(tuple(rng.choice("abcd") for _ in range(rng.randint(1, 9))))
        refs.append([tuple(rng.choice("abcd") for _ in range(rng.randint(1, 9)))])
    assert 0.0 <= bleu.corpus_bleu(bleu.corpus_stats(hyps, refs)) <= 1.0


@pytest.mark.parametrize("seed", range(4))
def test_sentence_stats_equal_reference(seed):
    rng = random.Random(seed)

    def tokens(lo, hi):
        # three symbols, so n-grams repeat within and across sentences
        return tuple(rng.choice("abc") for _ in range(rng.randint(lo, hi)))

    ref_lists = [[tokens(1, 9) for _ in range(rng.randint(1, 3))] for _ in range(4)]
    ref_lists.append([ref_lists[0][0]] + ref_lists[1])  # one reference in common
    # runs of one reference list, lists alternating A, B, A, as MERT and
    # corpus_stats pass them
    for refs in [ref_lists[i] for i in (0, 1, 0, 2, 2, 3, 4, 0)]:
        hyps = [(), ("a",), ("c", "a"), tokens(3, 3), refs[0], refs[-1] * 2]
        hyps += [tokens(0, 10) for _ in range(12)]
        for hyp in hyps:
            want = sentence_stats_reference(hyp, refs)
            assert bleu.sentence_stats(hyp, refs) == want, (hyp, refs)
            assert bleu.sentence_stats(list(hyp), [list(r) for r in refs]) == want


def test_requires_reference():
    with pytest.raises(ParameterError):
        bleu.sentence_stats(("a",), [])


def test_report_formatting():
    ref = tuple("a b c d e f g h".split())
    stats = bleu.sentence_stats(ref, [ref])
    line = bleu.format_report(stats)
    assert line.startswith("BLEU = 100.00, 100.0/100.0/100.0/100.0 (BP=1.000")
    assert "hyp_len=8" in line and "ref_len=8" in line
    # the precisions of the orders it scores only
    assert bleu.format_report(stats, 2).startswith("BLEU = 100.00, 100.0/100.0 (BP=1.000")
    # percentage renders with two decimals and a dot
    partial = bleu.sentence_stats(("a", "b"), [ref])
    line2 = bleu.format_report(partial)
    assert line2.split(",")[0] == "BLEU = 0.00"


def test_score_input_accepts_comma_decimal():
    assert parse_number("24,51") == pytest.approx(24.51)
    assert parse_number("24.51") == pytest.approx(24.51)
