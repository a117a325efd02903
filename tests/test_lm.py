import math
import random
from pathlib import Path

import pytest

from minismt import lm
from minismt.errors import FormatError, ParameterError, TrainingError

from oracles import conditional_sum, count_padded

GOLDEN = Path(__file__).parent / "data" / "unigram.arpa"


# ---- training: mle ------------------------------------------------------


def test_mle_unigram_padded_counts():
    # padded stream: <s> a a b </s>  (5 tokens)
    m = lm.train([("a", "a", "b")], 1, "mle")
    assert m.probs[("a",)] == math.log10(2 / 5)
    assert m.probs[("b",)] == math.log10(1 / 5)
    assert m.probs[(lm.END,)] == math.log10(1 / 5)


def test_mle_single_event_ratio():
    m = lm.train([("a",)], 1, "mle")
    assert 10 ** m.logprob("a") == pytest.approx(1 / 3, abs=1e-12)


def test_mle_matches_count_oracle():
    sentences = [tuple("abcab"), tuple("bca"), tuple("aab")]
    counts = count_padded(sentences, 2)
    m = lm.train(sentences, 2, "mle")
    for gram, c in counts.items():
        if len(gram) == 2:
            expected = math.log10(c / counts[gram[:1]])
            assert m.probs[gram] == pytest.approx(expected, abs=1e-12)


def test_mle_zero_mass_to_unseen():
    m = lm.train([("a", "b")], 2, "mle")
    assert m.logprob("a", ("b",)) == float("-inf")
    assert m.logprob("zzz") == float("-inf")


# ---- training: witten-bell ----------------------------------------------


def test_witten_bell_hand_formula():
    # contexts: (a) has continuations b:1, c:1 -> count 2, distinct 2
    m = lm.train([("a", "b"), ("a", "c")], 2)
    assert 10 ** m.logprob("b", ("a",)) == pytest.approx(9 / 28, abs=1e-12)
    assert 10 ** m.logprob("a", (lm.START,)) == pytest.approx(16 / 21, abs=1e-12)
    assert 10 ** m.backoffs[("a",)] == pytest.approx(0.5, abs=1e-12)


def test_backoff_composition_two_table():
    m = lm.train([("a", "b"), ("a", "c")], 2)
    # unseen bigram (a, a): backoff weight of (a) plus the unigram
    assert m.logprob("a", ("a",)) == m.backoffs[("a",)] + m.probs[("a",)]


def test_unknown_word_floor():
    m = lm.train([("a", "b")], 2)
    assert m.logprob("zzz") == m.probs[(lm.UNK,)]
    assert m.logprob("zzz", ("also-unseen",)) > float("-inf")


def test_start_symbol_is_context_only():
    m = lm.train([("a", "b")], 2)
    assert lm.START not in m.event_vocab()
    assert m.logprob(lm.START) == m.probs[(lm.UNK,)]


def test_normalization_every_observed_context():
    rng = random.Random(3)
    vocab = list("abcde")
    sentences = [
        tuple(rng.choice(vocab) for _ in range(rng.randint(1, 8))) for _ in range(60)
    ]
    for order in (1, 2, 3):
        m = lm.train(sentences, order)
        contexts = [()] + sorted(m.backoffs)
        for ctx in contexts:
            assert conditional_sum(m, ctx) == pytest.approx(1.0, abs=1e-6)


def test_backoff_weight_contexts_have_continuations():
    m = lm.train([tuple("abcab"), tuple("bca")], 3)
    for ctx in m.backoffs:
        assert any(g[: len(ctx)] == ctx and len(g) == len(ctx) + 1 for g in m.probs)


def test_probs_finite_and_nonpositive():
    m = lm.train([tuple("abcab"), tuple("bca")], 3)
    for value in m.probs.values():
        assert value <= 0.0 and math.isfinite(value)


def test_train_errors():
    with pytest.raises(TrainingError):
        lm.train([], 2)
    with pytest.raises(TrainingError):
        lm.train([()], 2)
    with pytest.raises(ParameterError):
        lm.train([("a",)], 0)
    with pytest.raises(ParameterError):
        lm.train([("a",)], 6)
    with pytest.raises(ParameterError):
        lm.train([("a",)], 2, "kneser-ney")


# ---- queries -------------------------------------------------------------


def test_context_truncation():
    m = lm.train([("a", "b", "c")], 2)
    assert m.logprob("c", ("x", "y", "b")) == m.logprob("c", ("b",))


def test_sentence_logprob_decomposes():
    m = lm.train([tuple("abcab"), tuple("bcb")], 3)
    s = tuple("abcb")
    padded = (lm.START,) + s + (lm.END,)
    total = 0.0
    for i in range(1, len(padded)):
        total += lm.logprob(m, padded[i], padded[:i])
    assert lm.sentence_logprob(m, s) == total  # exact, same decomposition


def test_sentence_logprob_single_token_order1():
    m = lm.train([("a", "a", "b")], 1, "mle")
    assert lm.sentence_logprob(m, ("a",)) == m.probs[("a",)] + m.probs[(lm.END,)]


def test_sentence_logprob_empty_sentence():
    m = lm.train([("a",)], 2)
    assert lm.sentence_logprob(m, ()) == lm.logprob(m, lm.END, (lm.START,))


def test_product_identity():
    m = lm.train([tuple("abcab"), tuple("bcb")], 2)
    s = tuple("abc")
    padded = (lm.START,) + s + (lm.END,)
    product = 1.0
    for i in range(1, len(padded)):
        product *= 10 ** lm.logprob(m, padded[i], padded[:i])
    assert product == pytest.approx(10 ** lm.sentence_logprob(m, s), rel=1e-9)


# ---- perplexity ----------------------------------------------------------


def test_perplexity_uniform_model():
    vocab = ["a", "b", "c", lm.END]
    probs = {(w,): math.log10(1 / len(vocab)) for w in vocab}
    m = lm.NGramModel(1, "witten-bell", probs, {}, frozenset(vocab))
    assert lm.perplexity(m, [("a", "b"), ("c",)]) == pytest.approx(len(vocab), rel=1e-12)


def test_perplexity_mle_beats_witten_bell_on_train():
    # orders >= 2 only: the order-1 mle denominator includes the start pad
    # (that is what makes its arithmetic hand-checkable), which leaks mass
    # the event distribution never gets back
    sentences = [tuple("abcab"), tuple("bcb"), tuple("abc")]
    for order in (2, 3, 4):
        mle = lm.perplexity(lm.train(sentences, order, "mle"), sentences)
        wb = lm.perplexity(lm.train(sentences, order), sentences)
        assert mle <= wb


def test_perplexity_matches_hand_computation():
    m = lm.train([("a", "b")], 2)
    sentence = ("a", "b")
    expected = 10 ** (-lm.sentence_logprob(m, sentence) / 3)
    assert lm.perplexity(m, [sentence]) == pytest.approx(expected, rel=1e-12)


def test_perplexity_empty_corpus():
    m = lm.train([("a",)], 1)
    with pytest.raises(ParameterError):
        lm.perplexity(m, [])


# ---- ARPA ----------------------------------------------------------------


def test_arpa_golden_file(tmp_path):
    m = lm.train([("a", "b")], 1)
    out = tmp_path / "m.arpa"
    lm.write_arpa(m, out)
    assert out.read_text(encoding="utf-8") == GOLDEN.read_text(encoding="utf-8")


def test_arpa_round_trip_random_queries(toy_tokenized_ar):
    m = lm.train(toy_tokenized_ar[:300], 3)
    path = "/tmp/minismt-roundtrip.arpa"
    lm.write_arpa(m, path)
    r = lm.read_arpa(path)
    rng = random.Random(11)
    vocab = sorted(m.event_vocab())
    for _ in range(100):
        w = rng.choice(vocab)
        ctx = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 2)))
        assert lm.logprob(r, w, ctx) == pytest.approx(lm.logprob(m, w, ctx), abs=1e-4)


def test_arpa_round_trip_keeps_the_estimator(tmp_path):
    sentences = [tuple("abcab"), tuple("bcb")]
    for smoothing in ("mle", "witten-bell"):
        m = lm.train(sentences, 2, smoothing)
        path = tmp_path / ("%s.arpa" % smoothing)
        lm.write_arpa(m, path)
        r = lm.read_arpa(path)
        assert r.smoothing == smoothing
        contexts = {gram[:-1] for gram in m.probs}
        for ctx in contexts:
            for w in sorted(m.vocab):  # approx matches -inf only to -inf
                expected = pytest.approx(lm.logprob(m, w, ctx), abs=1e-6)
                assert lm.logprob(r, w, ctx) == expected, (w, ctx)
    assert lm.logprob(lm.read_arpa(tmp_path / "mle.arpa"), "a", ("a",)) == float("-inf")


def test_arpa_count_mismatch(tmp_path):
    bad = tmp_path / "bad.arpa"
    bad.write_text(
        "\\data\\\nngram 1=3\n\n\\1-grams:\n-0.5\ta\n-0.5\tb\n\n\\end\\\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError) as err:
        lm.read_arpa(bad)
    assert "declared 3" in str(err.value)


def test_arpa_malformed_header(tmp_path):
    bad = tmp_path / "bad.arpa"
    bad.write_text("hello\n\\data\\\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        lm.read_arpa(bad)
    assert "line 1" in str(err.value)


def test_arpa_missing_end(tmp_path):
    bad = tmp_path / "bad.arpa"
    bad.write_text("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5\ta\n", encoding="utf-8")
    with pytest.raises(FormatError):
        lm.read_arpa(bad)
