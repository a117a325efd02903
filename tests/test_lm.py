import itertools
import math
import random
from pathlib import Path

import pytest

from minismt import lm
from minismt.cli import main
from minismt.errors import FormatError, ParameterError, TrainingError

from oracles import conditional_sum, count_padded, event_vocab

GOLDEN = Path(__file__).parent / "data" / "unigram.arpa"


# ---- training ------------------------------------------------------------


def test_witten_bell_unigram_padded_counts():
    # events of <s> a a b </s>: a:2 b:1 </s>:1, plus the <unk> floor of 1
    m = lm.train([("a", "a", "b")], 1)
    assert m.probs[("a",)] == math.log10(2 / 5)
    assert m.probs[("b",)] == math.log10(1 / 5)
    assert m.probs[(lm.END,)] == math.log10(1 / 5)
    assert m.probs[(lm.UNK,)] == math.log10(1 / 5)
    assert (lm.START,) not in m.probs


def test_witten_bell_single_event_ratio():
    # events of <s> a </s>: a:1 </s>:1, plus the <unk> floor of 1
    m = lm.train([("a",)], 1)
    assert 10 ** lm.logprob(m, "a") == pytest.approx(1 / 3, abs=1e-12)


def test_witten_bell_matches_count_oracle():
    sentences = [tuple("abcab"), tuple("bca"), tuple("aab")]
    counts = count_padded(sentences, 2)
    events = {g[0]: c for g, c in counts.items() if len(g) == 1 and g[0] != lm.START}
    events[lm.UNK] = 1
    total = sum(events.values())
    m = lm.train(sentences, 2)
    for ctx in sorted({g[:1] for g in counts if len(g) == 2}):
        seen = {g[1]: c for g, c in counts.items() if len(g) == 2 and g[0] == ctx[0]}
        denom = sum(seen.values()) + len(seen)
        assert 10 ** m.backoffs[ctx] == pytest.approx(len(seen) / denom, abs=1e-12)
        for w, c_unigram in events.items():
            expected = (seen.get(w, 0) + len(seen) * c_unigram / total) / denom
            assert 10 ** lm.logprob(m, w, ctx) == pytest.approx(expected, abs=1e-12), (ctx, w)


def test_witten_bell_hand_formula():
    # contexts: (a) has continuations b:1, c:1 -> count 2, distinct 2
    m = lm.train([("a", "b"), ("a", "c")], 2)
    assert 10 ** lm.logprob(m, "b", ("a",)) == pytest.approx(9 / 28, abs=1e-12)
    assert 10 ** lm.logprob(m, "a", (lm.START,)) == pytest.approx(16 / 21, abs=1e-12)
    assert 10 ** m.backoffs[("a",)] == pytest.approx(0.5, abs=1e-12)


def test_backoff_composition_two_table():
    m = lm.train([("a", "b"), ("a", "c")], 2)
    # unseen bigram (a, a): backoff weight of (a) plus the unigram
    assert lm.logprob(m, "a", ("a",)) == m.backoffs[("a",)] + m.probs[("a",)]


def test_unknown_word_floor():
    m = lm.train([("a", "b")], 2)
    assert lm.logprob(m, "zzz") == m.probs[(lm.UNK,)]
    assert lm.logprob(m, "zzz", ("also-unseen",)) > float("-inf")


def test_start_symbol_is_context_only():
    m = lm.train([("a", "b")], 2)
    assert not any(gram[-1] == lm.START for gram in m.probs)
    assert lm.logprob(m, lm.START) == m.probs[(lm.UNK,)]


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


def test_train_refuses_a_sentence_holding_the_start_symbol(tmp_path, capsys):
    with pytest.raises(TrainingError, match="line 2 "):
        lm.train([("c", "d"), ("a", lm.START, "b")], 2)
    (tmp_path / "c.txt").write_text("a <s> b\nc d\n", encoding="utf-8")
    assert main(["train-lm", str(tmp_path / "c.txt"), "--order", "2",
                 "-o", str(tmp_path / "m.arpa")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR data: line 1 ")
    assert not (tmp_path / "m.arpa").exists()
    # </s> and <unk> inside a sentence are words like any other
    for word in (lm.END, lm.UNK):
        m = lm.train([("a", word, "b"), ("c", "d")], 2)
        assert conditional_sum(m, ("a",)) == pytest.approx(1.0, abs=1e-6)


# ---- queries -------------------------------------------------------------


def test_context_truncation():
    m = lm.train([("a", "b", "c")], 2)
    assert lm.logprob(m, "c", ("x", "y", "b")) == lm.logprob(m, "c", ("b",))


def _assert_states_are_exact(m, contexts):
    """For each context c and word w (the vocabulary, </s> and one unseen
    word), state(c) scores w as c does, bit for bit, and the state after w
    depends on c only through state(c)."""
    state, step = lm.state_machine(m)
    words = sorted(event_vocab(m) | {lm.START, lm.END, "zzz-unseen"})
    for c in contexts:
        s = state(c)
        assert s == c[len(c) - len(s) :] and len(s) <= m.order - 1, (c, s)
        for w in words:
            assert lm.logprob(m, w, s) == lm.logprob(m, w, c), (c, w)
            assert state(c + (w,)) == state(s + (w,)), (c, w)
            assert step(s, w) == (lm.logprob(m, w, c), state(c + (w,))), (c, w)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_lm_states_score_as_their_contexts(order):
    rng = random.Random(order)
    vocab = list("abcde")
    sentences = [
        tuple(rng.choice(vocab) for _ in range(rng.randint(1, 8))) for _ in range(60)
    ]
    m = lm.train(sentences, order)
    # every observed history, with one word more than the model reads
    contexts = {()}
    for s in sentences:
        padded = (lm.START,) + s + (lm.END,)
        contexts.update(padded[max(0, i - order) : i] for i in range(1, len(padded)))
    _assert_states_are_exact(m, sorted(contexts))


def test_lm_states_of_an_arpa_with_missing_and_zero_backoffs(tmp_path):
    # the trigram "a b a" is stored, yet its context "a b" has no backoff
    # line; "b" has backoff 0.0, and "b a" is a context by its backoff alone
    path = tmp_path / "hand.arpa"
    path.write_text(
        "\\data\\\nngram 1=5\nngram 2=3\nngram 3=2\n\n"
        "\\1-grams:\n-0.7\t</s>\n-99\t<s>\t-0.3\n-1.0\t<unk>\n-0.5\ta\t-0.2\n-0.6\tb\t0.0\n\n"
        "\\2-grams:\n-0.2\t<s> a\t-0.1\n-0.3\ta b\n-0.4\tb a\t-0.25\n\n"
        "\\3-grams:\n-0.15\t<s> a b\n-0.1\ta b a\n\n\\end\\\n",
        encoding="utf-8",
    )
    m = lm.read_arpa(path)
    assert ("a", "b") not in m.backoffs and m.backoffs[("b",)] == 0.0
    state, _ = lm.state_machine(m)
    assert state(("a", "b")) == ("a", "b")
    assert state(("x", "a")) == ("a",)
    alphabet = [lm.START, "a", "b", "zzz-unseen"]
    contexts = [c for k in range(4) for c in itertools.product(alphabet, repeat=k)]
    _assert_states_are_exact(m, contexts)


def test_sentence_logprob_decomposes():
    m = lm.train([tuple("abcab"), tuple("bcb")], 3)
    s = tuple("abcb")
    padded = (lm.START,) + s + (lm.END,)
    total = 0.0
    for i in range(1, len(padded)):
        total += lm.logprob(m, padded[i], padded[:i])
    assert lm.sentence_logprob(m, s) == total  # exact, same decomposition


def test_sentence_logprob_single_token_order1():
    m = lm.train([("a", "a", "b")], 1)
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
    m = lm.NGramModel(1, probs, {})
    assert lm.perplexity(m, [("a", "b"), ("c",)]) == pytest.approx(len(vocab), rel=1e-12)


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


def test_arpa_round_trip_random_queries(toy_tokenized_ar, tmp_path):
    m = lm.train(toy_tokenized_ar[:300], 3)
    path = tmp_path / "roundtrip.arpa"
    lm.write_arpa(m, path)
    r = lm.read_arpa(path)
    rng = random.Random(11)
    vocab = sorted(event_vocab(m))
    for _ in range(100):
        w = rng.choice(vocab)
        ctx = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 2)))
        assert lm.logprob(r, w, ctx) == pytest.approx(lm.logprob(m, w, ctx), abs=1e-4)


def test_arpa_round_trip_keeps_the_estimator(tmp_path):
    m = lm.train([tuple("abcab"), tuple("bcb")], 2)
    path = tmp_path / "m.arpa"
    lm.write_arpa(m, path)
    r = lm.read_arpa(path)
    assert (r.order, event_vocab(r), set(r.backoffs)) == (m.order, event_vocab(m), set(m.backoffs))
    contexts = {gram[:-1] for gram in m.probs} | {("zzz",)}
    for ctx in contexts:
        for w in sorted(event_vocab(m) | {lm.START}) + ["zzz"]:
            expected = pytest.approx(lm.logprob(m, w, ctx), abs=1e-6)
            assert lm.logprob(r, w, ctx) == expected, (w, ctx)


def test_arpa_without_unk_or_backoffs_scores_as_a_backoff_model(tmp_path):
    path = tmp_path / "plain.arpa"
    path.write_text(
        "\\data\\\nngram 1=4\nngram 2=3\n\n\\1-grams:\n-0.3\t</s>\n-99\t<s>\n"
        "-0.4\ta\n-0.5\tb\n\n\\2-grams:\n-0.1\t<s> a\n-0.2\ta b\n-0.05\tb </s>\n"
        "\n\\end\\\n",
        encoding="utf-8",
    )
    m = lm.read_arpa(path)
    assert lm.logprob(m, "b", ("a",)) == -0.2
    # an unseen bigram of known words: a missing backoff weight counts as 0.0
    assert lm.logprob(m, "a", ("b",)) == -0.4
    assert lm.logprob(m, lm.END, ("a",)) == -0.3
    assert lm.logprob(m, "zzz", ("a",)) == float("-inf")
    assert lm.logprob(m, "zzz") == float("-inf")


def test_arpa_count_mismatch(tmp_path):
    bad = tmp_path / "bad.arpa"
    bad.write_text(
        "\\data\\\nngram 1=3\n\n\\1-grams:\n-0.5\ta\n-0.5\tb\n\n\\end\\\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError) as err:
        lm.read_arpa(bad)
    assert "declared 3" in str(err.value)


def test_arpa_repeated_ngram(tmp_path):
    bad = tmp_path / "bad.arpa"
    bad.write_text(
        "\\data\\\nngram 1=3\n\n\\1-grams:\n-0.5\ta\n-0.1\ta\n-0.3\t<unk>\n\n\\end\\\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError) as err:
        lm.read_arpa(bad)
    assert str(err.value) == "%s line 6: duplicate 1-gram 'a'" % bad


def test_arpa_malformed_header(tmp_path):
    bad = tmp_path / "bad.arpa"
    bad.write_text("hello\n\\data\\\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        lm.read_arpa(bad)
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("header, message", [
    ("ngram 1=1\nngrams 2=1\n", " line 3: expected 'ngram N=count', found 'ngrams 2=1'"),
    ("ngram 1=one\n", " line 2: malformed count line 'ngram 1=one'"),
    ("ngram 1=1\nngram 3=1\n", " line 3: expected order 2, found 'ngram 3=1'"),
    ("ngram 1=1\nngram 1=2\n", " line 3: order 1 declared twice: 'ngram 1=2'"),
    ("ngram 1=1\n\n\\one-grams:\n", " line 4: bad section header '\\\\one-grams:'"),
], ids=["count-line", "count", "skipped-order", "duplicate-order", "section-header"])
def test_arpa_header_refusals_name_the_file(tmp_path, capsys, header, message):
    bad = tmp_path / "bad.arpa"
    bad.write_text("\\data\\\n" + header + "\n-0.5\ta\n\n\\end\\\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        lm.read_arpa(bad)
    assert str(err.value) == str(bad) + message
    # the query-lm subcommand reports it as one error line
    text = tmp_path / "text"
    text.write_text("a\n", encoding="utf-8")
    assert main(["query-lm", str(bad), "--input", str(text)]) == 1
    assert capsys.readouterr().err.splitlines() == ["ERROR format: " + str(bad) + message]


def test_arpa_missing_end(tmp_path):
    bad = tmp_path / "bad.arpa"
    bad.write_text("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5\ta\n", encoding="utf-8")
    with pytest.raises(FormatError):
        lm.read_arpa(bad)
