import math
import random

import pytest

from minismt import corpus, lm, mert, phrases
from minismt.decode import Decoder, DecoderConfig, Weights
from minismt.errors import ParameterError

from oracles import (
    _envelope_reference,
    grid_best_bleu,
    line_search_reference,
    mert_reference,
    optimize_reference,
    pool_bleu_reference,
)

REF = tuple("the cat sat on the mat".split())


def _entry(tokens, features, refs=(REF,)):
    return mert.build_pool_entry(tokens, features, list(refs))


def _random_pool(rng, n_sentences, n_hyps):
    pool = []
    for _ in range(n_sentences):
        ref = tuple(rng.choice("abcde") for _ in range(rng.randint(5, 8)))
        entries = []
        seen = set()
        for _ in range(n_hyps):
            tokens = tuple(
                rng.choice("abcde") for _ in range(rng.randint(4, 8))
            )
            if tokens in seen:
                continue
            seen.add(tokens)
            features = tuple(rng.uniform(-2, 2) for _ in range(8))
            entries.append(_entry(tokens, features, [ref]))
        pool.append(entries)
    return pool


# ---- line search -------------------------------------------------------------


def _segments(pool, weights, direction):
    """Each sentence's upper envelope along `direction` from `weights`."""
    return [mert._envelope(mert._slopes(columns, rows, direction), order, intercepts)
            for intercepts, order, columns, rows in mert.base_scores(pool, weights.values)]


def test_two_hypotheses_cross_once():
    good = _entry(REF, (1.0,) + (0.0,) * 7)
    bad = _entry(("the", "dog", "sat", "on", "a", "mat"), (0.0, 0.5) + (0.0,) * 6)
    pool, base, direction = [[good, bad]], Weights.uniform(), (1.0, -1.0) + (0.0,) * 6
    result = mert.line_search(pool, mert.base_scores(pool, base.values), direction)
    # crossing at (0.0625 - 0.125)/(1 - (-0.5)): one breakpoint, two segments
    [segments] = _segments(pool, base, direction)
    assert [idx for _, idx in segments] == [1, 0]
    assert segments[0][0] == -math.inf and segments[1][0] == (0.0625 - 0.125) / 1.5
    assert result.best_bleu == 1.0
    assert result.best_step > (0.0625 - 0.125) / 1.5  # the side that matches the reference


def test_inert_direction_flat_envelope():
    a = _entry(REF, (1.0, 0.3) + (0.0,) * 6)
    b = _entry(("x",) * 6, (1.0, -0.4) + (0.0,) * 6)
    # the direction has zero weight on every differing feature
    pool, base, direction = [[a, b]], Weights.uniform(), (1.0,) + (0.0,) * 7
    result = mert.line_search(pool, mert.base_scores(pool, base.values), direction)
    assert result.best_step == 0.0
    assert _segments(pool, base, direction) == [[(-math.inf, 0)]]


def test_identical_hypotheses_flat():
    a = _entry(REF, (1.0,) + (0.0,) * 7)
    base = mert.base_scores([[a]], Weights.uniform().values)
    result = mert.line_search([[a]], base, (0.0, 1.0) + (0.0,) * 6)
    assert result.best_step == 0.0 and result.best_bleu == 1.0


def test_zero_direction_rejected():
    a = _entry(REF, (1.0,) + (0.0,) * 7)
    with pytest.raises(ParameterError):
        mert.line_search([[a]], mert.base_scores([[a]], Weights.uniform().values), (0.0,) * 8)


@pytest.mark.parametrize("kind", ["random", "ties"])
def test_envelope_equals_reference(kind):
    """mert._envelope, which drops lines that cannot reach the envelope, gives
    the reference's segments on integer lines: parallel ones, equal
    intercepts and slopes of both signs of zero among them."""
    rng = random.Random(2003)
    for trial in range(2000):
        n = rng.randint(1, 10)
        if kind == "random":
            slopes = [float(rng.randint(-20, 20)) for _ in range(n)]
            intercepts = [float(rng.randint(-20, 20)) for _ in range(n)]
        else:
            slopes = [rng.choice((-1.0, -0.0, 0.0, 1.0, 2.0)) for _ in range(n)]
            intercepts = [float(rng.randint(-2, 2)) for _ in range(n)]
        # as base_scores orders entries: ascending intercept, later entries first among equals
        order = sorted(range(n - 1, -1, -1), key=intercepts.__getitem__)
        got = mert._envelope([slopes[i] for i in order], order, intercepts)
        want = _envelope_reference([(slopes[i], intercepts[i], i) for i in range(n)])
        assert got == want, (trial, slopes, intercepts)


def test_envelope_matches_grid_search():
    rng = random.Random(2024)
    base = Weights.uniform()
    for trial in range(20):
        pool = _random_pool(rng, rng.randint(1, 4), rng.randint(2, 5))
        direction = tuple(rng.uniform(-1, 1) for _ in range(8))
        if all(d == 0 for d in direction):
            continue
        result = mert.line_search(pool, mert.base_scores(pool, base.values), direction)
        grid = grid_best_bleu(pool, base, direction)
        # the exact envelope can only match or beat the grid
        assert result.best_bleu >= grid - 1e-12, trial
        # and its claimed optimum is achieved at the returned step
        stepped = Weights(
            tuple(b + result.best_step * d for b, d in zip(base.values, direction))
        )
        assert mert.pool_bleu(pool, stepped) == pytest.approx(result.best_bleu, abs=1e-12)


def test_coincident_breakpoints_across_sentences():
    # identical line sets in every sentence make all breakpoints coincide;
    # the chosen step must still realize the claimed BLEU
    rng = random.Random(5150)
    for _ in range(15):
        shared = [tuple(rng.uniform(-2, 2) for _ in range(8)) for _ in range(3)]
        pool = []
        for _ in range(3):
            ref = tuple(rng.choice("abcde") for _ in range(6))
            entries = [
                _entry(tuple(rng.choice("abcde") for _ in range(rng.randint(4, 7))), feats, [ref])
                for feats in shared
            ]
            pool.append(entries)
        direction = tuple(rng.uniform(-1, 1) for _ in range(8))
        result = mert.line_search(pool, mert.base_scores(pool, Weights.uniform().values),
                                  direction)
        stepped = Weights(
            tuple(b + result.best_step * d for b, d in zip(Weights.uniform().values, direction))
        )
        assert mert.pool_bleu(pool, stepped) == pytest.approx(result.best_bleu, abs=1e-12)


def test_interval_partition_properties():
    rng = random.Random(77)
    pool = _random_pool(rng, 3, 5)
    direction = tuple(rng.uniform(-1, 1) for _ in range(8))
    for entries, segments in zip(pool, _segments(pool, Weights.uniform(), direction)):
        starts = [start for start, _ in segments]
        assert starts[0] == -math.inf
        assert all(a < b for a, b in zip(starts, starts[1:]))
        assert len(segments) <= len(entries)


def _edit(rng, ref):
    """`ref` with one token replaced, deleted or inserted."""
    tokens = list(ref)
    i = rng.randrange(len(tokens))
    op = rng.randrange(3)
    if op == 0:
        tokens[i] = rng.choice("abcde")
    elif op == 1:
        del tokens[i]
    else:
        tokens.insert(i, rng.choice("abcde"))
    return tuple(tokens)


def _mixed_pool(rng, n_sentences, n_hyps, edits=False):
    """Features mix floats, small integers (so lines share slopes), 0.0 and -0.0.

    With `edits`, each hypothesis is a one-token edit of the reference, so
    BLEU is rarely zero."""
    draws = (
        lambda: rng.uniform(-2, 2),
        lambda: float(rng.randint(-2, 2)),
        lambda: 0.0,
        lambda: -0.0,
    )
    pool = []
    for _ in range(n_sentences):
        ref = tuple(rng.choice("abcde") for _ in range(rng.randint(4, 7)))
        entries = {}
        for _ in range(n_hyps):
            if edits:
                tokens = _edit(rng, ref)
            else:
                tokens = tuple(rng.choice("abcde") for _ in range(rng.randint(3, 7)))
            entries[tokens] = tuple(rng.choice(draws)() for _ in range(8))
        pool.append([_entry(t, f, [ref]) for t, f in entries.items()])
    return pool


def _sparse(rng, vector):
    """`vector` with a random subset of its components set to 0.0 or -0.0."""
    out = tuple(rng.choice((0.0, -0.0)) if rng.random() < 0.5 else v for v in vector)
    return out if any(out) else vector


@pytest.mark.parametrize("seed", range(6))
def test_line_search_equals_reference_float_for_float(seed):
    rng = random.Random(seed)
    axes = [tuple(1.0 if j == i else 0.0 for j in range(8)) for i in range(8)]
    for _ in range(8):
        pool = _mixed_pool(rng, rng.randint(1, 5), rng.randint(2, 12))
        bases = [
            Weights.uniform(),
            Weights(_sparse(rng, tuple(rng.uniform(-1, 1) for _ in range(8)))),
            tuple(float(rng.randint(-2, 2)) for _ in range(8)),
        ]
        directions = axes + [
            tuple(rng.uniform(-1, 1) for _ in range(8)),
            _sparse(rng, tuple(rng.uniform(-1, 1) for _ in range(8))),
            _sparse(rng, tuple(float(rng.randint(-2, 2)) or 1.0 for _ in range(8))),
        ]
        for base in bases:
            table = mert.base_scores(pool, base.values if isinstance(base, Weights) else base)
            for direction in directions:
                got = mert.line_search(pool, table, direction)
                want = line_search_reference(pool, base, direction)
                # repr also tells -0.0 from 0.0
                assert got == want and repr(got) == repr(want), (base, direction)


# ---- optimizer ----------------------------------------------------------------


def test_fixed_point_pool():
    # the incumbent weights already pick the reference; nothing can gain
    good = _entry(REF, (1.0,) + (0.0,) * 7)
    bad = _entry(("x",) * 6, (-1.0,) + (0.0,) * 7)
    w0 = Weights.uniform()
    tuned, value = mert.optimize_on_pool([[good, bad]], w0, random.Random(0), [])
    assert value == 1.0
    assert tuned == w0.l1_normalized()


@pytest.mark.parametrize("seed", range(4))
def test_optimize_on_pool_equals_reference(seed):
    rng = random.Random(100 + seed)
    for _ in range(3):
        pool = _mixed_pool(rng, rng.randint(2, 5), rng.randint(3, 10), edits=True)
        w0 = Weights(_sparse(rng, tuple(rng.uniform(-1, 1) for _ in range(8))))
        got_log, want_log = [], []
        got = mert.optimize_on_pool(pool, w0, random.Random(seed), got_log)
        want = optimize_reference(pool, w0, random.Random(seed), want_log)
        assert got == want and repr(got) == repr(want)
        assert got_log == want_log
        # sparse integer weights tie often (all of them at zero weights); ties
        # go to the smaller tokens
        for _ in range(3):
            w = Weights(tuple(rng.choice((0.0, 0.0, 0.0, 1.0, -1.0)) for _ in range(8)))
            assert mert.pool_bleu(pool, w) == pool_bleu_reference(pool, w)


def test_optimizer_never_worsens_pool_bleu():
    rng = random.Random(11)
    for _ in range(5):
        pool = _random_pool(rng, 3, 5)
        w0 = Weights(tuple(rng.uniform(0.05, 1.0) for _ in range(8)))
        before = mert.pool_bleu(pool, w0)
        tuned, after = mert.optimize_on_pool(pool, w0, random.Random(5), [])
        assert after >= before - 1e-12
        assert after == pytest.approx(mert.pool_bleu(pool, tuned), abs=1e-12)


def test_positive_scale_invariance_of_selection():
    rng = random.Random(13)
    pool = _random_pool(rng, 4, 5)
    w = Weights(tuple(rng.uniform(0.05, 1.0) for _ in range(8)))
    for c in (0.1, 10.0):
        assert mert.pool_bleu(pool, w.scaled(c)) == mert.pool_bleu(pool, w)


# ---- full loop -------------------------------------------------------------------


def _toy_models():
    table = phrases.PhraseTable(
        {
            (("hello",), ("mrHbA",)): phrases.Scores(0.9, 0.9, 0.9, 0.9),
            (("hello",), ("slAm",)): phrases.Scores(0.1, 0.1, 0.1, 0.1),
            (("world",), ("EAlm",)): phrases.Scores(0.8, 0.8, 0.8, 0.8),
            (("world",), ("dnyA",)): phrases.Scores(0.2, 0.2, 0.2, 0.2),
            (("big",), ("kbyr",)): phrases.Scores(1.0, 1.0, 1.0, 1.0),
            (("nice",), ("jmyl",)): phrases.Scores(1.0, 1.0, 1.0, 1.0),
            ((".",), (".",)): phrases.Scores(1.0, 1.0, 1.0, 1.0),
        }
    )
    sentences = [
        ("mrHbA", "EAlm", "kbyr", "jmyl", "."),
        ("slAm", "dnyA", "kbyr", "."),
        ("mrHbA", "dnyA", "jmyl", "."),
    ]
    model = lm.train(sentences, 3)
    return table, model


def _dev_corpus():
    pairs = (
        corpus.SentencePair(
            ("hello", "world", "big", "nice", "."), ("mrHbA", "EAlm", "kbyr", "jmyl", ".")
        ),
        corpus.SentencePair(
            ("hello", "world", "nice", "big", "."), ("mrHbA", "EAlm", "jmyl", "kbyr", ".")
        ),
        corpus.SentencePair(
            ("world", "big", "nice", "hello", "."), ("EAlm", "kbyr", "jmyl", "mrHbA", ".")
        ),
    )
    return corpus.ParallelCorpus(pairs)


def test_mert_improves_or_maintains_dev_bleu():
    table, model = _toy_models()
    dev = _dev_corpus()
    config = DecoderConfig(stack_size=50, beam_threshold=None, distortion_limit=None)

    def factory(w):
        return Decoder(table, model, w, config)

    log = []
    tuned = mert.mert(dev, factory, Weights.uniform(), iterations=3, nbest_size=20,
                      seed=3, log_lines=log)
    assert sum(abs(v) for v in tuned.values) == pytest.approx(1.0)
    assert any("pool BLEU" in line for line in log)
    # evaluate both weight vectors on a fresh decode of the dev set
    def dev_bleu(w):
        from minismt import bleu as bleu_mod

        decoder = factory(w)
        stats = bleu_mod.corpus_stats([decoder.decode(pair.source).tokens for pair in dev.pairs],
                                      [[pair.target] for pair in dev.pairs])
        return bleu_mod.corpus_bleu(stats)

    assert dev_bleu(tuned) >= dev_bleu(Weights.uniform()) - 1e-12


def test_mert_deterministic():
    table, model = _toy_models()
    dev = _dev_corpus()
    config = DecoderConfig(stack_size=50, beam_threshold=None, distortion_limit=None)

    def factory(w):
        return Decoder(table, model, w, config)

    a = mert.mert(dev, factory, Weights.uniform(), iterations=2, nbest_size=10, seed=9,
                  log_lines=[])
    b = mert.mert(dev, factory, Weights.uniform(), iterations=2, nbest_size=10, seed=9,
                  log_lines=[])
    assert a == b  # bit-identical for a fixed seed


def test_mert_scale_invariant_start():
    table, model = _toy_models()
    dev = _dev_corpus()
    config = DecoderConfig(stack_size=50, beam_threshold=None, distortion_limit=None)

    def factory(w):
        return Decoder(table, model, w, config)

    a = mert.mert(dev, factory, Weights.uniform(), iterations=1, nbest_size=10, seed=4,
                  log_lines=[])
    b = mert.mert(dev, factory, Weights.uniform().scaled(10.0), iterations=1, nbest_size=10,
                  seed=4, log_lines=[])
    assert a == b  # initial L1 normalization absorbs positive scaling


def test_mert_parameter_validation():
    table, model = _toy_models()
    dev = _dev_corpus()
    with pytest.raises(ParameterError):
        mert.mert(dev, lambda w: None, Weights.uniform(), iterations=0, nbest_size=10, seed=0,
                  log_lines=[])


def test_mert_refuses_a_bad_nbest_size_with_the_decoders_message():
    # decode.check_nbest_size, which translate_all runs before it forks, is
    # the one n-best bound: mert states none of its own
    table, model = _toy_models()
    config = DecoderConfig(stack_size=50, beam_threshold=None, distortion_limit=None)
    searched = []

    class Counted(Decoder):
        def _search(self, sentence):
            searched.append(sentence)
            return super()._search(sentence)

    with pytest.raises(ParameterError) as caught:
        mert.mert(_dev_corpus(), lambda w: Counted(table, model, w, config), Weights.uniform(),
                  iterations=3, nbest_size=0, seed=0, log_lines=[])
    assert str(caught.value) == "nbest size must be >= 1, got 0"
    assert searched == []


def test_mert_returns_the_start_when_the_optimizer_worsens(monkeypatch):
    # the closing guard takes the last optimizer call's pool BLEU, which is
    # the final pool's, and scores only the initial weights itself
    table, model = _toy_models()
    config = DecoderConfig(stack_size=50, beam_threshold=None, distortion_limit=None)
    initial = Weights.uniform()
    real_pool_bleu = mert.pool_bleu
    signed_axes = [Weights(tuple(s * float(i == j) for j in range(8)))
                   for i in range(8) for s in (-1.0, 1.0)]

    def worsening_optimizer(pool, weights, rng, log_lines):
        start = real_pool_bleu(pool, initial)
        for w in [initial.scaled(-1.0)] + signed_axes:
            value = real_pool_bleu(pool, w)
            if value < start:
                return w, value
        raise AssertionError("no weights score below the start on this pool")

    scored = []

    def counted_pool_bleu(pool, weights):
        scored.append(weights)
        return real_pool_bleu(pool, weights)

    monkeypatch.setattr(mert, "optimize_on_pool", worsening_optimizer)
    monkeypatch.setattr(mert, "pool_bleu", counted_pool_bleu)
    log = []
    tuned = mert.mert(_dev_corpus(), lambda w: Decoder(table, model, w, config), initial,
                      iterations=3, nbest_size=10, seed=5, log_lines=log)
    assert tuned == initial
    assert scored == [initial]
    assert sum("pool BLEU" in line for line in log) >= 2  # the guard saw a later call's value

    # with no dev sentence no optimizer call runs, and the start comes back
    scored.clear()
    empty = corpus.ParallelCorpus(())
    assert mert.mert(empty, lambda w: None, initial.scaled(2.0), iterations=10, nbest_size=100,
                     seed=0, log_lines=[]) == initial
    assert scored == []


def _random_task(rng):
    """A random 5-word phrase table, trigram LM and 3-sentence dev set."""
    words = range(5)
    entries = {}
    for w in words:
        for k in range(rng.randint(2, 3)):
            entries[(("w%d" % w,), ("t%d%d" % (w, k),))] = phrases.Scores(
                *(rng.uniform(0.05, 1.0) for _ in range(4)))
    for _ in range(2):
        a, b = rng.sample(words, 2)
        entries[(("w%d" % a, "w%d" % b), ("t%d0" % a, "t%d1" % b))] = phrases.Scores(
            *(rng.uniform(0.05, 1.0) for _ in range(4)))
    model = lm.train(
        [tuple("t%d%d" % (rng.randrange(5), rng.randrange(2)) for _ in range(rng.randint(3, 5)))
         for _ in range(6)],
        3,
    )
    pairs = []
    for i in range(3):
        source = [rng.choice(words) for _ in range(rng.randint(3, 4))]
        pairs.append(corpus.SentencePair(
            tuple("w%d" % w for w in source),
            tuple("t%d%d" % (w, rng.randrange(2)) for w in source),
        ))
    return phrases.PhraseTable(entries), model, corpus.ParallelCorpus(tuple(pairs))


# tasks whose last optimizer call returns the weights of the last n-best pass,
# which is then not repeated, after `n_passes` passes at distinct weights
@pytest.mark.parametrize("task, n_passes", [(18, 2), (279, 3), (129, 4)])
def test_mert_skips_only_the_pass_at_unchanged_weights(task, n_passes):
    table, model, dev = _random_task(random.Random(task))
    config = DecoderConfig(stack_size=50, beam_threshold=None, distortion_limit=2)
    passes = []

    def factory(w):
        passes.append(w)
        return Decoder(table, model, w, config)

    log = []
    got = mert.mert(dev, factory, Weights.uniform(), iterations=6, nbest_size=3, seed=1,
                    log_lines=log)
    got_passes, passes[:] = passes[:], []
    want_log = []
    want = mert_reference(dev, factory, Weights.uniform(), 6, 3, 1, want_log)
    assert got == want and repr(got) == repr(want)
    assert log == want_log
    assert len(got_passes) == n_passes and got_passes == passes[:-1]
    assert all(a != b for a, b in zip(got_passes, got_passes[1:]))
