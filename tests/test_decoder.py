import gc
import math
import os
import random
import threading

import pytest

from minismt import decode, lm, parallel, phrases
from minismt.decode import (
    Decoder,
    DecoderConfig,
    Translation,
    UNKNOWN_WORD_PENALTY,
    Weights,
    _future_of,
    _Hyp,
    _liveness,
    collect_options,
    translate_all,
)
from minismt.errors import FormatError, MinismtError, ParameterError

from conftest import random_phrase_table, unreachable_after
from oracles import (_oracle_options, can_finish_reference, distortion_estimate_reference,
                     enumerate_all_translations, exhaustive_decode, forced_decode,
                     future_cost_reference, future_of_by_bits, kbest_reference, span_mask)

UNPRUNED = DecoderConfig(stack_size=10**6, beam_threshold=None, distortion_limit=None)

SRC_VOCAB = ["f0", "f1", "f2", "f3", "f4"]
TGT_VOCAB = ["x", "y", "z", "u", "v"]


def _random_model(rng, order=2):
    sentences = [
        tuple(rng.choice(TGT_VOCAB) for _ in range(rng.randint(1, 6))) for _ in range(25)
    ]
    return lm.train(sentences, order)


def _random_weights(rng):
    return Weights(tuple(rng.uniform(0.02, 1.0) for _ in range(8)))


def _random_instance(rng, max_len=5):
    n = rng.randint(1, max_len)
    table = random_phrase_table(rng, SRC_VOCAB[:n], TGT_VOCAB, n_entries=6, max_len=2)
    model = _random_model(rng, order=rng.choice([1, 2, 3]))
    weights = _random_weights(rng)
    sentence = tuple(SRC_VOCAB[:n])
    return sentence, table, model, weights


# ---- weights ----------------------------------------------------------------


def test_weights_file_round_trip(tmp_path):
    w = Weights(tuple(float(i) / 10 for i in range(1, 9)))
    path = tmp_path / "w"
    w.to_file(path)
    assert Weights.from_file(path) == w


def test_decoder_refuses_a_model_without_unk(tmp_path):
    table = phrases.PhraseTable({(("f0",), ("x",)): phrases.Scores(0.5, 0.5, 0.5, 0.5)})
    path = tmp_path / "m.arpa"
    path.write_text("\\data\\\nngram 1=3\n\n\\1-grams:\n-0.3\t</s>\n-99\t<s>\n-0.2\tx\n"
                    "\n\\end\\\n", encoding="utf-8")
    with pytest.raises(ParameterError):
        Decoder(table, lm.read_arpa(path), Weights.uniform(), UNPRUNED)


def test_weights_validation():
    with pytest.raises(ParameterError):
        Weights((1.0,) * 7)
    with pytest.raises(ParameterError):
        Weights((float("nan"),) + (0.0,) * 7)


def test_weights_l1_normalization_and_scaling():
    w = Weights((2.0, -2.0) + (0.0,) * 6).l1_normalized()
    assert sum(abs(v) for v in w.values) == pytest.approx(1.0)
    assert w.scaled(10.0).values[0] == pytest.approx(5.0)


def test_decoder_config_validation():
    with pytest.raises(ParameterError):
        DecoderConfig(stack_size=0, beam_threshold=None, distortion_limit=None)
    with pytest.raises(ParameterError):
        DecoderConfig(stack_size=100, beam_threshold=-1.0, distortion_limit=None)


# ---- single-path sanity --------------------------------------------------------


def test_one_word_single_entry_features():
    table = phrases.PhraseTable({(("f0",), ("x",)): phrases.Scores(0.5, 0.25, 0.125, 0.0625)})
    model = lm.train([("x",)], 2)
    w = Weights.uniform()
    t = Decoder(table, model, w, UNPRUNED).decode(("f0",))
    assert t.tokens == ("x",)
    expected_lm = lm.logprob(model, "x", (lm.START,)) + lm.logprob(model, lm.END, ("x",))
    assert t.features[0] == pytest.approx(expected_lm, abs=1e-12)
    assert t.features[1] == pytest.approx(math.log10(0.5))
    assert t.features[2] == pytest.approx(math.log10(0.25))
    assert t.features[3] == pytest.approx(math.log10(0.125))
    assert t.features[4] == pytest.approx(math.log10(0.0625))
    assert t.features[5] == 0.0  # monotone start
    assert t.features[6] == -1.0
    assert t.features[7] == -1.0
    assert abs(w.dot(t.features) - t.score) <= 1e-9


def test_empty_sentence():
    table = phrases.PhraseTable({})
    model = lm.train([("x",)], 2)
    d = Decoder(table, model, Weights.uniform(), UNPRUNED)
    t = d.decode(())
    assert t.tokens == () and t.score == 0.0
    assert d.nbest((), 5) == [Translation((), (0.0,) * 8, 0.0)]


def test_unknown_word_copied_with_penalty():
    table = phrases.PhraseTable({(("f0",), ("x",)): phrases.Scores(1.0, 1.0, 1.0, 1.0)})
    model = lm.train([("x",)], 2)
    d = Decoder(table, model, Weights.uniform(), UNPRUNED)
    t = d.decode(("f0", "zzz"))
    assert t.tokens == ("x", "zzz")
    assert t.features[6] == -2.0 - UNKNOWN_WORD_PENALTY


def test_collect_options_come_in_start_end_target_order():
    # words outside the table, repeated words and spans of up to 3 words
    rng = random.Random(41)
    for trial in range(50):
        table = random_phrase_table(rng, SRC_VOCAB[:3], TGT_VOCAB, n_entries=10, max_len=3)
        words = SRC_VOCAB + ["unk1", "unk2"]
        sentence = tuple(rng.choice(words) for _ in range(rng.randint(0, 7)))
        got = [(o.start, o.end, o.target) for o in collect_options(sentence, table)]
        assert got == sorted(got), trial
        assert got == sorted((i, j, target) for i, j, target, _, _
                             in _oracle_options(sentence, table)), trial


# ---- oracle equalities -----------------------------------------------------------


def test_unpruned_decode_equals_exhaustive():
    rng = random.Random(99)
    for trial in range(30):
        sentence, table, model, weights = _random_instance(rng)
        got = Decoder(table, model, weights, UNPRUNED).decode(sentence)
        want_score, want_tokens, want_features = exhaustive_decode(sentence, table, model,
                                                                   weights)
        assert got.score == want_score, trial
        assert got.tokens == want_tokens, trial
        assert got.features == want_features, trial


@pytest.mark.parametrize("dl", [0, 1, 2, 3])
def test_distortion_limit_decode_equals_exhaustive(dl):
    rng = random.Random(7)
    config = DecoderConfig(stack_size=10**6, beam_threshold=None, distortion_limit=dl)
    for trial in range(20):
        sentence, table, model, weights = _random_instance(rng)
        got = Decoder(table, model, weights, config).decode(sentence)
        want_score, want_tokens, want_features = exhaustive_decode(
            sentence, table, model, weights, distortion_limit=dl)
        assert got.score == want_score, trial
        assert got.tokens == want_tokens, trial
        assert got.features == want_features, trial


def test_future_of_equals_bit_by_bit_gap_walk():
    # every coverage of every n <= 9, so the empty and the full coverage and
    # gaps that run to the last position are all among them
    rng = random.Random(17)
    for n in range(1, 10):
        table = {span_mask(i, j): rng.uniform(-9.0, 0.0)
                 for i in range(n) for j in range(i + 1, n + 1)}
        full = (1 << n) - 1
        for coverage in range(full + 1):
            want = future_of_by_bits(coverage, full, table)
            assert _future_of(coverage, full, table) == want, (n, coverage)


def test_ranking_charges_the_distortion_estimate_of_every_state():
    # every state (coverage with a word open, last covered position) of every
    # n <= 9, ranked through one future memo per n. A stack ranks on score +
    # future - w_distortion * d; with futures of 0, w_distortion 1 and a
    # state's score set to the oracle's d, the state ranks at 0.0 exactly
    # when the decoder's d is the oracle's, as the root at score 0 does
    # (its memo entry: future 0, first open 0, no covered run between open
    # ones), and a beam of width 0 keeps both only if they tie
    assert distortion_estimate_reference(0b00111011, 5, 8) == 7  # open 2, 6, 7
    rng = random.Random(23)
    _, table, model, _ = _random_instance(rng)
    weights = Weights((0.5,) * 5 + (1.0,) + (0.5,) * 2)
    decoder = Decoder(table, model, weights, DecoderConfig(10**6, 0.0, None))
    root = _Hyp((0, 0, -1), 0.0, 0.0, None, None, 0.0, 0)
    for n in range(2, 10):  # n = 1 has no state with a word open but the root
        full = (1 << n) - 1
        futures = {span_mask(i, j): 0.0 for i in range(n) for j in range(i + 1, n + 1)}
        memo = {}
        for coverage in range(1, full):
            for last_end in (i for i in range(n) if coverage >> i & 1):
                d = distortion_estimate_reference(coverage, last_end, n)
                state = _Hyp((coverage, 0, last_end), float(d), 0.0, None, None, 0.0, 1)
                kept = decoder._pruned({root.key: root, state.key: state}, full, futures, memo,
                                       lambda coverage, last_end: True)
                assert len(kept) == 2, (n, bin(coverage), last_end, d)
        assert memo[0] == (0.0, 0, 0)


def _neighbour_rule(coverage, last_end, n, dl):
    """The dead-end rule on the sorted uncovered positions and last_end."""
    points = sorted([i for i in range(n) if not coverage >> i & 1] + [last_end])
    return not any(b - a > dl + 1 or (b - a > dl - 1 and last_end >= b)
                   for a, b in zip(points, points[1:]))


def test_liveness_never_drops_a_state_that_can_finish():
    # every state (coverage, last covered position) of every n <= 9, at every
    # limit up to one that no run of covered words can exceed
    dead = caught = 0
    for n in range(1, 10):
        full = (1 << n) - 1
        for dl in range(9):
            can_finish, reference = _liveness(full, dl), can_finish_reference(n, dl)
            for coverage in range(1, full + 1):
                for last_end in (i for i in range(n) if coverage >> i & 1):
                    live = can_finish(coverage, last_end)
                    assert live == _neighbour_rule(coverage, last_end, n, dl), (
                        n, dl, bin(coverage), last_end)
                    if not reference(coverage, last_end):
                        dead += 1
                        caught += not live
                    else:
                        assert live, (n, dl, bin(coverage), last_end)
    assert caught > 0.9 * dead


def test_liveness_follows_the_neighbour_rule_up_to_30_words():
    # random states past the exhaustive n <= 9, up to 30 words, with
    # coverages from sparse to dense so that both outcomes are common
    rng = random.Random(31)
    outcomes = {True: 0, False: 0}
    for n in range(1, 31):
        full = (1 << n) - 1
        for dl in range(9):
            can_finish = _liveness(full, dl)
            for _ in range(30):
                density = rng.random()
                last_end = rng.randrange(n)
                coverage = 1 << last_end
                for i in range(n):
                    coverage |= (rng.random() < density) << i
                live = can_finish(coverage, last_end)
                assert live == _neighbour_rule(coverage, last_end, n, dl), (
                    n, dl, bin(coverage), last_end)
                outcomes[live] += 1
    assert min(outcomes.values()) > 1000, outcomes


def test_unlimited_reordering_equals_a_limit_of_the_sentence_length():
    rng = random.Random(37)
    for _ in range(12):
        table = random_phrase_table(rng, SRC_VOCAB, TGT_VOCAB, n_entries=10, max_len=3)
        model = _random_model(rng, order=rng.choice([1, 2, 3]))
        weights = _random_weights(rng)
        sentence = tuple(rng.choice(SRC_VOCAB) for _ in range(rng.randint(1, 7)))
        stack_size = rng.choice([1, 3, 10**6])
        lists = [Decoder(table, model, weights, DecoderConfig(stack_size, None, dl)).nbest(
            sentence, 20) for dl in (None, len(sentence))]
        assert lists[0] == lists[1], (sentence, stack_size)


def test_reused_decoders_equal_fresh_ones():
    # pruning reads the future cost and the sentences share coverages, so a
    # memo that outlived its sentence, or ignored the weights, shows here
    rng = random.Random(23)
    table = random_phrase_table(rng, SRC_VOCAB, TGT_VOCAB, n_entries=12, max_len=2)
    model = _random_model(rng, order=3)
    sentences = [tuple(rng.choice(SRC_VOCAB) for _ in range(rng.randint(2, 6)))
                 for _ in range(8)]
    config = DecoderConfig(stack_size=2, beam_threshold=None, distortion_limit=None)
    reused = [Decoder(table, model, _random_weights(rng), config) for _ in range(2)]
    for sentence in sentences + sentences[:3]:
        for decoder in reused:
            fresh = Decoder(table, model, decoder.weights, config)
            assert decoder.nbest(sentence, 10) == fresh.nbest(sentence, 10), sentence


def test_tightening_distortion_limit_never_helps():
    rng = random.Random(42)
    for _ in range(10):
        sentence, table, model, weights = _random_instance(rng)
        scores = []
        for dl in (None, 2, 1, 0):
            config = DecoderConfig(stack_size=10**6, beam_threshold=None, distortion_limit=dl)
            scores.append(Decoder(table, model, weights, config).decode(sentence).score)
        for wider, tighter in zip(scores, scores[1:]):
            assert tighter <= wider + 1e-12


def test_score_audit_and_trace():
    rng = random.Random(5)
    sentence, table, model, weights = _random_instance(rng)
    t = Decoder(table, model, weights, UNPRUNED).decode(sentence)
    assert abs(weights.dot(t.features) - t.score) <= 1e-9


# ---- future costs -----------------------------------------------------------------


def test_future_table_dp_property():
    rng = random.Random(23)
    sentence, table, model, weights = _random_instance(rng, max_len=5)
    d = Decoder(table, model, weights, UNPRUNED)
    fut = d.future_cost_table(sentence, collect_options(sentence, table))
    n = len(sentence)
    for i in range(n):
        for j in range(i + 1, n + 1):
            for k in range(i + 1, j):
                assert fut[span_mask(i, j)] >= (
                    fut[span_mask(i, k)] + fut[span_mask(k, j)] - 1e-12)


def test_future_table_equals_enumerated_phrase_scores(tmp_path):
    # each option's target is scored by the LM alone, its first word from the
    # empty context; MERT's random directions can make the LM weight negative,
    # so each instance runs with it negated too. The hand-written last model
    # has a positive backoff, backoff(a) = +0.5, which the target "a b" reads
    rng = random.Random(29)
    instances = [_random_instance(rng, max_len=4) for _ in range(10)]
    path = tmp_path / "positive_backoff.arpa"
    path.write_text("\\data\\\nngram 1=5\nngram 2=2\n\n"
                    "\\1-grams:\n-1.0\t</s>\n-99\t<s>\t0.0\n-1.0\t<unk>\n-1.0\ta\t0.5\n-1.0\tb\n\n"
                    "\\2-grams:\n-0.5\t<s> a\n0.0\tb </s>\n\n\\end\\\n", encoding="utf-8")
    table = phrases.PhraseTable({(("f0",), ("a",)): phrases.Scores(1.0, 1.0, 1.0, 1.0),
                                 (("f1",), ("b",)): phrases.Scores(1.0, 1.0, 1.0, 1.0),
                                 (("f0", "f1"), ("a", "b")): phrases.Scores(0.5, 0.5, 0.5, 0.5)})
    instances.append((("f0", "f1"), table, lm.read_arpa(path), Weights((1.0,) + (0.0,) * 7)))
    for trial, (sentence, table, model, weights) in enumerate(instances):
        negated = Weights((-weights.values[0],) + weights.values[1:])
        for w in (weights, negated):
            d = Decoder(table, model, w, UNPRUNED)
            got = d.future_cost_table(sentence, collect_options(sentence, table))
            want = future_cost_reference(sentence, table, model, w)
            assert got.keys() == want.keys(), trial
            for span, value in want.items():
                assert abs(got[span] - value) <= 1e-9, (trial, span)


def test_single_word_future_is_best_option():
    table = phrases.PhraseTable({(("f0",), ("x",)): phrases.Scores(0.5, 0.5, 0.5, 0.5)})
    model = lm.train([("x",)], 1)
    w = Weights.uniform()
    d = Decoder(table, model, w, UNPRUNED)
    options = collect_options(("f0",), table)
    fut = d.future_cost_table(("f0",), options)
    assert fut[span_mask(0, 1)] == d._option_estimate(options[0])


def test_future_prefers_two_word_phrase_when_better():
    # 3-case comparison: the 2-word entry, and each 1-word split
    table = phrases.PhraseTable(
        {
            (("f0",), ("x",)): phrases.Scores(0.1, 0.1, 0.1, 0.1),
            (("f1",), ("y",)): phrases.Scores(0.1, 0.1, 0.1, 0.1),
            (("f0", "f1"), ("x", "y")): phrases.Scores(1.0, 1.0, 1.0, 1.0),
        }
    )
    model = lm.train([("x", "y")], 1)
    d = Decoder(table, model, Weights.uniform(), UNPRUNED)
    options = collect_options(("f0", "f1"), table)
    fut = d.future_cost_table(("f0", "f1"), options)
    two_word = next(o for o in options if o.end - o.start == 2)
    assert fut[span_mask(0, 2)] == d._option_estimate(two_word)
    assert fut[span_mask(0, 2)] > fut[span_mask(0, 1)] + fut[span_mask(1, 2)]


# ---- recombination ---------------------------------------------------------------


def _search_graph(goal, arcs):
    """Every hypothesis that a search's goal reaches through prev and the
    arcs of each key it meets, from Decoder._search's (goal, arcs) pair."""
    seen, todo = set(), [goal]
    while todo:
        h = todo.pop()
        if h not in seen:
            seen.add(h)
            todo.extend(arcs.get(h.key, ()))
            if h.prev is not None:
                todo.append(h.prev)
    return seen


def _search_cases():
    """(case, sentence, decoder): 40 instances alternating _random_instance
    and _tie_heavy_instance, each unpruned, at stack 2 and at stack 3 with
    a beam of 0 and a distortion limit of 1."""
    rng = random.Random(73)
    for trial in range(40):
        instance = _tie_heavy_instance if trial % 2 else _random_instance
        sentence, table, model, weights = instance(rng)
        for config in (UNPRUNED, DecoderConfig(2, None, None), DecoderConfig(3, 0.0, 1)):
            yield (trial, config), sentence, Decoder(table, model, weights, config)


def test_recombination_keeps_the_first_built_of_equal_hypotheses():
    # of the members of each key the goal reaches, one holds the state and
    # the others are its arcs: the best, and on an exact tie the first built,
    # whatever the partial strings
    keys = ties = 0
    for case, sentence, decoder in _search_cases():
        goal, arcs = decoder._search(sentence)
        if goal is None:
            continue
        members = {}
        for h in _search_graph(goal, arcs):
            members.setdefault(h.key, []).append(h)
        for key, hyps in members.items():
            losers = set(arcs.get(key, ()))
            held = [h for h in hyps if h not in losers]
            assert len(held) == 1, (case, key)
            best = held[0]
            assert all(h.score < best.score or h.score == best.score and h.serial > best.serial
                       for h in losers), (case, key)
            keys += 1
            ties += sum(h.score == best.score for h in losers)
    assert keys > 100 and ties > 10, (keys, ties)


def test_arcs_hold_only_the_expanded_states_and_the_goal(monkeypatch):
    # the read-out follows prev, which points at an expanded state, and the
    # losers of its key, so a search keeps the losers of those keys alone
    pruned, expanded = Decoder._pruned, set()

    def recording(self, *args):
        kept = pruned(self, *args)
        expanded.update(h.key for h in kept)
        return kept

    monkeypatch.setattr(Decoder, "_pruned", recording)
    kept_arcs = goal_arcs = 0
    for case, sentence, decoder in _search_cases():
        expanded.clear()
        _, arcs = decoder._search(sentence)
        full_mask = (1 << len(sentence)) - 1
        assert set(arcs) <= expanded | {full_mask}, case
        kept_arcs += len(set(arcs) - {full_mask})
        goal_arcs += full_mask in arcs
    assert kept_arcs > 100 and goal_arcs > 10, (kept_arcs, goal_arcs)


def _partial_output(h):
    words = []
    while h.prev is not None:
        words[:0] = h.option.target
        h = h.prev
    return tuple(words)


def test_search_keys_hold_the_lm_states_of_their_outputs():
    rng = random.Random(71)
    configs = (UNPRUNED, DecoderConfig(2, None, None), DecoderConfig(10**6, None, 1))
    for trial in range(20):
        sentence, table, model, weights = _random_instance(rng)
        state = lm.state_machine(model)[0]
        full_mask = (1 << len(sentence)) - 1
        for config in configs:
            for h in _search_graph(*Decoder(table, model, weights, config)._search(sentence)):
                if h.key != full_mask:  # the goal's key holds no LM state
                    want = state((lm.START,) + _partial_output(h))
                    assert h.key[1] == want, (trial, config, h.key)


# ---- nbest ---------------------------------------------------------------------


def test_nbest_two_derivations():
    table = phrases.PhraseTable(
        {
            (("f0",), ("x",)): phrases.Scores(0.8, 0.8, 0.8, 0.8),
            (("f0",), ("y",)): phrases.Scores(0.2, 0.2, 0.2, 0.2),
        }
    )
    model = lm.train([("x",), ("y",)], 2)
    d = Decoder(table, model, Weights.uniform(), UNPRUNED)
    got = d.nbest(("f0",), 10)
    assert [t.tokens for t in got] == [("x",), ("y",)]
    assert got[0].score >= got[1].score


def test_nbest_first_entry_equals_decode():
    rng = random.Random(31)
    for _ in range(10):
        sentence, table, model, weights = _random_instance(rng)
        d = Decoder(table, model, weights, UNPRUNED)
        top = d.decode(sentence)
        nb = d.nbest(sentence, 5)
        assert nb[0].tokens == top.tokens
        assert nb[0].score == top.score


def test_nbest_scores_non_increasing_and_distinct():
    rng = random.Random(37)
    for _ in range(10):
        sentence, table, model, weights = _random_instance(rng)
        nb = Decoder(table, model, weights, UNPRUNED).nbest(sentence, 20)
        tokens = [t.tokens for t in nb]
        assert len(set(tokens)) == len(tokens)
        for a, b in zip(nb, nb[1:]):
            assert a.score >= b.score


def test_nbest_bad_n():
    table = phrases.PhraseTable({})
    model = lm.train([("x",)], 1)
    with pytest.raises(ParameterError):
        Decoder(table, model, Weights.uniform(), UNPRUNED).nbest(("f0",), 0)


def test_nbest_equals_full_enumeration_ranking():
    # the whole distinct-translation ranking, not just the top entry
    rng = random.Random(53)
    for trial in range(15):
        n = rng.randint(1, 4)
        sentence = tuple("f%d" % i for i in range(n))
        table = random_phrase_table(rng, list(sentence), ["x", "y", "z"], n_entries=4, max_len=2)
        sents = [
            tuple(rng.choice(["x", "y", "z"]) for _ in range(rng.randint(1, 5)))
            for _ in range(15)
        ]
        model = lm.train(sents, rng.choice([1, 2]))
        weights = Weights(tuple(rng.uniform(0.05, 1.0) for _ in range(8)))
        want = enumerate_all_translations(sentence, table, model, weights)
        got = Decoder(table, model, weights, UNPRUNED).nbest(sentence, len(want) + 5)
        assert [(t.tokens, t.score) for t in got] == want, trial
        # every entry's features, not only the 1-best's, give its score
        for t in got:
            assert abs(weights.dot(t.features) - t.score) <= 1e-9, (trial, t)
    # weights of 0 and ±1 tie many scores exactly; every prefix of the
    # ranking must hold, so the read-out may stop only below the last score
    for trial in range(60):
        n = rng.randint(1, 4)
        sentence = tuple("f%d" % i for i in range(n))
        table = random_phrase_table(rng, list(sentence), ["x", "y", "z"], n_entries=4, max_len=2)
        sents = [
            tuple(rng.choice(["x", "y", "z"]) for _ in range(rng.randint(1, 5)))
            for _ in range(15)
        ]
        model = lm.train(sents, rng.choice([1, 2]))
        weights = Weights(tuple(rng.choice((0.0, 0.0, 1.0, -1.0)) for _ in range(8)))
        want = enumerate_all_translations(sentence, table, model, weights)
        decoder = Decoder(table, model, weights, UNPRUNED)
        for k in range(1, len(want) + 2):
            got = decoder.nbest(sentence, k)
            assert [(t.tokens, t.score) for t in got] == want[:k], (trial, k)


def _many_derivations_instance():
    """8 x "f": the best string x^8 has hundreds of derivations (81
    segmentations, each in many orders), and every other string has many."""
    one = phrases.Scores(1.0, 1.0, 1.0, 1.0)
    table = phrases.PhraseTable({
        (("f",), ("x",)): one,
        (("f", "f"), ("x", "x")): one,
        (("f", "f", "f"), ("x", "x", "x")): one,
        (("f",), ("y",)): phrases.Scores(0.01, 0.01, 0.01, 0.01),
    })
    model = lm.train([("x",) * 8, ("x", "y")], 2)
    return ("f",) * 8, table, model, Weights.uniform()


def test_nbest_returns_n_when_the_best_string_has_many_derivations():
    # hundreds of derivations of the best string outscore the runner-up;
    # nbest must read past them all
    sentence, table, model, weights = _many_derivations_instance()
    # every source word is "f", so each reordered derivation has a monotone
    # twin with the same string and no distortion cost: the monotone
    # enumeration holds every string at its best score
    want = enumerate_all_translations(sentence, table, model, weights, distortion_limit=0)
    got = Decoder(table, model, weights, UNPRUNED).nbest(sentence, 2)
    assert [(t.tokens, t.score) for t in got] == want[:2]


def test_nbest_skips_the_spurious_derivations_of_a_string(monkeypatch):
    # each state lists a partial string once, so the read-out does not walk
    # every path of a string to the goal: a read-out of paths pops the heaps
    # about 9,000 times here
    sentence, table, model, weights = _many_derivations_instance()
    decoder = Decoder(table, model, weights, DecoderConfig(10, None, 6))
    want = kbest_reference(decoder._search(sentence), 10)
    pops, heappop = [], decode.heapq.heappop

    def counting(heap):
        pops.append(None)
        return heappop(heap)

    monkeypatch.setattr(decode.heapq, "heappop", counting)
    assert decoder.nbest(sentence, 10) == want
    assert len(pops) < 1000


def _tie_heavy_instance(rng, max_len=5):
    """Weights of 0, 0.5 and ±1 and phrases of up to 3 words: many
    derivations of one string tie exactly, and so do many strings."""
    n = rng.randint(1, max_len)
    table = random_phrase_table(rng, SRC_VOCAB[:n], TGT_VOCAB, n_entries=6, max_len=3)
    model = _random_model(rng, order=rng.choice([1, 2, 3]))
    weights = Weights(tuple(rng.choice((0.0, 0.0, 1.0, -1.0, 0.5)) for _ in range(8)))
    return tuple(SRC_VOCAB[:n]), table, model, weights


def test_nbest_equals_the_read_out_of_every_path():
    # the distinct lists give the paths' read-out exactly: the same strings,
    # the features of each string's first path, and the same floats
    rng = random.Random(67)
    configs = [DecoderConfig(stack, threshold, dl) for stack in (1, 2, 3, 10**6)
               for threshold in (None, 0.0, 1.0) for dl in (None, 0, 1, 2)]
    instances = [_random_instance(rng) for _ in range(8)]
    instances += [_tie_heavy_instance(rng) for _ in range(24)]
    for trial, (sentence, table, model, weights) in enumerate(instances):
        for config in configs[trial % 4::4]:
            decoder = Decoder(table, model, weights, config)
            graph = decoder._search(sentence)
            if graph[0] is None:
                with pytest.raises(MinismtError):
                    decoder.nbest(sentence, 1)
                continue
            for n in range(1, 31):
                got = [(t.tokens, t.features, t.score) for t in decoder.nbest(sentence, n)]
                want = [(t.tokens, t.features, t.score) for t in kbest_reference(graph, n)]
                assert repr(got) == repr(want), (trial, config, n)


@pytest.mark.parametrize("dl", [None, 1])
def test_forced_decode_scores_each_string_at_its_best_derivation(dl):
    """The search-error oracle: forced_decode of every string that the full
    enumeration reaches gives that string's best score exactly, and a
    string no derivation makes is unreachable."""
    rng = random.Random(61)
    for trial in range(30):
        sentence, table, model, weights = _random_instance(rng, max_len=4)
        want = enumerate_all_translations(sentence, table, model, weights, distortion_limit=dl)
        for tokens, score in want:
            assert forced_decode(sentence, tokens, table, model, weights, dl) == score, trial
        unmade = want[0][0] + ("not-a-target",)
        assert forced_decode(sentence, unmade, table, model, weights, dl) is None, trial


# ---- pruning and determinism ------------------------------------------------------


def test_pruned_search_still_reasonable():
    rng = random.Random(41)
    sentence, table, model, weights = _random_instance(rng)
    tight = DecoderConfig(stack_size=1, beam_threshold=None, distortion_limit=None)
    pruned = Decoder(table, model, weights, tight).decode(sentence)
    full = Decoder(table, model, weights, UNPRUNED).decode(sentence)
    assert pruned.score <= full.score + 1e-12


@pytest.mark.parametrize("dl", [0, 1, None])
@pytest.mark.parametrize("stack_size", [1, 2, 3])
def test_pruned_nbest_lists(stack_size, dl):
    # a pruned search still reads its lists from one goal state
    rng = random.Random(61)
    for trial in range(10):
        sentence, table, model, weights = _random_instance(rng)
        d = Decoder(table, model, weights, DecoderConfig(stack_size, None, dl))
        full = d.nbest(sentence, 20)
        tokens = [t.tokens for t in full]
        assert len(set(tokens)) == len(tokens), trial
        for a, b in zip(full, full[1:]):
            assert a.score >= b.score, trial
        for t in full:
            assert abs(weights.dot(t.features) - t.score) <= 1e-9, trial
        for k in range(1, 6):
            assert d.nbest(sentence, k) == full[:k], (trial, k)
        assert full[0] == d.decode(sentence), trial


def _budget_cases():
    """(case, sentence, decoder): _random_instance and _tie_heavy_instance
    by turns, then _many_derivations_instance, whose estimates tie often, at
    stacks 1 to 3 and beam thresholds None and 0.0, with unlimited
    reordering or a distortion limit of 1 by turns."""
    rng = random.Random(79)
    instances = [(_tie_heavy_instance if trial % 2 else _random_instance)(rng)
                 for trial in range(24)] + [_many_derivations_instance()]
    for trial, (sentence, table, model, weights) in enumerate(instances):
        dl = (None, 1)[trial // 2 % 2]
        for stack_size in (1, 2, 3):
            for threshold in (None, 0.0):
                config = DecoderConfig(stack_size, threshold, dl)
                yield (trial, config), sentence, Decoder(table, model, weights, config)


def _built_and_expanded(monkeypatch, decoder, sentence):
    """(built, expanded) of one search, each a list per stack: the
    hypotheses built, in build order, and the states expanded, in _pruned's
    order, the root alone in stack 0."""
    n = len(sentence)
    built, expanded = [[] for _ in range(n + 1)], []
    pruned = Decoder._pruned

    def recording_pruned(self, *args):
        kept = pruned(self, *args)
        expanded.append(kept)
        return kept

    def recording_hyp(key, *args):
        h = _Hyp(key, *args)
        built[n if key == (1 << n) - 1 else key[0].bit_count()].append(h)
        return h

    with monkeypatch.context() as patched:
        patched.setattr(Decoder, "_pruned", recording_pruned)
        patched.setattr(decode, "_Hyp", recording_hyp)
        decoder._search(sentence)
    return built, [built[0]] + expanded


def _candidates(decoder, sentence, expanded):
    """Each stack's candidates in the order the search generates them, as
    (estimate, predecessor, start, end, target): every option over an open
    span within the distortion limit of each expanded state, stack by stack.
    The estimate is summed as the search sums it; the goal's is None."""
    n = len(sentence)
    full = (1 << n) - 1
    options = collect_options(sentence, decoder.table)
    futures = decoder.future_cost_table(sentence, options)
    dl = n if decoder.config.distortion_limit is None else decoder.config.distortion_limit
    w_distortion = decoder.weights.values[5]
    candidates = [[] for _ in range(n + 1)]
    for states in expanded:
        for h in states:
            coverage, _, last_end = h.key
            for o in options:
                jump = phrases.distortion_cost(last_end, o.start)
                if coverage & o.mask or jump > dl:
                    continue
                new = coverage | o.mask
                estimate = None if new == full else (
                    h.score + w_distortion * -float(jump) + _future_of(new, full, futures)
                    - w_distortion * distortion_estimate_reference(new, o.end - 1, n)
                    + decoder._option_estimate(o))
                candidates[new.bit_count()].append((estimate, h, o.start, o.end, o.target))
    return candidates


def test_a_stack_builds_at_most_twice_its_size_and_the_goal_all(monkeypatch):
    # a stack below the goal builds its candidates up to 2 x stack_size, in
    # the order they were generated; the goal's builds every one it receives
    trimmed = goal_over = 0
    for case, sentence, decoder in _budget_cases():
        built, expanded = _built_and_expanded(monkeypatch, decoder, sentence)
        candidates = _candidates(decoder, sentence, expanded)
        n, budget = len(sentence), 2 * decoder.config.stack_size
        assert built[0] == expanded[0] and len(built[0]) == 1, case
        for covered in range(1, n + 1):
            serials = [h.serial for h in built[covered]]
            assert serials == sorted(serials), (case, covered)
            received = len(candidates[covered])
            if covered == n:
                assert len(built[n]) == received, case
                goal_over += received > budget
            else:
                assert len(built[covered]) == min(received, budget), (case, covered)
                trimmed += received > budget
    assert trimmed > 200 and goal_over > 50, (trimmed, goal_over)


def test_a_trimmed_stack_builds_the_best_estimates_first_generated_on_a_tie(monkeypatch):
    trimmed = ties = 0
    for case, sentence, decoder in _budget_cases():
        built, expanded = _built_and_expanded(monkeypatch, decoder, sentence)
        candidates = _candidates(decoder, sentence, expanded)
        budget = 2 * decoder.config.stack_size
        for covered, received in enumerate(candidates[:-1]):
            if len(received) <= budget:
                continue
            ranked = sorted(range(len(received)), key=lambda i: (-received[i][0], i))
            want = {received[i][1:] for i in ranked[:budget]}
            got = {(h.prev, h.option.start, h.option.end, h.option.target)
                   for h in built[covered]}
            assert got == want, (case, covered)
            trimmed += 1
            ties += received[ranked[budget - 1]][0] == received[ranked[budget]][0]
    assert trimmed > 200 and ties > 10, (trimmed, ties)


def test_wide_beam_threshold_prunes_nothing():
    # a window wider than any score gap keeps every hypothesis
    rng = random.Random(47)
    wide = DecoderConfig(stack_size=10**6, beam_threshold=1e6, distortion_limit=None)
    for trial in range(10):
        sentence, table, model, weights = _random_instance(rng)
        want = Decoder(table, model, weights, UNPRUNED).nbest(sentence, 20)
        assert Decoder(table, model, weights, wide).nbest(sentence, 20) == want, trial


def test_zero_beam_threshold_prunes_the_best_path():
    # a zero window keeps only the states ranked best in each stack; here
    # the unpruned best path passes through a state that is not, so the
    # best score under the threshold is lower
    sentence, table, model, weights = _random_instance(random.Random(0))
    zero = DecoderConfig(stack_size=10**6, beam_threshold=0.0, distortion_limit=None)
    full = Decoder(table, model, weights, UNPRUNED).decode(sentence)
    pruned = Decoder(table, model, weights, zero).decode(sentence)
    assert pruned.score < full.score


def test_decoding_deterministic():
    rng = random.Random(43)
    sentence, table, model, weights = _random_instance(rng)
    a = Decoder(table, model, weights, UNPRUNED).decode(sentence)
    b = Decoder(table, model, weights, UNPRUNED).decode(sentence)
    assert a == b
    na = Decoder(table, model, weights, UNPRUNED).nbest(sentence, 10)
    nb = Decoder(table, model, weights, UNPRUNED).nbest(sentence, 10)
    assert na == nb


# ---- the cyclic garbage collector -------------------------------------------------


def test_searches_leave_no_cycles_for_the_collector():
    # a search runs with the cyclic collector paused, which frees nothing
    # only while reference counting frees the whole search graph
    rng = random.Random(37)
    cases = []
    for _ in range(30):
        sentence, table, model, weights = _random_instance(rng)
        for config in (UNPRUNED, DecoderConfig(2, None, 1), DecoderConfig(3, 0.5, None)):
            cases.append((Decoder(table, model, weights, config), sentence))

    def run():
        for decoder, sentence in cases:
            decoder.decode(sentence)
            decoder.nbest(sentence, 100)

    assert unreachable_after(run) == 0


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
def test_decoding_leaves_the_collector_as_it_found_it(monkeypatch, enabled):
    sentence, table, model, weights = _random_instance(random.Random(41))
    decoder = Decoder(table, model, weights, UNPRUNED)
    search, during = Decoder._search, []

    def recording(self, s):
        during.append(gc.isenabled())
        return search(self, s)

    monkeypatch.setattr(Decoder, "_search", recording)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        decoder.decode(sentence)
        assert gc.isenabled() is enabled
        decoder.nbest(sentence, 5)
        assert gc.isenabled() is enabled
        assert during == [False, False]
        error = MinismtError("the search failed")

        def failing(self, s):
            raise error

        monkeypatch.setattr(Decoder, "_search", failing)
        for call in (decoder.decode, lambda s: decoder.nbest(s, 5)):
            with pytest.raises(MinismtError) as raised:
                call(sentence)
            assert raised.value is error
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# ---- translate_all: a sentence list on every CPU ------------------------------


def _outcome(decoder, sentences, n):
    """What translate_all yields before it stops, and the error it stops with."""
    got = []
    try:
        for result in translate_all(decoder, sentences, n):
            got.append(result)
    except Exception as exc:
        assert parallel._SHARED is None
        return got, (type(exc), str(exc))
    assert parallel._SHARED is None
    return got, None


@pytest.mark.parametrize("workers", [1, 2])
def test_translate_all_equals_per_sentence_search(monkeypatch, workers):
    monkeypatch.setattr(parallel, "_available_cpus", lambda: workers)
    rng = random.Random(29)
    config = DecoderConfig(stack_size=20, beam_threshold=None, distortion_limit=2)
    for trial in range(4):
        _, table, model, weights = _random_instance(rng)
        decoder = Decoder(table, model, weights, config)
        # the longest sentence first, so that a worker finishing out of turn
        # would show as a reordering
        sentences = sorted((tuple(rng.choice(SRC_VOCAB) for _ in range(rng.randint(0, 6)))
                            for _ in range(7)), key=len, reverse=True)
        want = [[decoder.decode(s)] for s in sentences]
        assert _outcome(decoder, sentences, 1) == (want, None), trial
        want = [decoder.nbest(s, 4) for s in sentences]
        assert _outcome(decoder, sentences, 4) == (want, None), trial


class _EchoDecoder:
    """Translates a sentence to itself and the id of the process that decoded
    it; fails on the word "bad". The lock cannot be pickled, so the decoder
    reaches a worker only by fork inheritance."""

    def __init__(self):
        self.lock = threading.Lock()

    def nbest(self, sentence, n):
        if "bad" in sentence:
            raise FormatError("cannot decode %s" % " ".join(sentence))
        return [Translation(sentence + (str(os.getpid()),), (0.0,) * 8, float(len(sentence)))] * n


def test_translate_all_decodes_in_forked_workers(monkeypatch):
    monkeypatch.setattr(parallel, "_available_cpus", lambda: 2)
    sentences = [("s%d" % i,) for i in range(6)]
    got, error = _outcome(_EchoDecoder(), sentences, 1)
    assert error is None
    assert [nbest[0].tokens[:-1] for nbest in got] == sentences
    assert str(os.getpid()) not in {nbest[0].tokens[-1] for nbest in got}
    # capped at the number of sentences: one sentence runs in this process
    got, _ = _outcome(_EchoDecoder(), sentences[:1], 1)
    assert got[0][0].tokens == ("s0", str(os.getpid()))


@pytest.mark.parametrize("n", [1, 3])
def test_translate_all_raises_a_workers_error_as_the_serial_loop(monkeypatch, n):
    sentences = [("a",), ("b", "c"), ("bad", "x"), ("d",), ("bad", "y"), ("e",)]
    outcomes = []
    for workers in (1, 2):
        monkeypatch.setattr(parallel, "_available_cpus", lambda: workers)
        got, error = _outcome(_EchoDecoder(), sentences, n)
        outcomes.append(([nbest[0] for nbest in got], error))
    for got, error in outcomes:
        assert [t.tokens[:-1] for t in got] == sentences[:2]
        assert error == (FormatError, "cannot decode bad x")
    # a real decoder's refusal comes back with its class and message too
    _, table, model, weights = _random_instance(random.Random(31))
    decoder = Decoder(table, model, weights, UNPRUNED)
    errors = []
    for workers in (1, 2):
        monkeypatch.setattr(parallel, "_available_cpus", lambda: workers)
        errors.append(_outcome(decoder, [("f0",), ("f1", "f0")], 0))
    assert errors[0] == errors[1] == ([], (ParameterError, "nbest size must be >= 1, got 0"))
