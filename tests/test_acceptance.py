"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test ends with a printed PASS line (run with ``pytest -s`` to see
them as they happen); a failing criterion fails its test. The end-to-end
criteria run the bundled ~1k-pair toy corpus through the real pipeline,
twice, to check both quality and byte-level determinism.
"""

import hashlib
import math
import random
import re
import time
from collections import Counter
from pathlib import Path

import pytest

from minismt import align, artok, bleu, cli, corpus, lm, mert, parallel, phrases, pipeline
from minismt.decode import Decoder, DecoderConfig, Weights

from conftest import random_alignment, random_phrase_table, unreachable_after
from oracles import (brute_force_extract, conditional_sum, event_vocab, exhaustive_decode,
                     forced_decode, grid_best_bleu, search_outcome)
from test_artok import AR_SENTENCES, BW_SENTENCES, scheme_normal_form

UNPRUNED = DecoderConfig(stack_size=10**6, beam_threshold=None, distortion_limit=None)
# the pipeline's default search settings, as its mert and decode stages take them
DEFAULT_SEARCH = {param: getattr(pipeline.PipelineConfig(), field)
                  for param, field in pipeline.SEARCH_PARAMS.items()}

# sha256sum of every toy work file but the manifests, which name absolute
# paths; after a deliberate output change, regenerate it in the work dir with
# sha256sum $(ls | grep -v manifest)
TOY_WORK_SHA256 = Path(__file__).parent / "data" / "toy_work.sha256"
# sha256 of the toy dev set's 100-best lists at uniform weights and
# DEFAULT_SEARCH, each list one line: repr of its (tokens, features, score)
# entries
TOY_NBEST_SHA256 = Path(__file__).parent / "data" / "toy_nbest.sha256"


def _ok(name):
    print("ACCEPTANCE PASS: %s" % name)


@pytest.fixture(scope="module")
def toy_runs(tmp_path_factory):
    """Two full pipeline runs over the bundled toy corpus, with timings: the
    first decodes on every available CPU, the second in this process only."""
    runs = []
    for tag in ("first", "second"):
        out = tmp_path_factory.mktemp("toy-%s" % tag)
        cfg = pipeline.load_config(pipeline.make_toy_config(out))
        with pytest.MonkeyPatch.context() as mp:
            if tag == "second":
                mp.setattr(parallel, "_available_cpus", lambda: 1)
            started = time.monotonic()
            work = pipeline.run_pipeline(cfg)
        runs.append({"work": work, "elapsed": time.monotonic() - started})
    return runs


def _work_files(work):
    return sorted(p.name for p in work.iterdir() if not p.name.endswith(".manifest.json"))


def _report_scores(report_path):
    scores = {}
    for line in report_path.read_text(encoding="utf-8").splitlines():
        m = re.match(r"(\w+): BLEU = ([0-9.,]+),", line)
        if m:
            scores[m.group(1)] = pipeline.parse_number(m.group(2))
    return scores


def test_toy_pipeline_speed_and_mert_gain(toy_runs):
    """End-to-end toy pipeline in < 5 minutes; tuned test BLEU >= untuned."""
    run = toy_runs[0]
    assert run["elapsed"] < 300.0, "pipeline took %.1fs" % run["elapsed"]
    scores = _report_scores(run["work"] / "bleu.txt")
    assert set(scores) == {"tuned", "uniform"}
    assert scores["tuned"] >= scores["uniform"]
    _ok(
        "toy pipeline %.1fs; tuned BLEU %.2f >= uniform %.2f"
        % (run["elapsed"], scores["tuned"], scores["uniform"])
    )


def test_full_determinism(toy_runs):
    """Identical config and seed give byte-identical artifacts, decoded on
    every CPU or on one."""
    first, second = (r["work"] for r in toy_runs)
    names = _work_files(first)
    assert names == _work_files(second)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    _ok("byte-identical work files across reruns, parallel and serial (%d files)" % len(names))


def test_toy_work_files_match_checked_in_hashes(toy_runs):
    """Every toy work file but the manifests has the checked-in sha256, so
    every Python version and CPU count gives the same bytes."""
    work = toy_runs[0]["work"]
    want = {}
    for line in TOY_WORK_SHA256.read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        want[name] = digest
    got = {name: hashlib.sha256((work / name).read_bytes()).hexdigest()
           for name in _work_files(work)}
    assert got == want
    _ok("%d toy work files match %s" % (len(got), TOY_WORK_SHA256.name))


def test_toy_nbest_lists_match_the_checked_in_hash(toy_runs):
    """The toy dev set's 100-best lists at uniform weights and the pipeline's
    default search settings, features and scores included, have the
    checked-in sha256."""
    work = toy_runs[0]["work"]
    decoder = pipeline.load_search(work / "phrase-table.txt", work / "lm.arpa", **DEFAULT_SEARCH)
    decoder = decoder(Weights.uniform())
    digest = hashlib.sha256()
    for line in (work / "corpus.dev.en").read_text(encoding="utf-8").splitlines():
        nbest = decoder.nbest(tuple(line.split()), 100)
        digest.update((repr([(t.tokens, t.features, t.score) for t in nbest]) + "\n").encode())
    assert digest.hexdigest() == TOY_NBEST_SHA256.read_text(encoding="utf-8").strip()
    _ok("toy dev 100-best lists match %s" % TOY_NBEST_SHA256.name)


def test_bleu_command_prints_the_evaluate_report(toy_runs, capsys):
    """`minismt bleu` on the toy run's hypotheses prints bleu.txt's lines."""
    work = toy_runs[0]["work"]
    printed = []
    for hyp in ("test.hyp.ar", "test.hyp.uniform.ar"):
        assert cli.main(["bleu", str(work / hyp), str(work / "corpus.test.ar")]) == 0
        printed.append(capsys.readouterr().out)
    report = (work / "bleu.txt").read_text(encoding="utf-8")
    assert report == "tuned: %suniform: %s" % tuple(printed)
    _ok("minismt bleu prints bleu.txt's tuned and uniform reports")


@pytest.fixture(scope="module")
def toy_sentences(toy_runs):
    path = toy_runs[0]["work"] / "corpus.train.ar"
    return [tuple(line.split()) for line in path.read_text(encoding="utf-8").splitlines()]


def test_lm_normalization_orders_1_to_5(toy_sentences):
    """Sum over the event vocabulary = 1 +/- 1e-6 for 500 observed contexts."""
    started = time.monotonic()
    rng = random.Random(101)
    checked = 0
    for order in range(1, 6):
        model = lm.train(toy_sentences, order)
        observed = [()] + sorted(model.backoffs)
        for _ in range(100):
            ctx = observed[rng.randrange(len(observed))]
            assert conditional_sum(model, ctx) == pytest.approx(1.0, abs=1e-6)
            checked += 1
    elapsed = time.monotonic() - started
    assert checked == 500
    assert elapsed < 30.0
    _ok("LM normalization: 500 contexts over orders 1-5 in %.1fs" % elapsed)


def test_sentence_logprob_decomposition_exact(toy_sentences):
    """sentence_logprob equals the per-word logprob sum exactly, 1000 sentences."""
    model = lm.train(toy_sentences, 5)
    vocab = sorted(event_vocab(model) - {lm.END, lm.UNK}) + ["oov-token"]
    rng = random.Random(202)
    for _ in range(1000):
        sentence = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 9)))
        padded = (lm.START,) + sentence + (lm.END,)
        total = 0.0
        for i in range(1, len(padded)):
            total += lm.logprob(model, padded[i], padded[:i])
        assert lm.sentence_logprob(model, sentence) == total
    _ok("Eq-decomposition exact on 1000 random sentences")


def test_arpa_round_trip_100_queries(toy_sentences, tmp_path):
    """read(write(model)) agrees on 100 random queries within 1e-4 log10."""
    model = lm.train(toy_sentences, 4)
    path = tmp_path / "toy.arpa"
    lm.write_arpa(model, path)
    loaded = lm.read_arpa(path)
    rng = random.Random(303)
    vocab = sorted(event_vocab(model))
    for _ in range(100):
        word = rng.choice(vocab)
        ctx = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 3)))
        assert lm.logprob(loaded, word, ctx) == pytest.approx(
            lm.logprob(model, word, ctx), abs=1e-4
        )
    _ok("ARPA round trip within 1e-4 on 100 random queries")


def test_bleu_oracle_cases():
    """Clipping p1 = 1/3 exactly; BP hand case to 1e-4; identity = 1.0; < 1 s."""
    started = time.monotonic()
    clip = bleu.sentence_stats(("the", "the", "the"), [("the", "cat")])
    # clipped matches, candidate n-grams, hypothesis and reference length
    assert clip == (1, 0, 0, 0, 3, 2, 1, 0, 3, 2)

    bp_case = bleu.sentence_stats(("the", "cat", "sat"), [("the", "cat", "sat", "down")])
    assert bleu.corpus_bleu(bp_case, max_order=3) == pytest.approx(
        math.exp(1 - 4 / 3), abs=1e-4
    )

    ref = tuple("a b c d e".split())
    assert bleu.corpus_bleu(bleu.sentence_stats(ref, [ref])) == 1.0
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _ok("BLEU oracle cases in %.3fs" % elapsed)


def test_phrase_extraction_oracle_200_pairs():
    """extract() equals the rectangle-consistency oracle on 200 random pairs."""
    rng = random.Random(404)
    for trial in range(200):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        pair = corpus.SentencePair(
            tuple("f%d" % i for i in range(n)), tuple("e%d" % j for j in range(m))
        )
        matrix = align.AlignmentMatrix(random_alignment(rng, n, m), n, m)
        max_len = rng.choice([2, 3, 7])
        assert phrases.extract(pair, matrix, max_len) == brute_force_extract(
            pair, matrix, max_len
        ), trial
    _ok("phrase extraction equals brute-force oracle on 200 random pairs")


def _random_decoder_instance(rng):
    n = rng.randint(1, 5)
    source = tuple("f%d" % i for i in range(n))
    targets = ["x", "y", "z", "u", "v"]
    table = random_phrase_table(rng, list(source), targets, n_entries=5, max_len=2)
    sentences = [
        tuple(rng.choice(targets) for _ in range(rng.randint(1, 6))) for _ in range(20)
    ]
    model = lm.train(sentences, rng.choice([1, 2, 3]))
    weights = Weights(tuple(rng.uniform(0.02, 1.0) for _ in range(8)))
    return source, table, model, weights


def test_decoder_optimality_oracle_100_instances():
    """Unpruned decode equals exhaustive search exactly; same with limit 0."""
    rng = random.Random(505)
    for trial in range(100):
        sentence, table, model, weights = _random_decoder_instance(rng)
        got = Decoder(table, model, weights, UNPRUNED).decode(sentence)
        want, _, _ = exhaustive_decode(sentence, table, model, weights)
        assert got.score == want, trial

        monotone_cfg = DecoderConfig(10**6, None, 0)
        got0 = Decoder(table, model, weights, monotone_cfg).decode(sentence)
        want0, _, _ = exhaustive_decode(sentence, table, model, weights, distortion_limit=0)
        assert got0.score == want0, trial
    _ok("decoder equals exhaustive maximum exactly on 100 instances (free + monotone)")


@pytest.fixture(scope="module")
def toy_concatenations(toy_runs):
    """The toy run's decoder at the pipeline's default search settings, and
    its test set's sentences joined three at a time."""
    work = toy_runs[0]["work"]
    decoder = pipeline.load_search(work / "phrase-table.txt", work / "lm.arpa", **DEFAULT_SEARCH)
    decoder = decoder(Weights.from_file(work / "weights.txt"))
    test = [tuple(line.split())
            for line in (work / "corpus.test.en").read_text(encoding="utf-8").splitlines()]
    return decoder, [a + b + c for a, b, c in zip(test[::3], test[1::3], test[2::3])]


def test_long_sentences_decode_within_the_distortion_limit(toy_concatenations):
    """Three-sentence concatenations of the toy test set decode at the
    pipeline's default search settings; these five once failed when dead
    ends, states whose uncovered words no jump within the limit could reach,
    filled their stacks."""
    decoder, sentences = toy_concatenations
    for k in (0, 8, 10, 14, 16):
        assert decoder.decode(sentences[k]).tokens, k
    _ok("the 5 toy concatenations that hit dead ends decode at distortion limit 6")


def test_toy_searches_leave_no_cycles_for_the_collector(toy_concatenations):
    """Decoding pauses the cyclic collector; that frees nothing only while
    reference counting frees the search graph of long toy sentences too."""
    decoder, sentences = toy_concatenations

    def run():
        for sentence in sentences[:4]:
            decoder.decode(sentence)
            decoder.nbest(sentence, 100)

    assert unreachable_after(run) == 0
    _ok("4 toy concatenations decode and list 100-best with no garbage cycle")


@pytest.mark.parametrize("stack_size", [DEFAULT_SEARCH["stack_size"], 100])
def test_toy_test_set_has_no_search_errors(toy_runs, stack_size):
    """At the toy run's tuned weights and the pipeline's default search
    settings, and at a stack of 100, no test reference, force-decoded
    without pruning, scores higher than the 1-best of a sentence it differs
    from."""
    work = toy_runs[0]["work"]
    table, model = phrases.read_table(work / "phrase-table.txt"), lm.read_arpa(work / "lm.arpa")
    weights = Weights.from_file(work / "weights.txt")
    config = DecoderConfig(**{**DEFAULT_SEARCH, "stack_size": stack_size})
    decoder = Decoder(table, model, weights, config)
    outcomes = Counter()
    for source, reference in zip(corpus.read_sentences(work / "corpus.test.en"),
                                 corpus.read_sentences(work / "corpus.test.ar")):
        forced = forced_decode(source, reference, table, model, weights, config.distortion_limit)
        outcomes[search_outcome(decoder.decode(source), reference, forced)] += 1
    assert outcomes["search"] == 0, outcomes
    assert sum(outcomes.values()) == 120
    _ok("toy test set at stack %d: %s, no search error"
        % (stack_size, dict(sorted(outcomes.items()))))


def test_em_properties_on_toy(toy_runs):
    """Model 1 log-likelihood non-decreasing over 5 iterations; rows normalize."""
    work = toy_runs[0]["work"]
    corp = corpus.load_parallel(work / "corpus.train.en", work / "corpus.train.ar")
    lexicon = align.em_train(corp, 5)
    history = lexicon.log_likelihood_history
    assert len(history) == 5
    for earlier, later in zip(history, history[1:]):
        assert later >= earlier - 1e-9
    for row in lexicon.table.values():
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-6)
    _ok("EM log-likelihood monotone over 5 iterations; conditionals normalize")


def test_mert_line_search_oracle_20_pools():
    """Envelope best BLEU matches a 1e-3 grid search; argmax scale-invariant."""
    rng = random.Random(606)
    base = Weights.uniform()
    for trial in range(20):
        pool = []
        for _ in range(rng.randint(1, 4)):
            ref = tuple(rng.choice("abcde") for _ in range(rng.randint(5, 8)))
            entries = []
            seen = set()
            while len(entries) < rng.randint(2, 5):
                tokens = tuple(rng.choice("abcde") for _ in range(rng.randint(4, 8)))
                if tokens in seen:
                    continue
                seen.add(tokens)
                features = tuple(rng.uniform(-2, 2) for _ in range(8))
                entries.append(mert.build_pool_entry(tokens, features, [ref]))
            pool.append(entries)
        direction = tuple(rng.uniform(-1, 1) for _ in range(8))
        result = mert.line_search(pool, mert.base_scores(pool, base.values), direction)
        grid = grid_best_bleu(pool, base, direction)
        assert result.best_bleu >= grid - 1e-12, trial
        stepped = Weights(
            tuple(b + result.best_step * d for b, d in zip(base.values, direction))
        )
        assert mert.pool_bleu(pool, stepped) == pytest.approx(result.best_bleu, abs=1e-12)

    # decode argmax invariance under weight scaling
    rng2 = random.Random(707)
    for _ in range(10):
        sentence, table, model, weights = _random_decoder_instance(rng2)
        reference = Decoder(table, model, weights, UNPRUNED).decode(sentence).tokens
        for c in (0.1, 10.0):
            scaled = Decoder(table, model, weights.scaled(c), UNPRUNED).decode(sentence)
            assert scaled.tokens == reference
    _ok("MERT envelope matches grid oracle on 20 pools; argmax scale-invariant")


def test_tokenization_round_trip_fixture_set(
    bw_inventory, bw_lexicon, ar_inventory, ar_lexicon
):
    """detokenize(tokenize(s)) == scheme-normalized s; flagship fixtures split as specified."""
    atb = artok.tokenize(("wAlktAb",), artok.Scheme.ATB, bw_inventory, bw_lexicon)
    myd3 = artok.tokenize(("wAlktAb",), artok.Scheme.MYD3, bw_inventory, bw_lexicon)
    assert atb == ("w+", "AlktAb")
    assert myd3 == ("w+", "Al+", "ktAb")

    cases = [(s, bw_inventory, bw_lexicon) for s in BW_SENTENCES] + [
        (s, ar_inventory, ar_lexicon) for s in AR_SENTENCES
    ]
    for text, inventory, lexicon in cases:
        sentence = tuple(text.split())
        for scheme in artok.Scheme:
            restored = artok.detokenize(artok.tokenize(sentence, scheme, inventory, lexicon))
            expected = tuple(scheme_normal_form(t, scheme) for t in sentence)
            assert restored == expected, (text, scheme)
    _ok("tokenization round trip holds on the full fixture set, both schemes")
