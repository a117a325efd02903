"""Minimum error rate training: tune the 8 log-linear weights to corpus BLEU.

The optimizer accumulates n-best lists into a per-sentence pool
(deduplicated by target string) and repeatedly runs exact line searches:
along a search direction every hypothesis's score is linear in the step,
so the per-sentence argmax is the upper envelope of a line set; its
breakpoints partition the step axis into intervals with constant corpus
BLEU sufficient statistics. The step comes from the midpoint of the best
interval (leftmost on ties). Directions are the 8 coordinate axes plus 8
seeded random directions per round; accepted steps must gain more than
`GAIN_THRESHOLD` BLEU, and weights are renormalized to unit L1 norm, which
leaves the decoding argmax unchanged.
"""

import math
import random
from dataclasses import dataclass

from . import bleu
from .decode import N_FEATURES, Decoder, Weights
from .errors import ParameterError

DEFAULT_NBEST = 100
DEFAULT_ITERATIONS = 10
GAIN_THRESHOLD = 1e-4


@dataclass(frozen=True)
class PoolEntry:
    tokens: tuple
    features: tuple
    stats: bleu.BleuStats


@dataclass(frozen=True)
class LineSearchResult:
    direction: tuple
    best_step: float
    best_bleu: float
    intervals: tuple  # (start, end, bleu) triples covering the real line


def build_pool_entry(tokens, features, references):
    return PoolEntry(tuple(tokens), tuple(features), bleu.sentence_stats(tokens, references))


def _envelope(lines):
    """Upper envelope of (slope, intercept, index) lines.

    Returns (start, index) segments in increasing start order; the first
    segment starts at -inf.
    """
    by_slope = {}
    for m, b, idx in lines:
        cur = by_slope.get(m)
        if cur is None or b > cur[0] or (b == cur[0] and idx < cur[1]):
            by_slope[m] = (b, idx)
    ordered = sorted((m, b, idx) for m, (b, idx) in by_slope.items())
    hull = []  # (start, slope, intercept, index)
    for m, b, idx in ordered:
        while hull:
            start, hm, hb, hidx = hull[-1]
            cross = (hb - b) / (m - hm)
            if cross <= start:
                hull.pop()
            else:
                break
        start = -math.inf if not hull else cross
        hull.append((start, m, b, idx))
    return [(start, idx) for start, _, _, idx in hull]


def line_search(pool, base, direction):
    """Exact best step along `direction` from `base` for corpus BLEU on the pool.

    `pool` is a list (one item per sentence) of lists of PoolEntry.
    """
    if all(abs(d) == 0.0 for d in direction):
        raise ParameterError("line search direction must be nonzero")
    base_v = base.values if isinstance(base, Weights) else tuple(base)

    envelopes = []
    events = []  # (gamma, sentence index, segment position)
    running = bleu.BleuStats.zero()
    for s, entries in enumerate(pool):
        lines = []
        for idx, entry in enumerate(entries):
            slope = sum(d * f for d, f in zip(direction, entry.features))
            intercept = sum(w * f for w, f in zip(base_v, entry.features))
            lines.append((slope, intercept, idx))
        segments = _envelope(lines)
        envelopes.append(segments)
        running = running + entries[segments[0][1]].stats
        for pos in range(1, len(segments)):
            events.append((segments[pos][0], s, pos))
    events.sort()

    # zero-width intervals arise when breakpoints of different sentences
    # coincide; they are recorded but never chosen (boundary argmax is
    # ambiguous there)
    intervals = []
    best_bleu, best_index = -1.0, 0
    cursor = -math.inf
    for gamma, s, pos in events:
        score = bleu.corpus_bleu(running)
        intervals.append((cursor, gamma, score))
        if score > best_bleu and cursor < gamma:
            best_bleu, best_index = score, len(intervals) - 1
        old = pool[s][envelopes[s][pos - 1][1]].stats
        new = pool[s][envelopes[s][pos][1]].stats
        running = running + new + _negate(old)
        cursor = gamma
    score = bleu.corpus_bleu(running)
    intervals.append((cursor, math.inf, score))
    if score > best_bleu:
        best_bleu, best_index = score, len(intervals) - 1

    start, end, _ = intervals[best_index]
    if math.isinf(start) and math.isinf(end):
        step = 0.0
    elif math.isinf(start):
        step = end - 1.0
    elif math.isinf(end):
        step = start + 1.0
    else:
        step = (start + end) / 2.0
    return LineSearchResult(tuple(direction), step, best_bleu, tuple(intervals))


def _negate(stats):
    return bleu.BleuStats(
        tuple(-m for m in stats.matches),
        tuple(-t for t in stats.totals),
        -stats.hyp_len,
        -stats.ref_len,
    )


def pool_bleu(pool, weights):
    """Corpus BLEU of the per-sentence argmax selections under `weights`.

    Score ties go to the lexicographically smaller target string, matching
    the decoder's tie-break.
    """
    total = bleu.BleuStats.zero()
    for entries in pool:
        best = min(entries, key=lambda e: (-weights.dot(e.features), e.tokens))
        total = total + best.stats
    return bleu.corpus_bleu(total)


def _axis_directions():
    out = []
    for i in range(N_FEATURES):
        d = [0.0] * N_FEATURES
        d[i] = 1.0
        out.append(tuple(d))
    return out


def optimize_on_pool(pool, weights, rng, log_lines=None):
    """Repeated line searches until no direction gains more than the threshold."""
    current = weights.l1_normalized()
    current_bleu = pool_bleu(pool, current)
    while True:
        directions = _axis_directions() + [
            tuple(rng.uniform(-1.0, 1.0) for _ in range(N_FEATURES)) for _ in range(N_FEATURES)
        ]
        # the first of equally good directions wins
        best = max((line_search(pool, current, d) for d in directions), key=lambda r: r.best_bleu)
        if best.best_bleu - current_bleu <= GAIN_THRESHOLD:
            return current, current_bleu
        stepped = tuple(
            w + best.best_step * d for w, d in zip(current.values, best.direction)
        )
        candidate = Weights(stepped).l1_normalized()
        candidate_bleu = pool_bleu(pool, candidate)
        if candidate_bleu <= current_bleu:  # interval-midpoint tie fell flat
            return current, current_bleu
        if log_lines is not None:
            log_lines.append(
                "step %.6f along (%s): pool BLEU %.6f -> %.6f"
                % (
                    best.best_step,
                    " ".join("%.4f" % d for d in best.direction),
                    current_bleu,
                    candidate_bleu,
                )
            )
        current, current_bleu = candidate, candidate_bleu


def mert(
    dev_corpus,
    decoder_factory,
    initial,
    iterations=DEFAULT_ITERATIONS,
    nbest_size=DEFAULT_NBEST,
    seed=0,
    log_lines=None,
):
    """Full MERT loop.

    `dev_corpus` supplies (source, reference) pairs; `decoder_factory(w)`
    must return an object with nbest(sentence, n). Returns the tuned
    Weights; the result never scores below the initial weights on the
    final accumulated pool. Deterministic for a fixed seed.
    """
    if iterations < 1 or nbest_size < 1:
        raise ParameterError("iterations and nbest_size must be >= 1")
    rng = random.Random(seed)
    initial = initial.l1_normalized()
    current = initial
    pool = [[] for _ in dev_corpus.pairs]
    seen = [set() for _ in dev_corpus.pairs]

    for it in range(1, iterations + 1):
        decoder = decoder_factory(current)
        new_entries = 0
        for s, pair in enumerate(dev_corpus.pairs):
            for translation in decoder.nbest(pair.source, nbest_size):
                if translation.tokens in seen[s]:
                    continue
                seen[s].add(translation.tokens)
                pool[s].append(
                    build_pool_entry(translation.tokens, translation.features, [pair.target])
                )
                new_entries += 1
        if log_lines is not None:
            log_lines.append(
                "iteration %d: %d new pool entries, pool size %d"
                % (it, new_entries, sum(len(p) for p in pool))
            )
        if new_entries == 0:
            break
        current, current_bleu = optimize_on_pool(pool, current, rng, log_lines)
        if log_lines is not None:
            log_lines.append("iteration %d: pool BLEU %.6f" % (it, current_bleu))

    if pool_bleu(pool, current) < pool_bleu(pool, initial):
        current = initial  # never return weights worse than the start
    return current


def tune(dev_corpus, table, model, config, initial, iterations, nbest_size, seed):
    """MERT with decoders over one phrase table, LM and DecoderConfig.

    Returns the tuned Weights and the per-iteration log lines.
    """
    def factory(weights):
        return Decoder(table, model, weights, config)

    log_lines = []
    tuned = mert(dev_corpus, factory, initial, iterations=iterations, nbest_size=nbest_size,
                 seed=seed, log_lines=log_lines)
    return tuned, log_lines
