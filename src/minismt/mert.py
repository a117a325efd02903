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

The line search does only the work that differs between directions, and
computes every float as a plain per-direction evaluation would:
- each optimizer round computes base·f for every pool entry once
  (base_scores) and passes the table to its 16 line searches, since the
  base does not change within a round;
- base_scores keeps each sentence's features in base·f order as rows and
  as columns. A slope is Weights.dot's float, 0.0 + v0*f0 + ... + v7*f7 per
  row, or 0.0 + v * f over an axis's column: on finite features a zero
  component's term is ±0.0, which never changes a sum from +0.0;
- the sweep keeps its running BLEU statistics as ints in bleu's layout,
  exact under any order of additions, and scores an interval by passing
  them to bleu.corpus_bleu as they are, so the scores are the same floats.
  It scores only the intervals it can choose, those of positive width and
  the last one, and keeps only the best interval's bounds;
- pool BLEU selects each sentence's entry by the base·f of a base_scores
  table, so an accepted step's table gives the candidate's pool BLEU and
  is the next round's base.

An n-best pass decodes the dev sentences with decode.translate_all, on
every available CPU; the lists come back in sentence order and are the
same on any number of CPUs, so the pool and every float computed from it
are too. The MERT loop stops when an n-best pass adds no new pool entry. An
iteration that starts at the very weights the last pass decoded with runs
no pass: the decoder is a deterministic function of its weights, so the
pass would return the same lists, all of them already in the pool; the
iteration logs 0 new entries and the loop stops. Weights compare by float
value, so +0.0 and -0.0 count as equal; the decoder cannot tell them
apart, since each weighted sum starts at +0.0 and a ±0.0 term leaves such
a sum unchanged on finite features. Entries join the pool only before an
optimizer call, so the pool BLEU that the last call returns is that of the
final pool, which the closing comparison with the initial weights reads.
"""

import math
import random
from dataclasses import dataclass

from . import bleu
from .decode import N_FEATURES, Weights, translate_all
from .errors import ParameterError, at_least

GAIN_THRESHOLD = 1e-4
check_iterations = at_least(1, "iterations")


@dataclass(frozen=True)
class PoolEntry:
    tokens: tuple
    features: tuple
    stats: tuple  # bleu.sentence_stats


@dataclass(frozen=True)
class LineSearchResult:
    direction: tuple
    best_step: float
    best_bleu: float


def build_pool_entry(tokens, features, references):
    return PoolEntry(tuple(tokens), tuple(features), bleu.sentence_stats(tokens, references))


def _dots(rows, vector):
    """vector·f for each feature vector f in `rows`, its eight terms added
    in feature order onto 0.0, as Weights.dot adds them."""
    v0, v1, v2, v3, v4, v5, v6, v7 = vector
    return [0.0 + v0 * f0 + v1 * f1 + v2 * f2 + v3 * f3 + v4 * f4 + v5 * f5 + v6 * f6 + v7 * f7
            for f0, f1, f2, f3, f4, f5, f6, f7 in rows]


def _slopes(columns, rows, direction):
    """_dots(rows, direction); along an axis, 0.0 + v * f over its column."""
    axis = [i for i, v in enumerate(direction) if v != 0.0]
    if len(axis) == 1:
        return [0.0 + direction[axis[0]] * f for f in columns[axis[0]]]
    return _dots(rows, direction)


def base_scores(pool, base_v):
    """Per sentence: base·f by entry index, the entry indices in ascending
    base·f order (later entries first among equals), and the feature
    vectors in that order as columns and as rows."""
    out = []
    for entries in pool:
        features = [e.features for e in entries]
        scores = _dots(features, base_v)
        order = sorted(range(len(features) - 1, -1, -1), key=scores.__getitem__)
        rows = [features[i] for i in order]
        out.append((scores, order, list(zip(*rows)), rows))
    return out


def _envelope(slopes, order, intercepts):
    """Upper envelope of the lines intercepts[i] + gamma * slope, the slopes
    listed in `order`.

    Returns (start, index) segments in increasing start order; the first
    segment starts at -inf.

    Only lines that can reach the envelope enter the hull. The walk goes
    down `order` from the highest intercept, whose line is the top one at
    gamma = 0, and keeps a line only when its slope is above every slope
    seen so far (it can win right of the top line) or below every one (left
    of it). Each dropped line met earlier lines of at least and at most its
    slope, both of at least its intercept, so it is weakly dominated on
    both sides of gamma = 0. The kept lines come out in slope order: those
    left of the top line falling, those right of it rising. Of parallel
    lines the first one the walk meets wins: the highest, and among equals
    the last of its slope in `order`.
    """
    left, right = [], []  # kept lines, outward from the top line
    lo = hi = None
    for m, idx in zip(reversed(slopes), reversed(order)):
        if hi is None:  # the top line
            right.append((m, idx))
            lo = hi = m
        elif m > hi:
            right.append((m, idx))
            hi = m
        elif m < lo:
            left.append((m, idx))
            lo = m
    hull = []  # (start, slope, intercept, index)
    for m, idx in left[::-1] + right:
        b = intercepts[idx]
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
    """Exact best step along `direction` for corpus BLEU on the pool.

    `pool` is a list (one item per sentence) of lists of PoolEntry, and
    `base` is `base_scores(pool, weights.values)` for the weights to step
    from.
    """
    if all(abs(d) == 0.0 for d in direction):
        raise ParameterError("line search direction must be nonzero")

    envelopes = [_envelope(_slopes(columns, rows, direction), order, intercepts)
                 for intercepts, order, columns, rows in base]
    # (gamma, sentence index, segment position)
    events = sorted((segments[pos][0], s, pos) for s, segments in enumerate(envelopes)
                    for pos in range(1, len(segments)))
    # the statistics of the selections left of the first event
    running = bleu.sum_stats(entries[segments[0][1]].stats
                             for entries, segments in zip(pool, envelopes))

    # the best interval so far, leftmost on ties; zero-width intervals arise
    # when breakpoints of different sentences coincide and are never chosen
    # (boundary argmax is ambiguous there), so they are not scored
    best_bleu, start, end = -1.0, -math.inf, math.inf
    cursor = -math.inf
    for gamma, s, pos in events:
        if cursor < gamma:
            value = bleu.corpus_bleu(running)
            if value > best_bleu:
                best_bleu, start, end = value, cursor, gamma
        old = pool[s][envelopes[s][pos - 1][1]].stats
        new = pool[s][envelopes[s][pos][1]].stats
        running = [r + a - b for r, a, b in zip(running, new, old)]
        cursor = gamma
    value = bleu.corpus_bleu(running)
    if value > best_bleu:
        best_bleu, start, end = value, cursor, math.inf

    if math.isinf(start) and math.isinf(end):
        step = 0.0
    elif math.isinf(start):
        step = end - 1.0
    elif math.isinf(end):
        step = start + 1.0
    else:
        step = (start + end) / 2.0
    return LineSearchResult(tuple(direction), step, best_bleu)


def _selected_bleu(pool, base):
    """Corpus BLEU of each sentence's highest-scoring entry under the
    weights of the table `base`; ties go to the smaller target string."""
    selected = []
    for entries, (scores, *_) in zip(pool, base):
        top = max(scores)
        best = min((e for e, x in zip(entries, scores) if x == top), key=lambda e: e.tokens)
        selected.append(best.stats)
    return bleu.corpus_bleu(bleu.sum_stats(selected))


def pool_bleu(pool, weights):
    """Corpus BLEU of the per-sentence argmax selections under `weights`.

    Score ties go to the lexicographically smaller target string, matching
    the decoder's tie-break.
    """
    return _selected_bleu(pool, base_scores(pool, weights.values))


_AXIS_DIRECTIONS = tuple(tuple(float(i == j) for j in range(N_FEATURES))
                         for i in range(N_FEATURES))


def optimize_on_pool(pool, weights, rng, log_lines):
    """Repeated line searches until no direction gains more than the threshold."""
    current = weights.l1_normalized()
    base = base_scores(pool, current.values)  # the same for every direction of a round
    current_bleu = _selected_bleu(pool, base)
    while True:
        directions = list(_AXIS_DIRECTIONS) + [
            tuple(rng.uniform(-1.0, 1.0) for _ in range(N_FEATURES)) for _ in range(N_FEATURES)
        ]
        # the first of equally good directions wins
        best = max((line_search(pool, base, d) for d in directions),
                   key=lambda r: r.best_bleu)
        if best.best_bleu - current_bleu <= GAIN_THRESHOLD:
            return current, current_bleu
        stepped = tuple(
            w + best.best_step * d for w, d in zip(current.values, best.direction)
        )
        candidate = Weights(stepped).l1_normalized()
        candidate_base = base_scores(pool, candidate.values)
        candidate_bleu = _selected_bleu(pool, candidate_base)
        if candidate_bleu <= current_bleu:  # interval-midpoint tie fell flat
            return current, current_bleu
        log_lines.append(
            "step %.6f along (%s): pool BLEU %.6f -> %.6f"
            % (
                best.best_step,
                " ".join("%.4f" % d for d in best.direction),
                current_bleu,
                candidate_bleu,
            )
        )
        current, current_bleu, base = candidate, candidate_bleu, candidate_base


def mert(dev_corpus, decoder_factory, initial, iterations, nbest_size, *, seed, log_lines):
    """Full MERT loop.

    `dev_corpus` supplies (source, reference) pairs; `decoder_factory(w)`
    must return an object with nbest(sentence, n), deterministic in `w`,
    which translate_all calls (in forked workers when more than one CPU is
    available). An iteration that starts at the weights of the last n-best
    pass decodes nothing, as that pass's lists are all in the pool. Returns the tuned
    Weights; the result never scores below the initial weights on the
    final accumulated pool. Deterministic for a fixed seed. A bad nbest_size
    is refused by translate_all, before anything is decoded.
    """
    check_iterations(iterations)
    rng = random.Random(seed)
    initial = initial.l1_normalized()
    current = initial
    pool = [[] for _ in dev_corpus.pairs]
    seen = [set() for _ in dev_corpus.pairs]
    decoded = None  # the weights of the last n-best pass
    current_bleu = None  # the pool BLEU the last optimizer call returned

    for it in range(1, iterations + 1):
        new_entries = 0
        if current != decoded:
            decoder, decoded = decoder_factory(current), current
            sources = [pair.source for pair in dev_corpus.pairs]
            for s, nbest in enumerate(translate_all(decoder, sources, nbest_size)):
                references = [dev_corpus.pairs[s].target]
                for translation in nbest:
                    if translation.tokens in seen[s]:
                        continue
                    seen[s].add(translation.tokens)
                    pool[s].append(
                        build_pool_entry(translation.tokens, translation.features, references)
                    )
                    new_entries += 1
        log_lines.append(
            "iteration %d: %d new pool entries, pool size %d"
            % (it, new_entries, sum(len(p) for p in pool))
        )
        if new_entries == 0:
            break
        current, current_bleu = optimize_on_pool(pool, current, rng, log_lines)
        log_lines.append("iteration %d: pool BLEU %.6f" % (it, current_bleu))

    # without an optimizer call (an empty dev set) current is initial
    if current_bleu is not None and current_bleu < pool_bleu(pool, initial):
        current = initial  # never return weights worse than the start
    return current

