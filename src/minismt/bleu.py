"""Corpus BLEU: clipped modified n-gram precision with brevity penalty.

Statistics are additive across sentences, so corpus scores come from one
accumulated BleuStats. Evaluation is strict (unsmoothed): if any order up
to `max_order` has zero matches the score is zero.

A sentence's statistics have a reference side (each n-gram's largest count
in any one reference, and the reference lengths) and a hypothesis side.
The reference side is computed once per reference list and reused while
consecutive calls pass an equal list, as MERT does for the ~100 hypotheses
of one dev sentence; it depends on nothing else, so the stats are the same.
"""

import functools
import math
from dataclasses import dataclass

from .errors import ParameterError

MAX_ORDER = 4


@dataclass(frozen=True)
class BleuStats:
    matches: tuple  # clipped n-gram matches, n = 1..MAX_ORDER
    totals: tuple  # candidate n-gram counts, n = 1..MAX_ORDER
    hyp_len: int
    ref_len: int  # effective reference length (closest, ties toward shorter)

    def __add__(self, other):
        return BleuStats(
            tuple(a + b for a, b in zip(self.matches, other.matches)),
            tuple(a + b for a, b in zip(self.totals, other.totals)),
            self.hyp_len + other.hyp_len,
            self.ref_len + other.ref_len,
        )

    @classmethod
    def zero(cls):
        return cls((0,) * MAX_ORDER, (0,) * MAX_ORDER, 0, 0)


def _ngram_counts(tokens, n):
    counts = {}
    for i in range(len(tokens) - n + 1):
        gram = tokens[i : i + n]
        counts[gram] = counts.get(gram, 0) + 1
    return counts


@functools.lru_cache(maxsize=1)
def _reference_side(references):
    """For each order, each n-gram's largest count in any one of the
    `references` (a tuple of token tuples); and the reference lengths."""
    max_counts = []
    for n in range(1, MAX_ORDER + 1):
        best = {}
        for ref in references:
            for gram, c in _ngram_counts(ref, n).items():
                if c > best.get(gram, 0):
                    best[gram] = c
        max_counts.append(best)
    return max_counts, tuple(len(r) for r in references)


def sentence_stats(hypothesis, references):
    """Sufficient statistics for one hypothesis against >= 1 references."""
    if not references:
        raise ParameterError("at least one reference is required")
    hypothesis = tuple(hypothesis)
    max_counts, ref_lens = _reference_side(tuple(tuple(r) for r in references))
    matches, totals = [], []
    for n, max_ref in enumerate(max_counts, 1):
        hyp_counts = _ngram_counts(hypothesis, n)
        matches.append(sum(min(c, max_ref.get(gram, 0)) for gram, c in hyp_counts.items()))
        totals.append(sum(hyp_counts.values()))
    ref_len = min(ref_lens, key=lambda L: (abs(L - len(hypothesis)), L))
    return BleuStats(tuple(matches), tuple(totals), len(hypothesis), ref_len)


def corpus_stats(hypotheses, reference_lists):
    """Accumulated stats over parallel lists of hypotheses and reference lists."""
    if len(hypotheses) != len(reference_lists):
        raise ParameterError(
            "%d hypotheses vs %d reference entries" % (len(hypotheses), len(reference_lists))
        )
    total = BleuStats.zero()
    for hyp, refs in zip(hypotheses, reference_lists):
        total = total + sentence_stats(hyp, refs)
    return total


def corpus_bleu(stats, max_order=MAX_ORDER):
    """BLEU in [0, 1] from accumulated stats; zero when any precision is zero."""
    if not 1 <= max_order <= MAX_ORDER:
        raise ParameterError("max_order must be in 1..%d" % MAX_ORDER)
    if stats.hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(max_order):
        if stats.matches[n] == 0 or stats.totals[n] == 0:
            return 0.0
        log_sum += math.log(stats.matches[n] / stats.totals[n])
    bp = brevity_penalty(stats)
    return bp * math.exp(log_sum / max_order)


def brevity_penalty(stats):
    if stats.hyp_len == 0:
        return 0.0
    if stats.hyp_len >= stats.ref_len:
        return 1.0
    return math.exp(1.0 - stats.ref_len / stats.hyp_len)


def format_report(stats, max_order=MAX_ORDER):
    """One-line report: percentage score, per-order precisions, BP, lengths."""
    score = corpus_bleu(stats, max_order)
    precisions = [
        100.0 * stats.matches[n] / stats.totals[n] if stats.totals[n] else 0.0
        for n in range(MAX_ORDER)
    ]
    ratio = stats.hyp_len / stats.ref_len if stats.ref_len else 0.0
    return (
        "BLEU = %.2f, %s (BP=%.3f, ratio=%.3f, hyp_len=%d, ref_len=%d)"
        % (
            100.0 * score,
            "/".join("%.1f" % p for p in precisions),
            brevity_penalty(stats),
            ratio,
            stats.hyp_len,
            stats.ref_len,
        )
    )
