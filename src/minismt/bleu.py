"""Corpus BLEU: clipped modified n-gram precision with brevity penalty.

A sentence's statistics are one flat tuple of ints (the layout is stated
once, at ZERO below). They add element-wise across sentences, so a corpus
score comes from their sum. Evaluation is strict (unsmoothed): if any order
up to `max_order` has zero matches the score is zero.

A sentence's statistics have a reference side (each n-gram's largest count
in any one reference, and the reference lengths) and a hypothesis side.
The reference side is computed once per reference list and reused while
consecutive calls pass an equal list, as MERT does for the ~100 hypotheses
of one dev sentence; it depends on nothing else, so the stats are the same.
"""

import functools
import math

from .corpus import read_sentences
from .errors import CorpusAlignmentError, ParameterError

MAX_ORDER = 4

# The statistics' layout: clipped matches for n = 1..MAX_ORDER, hypothesis
# n-gram counts for n = 1..MAX_ORDER, hypothesis length, effective
# reference length (the closest reference length, ties toward the shorter).
ZERO = (0,) * (2 * MAX_ORDER + 2)


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
    return (*matches, *totals, len(hypothesis), ref_len)


def sum_stats(stats):
    """The element-wise sum of an iterable of statistics; ZERO when empty."""
    return tuple(map(sum, zip(ZERO, *stats)))


def corpus_stats(hypotheses, reference_lists):
    """Summed stats over parallel lists of hypotheses and reference lists."""
    if len(hypotheses) != len(reference_lists):
        raise ParameterError(
            "%d hypotheses vs %d reference entries" % (len(hypotheses), len(reference_lists))
        )
    return sum_stats(sentence_stats(h, refs) for h, refs in zip(hypotheses, reference_lists))


def _precisions(stats, max_order):
    """(matches, candidate count) of each order 1..max_order."""
    return zip(stats[:max_order], stats[MAX_ORDER : MAX_ORDER + max_order])


def corpus_bleu(stats, max_order=MAX_ORDER):
    """BLEU in [0, 1] from summed stats; zero when any precision is zero."""
    if not 1 <= max_order <= MAX_ORDER:
        raise ParameterError("max_order must be in 1..%d, got %r" % (MAX_ORDER, max_order))
    log_sum = 0.0
    for matches, total in _precisions(stats, max_order):
        if matches == 0:  # as it is whenever total is
            return 0.0
        log_sum += math.log(matches / total)
    return brevity_penalty(stats) * math.exp(log_sum / max_order)


def brevity_penalty(stats):
    hyp_len, ref_len = stats[-2:]
    if hyp_len == 0:
        return 0.0
    if hyp_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / hyp_len)


def format_report(stats, max_order=MAX_ORDER):
    """One-line report: percentage score, the precision of each order up to
    `max_order`, BP, lengths."""
    score = corpus_bleu(stats, max_order)
    precisions = [100.0 * m / t if t else 0.0 for m, t in _precisions(stats, max_order)]
    hyp_len, ref_len = stats[-2:]
    ratio = hyp_len / ref_len if ref_len else 0.0
    return "BLEU = %.2f, %s (BP=%.3f, ratio=%.3f, hyp_len=%d, ref_len=%d)" % (
        100.0 * score,
        "/".join("%.1f" % p for p in precisions),
        brevity_penalty(stats),
        ratio,
        hyp_len,
        ref_len,
    )


def file_report(hypothesis_path, reference_paths, max_order=MAX_ORDER):
    """format_report of a hypothesis file against one or more reference
    files, line k against line k of each; a reference file with another line
    count is a CorpusAlignmentError naming it."""
    hyps = read_sentences(hypothesis_path)
    ref_files = [read_sentences(path) for path in reference_paths]
    for path, refs in zip(reference_paths, ref_files):
        if len(refs) != len(hyps):
            raise CorpusAlignmentError(
                "reference file %s has %d lines, hypothesis has %d" % (path, len(refs), len(hyps))
            )
    return format_report(corpus_stats(hyps, list(zip(*ref_files))), max_order)
