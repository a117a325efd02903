"""Phrase pair extraction, relative-frequency + lexical scoring, distortion cost.

Extraction returns exactly the alignment-consistent rectangles: at least
one link inside, no link leaving the rectangle on either axis, spans
extended over unaligned boundary words, both sides at most `max_len`
tokens. Scoring produces the four standard values per pair: forward and
reverse phrase relative frequencies and forward and reverse lexical
weights computed from each pair's internal links.

score reads its per-pair sets from any iterable and keeps only their
counts, so the phrases stage hands it one extract() set at a time and no
corpus-wide list of PhrasePairs is held; extract_corpus is that list, for
callers that want every pair's set at once.
"""

import math
from collections import Counter
from dataclasses import dataclass

from .align import NULL_WORD
from .errors import FormatError, ParameterError, TrainingError, at_least, read_lines, write_lines

TABLE_PRUNE_LIMIT = 20  # kept targets per source at serialization time
check_max_len = at_least(1, "max_len")


@dataclass(frozen=True)
class PhrasePair:
    source: tuple
    target: tuple
    source_span: tuple  # (i1, i2) inclusive
    target_span: tuple  # (j1, j2) inclusive
    links: frozenset  # internal links, relative to the spans


@dataclass(frozen=True)
class Scores:
    phi_fwd: float  # P(target | source), relative frequency
    lex_fwd: float
    phi_rev: float  # P(source | target)
    lex_rev: float

    def as_tuple(self):
        return (self.phi_fwd, self.lex_fwd, self.phi_rev, self.lex_rev)


def extract(pair, alignment, max_len):
    """All alignment-consistent phrase pairs of one sentence pair.

    For each target start j1 the end j2 advances, and the source span
    i1..i2 of the links inside j1..j2 grows with it. Once that span is wider
    than max_len no pair can be emitted for this j1, so the loop stops.
    """
    check_max_len(max_len)
    links = alignment.links
    n, m = len(pair.source), len(pair.target)
    linked_src = [[] for _ in range(m)]  # the source indices linked to each target position
    first_tgt = [m] * n  # the first and last target linked to each source position
    last_tgt = [-1] * n
    for i, j in links:
        linked_src[j].append(i)
        if j < first_tgt[i]:
            first_tgt[i] = j
        if j > last_tgt[i]:
            last_tgt[i] = j
    out = []
    for j1 in range(m):
        i1, i2 = n, -1
        for j2 in range(j1, min(m, j1 + max_len)):
            for i in linked_src[j2]:
                if i < i1:
                    i1 = i
                if i > i2:
                    i2 = i
            if i2 < 0:
                continue
            if i2 - i1 >= max_len:
                break
            # consistent: no source word inside links to a target outside
            if any(first_tgt[i] < j1 or last_tgt[i] > j2 for i in range(i1, i2 + 1)):
                continue
            # the links inside, in `links` order, so that every pair's link set
            # is built by the same insertions and iterates in the same order
            inside = [(i, j - j1) for i, j in links if j1 <= j <= j2]
            target = pair.target[j1 : j2 + 1]
            # extend over unaligned source boundary words
            lo = i1
            while lo >= 0 and (lo == i1 or last_tgt[lo] < 0) and i2 - lo < max_len:
                hi = i2
                while hi < n and (hi == i2 or last_tgt[hi] < 0) and hi - lo < max_len:
                    out.append(PhrasePair(pair.source[lo : hi + 1], target, (lo, hi), (j1, j2),
                                          frozenset((i - lo, j) for i, j in inside)))
                    hi += 1
                lo -= 1
    return set(out)


def distortion_cost(prev_end, next_start):
    """Linear displacement penalty; zero only for monotone adjacency."""
    return abs(next_start - prev_end - 1)


class PhraseTable:
    """Scored phrase pairs indexed by source phrase."""

    def __init__(self, entries):
        # entries: dict[(source tuple, target tuple)] -> Scores
        self.by_source = {}
        for (src, tgt), scores in sorted(entries.items()):
            self.by_source.setdefault(src, []).append((tgt, scores))
        self.max_source_len = max(map(len, self.by_source), default=0)

    def options(self, source_phrase):
        return self.by_source.get(tuple(source_phrase), [])

    def __len__(self):
        return sum(map(len, self.by_source.values()))


def score(extracted, lexicon_fwd, lexicon_bwd):
    """Build a PhraseTable from per-pair extraction results.

    `extracted` is an iterable of PhrasePair multisets (one per corpus
    pair), read once: only the count of each (source, target, internal
    links) is kept from it. phi values are relative frequencies of the joint
    counts; lexical weights use each pair type's most frequent internal
    alignment (ties resolved by the lexicographically smallest link set).
    """
    counts = Counter()
    for pairs in extracted:
        for pp in pairs:
            counts[pp.source, pp.target, pp.links] += 1

    source_totals = Counter()
    target_totals = Counter()
    joint = {}  # (source, target) -> [joint count, its best alignment's count, that alignment]
    for (src, tgt, links), c in counts.items():
        source_totals[src] += c
        target_totals[tgt] += c
        cur = joint.get((src, tgt))
        if cur is None:
            joint[src, tgt] = [c, c, links]
            continue
        cur[0] += c
        if c > cur[1] or (c == cur[1] and sorted(links) < sorted(cur[2])):
            cur[1:] = c, links
    del counts  # each structure is freed once read, so they do not peak together

    entries = {}
    for (src, tgt), (c, _, links) in joint.items():
        if "|||" in src or "|||" in tgt:
            raise TrainingError("the phrase pair %r -> %r holds the token |||, the phrase "
                                "table's field separator" % (" ".join(src), " ".join(tgt)))
        lex_fwd = _lexical_weight(src, tgt, links, lexicon_fwd)
        lex_rev = _lexical_weight(tgt, src, frozenset((j, i) for i, j in links), lexicon_bwd)
        if not (lex_fwd and lex_rev):  # read_table refuses a score of 0
            raise TrainingError("the lexicons give the phrase pair %r ||| %r a lexical weight "
                                "of 0" % (" ".join(src), " ".join(tgt)))
        entries[(src, tgt)] = Scores(phi_fwd=c / source_totals[src], lex_fwd=lex_fwd,
                                     phi_rev=c / target_totals[tgt], lex_rev=lex_rev)
    del joint
    return PhraseTable(entries)


def _lexical_weight(given_phrase, out_phrase, links, lexicon):
    """Product over out-words of the mean translation probability of their
    linked given-words (unaligned words score against the null word)."""
    rows = [lexicon.row(given) for given in given_phrase]
    linked = [[] for _ in out_phrase]  # the given-words of each out-word, in `links` order
    for i, j in links:
        linked[j].append(i)
    weight = 1.0
    for out, given in zip(out_phrase, linked):
        if given:
            p = 0.0  # summed left to right: sum() of floats rounds differently from 3.12 on
            for i in given:
                p += rows[i].get(out, 0.0)
            p /= len(given)
        else:
            p = lexicon.prob(out, NULL_WORD)
        weight *= p
    return weight


def extract_corpus(corpus, alignments, max_len):
    """Extraction over a corpus, as a list parallel to its pairs."""
    if len(alignments) != len(corpus.pairs):
        raise ParameterError(
            "%d alignments for %d sentence pairs" % (len(alignments), len(corpus.pairs))
        )
    return [extract(pair, matrix, max_len) for pair, matrix in zip(corpus.pairs, alignments)]


def write_table(table, path):
    """`source ||| target ||| phi_fwd lex_fwd phi_rev lex_rev` lines.

    Sorted by source then target, keeping the best TABLE_PRUNE_LIMIT targets
    per source by phi_fwd (score first, lexicographic target on ties).
    Returns the number of lines written.
    """
    def lines():
        for src in sorted(table.by_source):
            options = sorted(table.by_source[src], key=lambda item: (-item[1].phi_fwd, item[0]))
            for tgt, s in sorted(options[:TABLE_PRUNE_LIMIT]):
                yield "%s ||| %s ||| %.10g %.10g %.10g %.10g" % (
                    " ".join(src), " ".join(tgt), *s.as_tuple())

    return write_lines(path, lines())


def read_table(path):
    entries = {}
    for lineno, line in enumerate(read_lines(path), 1):
        if not line:
            continue
        fields = line.split(" ||| ")
        if len(fields) != 3:
            raise FormatError("%s line %d: expected 3 ||| fields" % (path, lineno))
        values = fields[2].split()
        if len(values) != 4:
            raise FormatError("%s line %d: expected 4 scores" % (path, lineno))
        try:
            scores = Scores(*(float(v) for v in values))
        except ValueError:
            raise FormatError("%s line %d: bad score value" % (path, lineno))
        if not all(0.0 < v <= 1.0 for v in scores.as_tuple()):
            raise FormatError("%s line %d: scores must be in (0,1]" % (path, lineno))
        source, target = tuple(fields[0].split()), tuple(fields[1].split())
        if not source or not target:
            raise FormatError("%s line %d: empty source or target phrase" % (path, lineno))
        if (source, target) in entries:
            raise FormatError("%s line %d: duplicate phrase pair %r"
                              % (path, lineno, " ".join(source) + " ||| " + " ".join(target)))
        entries[(source, target)] = scores
    return PhraseTable(entries)


def log10_scores(scores):
    return tuple(math.log10(v) for v in scores.as_tuple())
