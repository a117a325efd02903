"""IBM Model 1 word alignment: EM training, Viterbi links, symmetrization.

The lexicon is directional: em_train(corpus) learns P(target word | source
word) including a null source word, so each conditional distribution over
target words sums to one. Training the reverse direction just means
swapping the corpus sides (see `transpose_corpus`). Everything is
deterministic: fixed iteration order, ties resolved toward the null word
and then the smaller source index.

align_corpus trains the two directions at once, through parallel.fork_map:
on two CPUs each runs in its own forked worker, which inherits the corpus,
builds its side of it and sends back only its lexicon. Each EM runs
serially in one process, so every float, and every output byte, is the
same whatever the number of CPUs; `taskset -c 0` trains them one after
the other in this process.

em_train keeps its probabilities and expected counts in two flat float
lists, `prob` and `expected`, indexed by cell. A cell is one co-occurring
(given word, out word) pair, numbered as it is first seen; each given
word's row maps its out words to their cells in the order a dict-of-dicts
table inserts them. Each sentence pair keeps one tuple of cell numbers,
target-major: for each target word, the null word's cell and then each
source word's, read in slices of len(source) + 1. An iteration makes the
float additions and divisions of the dict-of-dicts EM in the same order:
a denominator sums the null word's and then each source word's
probability, an expected count receives its additions pair by pair and
target word by target word, and a row is normalized by its counts summed
left to right in insertion order. So the lexicon, the order of its rows
and the log-likelihood history are the same floats on any Python. The
tuples cost about 8 bytes per (pair, target word, given word) triple in
each direction, and are freed when em_train returns its dict lexicon.

Alignment matrices stream: align_corpus aligns a pair when its matrix is
read, and read_alignments parses a line when its matrix is read, so each
matrix can be dropped once its consumer (write_alignments, extraction) is
done with it.
"""

import math
from dataclasses import dataclass, field

from .corpus import ParallelCorpus, SentencePair
from .errors import FormatError, ParameterError, TrainingError, at_least, read_lines, write_lines
from .parallel import fork_map

NULL_WORD = "<null>"
check_iterations = at_least(1, "iterations")
_NO_ROW = {}  # the lexicon row of a word it has never seen


@dataclass(frozen=True)
class TranslationLexicon:
    """Conditional translation table: table[given][out] = P(out | given)."""

    table: dict
    log_likelihood_history: tuple = field(default=(), compare=False)

    def row(self, given):
        """{out: P(out | given)}, empty for a word the lexicon has never seen."""
        return self.table.get(given, _NO_ROW)

    def prob(self, out, given):
        return self.row(given).get(out, 0.0)


@dataclass(frozen=True)
class AlignmentMatrix:
    links: frozenset  # (source index, target index)
    source_len: int
    target_len: int

    def __post_init__(self):
        for i, j in self.links:
            if not (0 <= i < self.source_len and 0 <= j < self.target_len):
                raise ParameterError(
                    "link (%d,%d) outside a %dx%d sentence pair"
                    % (i, j, self.source_len, self.target_len)
                )

    def transpose(self):
        return AlignmentMatrix(
            frozenset((j, i) for i, j in self.links), self.target_len, self.source_len
        )


def transpose_corpus(corpus):
    """Swap source and target sides (for training the reverse direction)."""
    return ParallelCorpus(tuple(SentencePair(p.target, p.source) for p in corpus.pairs))


def em_train(corpus, iterations):
    """IBM Model 1 EM over a cleaned parallel corpus: no side of a pair is empty,
    and no source sentence holds a word spelled NULL_WORD, whose counts would
    go to the null word's row.

    Initialization is uniform over co-occurring pairs (and the null word);
    each iteration accumulates posterior-weighted counts and renormalizes.
    The per-iteration corpus log-likelihood (natural log, including the
    uniform alignment prior) is recorded on the returned lexicon and is
    non-decreasing.
    """
    check_iterations(iterations)
    pairs = corpus.pairs
    if not pairs:
        raise TrainingError("cannot run EM on an empty corpus")
    for lineno, pair in enumerate(pairs, 1):
        if not pair.source or not pair.target:
            raise TrainingError("line %d has an empty side; EM requires nonempty sentences"
                                % lineno)
        if NULL_WORD in pair.source:
            raise TrainingError("line %d holds %s, the null word's name" % (lineno, NULL_WORD))

    cells = {}  # given word -> {out word: cell number}, each row in first-seen order
    pair_cells = []  # one tuple per pair, target-major (see the module docstring)
    n_cells = 0
    for pair in pairs:
        rows = [cells.setdefault(f, {}) for f in (NULL_WORD,) + pair.source]
        numbers = []
        for e in pair.target:
            for row in rows:
                cell = row.get(e)
                if cell is None:
                    cell = row[e] = n_cells
                    n_cells += 1
                numbers.append(cell)
        pair_cells.append(tuple(numbers))

    prob = [0.0] * n_cells
    for row in cells.values():
        uniform = 1.0 / len(row)
        for cell in row.values():
            prob[cell] = uniform

    history = []
    for _ in range(iterations):
        expected = [0.0] * n_cells
        log_likelihood = 0.0
        for pair, numbers in zip(pairs, pair_cells):
            width = len(pair.source) + 1
            log_len = math.log(width)
            for j in range(0, len(numbers), width):
                block = numbers[j : j + width]
                denom = 0.0
                for cell in block:
                    denom += prob[cell]
                log_likelihood += math.log(denom) - log_len
                for cell in block:
                    expected[cell] += prob[cell] / denom
        history.append(log_likelihood)
        for row in cells.values():
            total = 0.0  # summed left to right: sum() of floats rounds differently from 3.12 on
            for cell in row.values():
                total += expected[cell]
            for cell in row.values():
                prob[cell] = expected[cell] / total

    table = {f: {e: prob[cell] for e, cell in row.items()} for f, row in cells.items()}
    return TranslationLexicon(table, tuple(history))


def viterbi_align(lexicon, pair):
    """Link each target word to its most probable source word.

    The null word wins ties (it sits at index -1), and among real source
    words the smaller index wins; null-aligned targets get no link.
    """
    null_row = lexicon.row(NULL_WORD)
    rows = [lexicon.row(f) for f in pair.source]
    links = set()
    for j, e in enumerate(pair.target):
        best_i = None
        best_p = null_row.get(e, 0.0)
        for i, row in enumerate(rows):
            p = row.get(e, 0.0)
            if p > best_p:
                best_i, best_p = i, p
        if best_i is not None:
            links.add((best_i, j))
    return AlignmentMatrix(frozenset(links), len(pair.source), len(pair.target))


def align_corpus(corpus, iterations, heuristic):
    """Train both directions, then symmetrize each pair's Viterbi alignments.

    Returns (alignment matrices, forward lexicon, backward lexicon). The
    matrices are a one-shot iterator that aligns each pair as it is read,
    in corpus order, so no corpus-sized list of them is held. A fork_map
    worker is given only whether to transpose the corpus it inherits, so no
    corpus is pickled. An unknown heuristic is refused before any training.
    """
    check_heuristic(heuristic)
    fwd, bwd = fork_map(
        lambda reverse: em_train(transpose_corpus(corpus) if reverse else corpus, iterations),
        (False, True))
    matrices = (symmetrize(viterbi_align(fwd, pair),
                           viterbi_align(bwd, SentencePair(pair.target, pair.source)), heuristic)
                for pair in corpus.pairs)
    return matrices, fwd, bwd


HEURISTICS = ("intersection", "union", "grow-diag-final")

_NEIGHBORS = ((-1, 0), (0, -1), (1, 0), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))


def check_heuristic(heuristic):
    if heuristic not in HEURISTICS:
        raise ParameterError("unknown symmetrization heuristic %r (expected %s)"
                             % (heuristic, ", ".join(HEURISTICS)))


def symmetrize(forward, backward, heuristic):
    """Combine a forward and a (transposed) backward alignment of one pair."""
    check_heuristic(heuristic)
    flipped = backward.transpose()
    if (forward.source_len, forward.target_len) != (flipped.source_len, flipped.target_len):
        raise ParameterError(
            "alignment dimensions disagree: %dx%d vs %dx%d (after transposing backward)"
            % (forward.source_len, forward.target_len, flipped.source_len, flipped.target_len)
        )
    inter = forward.links & flipped.links
    union = forward.links | flipped.links
    if heuristic == "intersection":
        links = inter
    elif heuristic == "union":
        links = union
    else:
        links = _grow_diag_final(inter, union)
    return AlignmentMatrix(frozenset(links), forward.source_len, forward.target_len)


def _grow_diag_final(intersection, union):
    links = set(intersection)
    aligned_src = {i for i, _ in links}
    aligned_tgt = {j for _, j in links}

    changed = True
    while changed:
        changed = False
        for i, j in sorted(links):
            for di, dj in _NEIGHBORS:
                ni, nj = i + di, j + dj
                if (ni, nj) in union and (ni, nj) not in links:
                    if ni not in aligned_src or nj not in aligned_tgt:
                        links.add((ni, nj))
                        aligned_src.add(ni)
                        aligned_tgt.add(nj)
                        changed = True

    for i, j in sorted(union - links):
        if i not in aligned_src or j not in aligned_tgt:
            links.add((i, j))
            aligned_src.add(i)
            aligned_tgt.add(j)
    return links


def write_alignments(matrices, path):
    """Moses-style alignment file: one line per pair of space-separated i-j links.

    `matrices` is any iterable, written as it is read."""
    write_lines(path, (" ".join("%d-%d" % link for link in sorted(m.links)) for m in matrices))


def read_alignments(path, corpus):
    """The matrices of an alignment file written by write_alignments for `corpus`.

    The line count is checked here; the lines are parsed as the returned
    iterator is read, so a malformed line raises its FormatError then.
    """
    lines = read_lines(path)
    if len(lines) != len(corpus.pairs):
        raise FormatError(
            "alignment file %s has %d lines but the corpus has %d pairs"
            % (path, len(lines), len(corpus.pairs))
        )
    return (_parse_alignment(path, lineno, line, pair)
            for lineno, (pair, line) in enumerate(zip(corpus.pairs, lines), 1))


def _parse_alignment(path, lineno, line, pair):
    links = set()
    for chunk in line.split():
        try:
            i, j = chunk.split("-")
            links.add((int(i), int(j)))
        except ValueError:
            raise FormatError("%s line %d: bad link %r, expected i-j" % (path, lineno, chunk))
    try:
        return AlignmentMatrix(frozenset(links), len(pair.source), len(pair.target))
    except ParameterError as exc:
        raise FormatError("%s line %d: %s" % (path, lineno, exc))


def write_lexicon(lexicon, path):
    """Dump `given<TAB>out<TAB>prob` lines, sorted lexicographically."""
    table = lexicon.table
    write_lines(path, ("%s\t%s\t%.10g" % (given, out, table[given][out])
                       for given in sorted(table) for out in sorted(table[given])))


def read_lexicon(path):
    table = {}
    for lineno, line in enumerate(read_lines(path), 1):
        try:
            given, out, prob = line.split("\t")
            prob = float(prob)
        except ValueError:
            raise FormatError("%s line %d: expected given<TAB>out<TAB>probability" % (path, lineno))
        if not 0.0 <= prob <= 1.0:  # nan fails this too
            raise FormatError("%s line %d: probability %r is not in [0,1]" % (path, lineno, prob))
        row = table.setdefault(given, {})
        if out in row:
            raise FormatError("%s line %d: duplicate pair %r %r" % (path, lineno, given, out))
        row[out] = prob
    return TranslationLexicon(table)
