"""Sentence-aligned parallel corpora: loading, cleaning, statistics.

A corpus file holds one sentence per line, and a line ends at "\n" only
(errors.read_lines), so line k of one side pairs with line k of the other
whatever other line-breaking characters a sentence holds. Tokenization here
is whitespace splitting only; language-specific segmentation lives in
`artok`. All containers are immutable after construction and safe to share
across threads.
"""

from dataclasses import dataclass

from .errors import CorpusAlignmentError, at_least, read_lines

check_max_len = at_least(1, "max_len")
check_max_ratio = at_least(1.0, "max_ratio")


@dataclass(frozen=True)
class SentencePair:
    source: tuple  # whitespace-free token strings
    target: tuple


@dataclass(frozen=True)
class ParallelCorpus:
    pairs: tuple


@dataclass(frozen=True)
class SideStats:
    lines: int
    tokens: int
    vocabulary: int
    max_len: int
    mean_len: float


@dataclass(frozen=True)
class CorpusStats:
    source: SideStats
    target: SideStats


def read_sentences(path):
    """The whitespace-split token tuple of each line of a UTF-8 file, or of
    standard input for None or "-"; an empty line gives an empty tuple."""
    return [tuple(line.split()) for line in read_lines(path)]


def load_parallel(source_path, target_path):
    """Pair up two one-sentence-per-line UTF-8 files, preserving line order.

    Raises CorpusAlignmentError (naming both counts) when the files have
    different numbers of lines; I/O problems surface as OSError.
    """
    source, target = read_sentences(source_path), read_sentences(target_path)
    if len(source) != len(target):
        raise CorpusAlignmentError(
            "line count mismatch: %s has %d lines, %s has %d lines"
            % (source_path, len(source), target_path, len(target))
        )
    return ParallelCorpus(tuple(SentencePair(s, t) for s, t in zip(source, target)))


def clean(corpus, max_len, max_ratio):
    """Drop pairs with an empty side, an over-long side, or an extreme length ratio.

    Surviving pairs keep their order. Idempotent.
    """
    check_max_len(max_len)
    check_max_ratio(max_ratio)
    kept = []
    for pair in corpus.pairs:
        ls, lt = len(pair.source), len(pair.target)
        if ls == 0 or lt == 0:
            continue
        if ls > max_len or lt > max_len:
            continue
        if max(ls / lt, lt / ls) > max_ratio:
            continue
        kept.append(pair)
    return ParallelCorpus(tuple(kept))


def stats(corpus):
    """Exact line/token/vocabulary/length statistics for both sides."""
    return CorpusStats(
        _side_stats([p.source for p in corpus.pairs]),
        _side_stats([p.target for p in corpus.pairs]),
    )


def _side_stats(sentences):
    tokens = sum(len(s) for s in sentences)
    vocab = set()
    for s in sentences:
        vocab.update(s)
    max_len = max((len(s) for s in sentences), default=0)
    mean_len = tokens / len(sentences) if sentences else 0.0
    return SideStats(len(sentences), tokens, len(vocab), max_len, mean_len)


def format_stats_table(cs, source_lang="source", target_lang="target"):
    """The lines of a two-column words/lines table plus machine-readable key=value lines."""
    rows = [
        ("", "words", "lines"),
        (source_lang, str(cs.source.tokens), str(cs.source.lines)),
        (target_lang, str(cs.target.tokens), str(cs.target.lines)),
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    for side, ss in (("source", cs.source), ("target", cs.target)):
        lines.append("%s_lines=%d" % (side, ss.lines))
        lines.append("%s_tokens=%d" % (side, ss.tokens))
        lines.append("%s_vocabulary=%d" % (side, ss.vocabulary))
        lines.append("%s_max_len=%d" % (side, ss.max_len))
        lines.append("%s_mean_len=%.4f" % (side, ss.mean_len))
    return lines

