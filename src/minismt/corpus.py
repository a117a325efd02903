"""Sentence-aligned parallel corpora: loading, cleaning, statistics.

Tokenization here is whitespace splitting only; language-specific
segmentation lives in `artok`. All containers are immutable after
construction and safe to share across threads.
"""

from dataclasses import dataclass

from .errors import CorpusAlignmentError, ParameterError, _open_text


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


def load_parallel(source_path, target_path):
    """Pair up two one-sentence-per-line UTF-8 files, preserving line order.

    Tokenization is whitespace splitting; an empty line gives an empty side.
    Raises CorpusAlignmentError (naming both counts) when the files have
    different numbers of lines; I/O problems surface as OSError.
    """
    with _open_text(source_path) as f:
        source_lines = f.read().splitlines()
    with _open_text(target_path) as f:
        target_lines = f.read().splitlines()
    if len(source_lines) != len(target_lines):
        raise CorpusAlignmentError(
            "line count mismatch: %s has %d lines, %s has %d lines"
            % (source_path, len(source_lines), target_path, len(target_lines))
        )
    return ParallelCorpus(tuple(
        SentencePair(tuple(s.split()), tuple(t.split()))
        for s, t in zip(source_lines, target_lines)
    ))


CLEAN_MAX_LEN = 80
CLEAN_MAX_RATIO = 9.0


def clean(corpus, max_len=CLEAN_MAX_LEN, max_ratio=CLEAN_MAX_RATIO):
    """Drop pairs with an empty side, an over-long side, or an extreme length ratio.

    Surviving pairs keep their order. Idempotent.
    """
    if max_len < 1:
        raise ParameterError("max_len must be >= 1, got %r" % (max_len,))
    if not max_ratio >= 1.0:  # nan fails
        raise ParameterError("max_ratio must be >= 1.0, got %r" % (max_ratio,))
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
    """Two-column words/lines table plus machine-readable key=value lines."""
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
    return "\n".join(lines) + "\n"

