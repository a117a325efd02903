import pytest

from minismt import corpus
from minismt.errors import CorpusAlignmentError, ParameterError


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_pairs_lines(tmp_path):
    src = _write(tmp_path, "c.en", "a b\nc\n")
    tgt = _write(tmp_path, "c.ar", "x\ny z\n")
    corp = corpus.load_parallel(src, tgt)
    assert len(corp.pairs) == 2
    assert corp.pairs[0].source == ("a", "b")
    assert corp.pairs[0].target == ("x",)
    assert corp.pairs[1].source == ("c",)


def test_a_line_ends_at_newline_only(tmp_path):
    # str.splitlines would also end a line at the form feed, U+2028 and
    # U+0085, which would pair each side's later lines wrongly
    src = _write(tmp_path, "c.en", "one\ftwo\nthree\nfour\x85five\n")
    tgt = _write(tmp_path, "c.ar", "A\nB\u2028C\nD\n")
    corp = corpus.load_parallel(src, tgt)
    assert [(p.source, p.target) for p in corp.pairs] == [
        (("one", "two"), ("A",)), (("three",), ("B", "C")), (("four", "five"), ("D",))]


def test_load_mismatch_names_both_counts(tmp_path):
    src = _write(tmp_path, "c.en", "a\nb\nc\n")
    tgt = _write(tmp_path, "c.ar", "x\ny\n")
    with pytest.raises(CorpusAlignmentError) as err:
        corpus.load_parallel(src, tgt)
    assert "3" in str(err.value) and "2" in str(err.value)


def test_load_missing_file_is_io_error(tmp_path):
    with pytest.raises(OSError):
        corpus.load_parallel(tmp_path / "nope.en", tmp_path / "nope.ar")


def test_load_preserves_order_and_content(tmp_path):
    lines = ["w%d a b" % i for i in range(10)]
    src = _write(tmp_path, "o.en", "\n".join(lines) + "\n")
    tgt = _write(tmp_path, "o.ar", "\n".join("t%d" % i for i in range(10)) + "\n")
    corp = corpus.load_parallel(src, tgt)
    # independent recount straight off the file
    assert len(corp.pairs) == len((tmp_path / "o.en").read_text().splitlines()) == 10
    for i, pair in enumerate(corp.pairs):
        assert pair.source == tuple(lines[i].split())


def test_clean_keeps_and_drops():
    pairs = (
        corpus.SentencePair(("a",), ("x",)),
        corpus.SentencePair(tuple("w%d" % i for i in range(100)), ("x",)),
        corpus.SentencePair((), ("x",)),
        corpus.SentencePair(("a", "b"), tuple("t%d" % i for i in range(40))),
        corpus.SentencePair(("a", "b"), ("x", "y")),
    )
    corp = corpus.ParallelCorpus(pairs)
    cleaned = corpus.clean(corp, max_len=80, max_ratio=9.0)

    def keep(p):  # independent filter
        ls, lt = len(p.source), len(p.target)
        return 0 < ls <= 80 and 0 < lt <= 80 and max(ls / lt, lt / ls) <= 9.0

    expected = [p for p in pairs if keep(p)]
    assert [(p.source, p.target) for p in cleaned.pairs] == [
        (p.source, p.target) for p in expected
    ]


def test_clean_idempotent(toy_train):
    once = corpus.clean(toy_train, 10, 2.0)
    twice = corpus.clean(once, 10, 2.0)
    assert once == twice


def test_clean_parameter_errors(toy_train):
    with pytest.raises(ParameterError):
        corpus.clean(toy_train, max_len=0, max_ratio=9.0)
    with pytest.raises(ParameterError):
        corpus.clean(toy_train, max_len=80, max_ratio=0.5)
    with pytest.raises(ParameterError, match="max_ratio must be >= 1.0, got nan"):
        corpus.clean(toy_train, max_len=80, max_ratio=float("nan"))
    unbounded = corpus.clean(toy_train, max_len=1000, max_ratio=float("inf"))
    assert unbounded.pairs == tuple(p for p in toy_train.pairs if p.source and p.target)


def test_stats_empty_and_tiny():
    empty = corpus.stats(corpus.ParallelCorpus(()))
    assert empty.source.lines == empty.source.tokens == empty.source.vocabulary == 0
    assert empty.source.max_len == 0 and empty.source.mean_len == 0.0

    one = corpus.stats(
        corpus.ParallelCorpus((corpus.SentencePair(("a", "b"), ("x",)),))
    )
    assert one.source.tokens == 2 and one.target.tokens == 1
    assert one.source.lines == one.target.lines == 1


def test_stats_match_independent_count(toy_train):
    cs = corpus.stats(toy_train)
    # shell-style recount: sum of split lengths, straight off the pairs
    src_tokens = sum(len(p.source) for p in toy_train.pairs)
    tgt_tokens = sum(len(p.target) for p in toy_train.pairs)
    assert cs.source.tokens == src_tokens
    assert cs.target.tokens == tgt_tokens
    assert cs.source.lines == cs.target.lines == len(toy_train.pairs)
    assert cs.source.vocabulary == len({w for p in toy_train.pairs for w in p.source})


def test_stats_additive(toy_train):
    half = len(toy_train.pairs) // 2
    a = corpus.ParallelCorpus(toy_train.pairs[:half])
    b = corpus.ParallelCorpus(toy_train.pairs[half:])
    sa, sb, s = corpus.stats(a), corpus.stats(b), corpus.stats(toy_train)
    assert sa.source.tokens + sb.source.tokens == s.source.tokens
    assert sa.target.lines + sb.target.lines == s.target.lines


def test_stats_table_format():
    cs = corpus.stats(corpus.ParallelCorpus((corpus.SentencePair(("a",), ("x", "y")),)))
    text = "\n".join(corpus.format_stats_table(cs, "en", "ar"))
    assert "words" in text and "lines" in text
    assert "source_tokens=1" in text
    assert "target_tokens=2" in text
    assert "target_mean_len=2.0000" in text

