"""Exception hierarchy, and the one line format of every text file.

Every error carries a one-word category for the CLI. Every text file is
read by read_lines, where "-" names standard input, and written by
write_lines: UTF-8, each line ended by "\n", and a line ends at "\n" only.
A file that is not UTF-8 text is one FormatError naming it.
"""

import sys


class MinismtError(Exception):
    """Base class; `category` is emitted on the CLI's one-line error output."""

    category = "internal"


class ParameterError(MinismtError):
    """A caller-supplied parameter violates a documented precondition."""

    category = "usage"


def at_least(low, name):
    """The check of a setting `name` whose value must be >= low (nan fails)."""
    def check(value):
        if not value >= low:
            raise ParameterError("%s must be >= %r, got %r" % (name, low, value))
    return check


class CorpusAlignmentError(MinismtError):
    """Parallel files disagree on line count."""

    category = "data"


class FormatError(MinismtError):
    """A model or corpus file does not follow its declared format."""

    category = "format"


class TrainingError(MinismtError):
    """Training or decoding was asked to run on unusable data (e.g. an empty corpus)."""

    category = "data"


class ConfigError(MinismtError):
    """Pipeline configuration is invalid."""

    category = "config"


class MissingArtifactError(MinismtError):
    """A pipeline stage needs an artifact a previous stage has not produced, or
    one that is stale: changed since, or written with other parameters than
    the config now gives, according to the writing stage's manifest."""

    category = "stage"


def read_lines(path):
    """The lines of a UTF-8 text file, or of standard input for None or "-".

    A line ends at "\n" only, in a file as on standard input: str.splitlines
    or universal newlines would also end one at "\r", a form feed, U+2028,
    U+0085 and others, and so shift line k of one side of a parallel corpus
    against line k of the other. A final "\n" ends the last line rather than
    starting an empty one.
    """
    stdin = path is None or str(path) == "-"
    try:
        if stdin:
            # strict UTF-8 whatever the locale: in the C locale Python would
            # otherwise pass undecodable bytes through as surrogates
            if hasattr(sys.stdin, "reconfigure"):
                sys.stdin.reconfigure(encoding="utf-8", errors="strict")
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8", newline="\n") as f:
                text = f.read()
    except UnicodeDecodeError as exc:
        where = "standard input is" if stdin else "%s:" % path
        raise FormatError("%s not UTF-8 text (%s)" % (where, exc)) from None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def write_lines(path, lines):
    """Write each string of `lines` to a UTF-8 file as one line ending in "\n".

    `lines` is any iterable, written as it is read, so a generator of lines
    is never held whole. Returns the number of lines written.
    """
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for count, line in enumerate(lines, 1):
            f.write(line)
            f.write("\n")
    return count
