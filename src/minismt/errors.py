"""Exception hierarchy. Every error carries a one-word category for the CLI.

Every reader opens its file through _open_text, so a file that is not
UTF-8 text is one FormatError naming it. A reader that takes the whole
file as lines does so through read_lines, where a line ends at "\n" only.
"""

import contextlib
import sys


class MinismtError(Exception):
    """Base class; `category` is emitted on the CLI's one-line error output."""

    category = "internal"


class ParameterError(MinismtError):
    """A caller-supplied parameter violates a documented precondition."""

    category = "usage"


class CorpusAlignmentError(MinismtError):
    """Parallel files disagree on line count."""

    category = "data"


class FormatError(MinismtError):
    """A model or corpus file does not follow its declared format."""

    category = "format"


class TrainingError(MinismtError):
    """Training was asked to run on unusable data (e.g. an empty corpus)."""

    category = "data"


class ConfigError(MinismtError):
    """Pipeline configuration is invalid."""

    category = "config"


class MissingArtifactError(MinismtError):
    """A pipeline stage needs an artifact a previous stage has not produced, or
    one that is stale: changed since, or written with other parameters than
    the config now gives, according to the writing stage's manifest."""

    category = "stage"


@contextlib.contextmanager
def _open_text(path, newline=None):
    """open(path, encoding="utf-8") for reading; bytes that do not decode,
    met anywhere in the with-block, raise a FormatError naming the file."""
    with open(path, encoding="utf-8", newline=newline) as f:
        try:
            yield f
        except UnicodeDecodeError as exc:
            raise FormatError("%s: not UTF-8 text (%s)" % (path, exc)) from None


def read_lines(path):
    """The lines of a UTF-8 text file, or of standard input for None or "-".

    A line ends at "\n" only, in a file as on standard input: str.splitlines
    would also end one at "\r", a form feed, U+2028, U+0085 and others, and
    so shift line k of one side of a parallel corpus against line k of the
    other. A final "\n" ends the last line rather than starting an empty one.
    """
    if path in (None, "-"):
        # strict UTF-8 whatever the locale: in the C locale Python would
        # otherwise pass undecodable bytes through as surrogates
        if hasattr(sys.stdin, "reconfigure"):
            sys.stdin.reconfigure(encoding="utf-8", errors="strict")
        try:
            text = sys.stdin.read()
        except UnicodeDecodeError as exc:
            raise FormatError("standard input is not UTF-8 text (%s)" % exc) from None
    else:
        with _open_text(path, newline="\n") as f:
            text = f.read()
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines
