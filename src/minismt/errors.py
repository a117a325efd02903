"""Exception hierarchy. Every error carries a one-word category for the CLI.

Every reader opens its file through _open_text, so a file that is not
UTF-8 text is one FormatError naming it.
"""

import contextlib


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
def _open_text(path):
    """open(path, encoding="utf-8") for reading; bytes that do not decode,
    met anywhere in the with-block, raise a FormatError naming the file."""
    with open(path, encoding="utf-8") as f:
        try:
            yield f
        except UnicodeDecodeError as exc:
            raise FormatError("%s: not UTF-8 text (%s)" % (path, exc)) from None
