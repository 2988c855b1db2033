"""Exception types shared across the pipeline, and the one opening of
an output file, whose failure is an I/O error.

Exit codes follow the CLI contract: 1 validation, 2 I/O or format,
3 data consistency.
"""

from contextlib import contextmanager


class ProdcoefError(Exception):
    exit_code = 1


class ValidationError(ProdcoefError):
    """Bad parameter, violated precondition, or out-of-domain input."""

    exit_code = 1


class FormatError(ProdcoefError):
    """Input file is not readable in the declared format."""

    exit_code = 2


class UnsupportedError(FormatError):
    """Recognized container, but a version or variant we do not read."""

    exit_code = 2


class ConsistencyError(ProdcoefError):
    """Data contradicts itself: truncated body, broken additivity, ..."""

    exit_code = 3


@contextmanager
def output_file(path):
    """`path` opened for writing text with "\\n" line ends. An OSError
    while it is opened, written or closed is a FormatError naming it."""
    try:
        with open(path, "w", newline="\n") as handle:
            yield handle
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {type(exc).__name__}: {exc}") from None
