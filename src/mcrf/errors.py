"""Exception types shared across the package, and the one reader of text
files (corpora, logits and model files) with the one splitter of the
blank-line-separated ones (corpora and logits files).

Plain contract violations (bad shapes, out-of-range indices, empty
sequences) raise ValueError; these classes cover recoverable,
user-facing failure modes.
"""

from collections.abc import Iterator


class McrfError(Exception):
    """Base class for package-specific errors."""


class ConfigurationError(McrfError):
    """Invalid configuration: bad scheme, duplicate types, unusable mask value."""


class DataError(McrfError):
    """Corpus-level problem: illegal gold path, misaligned files."""


class FormatError(McrfError):
    """Malformed file content: bad CoNLL row, bad logits header, corrupt model."""


class SizeError(McrfError):
    """Instance too large for an exact enumeration oracle."""


class TrainingError(McrfError):
    """Training aborted: non-finite loss or similar unrecoverable state."""


def read_text(path: str) -> str:
    """The whole of a UTF-8 text file, read as open() reads text, without a
    leading byte-order mark; a byte that does not decode is a FormatError
    naming the file and its line."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        # read() decodes the file in one piece, so exc.object is all of it
        # after any BOM; bytes.splitlines ends lines where universal newlines do
        line = len((exc.object[: exc.start] + b".").splitlines())
        raise FormatError(
            f"{path}:{line}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})"
        ) from None


def read_blocks(path: str) -> Iterator[tuple[int, list[str]]]:
    """Yield each block of a UTF-8 text file, a run of non-blank lines, as its
    first line number and its lines. A line of whitespace only ends a block;
    lines end at "\\n", "\\r\\n" or a lone "\\r", as read_text reads them.
    Yielding frees each block once its caller is done with it."""
    lines = read_text(path).split("\n")
    start = 0
    for end in [i for i, line in enumerate(lines) if not line or line.isspace()] + [len(lines)]:
        if end > start:
            yield start + 1, lines[start:end]
        start = end + 1
