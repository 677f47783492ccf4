"""Exception types shared across the package, and the one reader of text
files (corpora, logits and model files).

Plain contract violations (bad shapes, out-of-range indices, empty
sequences) raise ValueError; these classes cover recoverable,
user-facing failure modes.
"""


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
    """The whole of a UTF-8 text file, read as open() reads text; a byte that
    does not decode is a FormatError naming the file and its line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        # read() decodes the file in one piece, so exc.object is all of it
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise FormatError(
            f"{path}:{line}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})"
        ) from None
