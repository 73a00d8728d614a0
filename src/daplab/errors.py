"""Exception types shared across the lab, mapped to CLI exit codes, and the
one reader of every file the lab takes as input."""

from pathlib import Path


class DapLabError(Exception):
    """Base class for lab errors."""


class DimensionError(DapLabError):
    """Tensor or map shapes are incompatible with the requested operation."""


class InputError(DapLabError):
    """Bad user-supplied input: files, configs, class names. Exit code 3."""


class NumericError(DapLabError):
    """Non-finite values where finite ones are required. Exit code 4."""


def read_input(path, what: str) -> bytes:
    """The bytes of an input file; one that cannot be read is an InputError
    naming the file and `what` it is."""
    try:
        return Path(path).read_bytes()
    except OSError as failure:
        raise InputError(f"{path}: cannot read {what} ({failure.strerror})") from None


def read_input_text(path, what: str) -> str:
    """read_input decoded as UTF-8; a byte that is not UTF-8 is an InputError."""
    data = read_input(path, what)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as bad:
        raise InputError(f"{path}: {what} is not UTF-8 text (byte {bad.start})") from None
