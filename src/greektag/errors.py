"""Exception hierarchy shared by all greektag modules, the UTF-8
readers that report undecodable input as a ``FormatError``, the bound
on counts read from files, and the reader of weights."""

import math
from contextlib import contextmanager

#: The largest count, or count total, a file may give: it must fit an int64.
INT64_MAX = 2**63 - 1


class GreektagError(Exception):
    """Base class for all errors raised by this package."""


class TagError(GreektagError):
    """A tag string or Tag value violates the tagset schema."""


class FormatError(GreektagError):
    """A data file (corpus, schema, rules, lexicon, model, CSV) is malformed."""

    def __init__(self, message, path=None, line=None):
        where = ""
        if path is not None:
            where = f"{path}: "
        if line is not None:
            where += f"line {line}: "
        super().__init__(where + message)
        self.path = path
        self.line = line


def check_distinct(names, what: str, path=None, line=None) -> None:
    """FormatError unless every name of ``names`` is distinct."""
    seen = set()
    for name in names:
        if name in seen:
            raise FormatError(f"{what} {name} given twice", path, line)
        seen.add(name)


def parse_weight(text: str) -> float:
    """A probability or weight read from a file; ValueError unless
    ``text`` is ASCII, holds no ``_`` and is a finite non-negative
    number."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"weight {text!r} is not an ASCII number without '_'")
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"weight {text!r} is not a finite non-negative number")
    return value


class ModelError(GreektagError):
    """The model is unusable for the requested operation (untrained, bad input)."""


class SearchSpaceError(GreektagError):
    """A search space exceeds its bound: the oracle's enumeration or a
    sequence's trellis."""


def decode_utf8(data: bytes, path) -> str:
    """``data`` as UTF-8 text; bytes that are not UTF-8 raise a
    ``FormatError`` naming ``path`` and the line of the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not valid UTF-8 (byte 0x{data[exc.start]:02x})",
                          path, data.count(b"\n", 0, exc.start) + 1) from None


@contextmanager
def open_utf8(path, newline=None):
    """``open(path, encoding="utf-8")`` for reading, except that bytes
    that are not UTF-8 raise ``decode_utf8``'s ``FormatError``."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            decode_utf8(fh.read(), path)
        raise
