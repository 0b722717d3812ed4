"""Tokenization, word-form normalization, and the annotated corpus format.

Normalization canonically composes (NFC) and lowercases; it removes no
marks: the lexicon keeps accent variants as distinct entries, so
normalization must not merge them.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import NamedTuple

from .errors import FormatError, TagError, open_utf8
from .tags import Tag, TagSchema, format_tag

#: Sentence-final punctuation: period, semicolon (ano teleia stand-in),
#: Greek question mark (U+037E), interrogation mark.
DEFAULT_BOUNDARY = frozenset({".", ";", ";", "?"})

#: Reserved category for punctuation tokens.
PUNCT_CATEGORY = "punct"


class Token(NamedTuple):
    """One token: its surface, its normalized form and its position in
    its sequence.  A named tuple, so it equals the plain tuple of its
    fields, and ``index`` is the field, not ``tuple.index``."""

    surface: str
    norm: str
    index: int


@dataclass(frozen=True)
class Sequence:
    tokens: tuple[Token, ...]
    gold_tags: tuple[Tag, ...] | None = None

    def __post_init__(self):
        if self.gold_tags is not None and len(self.gold_tags) != len(self.tokens):
            raise ValueError(
                f"{len(self.gold_tags)} gold tags for {len(self.tokens)} tokens"
            )

    def __len__(self) -> int:
        return len(self.tokens)


def normalize(surface: str) -> str:
    """NFC + lowercase, composed again after lowercasing. Idempotent."""
    return unicodedata.normalize("NFC", unicodedata.normalize("NFC", surface).lower())


def is_punct(s: str) -> bool:
    """True for a non-empty string made only of punctuation characters."""
    return bool(s) and all(unicodedata.category(c).startswith("P") for c in s)


def _split_punct(chunk: str) -> list[str]:
    """Split leading/trailing punctuation characters into their own pieces."""
    lead = []
    while chunk and unicodedata.category(chunk[0]).startswith("P"):
        lead.append(chunk[0])
        chunk = chunk[1:]
    trail = []
    while chunk and unicodedata.category(chunk[-1]).startswith("P"):
        trail.append(chunk[-1])
        chunk = chunk[:-1]
    trail.reverse()
    return lead + ([chunk] if chunk else []) + trail


def tokenize(text: str) -> list[Sequence]:
    """Split text into sequences of tokens.

    Whitespace separates tokens; leading/trailing punctuation becomes
    separate single-character tokens; a token from ``DEFAULT_BOUNDARY``
    closes the current sequence.  Every non-whitespace character of the
    input lands in exactly one token.

    Each distinct whitespace chunk is split and normalized once per
    call: ``pieces`` maps it to its (piece, norm, closes) triples and
    dies with the call.
    """
    sequences: list[Sequence] = []
    current: list[Token] = []
    pieces: dict[str, tuple[tuple[str, str, bool], ...]] = {}
    for chunk in text.split():
        split = pieces.get(chunk)
        if split is None:
            split = pieces[chunk] = tuple(
                (p, normalize(p), p in DEFAULT_BOUNDARY) for p in _split_punct(chunk))
        for piece, norm, closes in split:
            current.append(Token(piece, norm, len(current)))
            if closes:
                sequences.append(Sequence(tuple(current)))
                current = []
    if current:
        sequences.append(Sequence(tuple(current)))
    return sequences


# -- annotated corpus format ----------------------------------------------
#
# UTF-8 text, one `surface<TAB>tag` per line, blank line ends a sequence,
# and a line that starts with `#` and holds no tab is a comment.


def is_comment(line: str) -> bool:
    """Whether ``line`` of a corpus, rule or lexicon file, or of a model
    section, is a comment: it starts with ``#`` and holds no tab, so the
    row of a ``#`` token or form is data."""
    return line.startswith("#") and "\t" not in line


def _tab_rows(lines, n_fields, path=None, first_line=1):
    """``(line number, fields)`` of each data row of a rule or lexicon
    file or a model section, numbered from ``first_line``: blank and
    comment lines are skipped, and a row that does not split at tabs
    into ``n_fields`` fields raises ``FormatError``."""
    for no, raw in enumerate(lines, start=first_line):
        line = raw.rstrip("\n")
        if not line.strip() or is_comment(line):
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise FormatError(
                f"expected {n_fields} tab-separated fields, got {len(fields)}", path, no
            )
        yield no, fields


def read_annotated_corpus(stream, schema: TagSchema, path=None) -> list[Sequence]:
    """Sequences of tokens with gold tags from ``surface<TAB>tag`` lines.

    A surface is checked and normalized at its first occurrence only:
    ``norms`` maps each surface that passed to its normalized form and
    dies with the call."""
    sequences: list[Sequence] = []
    tokens: list[Token] = []
    tags: list[Tag] = []
    norms: dict[str, str] = {}

    def close():
        if tokens:
            sequences.append(Sequence(tuple(tokens), tuple(tags)))
            tokens.clear()
            tags.clear()

    for no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            close()
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            if is_comment(line):  # holds no tab, so never two fields
                continue
            raise FormatError(
                f"expected 2 tab-separated fields, got {len(fields)}", path, no
            )
        surface, tagstring = fields
        norm = norms.get(surface)
        if norm is None:
            if surface.split() != [surface]:
                # ``tokenize`` never yields such a token, so none could use it
                raise FormatError(f"surface {surface!r} is empty or holds whitespace",
                                  path, no)
            if len(surface) > 1 and (unicodedata.category(surface[0]).startswith("P")
                                     or unicodedata.category(surface[-1]).startswith("P")):
                # ``tokenize`` splits such punctuation off into tokens of its own
                raise FormatError(f"surface {surface!r} starts or ends with punctuation",
                                  path, no)
            norm = norms[surface] = normalize(surface)
        try:
            tag = schema.parse(tagstring)
        except TagError as exc:
            raise FormatError(f"bad tag {tagstring!r}: {exc}", path, no) from None
        tokens.append(Token(surface, norm, len(tokens)))
        tags.append(tag)
    close()
    return sequences


def write_annotated_corpus(stream, sequences) -> None:
    """Write tagged ``sequences`` as ``surface<TAB>tag`` lines, a blank
    line after each sequence, in one write.  Raises ``ValueError``, with
    nothing written, if a sequence has no tags."""
    lines = []
    for seq in sequences:
        tags = seq.gold_tags
        if tags is None:
            raise ValueError("cannot write a sequence without tags")
        lines += [f"{token.surface}\t{format_tag(tag)}\n" for token, tag in zip(seq.tokens, tags)]
        lines.append("\n")
    stream.write("".join(lines))


def load_annotated_corpus(path, schema: TagSchema) -> list[Sequence]:
    with open_utf8(path) as fh:
        return read_annotated_corpus(fh, schema, path=str(path))


def save_annotated_corpus(path, sequences) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_annotated_corpus(fh, sequences)
