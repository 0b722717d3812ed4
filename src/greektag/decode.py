"""Decoding: best tag sequence under the trained model.

``tag_sequence`` runs the trigram Viterbi kernel over per-position
candidate sets (the tags with nonzero lexical probability), breaking
exact score ties by the lexicographically smallest sequence of
canonical tag strings.  A sequence with one candidate per token has one
path, which it returns without building a trellis.
"""

from __future__ import annotations

import numpy as np

from . import _viterbi
from .errors import SearchSpaceError
from .model import Model
from .tags import Tag
from .text import Sequence

#: Upper bound on the float64 increments of one sequence's trellis (80 MB).
MAX_TRELLIS_CELLS = 10_000_000


def tag_sequence(model: Model, tokens, beam: int = 0) -> list[Tag]:
    """Highest-probability tag sequence for one token sequence.

    ``beam > 0`` keeps only the best ``beam`` trellis states per
    position (approximate; exact ties at the cut survive).  A sequence
    with one candidate per token has one path, the kernel's answer at
    every beam whatever its score, and it is returned with no trellis
    built.  A sequence whose trellis would hold more than
    ``MAX_TRELLIS_CELLS`` increments (a one-path sequence included)
    raises ``SearchSpaceError`` before any block is built.  A ``beam``
    that is not an ``int`` of at least 0 raises ``ValueError``.
    """
    if type(beam) is not int or beam < 0:
        raise ValueError(f"beam must be an int of at least 0, got {beam!r}")
    K = len(tokens)
    if K == 0:
        return []
    cands = [model.candidates(tok.norm) for tok in tokens]
    widths = [len(c[1]) for c in cands]
    if K <= MAX_TRELLIS_CELLS and max(widths) == 1:
        return [tags[0] for tags, _, _ in cands]

    counts, adims, bdims, off, ends = _viterbi.layout(widths)
    if ends[-1] > MAX_TRELLIS_CELLS:
        k = int(np.searchsorted(ends, MAX_TRELLIS_CELLS, side="right"))
        raise SearchSpaceError(
            f"token {k + 1} of the sequence ({tokens[k].surface!r}) takes the "
            f"trellis past {MAX_TRELLIS_CELLS} cells"
        )

    # float64: 8 bytes a cell, as the bound assumes
    inc = np.concatenate(_fill(model, tokens, cands))
    path = _viterbi.viterbi(counts, adims, bdims, off, inc, beam)
    return [tags[i] for (tags, _, _), i in zip(cands, path)]


def _fill(model: Model, tokens, cands) -> list:
    """Each position's flat increments, for the candidates ``cands`` of
    ``tokens``, from ``Model.increments``."""
    increments = model.increments
    prev2 = prev1 = (model.boundary_id,)
    blocks = []
    for tok, (_, ids, _) in zip(tokens, cands):
        blocks.append(increments(prev2, prev1, tok.norm))
        prev2, prev1 = prev1, ids
    return blocks


def tag_corpus(model: Model, sequences, beam: int = 0) -> list[Sequence]:
    """Tag pre-tokenized sequences, returning copies with tags filled."""
    return [
        Sequence(seq.tokens, tuple(tag_sequence(model, seq.tokens, beam)))
        for seq in sequences
    ]

