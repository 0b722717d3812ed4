"""Decoding: best tag sequence under the trained model.

``tag_sequence`` runs the trigram Viterbi kernel over per-position
candidate sets (the tags with nonzero lexical probability), breaking
exact score ties by the lexicographically smallest sequence of
canonical tag strings.
"""

from __future__ import annotations

import bisect
import itertools

import numpy as np

from . import _viterbi
from .errors import SearchSpaceError
from .model import Model
from .tags import Tag
from .text import Sequence, tokenize

#: Upper bound on the float64 increments of one sequence's trellis (80 MB).
MAX_TRELLIS_CELLS = 10_000_000


def tag_sequence(model: Model, tokens, beam: int = 0) -> list[Tag]:
    """Highest-probability tag sequence for one token sequence.

    ``beam > 0`` keeps only the best ``beam`` trellis states per
    position (approximate; exact ties at the cut survive).  A sequence
    whose trellis would hold more than ``MAX_TRELLIS_CELLS`` increments
    raises ``SearchSpaceError`` before anything is allocated.  A
    ``beam`` that is not an ``int`` of at least 0 raises ``ValueError``.
    """
    if type(beam) is not int or beam < 0:
        raise ValueError(f"beam must be an int of at least 0, got {beam!r}")
    K = len(tokens)
    if K == 0:
        return []
    cands = [model.candidates(tok.norm) for tok in tokens]

    widths = [len(c[1]) for c in cands]
    awidths = ([1, 1] + widths)[:K]
    bwidths = ([1] + widths)[:K]
    ends = list(itertools.accumulate(x * y * z for x, y, z in zip(awidths, bwidths, widths)))
    if ends[-1] > MAX_TRELLIS_CELLS:
        k = bisect.bisect_right(ends, MAX_TRELLIS_CELLS)
        raise SearchSpaceError(
            f"token {k + 1} of the sequence ({tokens[k].surface!r}) takes the "
            f"trellis past {MAX_TRELLIS_CELLS} cells"
        )
    counts, adims, bdims = (np.array(w, np.int64) for w in (widths, awidths, bwidths))
    off = np.array([0] + ends[:-1], np.int64)

    boundary = (model.boundary_id,)
    blocks = []
    for k in range(K):
        prev2 = cands[k - 2][1] if k >= 2 else boundary
        prev1 = cands[k - 1][1] if k >= 1 else boundary
        _, ids, _, emis = cands[k]
        blocks.append(model.transition_block(prev2, prev1, ids) + emis)
    inc = np.concatenate(blocks, axis=None)  # float64: 8 bytes a cell, as the bound assumes

    path = _viterbi.viterbi(counts, adims, bdims, off, inc, beam)
    return [cands[k][0][path[k]] for k in range(K)]


def tag_corpus(model: Model, sequences, beam: int = 0) -> list[Sequence]:
    """Tag pre-tokenized sequences, returning copies with tags filled."""
    return [
        Sequence(seq.tokens, tuple(tag_sequence(model, seq.tokens, beam)))
        for seq in sequences
    ]


def tag_text(model: Model, text: str, beam: int = 0):
    """Tokenize raw text and tag it; sequences decode independently.
    Returns the flattened (token, tag) pairs."""
    pairs = []
    for seq in tag_corpus(model, tokenize(text), beam):
        pairs.extend(zip(seq.tokens, seq.gold_tags))
    return pairs
