"""Trigram Viterbi kernel.

The dynamic program runs over (previous tag, current tag) state pairs
with per-position candidate sets.  Scores are running left-to-right sums
of pre-added increments, so they are bit-identical to scoring the same
path with ``Model.sequence_log_prob``; exact score ties are broken by
the lexicographically smallest path (candidate indices are sorted by
canonical tag string), compared from the first position.

``viterbi`` makes one max pass: at each position one broadcast add and
one max over the predecessors, with no tie-break.  Reading the path
back, it takes each path state's backpointer and tie count from the
sums that state maximised (its predecessors' scores plus its block
column, kept from the forward pass): the first predecessor that reaches
the best score, and how many reach it.  If the final maximum is reached
by one state only, and every state on the path has tie count 1, exactly
one path links optimally at every position, and it is returned.
Otherwise ``_tie_walk`` reads the path back from the same sums.  A tie
off the best path, such as among the ``-inf`` states a beam prunes,
does not start the walk.  Memory is O(K·S) kept scores plus the
increments (K positions, S states per position).  A beam prunes in
place: the states below the ``beam``-th best score of the array the
max pass has just made become ``-inf``.

An edge from a state at k-1 to one at k is tight where the state's
pruned score plus the edge's increment equals the unpruned max at k:
these are the sums the max pass compared, so the optimal paths are the
paths of tight edges from position 0 to a best final state.  The
pruned score at k would not do: into a state the beam dropped, the
edges that reached its max would fail the test and its ``-inf`` edges
would pass, and such states lie on optimal paths when every path
scores ``-inf``.  ``_tie_walk`` marks, backward from the best final
states, each state with a tight edge to a marked state; then, forward
from the first position, it takes the smallest marked candidate over a
tight edge.  Every marked state extends to an optimal path, and
candidate indices are in canonical tag order, so this is the smallest
optimal path.  It holds one boolean and one recomputed max per state,
and per position one sum per increment cell while it marks.

Instance layout: position ``k`` has ``counts[k]`` candidates and an
increment block ``blocks[k]``, a float64 array of shape ``(adims[k],
bdims[k], counts[k])``, where ``adims[k]``/``bdims[k]`` are the
candidate counts two and one positions back (1 at the boundary).  The
blocks are separate arrays, taken as the caller hands them (the
model's cached, read-only increments), with no joined copy.
``layout`` computes the three count arrays from the candidate counts,
and each position's end in the trellis's cell count.

In the max pass, a position whose block is one cell (one candidate
there and at the two positions before it) offers no choice: its one
state adds the cell to the one score, with no numpy reduction, and a
position with one candidate two back (``X = 1``) gives each state one
predecessor, so it is one broadcast add, with backpointer 0 and no
tie.  The tie walk treats the one edge into each such state as tight.
"""

from __future__ import annotations

import numpy as np


def layout(widths):
    """``counts``, ``adims`` and ``bdims`` of the instance whose position
    k has ``widths[k]`` candidates, and each position's end in the
    trellis's cell count (the last is the count), as int64 arrays.
    ``counts``, ``bdims`` and ``adims`` are views of one array,
    ``[1, 1, *widths]``."""
    padded = np.array([1, 1, *widths], np.int64)
    counts, bdims, adims = padded[2:], padded[1:-1], padded[:-2]
    return counts, adims, bdims, np.cumsum(adims * bdims * counts)


def _prune(scores, beam):
    """Set, in place, the states of ``scores`` below its ``beam``-th best
    to ``-inf``."""
    n = scores.size
    if 0 < beam < n:
        threshold = np.sort(scores, axis=None)[n - beam]
        np.putmask(scores, scores < threshold, -np.inf)


def viterbi(counts, adims, bdims, ends, blocks, beam=0):
    """Candidate index per position of the best path (smallest path
    among exact ties), as a list of ints; ``beam > 0`` keeps the
    ``beam`` best states per position, plus any tied with the last of
    them.

    ``blocks[k]`` is position k's increment block, which the kernel
    reads and never writes.  ``ends`` is not read: the slot keeps the
    six positional parameters that the traced benchmark's wrapper
    (``pipebench/spans.py``) forwards, until that tracer changes
    (ROADMAP item 1).

    States are flat indices ``y * Z + z`` into the (previous, current)
    candidate grid.  ``steps[k]`` keeps the scores and the increment
    block of position k, or None where every state has one predecessor
    (``x = 0``).  The beam prunes only score arrays the pass made: the
    first position's scores are a copy of its block.
    """
    K = len(counts)
    xs, ys, zs = adims.tolist(), bdims.tolist(), counts.tolist()
    scores = blocks[0][0]
    if beam:
        scores = scores.copy()
        _prune(scores, beam)
    steps = [None] * K

    for k in range(1, K):
        X, Y = xs[k], ys[k]
        block = blocks[k]
        if X == Y == zs[k] == 1:  # no choice: one state, its own predecessor
            scores = scores + block[0]
            continue
        if X == 1:  # one predecessor per state: nothing to choose or tie
            scores = scores.reshape(Y, 1) + block[0]
        else:
            steps[k] = (scores, block)
            scores = (scores[:, :, None] + block).max(axis=0)
        if beam:
            _prune(scores, beam)

    final = scores.ravel().tolist()
    best = max(final)
    if final.count(best) > 1:  # the best final states tie
        return _tie_walk(steps, scores)
    state = final.index(best)
    out = [0] * K
    for k in range(K - 1, 0, -1):
        Z = zs[k]
        y, z = divmod(state, Z) if Z > 1 else (state, 0)
        out[k] = z
        x = 0
        if steps[k] is not None:
            # the sums position k maximised for this state, one per predecessor
            prev, block = steps[k]
            cand = (prev[:, y] + block[:, y, z]).tolist()
            best = max(cand)
            if cand.count(best) > 1:  # two predecessors reach this state's best
                return _tie_walk(steps, scores)
            x = cand.index(best)
        state = x * ys[k] + y
    out[0] = state
    return out


def _tie_walk(steps, scores):
    """The smallest path over tight edges to a best final state of
    ``scores``; ``on[k]`` marks the states at k that lie on such a path.
    Each position's unpruned max is recomputed from its kept scores and
    block by the max pass's expression, so it is the same doubles."""
    K = len(steps)
    on = [None] * K
    bests = [None] * K
    on[-1] = scores == scores.max()
    for k in range(K - 1, 0, -1):
        if steps[k] is None:  # every edge tight
            on[k - 1] = on[k].any(axis=1)[None, :]
        else:
            prev, block = steps[k]
            sums = prev[:, :, None] + block
            bests[k] = best = sums.max(axis=0)
            on[k - 1] = ((sums == best) & on[k]).any(axis=2)
    out = [0] * K
    x, y = 0, int(on[0][0].argmax())
    out[0] = y
    for k in range(1, K):
        marked = on[k][y]
        if steps[k] is not None:
            prev, block = steps[k]
            marked = marked & (prev[x, y] + block[x, y] == bests[k][y])
        x, y = y, int(marked.argmax())
        out[k] = y
    return out
