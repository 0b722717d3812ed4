"""Trigram Viterbi kernel.

The dynamic program runs over (previous tag, current tag) state pairs
with per-position candidate sets.  Scores are running left-to-right sums
of pre-added increments, so they are bit-identical to scoring the same
path with ``Model.sequence_log_prob``; exact score ties are broken by
the lexicographically smallest path (candidate indices are sorted by
canonical tag string), compared from the first position.

Each state keeps one int backpointer, the index of its best predecessor
state, so memory is O(K·S) ints plus the increments (K positions, S
states per position).  The
tie-break needs no path copies: every state carries the rank of its best
path in the lexicographic order of the best paths of all states at its
position.  Among tied predecessors the one of smallest rank wins, and
the states at the next position are ranked by (rank of the chosen
predecessor, current candidate), which is the order of the extended
paths.

Instance layout: position ``k`` has ``counts[k]`` candidates and an
increment block of shape ``(adims[k], bdims[k], counts[k])`` flattened
at ``off[k]`` inside ``inc``, where ``adims[k]``/``bdims[k]`` are the
candidate counts two and one positions back (1 at the boundary).

A position whose block is one cell (one candidate there and at the two
positions before it) offers no choice: its one state adds the cell to
the one score, and its backpointer is 0, with no numpy reduction.
"""

from __future__ import annotations

import numpy as np

_NO_CHOICE = np.zeros(1, np.int64)  # backpointers of a position with one state
_NO_CHOICE.flags.writeable = False


def _prune(scores, beam):
    flat = scores.reshape(-1)
    if 0 < beam < flat.size:
        threshold = np.sort(flat)[flat.size - beam]
        return np.where(scores < threshold, -np.inf, scores)
    return scores


def viterbi(counts, adims, bdims, off, inc, beam=0):
    """Candidate index per position of the best path (smallest path
    among exact ties); ``beam > 0`` keeps the ``beam`` best states per
    position, plus any tied with the last of them.

    States are flat indices ``y * Z + z`` into the (previous, current)
    candidate grid; ``order`` lists them by rank, ``rank`` inverts it.
    """
    K = len(counts)
    n0 = int(counts[0])
    scores = _prune(inc[off[0] : off[0] + n0].reshape(1, n0), beam)
    order = np.arange(n0)
    rank = order.reshape(1, n0)
    backptrs = [None]  # backptrs[k][state at k] = its predecessor at k-1

    for k in range(1, K):
        X, Y, Z = int(adims[k]), int(bdims[k]), int(counts[k])
        if X == Y == Z == 1:  # no choice: one state, its own predecessor
            scores = scores + inc[off[k]]
            backptrs.append(_NO_CHOICE)
            continue
        block = inc[off[k] : off[k] + X * Y * Z].reshape(X, Y, Z)
        cand = scores[:, :, None] + block
        best = cand.max(axis=0)
        # rank of the smallest-rank predecessor among those tied at the max
        prev = np.where(cand == best, rank[:, :, None], X * Y).min(axis=0)
        backptrs.append(order[prev.ravel()])
        order = np.argsort(prev * Z + np.arange(Z), axis=None)
        rank = np.empty(Y * Z, np.int64)
        rank[order] = np.arange(Y * Z)
        rank = rank.reshape(Y, Z)
        scores = _prune(best, beam)

    state = order[np.where(scores == scores.max(), rank, rank.size).min()]
    out = np.empty(K, np.int32)
    for k in range(K - 1, 0, -1):
        out[k] = state % counts[k]
        state = backptrs[k][state]
    out[0] = state
    return out
