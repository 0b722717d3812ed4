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
by one state only, and every state on the path has tie count 1, then
exactly one path links optimally at every position, and it is the path
the tie-break picks: ``_ranked`` computes the same scores and prunes
the same states (pruning reads only the scores), starts from the same
unique final state and, at each state on the way back, chooses among
the predecessors that reach its best score, of which there is one.
Otherwise the best path ties somewhere, and ``_ranked`` decodes the
sequence again and breaks the tie.  Ties off the best path, such as the
``-inf`` states a beam prunes, are never looked at.  A sequence whose
best path ties pays the max pass on top of the ranked pass: on
all-tied dense instances from 64 x 8 to 256 x 24, about 1.3 to 1.4
times the ranked pass alone (``benchmarks/viterbi_bench.py``).  Memory is O(K·S) kept scores plus
the increments (K positions, S states per position).

``_ranked`` keeps every state's rank, no path copies: each state carries
the rank of its best path in the lexicographic order of the best paths
of all states at its position.  Among tied predecessors the one of
smallest rank wins, and the states at the next position are ranked by
(rank of the chosen predecessor, current candidate), which is the order
of the extended paths.

Instance layout: position ``k`` has ``counts[k]`` candidates and an
increment block of shape ``(adims[k], bdims[k], counts[k])`` flattened
at ``off[k]`` inside ``inc``, where ``adims[k]``/``bdims[k]`` are the
candidate counts two and one positions back (1 at the boundary).

In the max pass, a position whose block is one cell (one candidate
there and at the two positions before it) offers no choice: its one
state adds the cell to the one score, with no numpy reduction, and a
position with one candidate two back (``X = 1``) gives each state one
predecessor, so it is one broadcast add, with backpointer 0 and no
tie.  ``_ranked`` takes its general step at both; at a one-cell block
that step keeps the one predecessor, and pruning one state is a no-op.
"""

from __future__ import annotations

import numpy as np


def _prune(scores, beam):
    flat = scores.reshape(-1)
    if 0 < beam < flat.size:
        threshold = np.partition(flat, flat.size - beam)[flat.size - beam]
        return np.where(scores < threshold, -np.inf, scores)
    return scores


def viterbi(counts, adims, bdims, off, inc, beam=0):
    """Candidate index per position of the best path (smallest path
    among exact ties); ``beam > 0`` keeps the ``beam`` best states per
    position, plus any tied with the last of them.

    States are flat indices ``y * Z + z`` into the (previous, current)
    candidate grid.  ``steps[k]`` keeps the scores and the increment
    block that position k maximised over, or None where every state has
    one predecessor (``x = 0``).
    """
    K = len(counts)
    n0 = int(counts[0])
    scores = _prune(inc[off[0] : off[0] + n0].reshape(1, n0), beam)
    xs, ys, zs, offs = adims.tolist(), bdims.tolist(), counts.tolist(), off.tolist()
    steps = [None] * K

    for k in range(1, K):
        X, Y, Z = xs[k], ys[k], zs[k]
        if X == Y == Z == 1:  # no choice: one state, its own predecessor
            scores = scores + inc[offs[k]]
            continue
        block = inc[offs[k] : offs[k] + X * Y * Z].reshape(X, Y, Z)
        if X == 1:  # one predecessor per state: nothing to choose or tie
            scores = _prune(scores.reshape(Y, 1) + block[0], beam)
            continue
        steps[k] = (scores, block)
        scores = _prune((scores[:, :, None] + block).max(axis=0), beam)

    final = scores.ravel().tolist()
    best = max(final)
    if final.count(best) > 1:  # the best final states tie
        return _ranked(counts, adims, bdims, off, inc, beam)
    state = final.index(best)
    out = np.empty(K, np.int32)
    for k in range(K - 1, 0, -1):
        y, z = divmod(state, zs[k])
        out[k] = z
        x = 0
        if steps[k] is not None:
            # the sums position k maximised for this state, one per predecessor
            prev, block = steps[k]
            cand = (prev[:, y] + block[:, y, z]).tolist()
            best = max(cand)
            if cand.count(best) > 1:  # two predecessors reach this state's best
                return _ranked(counts, adims, bdims, off, inc, beam)
            x = cand.index(best)
        state = x * ys[k] + y
    out[0] = state
    return out


def _ranked(counts, adims, bdims, off, inc, beam=0):
    """``viterbi`` with the tie-break kept at every state.

    ``order`` lists the states by rank, ``rank`` inverts it.
    """
    K = len(counts)
    n0 = int(counts[0])
    scores = _prune(inc[off[0] : off[0] + n0].reshape(1, n0), beam)
    order = np.arange(n0)
    rank = order.reshape(1, n0)
    backptrs = [None]  # backptrs[k][state at k] = its predecessor at k-1

    for k in range(1, K):
        X, Y, Z = int(adims[k]), int(bdims[k]), int(counts[k])
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
