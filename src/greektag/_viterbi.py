"""Trigram Viterbi kernels.

The dynamic program runs over (previous tag, current tag) state pairs
with per-position candidate sets.  Scores are running left-to-right sums
of pre-added increments, so they are bit-identical to scoring the same
path with ``Model.sequence_log_prob``; exact score ties are broken by
the lexicographically smallest path (candidate indices are sorted by
canonical tag string), compared from the first position.

Two interchangeable implementations exist: a numba ``@njit`` kernel and
a vectorized pure-numpy fallback.  Set ``GREEKTAG_DISABLE_NUMBA=1`` to
force the fallback; it is also used automatically when numba is absent.

Instance layout (shared by both kernels): position ``k`` has
``counts[k]`` candidates and an increment block of shape
``(adims[k], bdims[k], counts[k])`` flattened at ``off[k]`` inside
``inc``, where ``adims[k]``/``bdims[k]`` are the candidate counts two
and one positions back (1 at the boundary).
"""

from __future__ import annotations

import os

import numpy as np

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    HAVE_NUMBA = False

_DISABLED = os.environ.get("GREEKTAG_DISABLE_NUMBA", "").strip().lower() in (
    "1", "true", "yes", "on",
)

#: True when the numba kernel is the active implementation.
NUMBA_ENABLED = HAVE_NUMBA and not _DISABLED


def _viterbi_loops(counts, adims, bdims, off, inc, beam):
    K = counts.shape[0]
    maxc = 1
    for k in range(K):
        if counts[k] > maxc:
            maxc = counts[k]

    scores = np.full((maxc, maxc), -np.inf)
    paths = np.zeros((maxc, maxc, K), np.int32)
    new_scores = np.full((maxc, maxc), -np.inf)
    new_paths = np.zeros((maxc, maxc, K), np.int32)

    n0 = counts[0]
    for y in range(n0):
        scores[0, y] = inc[off[0] + y]
        paths[0, y, 0] = y
    if 0 < beam < n0:
        flat = np.sort(scores[0, :n0].copy())
        threshold = flat[n0 - beam]
        for y in range(n0):
            if scores[0, y] < threshold:
                scores[0, y] = -np.inf

    for k in range(1, K):
        X = adims[k]
        Y = bdims[k]
        Z = counts[k]
        base = off[k]
        for y in range(Y):
            for z in range(Z):
                best = -np.inf
                bestx = -1
                for x in range(X):
                    v = scores[x, y] + inc[base + (x * Y + y) * Z + z]
                    if bestx < 0 or v > best:
                        best = v
                        bestx = x
                    elif v == best:
                        # exact tie: keep the lexicographically smaller path
                        for i in range(k):
                            d = paths[x, y, i] - paths[bestx, y, i]
                            if d < 0:
                                bestx = x
                                break
                            if d > 0:
                                break
                new_scores[y, z] = best
                for i in range(k):
                    new_paths[y, z, i] = paths[bestx, y, i]
                new_paths[y, z, k] = z
        scores, new_scores = new_scores, scores
        paths, new_paths = new_paths, paths
        if 0 < beam < Y * Z:
            flat = np.sort(scores[:Y, :Z].copy().reshape(Y * Z))
            threshold = flat[Y * Z - beam]
            for y in range(Y):
                for z in range(Z):
                    if scores[y, z] < threshold:
                        scores[y, z] = -np.inf

    U = bdims[K - 1]
    V = counts[K - 1]
    best = -np.inf
    bu = -1
    bv = -1
    for u in range(U):
        for v in range(V):
            s = scores[u, v]
            if bu < 0 or s > best:
                best = s
                bu = u
                bv = v
            elif s == best:
                for i in range(K):
                    d = paths[u, v, i] - paths[bu, bv, i]
                    if d < 0:
                        bu = u
                        bv = v
                        break
                    if d > 0:
                        break
    out = np.empty(K, np.int32)
    for i in range(K):
        out[i] = paths[bu, bv, i]
    return out


#: Plain-Python reference implementation (slow, used in tests).
viterbi_python = _viterbi_loops

if HAVE_NUMBA:
    viterbi_numba = numba.njit(cache=True)(_viterbi_loops)
else:  # pragma: no cover
    viterbi_numba = None


def _lex_smaller(a, b) -> bool:
    diff = np.nonzero(a != b)[0]
    return bool(diff.size) and a[diff[0]] < b[diff[0]]


def _prune(scores, beam):
    flat = scores.reshape(-1)
    if 0 < beam < flat.size:
        threshold = np.sort(flat)[flat.size - beam]
        return np.where(scores < threshold, -np.inf, scores)
    return scores


def _numpy_search(counts, adims, bdims, off, inc, beam, dead_ties):
    """Best path and its score; exact ties at states whose best score is
    ``-inf`` are resolved only when ``dead_ties`` is set."""
    K = len(counts)
    n0 = int(counts[0])
    scores = inc[off[0] : off[0] + n0].reshape(1, n0).copy()
    paths = np.arange(n0, dtype=np.int32).reshape(1, n0, 1)
    scores = _prune(scores, beam)

    for k in range(1, K):
        X, Y, Z = int(adims[k]), int(bdims[k]), int(counts[k])
        block = inc[off[k] : off[k] + X * Y * Z].reshape(X, Y, Z)
        cand = scores[:, :, None] + block
        best = cand.max(axis=0)
        bx = cand.argmax(axis=0)
        ties = (cand == best[None, :, :]).sum(axis=0) > 1
        if ties.any():
            if not dead_ties:
                ties &= best > -np.inf
            for y, z in zip(*np.nonzero(ties)):
                xs = np.nonzero(cand[:, y, z] == best[y, z])[0]
                keep = xs[0]
                for x in xs[1:]:
                    if _lex_smaller(paths[x, y], paths[keep, y]):
                        keep = x
                bx[y, z] = keep
        new_paths = np.empty((Y, Z, k + 1), np.int32)
        new_paths[:, :, :k] = paths[bx, np.arange(Y)[:, None], :]
        new_paths[:, :, k] = np.arange(Z, dtype=np.int32)[None, :]
        scores, paths = _prune(best, beam), new_paths

    flat = scores.reshape(-1)
    top = flat.max()
    winners = np.nonzero(flat == top)[0]
    keep = winners[0]
    flat_paths = paths.reshape(-1, K)
    for i in winners[1:]:
        if _lex_smaller(flat_paths[i], flat_paths[keep]):
            keep = i
    return flat_paths[keep].copy(), top


def viterbi_numpy(counts, adims, bdims, off, inc, beam):
    """Vectorized fallback; identical output to the numba kernel.

    A state whose best score is ``-inf`` (every state a beam prunes) lies
    on no path of finite score, so its ties are left unresolved; only
    when no path has a finite score does the search run again with
    every tie resolved.
    """
    path, score = _numpy_search(counts, adims, bdims, off, inc, beam, False)
    if score == -np.inf:
        path, _ = _numpy_search(counts, adims, bdims, off, inc, beam, True)
    return path


def viterbi(counts, adims, bdims, off, inc, beam=0):
    """Dispatch to the active kernel (see NUMBA_ENABLED)."""
    if NUMBA_ENABLED:
        return viterbi_numba(counts, adims, bdims, off, inc, beam)
    return viterbi_numpy(counts, adims, bdims, off, inc, beam)
