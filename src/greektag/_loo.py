"""The leave-one-out count index behind deleted interpolation.

``model.count_sequences`` builds a ``LeaveOneOut`` index next to the
count tables, and ``model.fit_interpolation`` fits the interpolation
weights from it, for ``train`` and for every fold of cross-validation,
as array arithmetic.  Only training imports this module.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

import numpy as np

from .tags import DEFAULT_CHAIN_WEIGHTS, ROOT


def _runs(lengths):
    """(run, position in the run) of every item of consecutive runs of
    the given lengths."""
    run = np.repeat(np.arange(len(lengths)), lengths)
    return run, np.arange(len(run)) - (np.cumsum(lengths) - lengths)[run]


class LeaveOneOut:
    """The leave-one-out count index of ``model.count_sequences``: the
    trigram counts of each sequence (``index[i]``), and every count
    deleted interpolation reads, as flat arrays.

    A count is keyed by a history and a key id of the tables, as in
    ``_Tables.pre``, coded as one int; ``keys`` holds, in increasing
    order, the codes of the keys that ``_Tables.add`` counts.
    ``corpus[k]`` is the count of ``keys[k]`` over the corpus;
    ``pair_seq``, ``pair_key`` and ``pair_own`` give each sequence's
    own count of each key it touches.  An observation, a distinct
    trigram (a, b, t) of a sequence with its count n, becomes an order
    row (unigram, bigram, trigram level) and a chain row per feature
    value of t (specific, category-local, global level): per level, a
    numerator and a denominator key with the sequence's own counts of
    both.  Rows keep the observation order of the sequences and their
    trigrams.  Counts are float64, exact below 2**53.
    """

    def __init__(self, tables, seq_counts):
        self._counts = seq_counts
        # per tag id, its prefix ids and its backoff key ids, as runs
        n_pre = np.array([len(p) for p in tables.prefixes], np.int64)
        pre = np.fromiter(chain.from_iterable(tables.prefixes), np.int64)
        feat = np.fromiter(chain.from_iterable(tables.features), np.int64)
        pre_at = np.cumsum(n_pre) - n_pre
        feat_at = 3 * (pre_at - 2 * np.arange(len(n_pre)))
        none, n_ids = len(n_pre), len(tables.key_id)  # none: no history tag

        def code(h2, h1, k):  # a count key as an int, unique per (h2, h1, key id)
            return (h2 * (none + 1) + h1) * n_ids + k

        a, b, t = np.fromiter(chain.from_iterable(chain.from_iterable(seq_counts)),
                              np.int64).reshape(-1, 3).T
        n = np.fromiter(chain.from_iterable(c.values() for c in seq_counts), np.float64)
        seq = np.repeat(np.arange(len(seq_counts)), [len(c) for c in seq_counts])
        links = n_pre[t] - 2

        # the keys each observation counts under, as _Tables.add counts
        # them: each prefix of t after (a, b), after b and after (), and
        # t's backoff keys after ()
        rp, jp = _runs(n_pre[t])
        rf, jf = _runs(3 * links)
        p = pre[pre_at[t[rp]] + jp]
        touched = np.concatenate([rp, rp, rp, rf])
        self.keys, key = np.unique(np.concatenate([
            code(a[rp], b[rp], p), code(none, b[rp], p), code(none, none, p),
            code(none, none, feat[feat_at[t[rf]] + jf])]), return_inverse=True)
        keys, n_keys = self.keys, max(len(self.keys), 1)
        pairs, pair = np.unique(seq[touched] * n_keys + key, return_inverse=True)
        self.pair_own = np.bincount(pair, weights=n[touched])
        self.pair_seq, self.pair_key = np.divmod(pairs, n_keys)
        self.corpus = np.bincount(self.pair_key, weights=self.pair_own, minlength=n_keys)

        def rows(levels, row_seq, row_n):
            levels = np.stack(np.broadcast_arrays(*levels), axis=1)
            ids = np.searchsorted(keys, levels.reshape(-1, 3, 2))
            own = self.pair_own[np.searchsorted(pairs, row_seq[:, None, None] * n_keys + ids)]
            return ids, own, row_seq, row_n

        # a tag without features has its category for its full prefix
        full = pre[pre_at[t] + n_pre[t] - 1]
        self.order_rows = rows([code(none, none, full), code(none, none, ROOT),
                                code(none, b, full), code(none, b, ROOT),
                                code(a, b, full), code(a, b, ROOT)], seq, n)
        rc, jc = _runs(links)
        ac, bc, at, ft = a[rc], b[rc], pre_at[t[rc]], feat_at[t[rc]] + 3 * jc
        self.chain_rows = rows([code(ac, bc, pre[at + jc + 2]), code(ac, bc, pre[at + jc + 1]),
                                code(none, none, feat[ft]), code(none, none, pre[at + 1]),
                                code(none, none, feat[ft + 1]), code(none, none, feat[ft + 2])],
                               seq[rc], n[rc])

    def __getitem__(self, i) -> Counter:
        return self._counts[i]

    def fit(self, held=()):
        """(lambdas, chain_weights) fitted on the sequences outside
        ``held``, as ``model.fit_interpolation`` describes."""
        out = np.zeros(len(self._counts), bool)
        out[list(held)] = True
        counts = self.corpus
        if held:
            mask = out[self.pair_seq]
            counts = counts - np.bincount(self.pair_key[mask], weights=self.pair_own[mask],
                                          minlength=len(counts))
        a1, a2, a3 = _award_totals(counts, self.order_rows, out, 0)
        total = a1 + a2 + a3
        lambdas = (a1 / total, a2 / total, a3 / total) if total else (1.0, 0.0, 0.0)
        c1, c2, c3 = _award_totals(counts, self.chain_rows, out, 2)
        ctotal = c1 + c2 + c3
        if not ctotal:  # no featured tag is kept
            return lambdas, DEFAULT_CHAIN_WEIGHTS
        return lambdas, (c1 / ctotal, c2 / ctotal, c3 / ctotal)


def _award_totals(counts, rows, out, fallback) -> list[float]:
    """Per level, the awards of the ``rows`` of the sequences not
    ``out``: each row's n goes to the level(s) of largest leave-one-out
    relative frequency (``counts`` less the sequence's own, 0 on a zero
    denominator), split evenly, or to ``fallback`` if none is > 0."""
    ids, own, seq, n = rows
    if not len(n):
        return [0.0, 0.0, 0.0]
    left = counts[ids] - own
    num, den = left[..., 0], left[..., 1]
    freq = np.divide(num, den, out=np.zeros(num.shape), where=den > 0)
    best = freq.max(axis=1)
    wins = freq == best[:, None]
    awards = np.where(wins, (n / wins.sum(axis=1))[:, None], 0.0)
    unexplained = best <= 0.0
    awards[unexplained] = 0.0
    awards[unexplained, fallback] = n[unexplained]
    awards[out[seq]] = 0.0
    # cumsum adds left to right in row order, as one award at a time would
    return np.cumsum(awards, axis=0)[-1].tolist()
