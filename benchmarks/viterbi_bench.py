#!/usr/bin/env python3
"""Time the trigram Viterbi kernel on dense synthetic trellises.

Every position of an instance has the same number of candidate tags
(the width).  Width 1 times the kernel's per-position cost where a
position offers no choice.  Prints the best of ``--repeats`` wall-clock
times per length:width pair, on two instances of that size: random
log-probability increments, where no paths tie and the max pass's
scalar read-back decodes, and all increments equal, where every path
ties and the tie walk reads the path back (the worst case).  On the
all-tied instance the tie-break must return the smallest path, all
zeros; the script exits with an error if it does not.

Usage:
    python benchmarks/viterbi_bench.py
    python benchmarks/viterbi_bench.py --sizes 100:8,400:8,1600:8,3200:8,400:32,400:1 --repeats 5
"""

import argparse
import sys
import time

import numpy as np

from greektag import _viterbi


def dense_instance(rng, length, width, tied=False):
    counts = np.full(length, width, np.int64)
    adims = np.array([width if k >= 2 else 1 for k in range(length)], np.int64)
    bdims = np.array([width if k >= 1 else 1 for k in range(length)], np.int64)
    off = np.zeros(length, np.int64)
    total = 0
    for k in range(length):
        off[k] = total
        total += adims[k] * bdims[k] * counts[k]
    inc = np.full(total, np.log(0.5)) if tied else np.log(rng.random(total))
    return counts, adims, bdims, off, inc


def best_time(instance, repeats):
    """The best wall-clock time of ``repeats`` decodes, and the path."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        path = _viterbi.viterbi(*instance, 0)
        best = min(best, time.perf_counter() - t0)
    return best, path


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="64:8,128:16,256:24,512:32,400:1",
                        help="comma-separated length:width pairs")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    header = f"{'length':>7} {'width':>6} {'random [s]':>11} {'all tied [s]':>13}"
    print(header)
    print("-" * len(header))
    for item in args.sizes.split(","):
        length, width = (int(v) for v in item.split(":"))
        random_s, _ = best_time(dense_instance(rng, length, width), args.repeats)
        tied_s, path = best_time(dense_instance(rng, length, width, tied=True), args.repeats)
        if path.any():
            sys.exit(f"all-tied {length}:{width} decoded {path.tolist()}, not all zeros")
        print(f"{length:>7} {width:>6} {random_s:>11.4f} {tied_s:>13.4f}")


if __name__ == "__main__":
    main()
