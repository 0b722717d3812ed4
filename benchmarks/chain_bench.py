#!/usr/bin/env python3
"""Time cold transition scoring: the chain walk behind each trellis block.

Trains a model, then builds ``Model.transition_block`` for every h2 of
the boundary tag and the observed tags, each block over all of those as
h1 and all observed tags as t, on a model with empty caches.  Prints the
best of ``--repeats`` wall-clock times and the transitions scored per
second.

Usage:
    python benchmarks/chain_bench.py
    python benchmarks/chain_bench.py --corpus train.tag --schema my.schema --rules my.rules
"""

import argparse
import time
from pathlib import Path

from greektag import Model, RuleSet, TagSchema, load_annotated_corpus, train
from greektag.tags import TransitionStats

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def cold_model(model):
    """A model on the same counts and weights, with every cache empty."""
    s = model.stats
    stats = TransitionStats(s.schema, s.tables, smoothed=s.smoothed,
                            chain_weights=s.chain_weights, floor=s.floor)
    return Model(model.schema, stats, model.lambdas, model.lexicon)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", default=str(FIXTURES / "toy.corpus"))
    parser.add_argument("--schema", default=str(FIXTURES / "toy.schema"))
    parser.add_argument("--rules", default=str(FIXTURES / "toy.rules"))
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    schema = TagSchema.load(args.schema)
    rules = RuleSet.load(args.rules, schema) if args.rules else None
    model = train(load_annotated_corpus(args.corpus, schema), rules, schema)
    observed = model.stats.observed_tags
    best = float("inf")
    for _ in range(args.repeats):
        m = cold_model(model)
        ids = tuple(m.stats.tables.intern(t) for t in observed)
        hist = (m.boundary_id, *ids)
        t0 = time.perf_counter()
        for a in hist:
            m.transition_block((a,), hist, ids)
        best = min(best, time.perf_counter() - t0)
    cells = len(hist) ** 2 * len(ids)
    print(f"observed tags: {len(ids)}, histories: {len(hist) ** 2}, transitions: {cells}")
    print(f"best of {args.repeats}: {best:.4f} s, {cells / best:,.0f} transitions/s")


if __name__ == "__main__":
    main()
