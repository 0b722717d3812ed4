#!/usr/bin/env python3
"""Time cold transition scoring: the chain walk behind each trellis block.

Trains a model, then times three cases on models with empty caches:

- a hapax run: ``tag_sequence`` on three words in a row that no lexicon
  entry or suffix rule matches (``HAPAX_WORDS``) and a period, so each
  word's candidates are the whole hapax prior.  It builds one block of
  W³ cells, which on a wide tagset is larger than
  ``MAX_BLOCK_CACHE_CELLS``.  Its peak RSS is the process's, read
  before the other cases run;
- the all-pairs sweep: ``Model.transition_block`` for each h2 of the
  first 40 of the boundary tag and the observed tags (in canonical tag
  string order), each block over all of those as h1 and all observed
  tags as t.  The sweep is cubic in the observed tags, so the cap keeps
  it to seconds on a wide tagset; a corpus with at most 39 observed
  tags sweeps every h2;
- one hapax-width block: with the W hapax-prior tags, the candidates of
  a word that no lexicon entry or suffix rule matches, as h1 and t, and
  the first min(40, W) of them as h2.  On a wide tagset it is larger
  than ``MAX_BLOCK_CACHE_CELLS``, so the decoder rebuilds it at every
  occurrence.

Prints the best of ``--repeats`` wall-clock times of each; for the
blocks, the transitions scored per second.

Usage:
    python benchmarks/chain_bench.py
    python benchmarks/chain_bench.py --corpus train.tag --schema my.schema --rules my.rules
"""

import argparse
import resource
import time
from pathlib import Path

from greektag import Model, RuleSet, TagSchema, load_annotated_corpus, tokenize, train
from greektag.decode import tag_sequence
from greektag.tags import TransitionStats, format_tag

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

#: The hapax run's three words: letter runs that no lexicon entry or
#: suffix rule of the fixture or the generated corpora matches.
HAPAX_WORDS = "ββββ γγγγ δδδδ"


def cold_model(model):
    """A model on the same counts and weights, with every cache empty."""
    s = model.stats
    stats = TransitionStats(s.schema, s.tables, smoothed=s.smoothed,
                            chain_weights=s.chain_weights, floor=s.floor)
    return Model(model.schema, stats, model.lambdas, model.lexicon)


def best_time(model, repeats, build):
    """Best wall-clock time of ``build(m)`` over ``repeats`` cold copies
    ``m`` of ``model``."""
    best = float("inf")
    for _ in range(repeats):
        m = cold_model(model)
        t0 = time.perf_counter()
        build(m)
        best = min(best, time.perf_counter() - t0)
    return best


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
    intern = model.stats.tables.intern

    (run,) = tokenize(HAPAX_WORDS + " .")
    width = len(model.lexicon.hapax_prior)
    for token in run.tokens[:-1]:
        if len(model.candidates(token.norm)[1]) != width:
            parser.error(f"{token.surface!r} does not get the hapax prior as its candidates")
    best = best_time(model, args.repeats, lambda m: tag_sequence(m, run.tokens))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"hapax run: {HAPAX_WORDS} . with W = {width} candidates a word")
    print(f"best of {args.repeats}: {best:.4f} s, process peak RSS {peak_mb:.0f} MB")
    ids = tuple(intern(t) for t in model.stats.observed_tags)
    hist = (model.boundary_id, *ids)

    def sweep(m):
        for a in hist[:40]:
            m.transition_block((a,), hist, ids)

    best = best_time(model, args.repeats, sweep)
    histories = len(hist[:40]) * len(hist)
    cells = histories * len(ids)
    print(f"observed tags: {len(ids)}, histories: {histories}, transitions: {cells}")
    print(f"best of {args.repeats}: {best:.4f} s, {cells / best:,.0f} transitions/s")

    hapax = tuple(intern(t) for t in sorted(model.lexicon.hapax_prior, key=format_tag))
    block = (hapax[:40], hapax, hapax)
    best = best_time(model, args.repeats, lambda m: m.transition_block(*block))
    cells = len(block[0]) * len(hapax) ** 2
    print(f"hapax-width block: W = {len(hapax)}, {len(block[0])} x {len(hapax)} x "
          f"{len(hapax)} = {cells} transitions")
    print(f"best of {args.repeats}: {best:.4f} s, {cells / best:,.0f} transitions/s")


if __name__ == "__main__":
    main()
