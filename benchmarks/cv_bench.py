#!/usr/bin/env python3
"""Time 10-fold cross-validation, split into its stages.

Runs ``greektag.cli.cross_validation`` on a corpus and reports the best
of ``--repeats`` wall-clock times, and each stage's best time over the
repeats: counting (trigram tables, their leave-one-out index and
lexicon counts), fitting the interpolation weights of every fold
(``model.fit_interpolation``), normalizing the lexicons
(``LexiconCounts.to_lexicon``: the corpus's once, then each fold's
entries from the counts less the fold's) and tagging the held-out
sequences; ``other`` is the smallest time left over by the stages in
any one repeat (building fold models, taking out and putting back
trigram counts).  Each figure is a minimum of its own, so it does not
carry the noise of the other stages.
Next to it, the best time of ``cross_validation_reference`` from ``tests/``, which
trains every fold from scratch.  The two accuracies must be equal.

Usage:
    python benchmarks/cv_bench.py
    python benchmarks/cv_bench.py --corpus train.tag --schema my.schema --rules my.rules
"""

import argparse
import sys
import time
from collections import defaultdict
from pathlib import Path

from greektag import RuleSet, TagSchema, cli, load_annotated_corpus, model, morph

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
sys.path.insert(0, str(ROOT / "tests"))
from reference import cross_validation_reference  # noqa: E402

#: stage -> (owner, attribute) of the functions whose time it is
STAGES = {
    "count": [(model, "count_sequences"), (morph, "count_lexicon")],
    "fit": [(model, "fit_interpolation")],
    "normalize": [(morph.LexiconCounts, "to_lexicon")],
    "tag": [(cli, "tag_sequence")],
}


def timed(fn, stage, spent):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[stage] += time.perf_counter() - t0
    return wrapper


def stage_bestd(corpus, rules, schema, repeats):
    """(accuracy, best total, each stage's best time, the smallest time
    outside the stages in any one run)."""
    acc, best, rest = None, float("inf"), float("inf")
    stage_best = {stage: float("inf") for stage in STAGES}
    for _ in range(repeats):
        spent = defaultdict(float)
        saved = []
        for stage, targets in STAGES.items():
            for owner, attr in targets:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, timed(fn, stage, spent))
        try:
            t0 = time.perf_counter()
            acc = cli.cross_validation(corpus, rules, schema)
            total = time.perf_counter() - t0
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)
        best = min(best, total)
        rest = min(rest, total - sum(spent.values()))
        for stage in STAGES:
            stage_best[stage] = min(stage_best[stage], spent[stage])
    return acc, best, stage_best, rest


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", default=str(FIXTURES / "toy.corpus"))
    parser.add_argument("--schema", default=str(FIXTURES / "toy.schema"))
    parser.add_argument("--rules", default=str(FIXTURES / "toy.rules"))
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    schema = TagSchema.load(args.schema)
    rules = RuleSet.load(args.rules, schema) if args.rules else None
    corpus = load_annotated_corpus(args.corpus, schema)
    acc, total, spent, other = stage_bestd(corpus, rules, schema, args.repeats)
    ref_best = float("inf")
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        ref_acc = cross_validation_reference(corpus, rules, schema)
        ref_best = min(ref_best, time.perf_counter() - t0)
    if acc != ref_acc:
        sys.exit(f"accuracy {acc!r} differs from the reference's {ref_acc!r}")

    tokens = sum(len(s) for s in corpus)
    print(f"corpus: {len(corpus)} sequences, {tokens} tokens; cv-accuracy {acc!r}")
    print(f"cross_validation, best of {args.repeats}: {total:.4f} s")
    for stage in STAGES:
        print(f"  {stage:<10} {spent[stage]:.4f} s")
    print(f"  {'other':<10} {other:.4f} s")
    print(f"cross_validation_reference, best of {args.repeats}: {ref_best:.4f} s "
          f"({ref_best / total:.2f}x)")


if __name__ == "__main__":
    main()
