#!/usr/bin/env python3
"""Time the text layer: tokenizing raw text, and reading and writing it tagged.

For each input text, in memory (no file I/O is timed):

- ``tokenize`` on the raw text;
- ``read_annotated_corpus`` on the text as ``greektag tag`` writes it,
  tagged by a model;
- ``write_annotated_corpus`` of those tagged sequences.

Prints the best of ``--repeats`` times of each over all the texts, in
nanoseconds per token, and the share of distinct whitespace chunks among
all chunks of the input, counted per text: ``tokenize`` splits and
normalizes each distinct chunk of a call once, and ``read_annotated_corpus``
checks and normalizes each distinct surface once, so the lower the share,
the more of the input is a repeat.

By default the input is the texts under ``tests/fixtures/texts``, one
text each: small, and nearly every chunk distinct within its text, so
the default measures the low-repeat case.  Raw text files given as
arguments are read instead, one text each (for example a pipeline
benchmark workload's texts, for the share real text has).  Every text is
tagged by a model trained on the toy fixtures.

Usage:
    python benchmarks/text_bench.py
    python benchmarks/text_bench.py --repeats 1
    python benchmarks/text_bench.py .pipebench/long-unpunct-s7/inputs/texts/*.txt
"""

import argparse
import io
import time
from pathlib import Path

from greektag import RuleSet, TagSchema, load_annotated_corpus, tag_corpus, train
from greektag.text import read_annotated_corpus, tokenize, write_annotated_corpus

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def toy_model():
    schema = TagSchema.load(FIXTURES / "toy.schema")
    rules = RuleSet.load(FIXTURES / "toy.rules", schema)
    return train(load_annotated_corpus(FIXTURES / "toy.corpus", schema), rules, schema)


def best_ns_per_token(fn, inputs, tokens, repeats):
    """Best wall-clock time of ``fn`` over every input, per token."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for x in inputs:
            fn(x)
        best = min(best, time.perf_counter() - t0)
    return best * 1e9 / tokens


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("texts", nargs="*", help="raw text files (default: the fixture texts)")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    paths = args.texts or sorted((FIXTURES / "texts").glob("*.txt"))
    raws = [Path(p).read_text(encoding="utf-8") for p in paths]
    model = toy_model()

    tagged = [tag_corpus(model, tokenize(raw)) for raw in raws]
    annotated = []
    for seqs in tagged:
        buf = io.StringIO()
        write_annotated_corpus(buf, seqs)
        annotated.append(buf.getvalue())
    tokens = sum(len(s) for seqs in tagged for s in seqs)
    chunks = sum(len(raw.split()) for raw in raws)
    distinct = sum(len(set(raw.split())) for raw in raws)

    print(f"input: {len(raws)} texts, {tokens} tokens, {chunks} chunks, "
          f"{distinct} distinct within their text ({distinct / chunks:.1%})")
    print(f"best of {args.repeats}, ns per token:")
    timings = {
        "tokenize": (tokenize, raws),
        "read_annotated_corpus":
            (lambda text: read_annotated_corpus(io.StringIO(text), model.schema), annotated),
        "write_annotated_corpus":
            (lambda seqs: write_annotated_corpus(io.StringIO(), seqs), tagged),
    }
    for name, (fn, inputs) in timings.items():
        print(f"  {name:<24} {best_ns_per_token(fn, inputs, tokens, args.repeats):8.0f}")


if __name__ == "__main__":
    main()
