"""Batch command-line interface: train, tag, count, chisq.

Every command is deterministic: identical inputs and flags produce
byte-identical output files.  Exit codes: 0 success, 1 domain error,
2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from importlib import resources
from pathlib import Path

from . import stylometry
from .decode import tag_corpus, tag_sequence
from .errors import GreektagError, check_distinct, decode_utf8
from .model import Model, _fold_models, train
from .morph import RuleSet
from .stylometry import (
    DEFAULT_EXCLUDED,
    DEFAULT_THRESHOLD,
    count_categories,
    render_report,
    run_test,
)
from .tags import TagSchema
from .text import load_annotated_corpus, save_annotated_corpus, tokenize

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

DEFAULT_SEED = 13
CV_FOLDS = 10


def default_schema_path() -> Path:
    return Path(resources.files("greektag") / "data" / "default.schema")


def _load_schema(path) -> TagSchema:
    return TagSchema.load(path if path else default_schema_path())


def cross_validation(corpus, rules, schema, seed=DEFAULT_SEED):
    """Held-out tagging accuracy, averaged over up to ``CV_FOLDS`` folds
    of whole sequences.  None when the corpus is too small to split."""
    if len(corpus) < 2:
        return None
    k = min(CV_FOLDS, len(corpus))
    order = list(range(len(corpus)))
    random.Random(seed).shuffle(order)
    correct = 0
    total = 0
    held_out = [sorted(order[fold::k]) for fold in range(k)]
    for held, fold_model in _fold_models(corpus, rules, schema, held_out):
        for i in held:
            seq = corpus[i]
            predicted = tag_sequence(fold_model, seq.tokens)
            correct += sum(p == g for p, g in zip(predicted, seq.gold_tags))
            total += len(seq)
    return correct / total if total else None


def cmd_train(args) -> int:
    schema = _load_schema(args.schema)
    rules = RuleSet.load(args.rules, schema) if args.rules else RuleSet.empty()
    corpus = []
    for path in args.corpus:
        corpus.extend(load_annotated_corpus(path, schema))
    model = train(corpus, rules, schema)
    model.save(args.out)

    tokens = sum(len(s) for s in corpus)
    lex = model.lexicon
    print(f"corpus: {len(corpus)} sequences, {tokens} tokens")
    print(f"lexicon: {len(lex)} entries ({len(lex.stems)} stems, "
          f"{len(lex.fullforms)} full forms), {len(lex.suffix_probs)} suffixes")
    print("lambdas: " + " ".join(f"{l:.6f}" for l in model.lambdas))
    print("chain: " + " ".join(f"{g:.6f}" for g in model.stats.chain_weights))
    for line in lex.log:
        print(f"warning: {line}")
    accuracy = cross_validation(corpus, rules, schema, seed=args.seed)
    if accuracy is None:
        print("cv-accuracy: skipped (fewer than 2 sequences)")
    else:
        print(f"cv-accuracy: {accuracy:.4f} ({min(CV_FOLDS, len(corpus))} folds, "
              f"seed {args.seed})")
    print(f"model written to {args.out}")
    return EXIT_OK


def cmd_tag(args) -> int:
    model = Model.load(args.model)
    if args.input == "-":
        text = decode_utf8(sys.stdin.buffer.read(), "<stdin>")
    else:
        text = decode_utf8(Path(args.input).read_bytes(), args.input)
    tagged = tag_corpus(model, tokenize(text), beam=args.beam)
    save_annotated_corpus(args.out, tagged)
    total = sum(len(s) for s in tagged)
    print(f"tagged {total} tokens in {len(tagged)} sequences to {args.out}")
    return EXIT_OK


def cmd_count(args) -> int:
    schema = _load_schema(args.schema)
    exclude = tuple(args.exclude_category) if args.exclude_category else DEFAULT_EXCLUDED
    for category in args.exclude_category or ():
        if category not in schema.category_features:
            print(f"error: --exclude-category {category}: the schema declares no "
                  "such category", file=sys.stderr)
            return EXIT_USAGE
    check_distinct((Path(path).stem for path in args.tagged), "text id")
    group = []
    for path in args.tagged:
        pairs = []
        for seq in load_annotated_corpus(path, schema):
            pairs.extend(zip(seq.tokens, seq.gold_tags))
        group.append(count_categories(pairs, Path(path).stem, exclude))
    stylometry.save_counts_csv(args.out, group)
    print(f"counted {len(group)} texts to {args.out}")
    return EXIT_OK


def cmd_chisq(args) -> int:
    group = stylometry.load_counts_csv(args.counts)
    report = run_test(group, threshold=args.threshold, exclude_self=args.exclude_self)
    table, csv_text = render_report(report)
    table_path = Path(str(args.out) + ".txt")
    csv_path = Path(str(args.out) + ".csv")
    table_path.write_text(table, encoding="utf-8", newline="\n")
    csv_path.write_text(csv_text, encoding="utf-8", newline="\n")
    if report.dropped_categories:
        print("dropped: " + ",".join(report.dropped_categories))
    if report.degenerate:
        print("degenerate: all deviation counts equal, no text flagged")
    elif report.flagged:
        print("flagged: " + ",".join(report.flagged))
    else:
        print("flagged: none")
    print(f"report written to {table_path} and {csv_path}")
    return EXIT_OK


def _ranged(convert, ok, what):
    """An argparse type: ``convert`` the string, rejecting values not ``ok``."""
    def parse(s):
        try:
            value = convert(s)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{s!r} is not {what}")
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greektag",
        description="Trigram HMM part-of-speech tagger with morphological "
                    "analysis and a chi-square stylometric deviation test.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on annotated corpora")
    p.add_argument("corpus", nargs="+", help="annotated corpus files")
    p.add_argument("--schema", help="tagset schema file (default: built-in)")
    p.add_argument("--rules", help="suffix/prefix rule file")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="fold-assignment seed for cross-validation")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", help="tag raw text with a trained model")
    p.add_argument("input", help="text file to tag, or - for stdin")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--out", required=True, help="tagged output file")
    p.add_argument("--beam", default=0,
                   type=_ranged(int, lambda n: n >= 0, "a non-negative integer"),
                   help="beam width (0 = exact search)")
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("count", help="count word categories per tagged file")
    p.add_argument("tagged", nargs="+", help="tagged files (annotated format)")
    p.add_argument("--schema", help="tagset schema file (default: built-in)")
    p.add_argument("--exclude-category", action="append",
                   help="category to exclude (repeatable; default punct)")
    p.add_argument("--out", required=True, help="counts CSV to write")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("chisq", help="chi-square deviation test over counts")
    p.add_argument("counts", help="counts CSV")
    p.add_argument("--threshold", default=DEFAULT_THRESHOLD,
                   type=_ranged(float, lambda x: math.isfinite(x) and x > 0,
                                "a finite positive number"),
                   help="per-category chi-square significance cutoff")
    p.add_argument("--exclude-self", action="store_true",
                   help="pool each text against the others only")
    p.add_argument("--out", required=True,
                   help="output prefix; writes <out>.txt and <out>.csv")
    p.set_defaults(func=cmd_chisq)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GreektagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry() -> None:
    raise SystemExit(main())
