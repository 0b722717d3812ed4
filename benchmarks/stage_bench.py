#!/usr/bin/env python3
"""Time the pipeline's stages on one trained model, and check their results.

Trains a model on ``--corpus``, ``--schema`` and ``--rules``, then prints
five sections in this order, each time the best of ``--repeats``:

- chain: cold transition scoring.  A hapax run (``HAPAX_WORDS`` and a
  period: W hapax-prior candidates a word, one W³ block) with the
  process's peak RSS; the all-pairs sweep of ``transition_block`` over
  the observed tags, h2 capped at 40; one min(40, W) x W x W block.
- cv: ``cli.cross_validation`` split into ``STAGES`` and ``other``, next
  to ``cross_validation_reference``, which trains every fold afresh.
- text: ns per token of ``tokenize`` on the ``--texts`` (default: the
  fixture texts), and of reading and writing them tagged, in memory;
  ns per distinct word of ``Model.candidates`` on a model whose
  lexicon was just read back from the model's lexicon lines, so every
  memo is empty, as after ``Model.load``.
- fill: a warm ``tag_sequence`` pass over the ``--texts``, and a staged
  pass that takes its steps one at a time: candidates, then, for the
  sequences with a choice only, increments lookup (``decode._fill``),
  layout, and kernel, summed over the sequences of the
  fastest staged pass, with ``other`` the rest of that pass; the number
  of sequences with one candidate per token and the sizes of the
  model's two array caches.
- kernel: ``_viterbi.viterbi`` on a dense trellis per ``--sizes``
  length:width pair, random (exact, and with beam ``BEAM``, which adds
  the prune's cost) and all tied (the tie walk's worst case).

Chain runs first so that the hapax run's peak RSS is read before the
kernel allocates its largest trellis (512:32: 16.8 M cells, 134 MB).
It exits with an error if a hapax word's candidates are not the whole
hapax prior, if the cross-validation accuracy is not the reference's,
if ``lexical_prob`` or ``segment`` gives a word of the ``--texts``
other analyses or doubles than the reference (``analysis_mismatch``),
on the trained lexicon or on a read-back one,
if ``tag_sequence`` runs the kernel on a sequence with one candidate
per token, if the staged fill pass tags a text otherwise than
``tag_sequence``,
or if an all-tied trellis does not decode to all zeros.

Usage:
    python benchmarks/stage_bench.py
    python benchmarks/stage_bench.py --corpus train.tag --schema my.schema --rules my.rules
    python benchmarks/stage_bench.py --texts .pipebench/long-unpunct-s7/inputs/texts/*.txt
    python benchmarks/stage_bench.py --sizes 100:8,400:8,1600:8,3200:8,400:32,400:1 --repeats 5
"""

import argparse
import io
import resource
import sys
import time
from collections import defaultdict, deque
from functools import partial
from pathlib import Path

import numpy as np

from greektag import (Model, RuleSet, TagSchema, _viterbi, cli, load_annotated_corpus,
                      model as model_module, morph, tag_corpus, train)
from greektag.decode import _fill, tag_sequence
from greektag.tags import format_tag
from greektag.text import read_annotated_corpus, tokenize, write_annotated_corpus

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
sys.path.insert(0, str(ROOT / "tests"))
from reference import (analysis_mismatch, cross_validation_reference, rescored,  # noqa: E402
                       trellis_blocks)

#: The hapax run's three words: letter runs that no lexicon entry or
#: suffix rule of the fixture or the generated corpora matches.
HAPAX_WORDS = "ββββ γγγγ δδδδ"

#: cv stage -> (owner, attribute) of the functions whose time it is
STAGES = {
    "count": [(model_module, "count_sequences"), (morph, "count_lexicon")],
    "fit": [(model_module, "fit_interpolation")],
    "normalize": [(morph.LexiconCounts, "to_lexicon")],
    "tag": [(cli, "tag_sequence")],
}

#: the kernel section's random increments
SEED = 42

#: the kernel section's beam, the one ``pipebench/run.py`` tags with
BEAM = 4


def best_of(repeats, fn, fresh=lambda: None):
    """The best wall-clock time of ``fn(fresh())`` over ``repeats`` runs,
    with ``fresh()`` made untimed before each, and the last run's result.
    (``deque(results, 0)`` drops each result as it comes, as a loop would.)"""
    best = float("inf")
    for _ in range(repeats):
        arg = fresh()
        t0 = time.perf_counter()
        out = fn(arg)
        best = min(best, time.perf_counter() - t0)
    return best, out


def chain_section(model, repeats):
    intern = model.stats.tables.intern
    (run,) = tokenize(HAPAX_WORDS + " .")
    width = len(model.lexicon.hapax_prior)
    for token in run.tokens[:-1]:
        if len(model.candidates(token.norm)[1]) != width:
            sys.exit(f"{token.surface!r} does not get the hapax prior as its candidates")

    def cold(build):
        return best_of(repeats, build, lambda: rescored(model))[0]

    best = cold(lambda m: tag_sequence(m, run.tokens))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"hapax run: {HAPAX_WORDS} . with W = {width} candidates a word")
    print(f"best of {repeats}: {best:.4f} s, process peak RSS {peak_mb:.0f} MB")

    ids = tuple(intern(t) for t in model.stats.observed_tags)
    hist = (model.boundary_id, *ids)
    best = cold(lambda m: deque((m.transition_block((a,), hist, ids) for a in hist[:40]), 0))
    histories = len(hist[:40]) * len(hist)
    cells = histories * len(ids)
    print(f"observed tags: {len(ids)}, histories: {histories}, transitions: {cells}")
    print(f"best of {repeats}: {best:.4f} s, {cells / best:,.0f} transitions/s")

    hapax = tuple(intern(t) for t in sorted(model.lexicon.hapax_prior, key=format_tag))
    block = (hapax[:40], hapax, hapax)
    best = cold(lambda m: m.transition_block(*block))
    cells = len(block[0]) * len(hapax) ** 2
    print(f"hapax-width block: W = {len(hapax)}, {len(block[0])} x {len(hapax)} x "
          f"{len(hapax)} = {cells} transitions")
    print(f"best of {repeats}: {best:.4f} s, {cells / best:,.0f} transitions/s")


def timed(fn, stage, spent):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[stage] += time.perf_counter() - t0
    return wrapper


def cv_section(corpus, rules, schema, repeats):
    best, other = float("inf"), float("inf")
    stage_best = dict.fromkeys(STAGES, float("inf"))
    for _ in range(repeats):
        spent = defaultdict(float)
        saved = [(owner, attr, getattr(owner, attr), stage)
                 for stage, targets in STAGES.items() for owner, attr in targets]
        for owner, attr, fn, stage in saved:
            setattr(owner, attr, timed(fn, stage, spent))
        try:
            total, acc = best_of(1, lambda _: cli.cross_validation(corpus, rules, schema))
        finally:
            for owner, attr, fn, _ in saved:
                setattr(owner, attr, fn)
        best = min(best, total)
        other = min(other, total - sum(spent.values()))
        for stage in STAGES:
            stage_best[stage] = min(stage_best[stage], spent[stage])
    ref_best, ref_acc = best_of(
        repeats, lambda _: cross_validation_reference(corpus, rules, schema))
    if acc != ref_acc:
        sys.exit(f"accuracy {acc!r} differs from the reference's {ref_acc!r}")

    tokens = sum(len(s) for s in corpus)
    print(f"corpus: {len(corpus)} sequences, {tokens} tokens; cv-accuracy {acc!r}")
    print(f"cross_validation, best of {repeats}: {best:.4f} s")
    for stage in STAGES:
        print(f"  {stage:<10} {stage_best[stage]:.4f} s")
    print(f"  {'other':<10} {other:.4f} s")
    print(f"cross_validation_reference, best of {repeats}: {ref_best:.4f} s "
          f"({ref_best / best:.2f}x)")


def text_section(model, paths, repeats):
    raws = [Path(p).read_text(encoding="utf-8") for p in paths]
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
    print(f"best of {repeats}, ns per token:")
    timings = {
        "tokenize": (tokenize, raws),
        "read_annotated_corpus":
            (lambda text: read_annotated_corpus(io.StringIO(text), model.schema), annotated),
        "write_annotated_corpus":
            (lambda seqs: write_annotated_corpus(io.StringIO(), seqs), tagged),
    }
    for name, (fn, inputs) in timings.items():
        best, _ = best_of(repeats, lambda _: deque(map(fn, inputs), 0))
        print(f"  {name:<24} {best * 1e9 / tokens:8.0f}")

    words = sorted({tok.norm for seqs in tagged for seq in seqs for tok in seq.tokens})
    lex = model.lexicon

    def fresh():
        lexicon = morph.Lexicon.from_lines(lex.to_lines(), model.schema, lex.rules)
        return Model(model.schema, rescored(model).stats, model.lambdas, lexicon)

    def lookup(m):
        deque(map(m.candidates, words), 0)
        return m

    best, cold = best_of(repeats, lookup, fresh)
    print(f"best of {repeats}, ns per distinct word ({len(words)}):")
    print(f"  {'Model.candidates, cold':<24} {best * 1e9 / len(words):8.0f}")
    for lexicon in (lex, cold.lexicon):
        for word in words:
            if mismatch := analysis_mismatch(word, lexicon):
                sys.exit(mismatch)


def staged_pass(model, texts):
    """``tag_sequence`` at beam 0 over ``texts``, one step at a time: the
    pass's wall time, each stage's time summed over the sequences, and
    the tags.  A sequence with one candidate per token returns its one
    path after the candidates stage, as in ``tag_sequence``."""
    clock = time.perf_counter
    spent = dict.fromkeys(("candidates", "increments", "layout", "kernel"), 0.0)
    tagged = []
    start = clock()
    for tokens in texts:
        t0 = clock()
        cands = [model.candidates(tok.norm) for tok in tokens]
        widths = [len(c[1]) for c in cands]
        t1 = clock()
        spent["candidates"] += t1 - t0
        if max(widths) == 1:
            tagged.append([c[0][0] for c in cands])
            continue
        blocks = _fill(model, tokens, cands)
        t2 = clock()
        counts, adims, bdims, ends = _viterbi.layout(widths)
        t3 = clock()
        path = _viterbi.viterbi(counts, adims, bdims, ends, blocks, 0)
        t4 = clock()
        spent["increments"] += t2 - t1
        spent["layout"] += t3 - t2
        spent["kernel"] += t4 - t3
        tagged.append([c[0][i] for c, i in zip(cands, path)])
    return clock() - start, spent, tagged


def fill_section(model, paths, repeats):
    texts = [seq.tokens for p in paths for seq in tokenize(Path(p).read_text(encoding="utf-8"))]
    texts = [tokens for tokens in texts if tokens]
    forced = sum(all(len(model.candidates(tok.norm)[1]) == 1 for tok in tokens)
                 for tokens in texts)

    kernel, kernel_forced = _viterbi.viterbi, []

    def spy(counts, *args):
        if counts.max() == 1:
            kernel_forced.append(len(counts))
        return kernel(counts, *args)

    _viterbi.viterbi = spy
    try:
        tagged = [tag_sequence(model, tokens) for tokens in texts]  # warms every cache
    finally:
        _viterbi.viterbi = kernel
    if kernel_forced:
        sys.exit(f"tag_sequence ran the kernel on {len(kernel_forced)} sequences "
                 f"with one candidate per token")

    total, _ = best_of(repeats, lambda _: deque(map(partial(tag_sequence, model), texts), 0))
    staged, spent, staged_tags = min((staged_pass(model, texts) for _ in range(repeats)),
                                     key=lambda run: run[0])
    for k, (tags, want) in enumerate(zip(staged_tags, tagged)):
        if tags != want:
            sys.exit(f"the staged fill pass tags sequence {k + 1} otherwise than tag_sequence")

    positions = sum(len(tokens) for tokens in texts)
    print(f"input: {len(texts)} sequences, {forced} with one candidate per token, "
          f"{positions} positions; increments cache {len(model._incs)} entries, "
          f"{model._incs.cells} cells; block cache {len(model._blocks)} blocks, "
          f"{model._blocks.cells} cells")
    print(f"warm tag_sequence, best of {repeats}: {total * 1e3:.3f} ms")
    print(f"staged pass, best of {repeats}: {staged * 1e3:.3f} ms")
    for name, t in spent.items():
        print(f"  {name:<22} {t * 1e3:.3f} ms")
    print(f"  {'other':<22} {(staged - sum(spent.values())) * 1e3:.3f} ms")


def dense_instance(rng, length, width, tied=False):
    """The kernel's arguments but the beam: ``length`` positions of
    ``width`` candidates, each with its own (X, Y, Z) block."""
    widths = [width] * length
    draw = (lambda n: np.full(n, np.log(0.5))) if tied else (lambda n: np.log(rng.random(n)))
    return (*_viterbi.layout(widths), trellis_blocks(widths, draw))


def kernel_section(sizes, repeats):
    rng = np.random.default_rng(SEED)
    header = (f"{'length':>7} {'width':>6} {'random [s]':>11} {f'beam {BEAM} [s]':>11} "
              f"{'all tied [s]':>13}")
    print(header)
    print("-" * len(header))

    def decode(instance, beam=0):
        return best_of(repeats, lambda _: _viterbi.viterbi(*instance, beam))

    for length, width in sizes:
        instance = dense_instance(rng, length, width)
        random_s, _ = decode(instance)
        beam_s, _ = decode(instance, BEAM)
        tied_s, path = decode(dense_instance(rng, length, width, tied=True))
        if any(path):
            sys.exit(f"all-tied {length}:{width} decoded {path}, not all zeros")
        print(f"{length:>7} {width:>6} {random_s:>11.4f} {beam_s:>11.4f} {tied_s:>13.4f}")


def size_pairs(text):
    """``length:width,...`` as (length, width) pairs of positive ints."""
    pairs = [tuple(map(int, item.split(":"))) for item in text.split(",")]
    if any(len(p) != 2 or min(p) < 1 for p in pairs):
        raise ValueError(text)
    return pairs


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--corpus", default=str(FIXTURES / "toy.corpus"))
    parser.add_argument("--schema", default=str(FIXTURES / "toy.schema"))
    parser.add_argument("--rules", default=str(FIXTURES / "toy.rules"))
    parser.add_argument("--texts", nargs="+", default=sorted((FIXTURES / "texts").glob("*.txt")))
    parser.add_argument("--sizes", type=size_pairs, default="64:8,128:16,256:24,512:32,400:1")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    schema = TagSchema.load(args.schema)
    rules = RuleSet.load(args.rules, schema) if args.rules else None
    corpus = load_annotated_corpus(args.corpus, schema)
    model = train(corpus, rules, schema)
    for title, section in (
        ("chain", lambda: chain_section(model, args.repeats)),
        ("cv", lambda: cv_section(corpus, rules, schema, args.repeats)),
        ("text", lambda: text_section(model, args.texts, args.repeats)),
        ("fill", lambda: fill_section(model, args.texts, args.repeats)),
        ("kernel", lambda: kernel_section(args.sizes, args.repeats)),
    ):
        print(f"== {title}")
        section()


if __name__ == "__main__":
    main()
