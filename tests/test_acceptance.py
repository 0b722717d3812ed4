"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
import os
import shutil
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from greektag import (
    Lexicon,
    Model,
    Sequence,
    TagSchema,
    Token,
    chi_square_cell,
    run_test,
    segment,
    tag_sequence,
    train,
)
from greektag.cli import main
from greektag.morph import lexical_prob
from greektag.stylometry import load_counts_csv, save_counts_csv
from greektag.tags import BOUNDARY, format_tag
from greektag.text import load_annotated_corpus, save_annotated_corpus

from genmodels import random_instance, symmetric_tie_instance
from reference import all_tags, brute_force_best, rescored, transition_prob
from test_stylometry import alpha_pattern_counts


def _ok(name):
    print(f"ACCEPTANCE PASS: {name}")


def test_decoder_oracle_equivalence():
    """tag_sequence equals brute_force_best exactly, ties included,
    over 1000 random models within the 60 s budget."""
    started = time.perf_counter()
    rng = np.random.default_rng(1234)
    model, tokens = symmetric_tie_instance()
    assert tag_sequence(model, tokens) == brute_force_best(model, tokens)
    for _ in range(1000):
        model, tokens = random_instance(rng)
        assert tag_sequence(model, tokens) == brute_force_best(model, tokens)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    _ok(f"decoder-oracle equivalence (1000 instances, {elapsed:.1f}s)")


def test_distribution_properties(toy_model, toy_schema, toy_corpus):
    tags = all_tags(toy_schema)
    histories = {(BOUNDARY, BOUNDARY)}
    for (a, b, _t) in toy_model.stats.trigram_counts:
        histories.add((a, b))
    observed = toy_model.stats.observed_tags
    histories.add((observed[0], tags[-1]))  # never-seen history
    for h2, h1 in sorted(histories, key=lambda h: (format_tag(h[0]), format_tag(h[1]))):
        total = sum(transition_prob(toy_model, t, h1, h2) for t in tags)
        assert abs(total - 1.0) <= 1e-9, (format_tag(h2), format_tag(h1), total)

    words = sorted({tok.norm for s in toy_corpus for tok in s.tokens})
    words += ["κωλύσαντος", "ξεινος", "βββ"]
    for word in words:
        probs = lexical_prob(word, toy_model.lexicon)
        assert probs, word
        assert abs(sum(p for _, p in probs) - 1.0) <= 1e-9, word
    _ok(f"distribution properties ({len(histories)} histories, {len(words)} words)")


def test_feature_chain_rule_identity():
    schema = TagSchema.from_lines([
        "feature case nom,gen,acc",
        "feature num sg,pl",
        "category n case,num",
        "category v num",
        "category k",
    ])
    rng = np.random.default_rng(7)
    schema_tags = all_tags(schema)
    corpus = []
    for _ in range(12):
        length = int(rng.integers(2, 9))
        tokens = tuple(Token(f"w{i}", f"w{i}", i) for i in range(length))
        tags = tuple(schema_tags[int(rng.integers(0, len(schema_tags)))] for _ in range(length))
        corpus.append(Sequence(tokens, tags))
    model = rescored(train(corpus, None, schema), smooth=False)

    contexts = defaultdict(int)
    for (a, b, _t), n in model.stats.trigram_counts.items():
        contexts[(a, b)] += n
    checked = 0
    for (a, b, t), n in model.stats.trigram_counts.items():
        direct = n / contexts[(a, b)]
        factored = model.stats.chain_prob(t, (a, b))
        assert math.isclose(factored, direct, rel_tol=1e-12), (format_tag(t), factored, direct)
        checked += 1
    assert checked > 20
    _ok(f"feature chain-rule identity ({checked} observed triples)")


def test_morphology_fixtures(toy_schema):
    from greektag.morph import LexiconEntry, RuleSet

    part = toy_schema.parse("part:tense=aor,voice=act,case=gen,num=sg,gend=masc")
    verb = toy_schema.parse("verf:pers=1,num=pl,mood=ind,tense=pres,voice=act")
    noun = toy_schema.parse("subs:case=nom,num=sg,gend=masc")
    rules = RuleSet.from_lines([
        "σαντος\tw-verb\tpart:tense=aor,voice=act,case=gen,num=sg,gend=masc",
        "ος\to-noun\tsubs:case=nom,num=sg,gend=masc",
    ], toy_schema)
    lexicon = Lexicon(
        toy_schema, rules,
        stems=[
            LexiconEntry("παιδεύ", frozenset({"w-verb"}),
                         ((part, 0.4), (verb, 0.6))),
            LexiconEntry("λόγ", frozenset({"o-noun"}), ((noun, 1.0),)),
        ],
        suffix_probs={"σαντος": {part: 1.0}, "ος": {noun: 1.0}},
        hapax_prior={noun: 1.0},
    )
    analyses = segment("παιδεύσαντος", lexicon)
    splits = [(a.prefix, a.stem, a.suffix) for a in analyses]
    assert ("", "παιδεύ", "σαντος") in splits
    assert all(a.stem != "παιδεύσαντ" for a in analyses)

    support = {t for t, _ in lexical_prob("κωλύσαντος", lexicon)}
    rule_tags = {part, noun}
    assert support <= rule_tags
    assert support < set(all_tags(toy_schema))
    _ok("morphology fixtures (stem-suffix validity and unknown-word support)")


def test_chi_square_arithmetic():
    assert chi_square_cell(30, 100, 0.2) == 6.25
    assert chi_square_cell(25, 100, 0.25) == 0.0
    for m, n, p in [(30, 100, 0.2), (12, 64, 0.3), (250, 800, 0.41)]:
        base = chi_square_cell(m, n, p)
        for k in (2, 3, 10):
            assert math.isclose(chi_square_cell(k * m, k * n, p), k * base,
                                rel_tol=1e-9)
    _ok("chi-square arithmetic (hand value, perfect fit, scaling)")


def test_rho_regression():
    closed_form = (-0.124, -0.868, -0.124, -0.124, -0.868, 2.109)
    printed_row = (-0.124, -0.870, -0.124, -0.124, -0.870, 2.10)
    for x in (1, 4, 7):
        targets = (x, x - 1, x, x, x - 1, x + 3)
        report = run_test(alpha_pattern_counts(targets))
        assert report.alpha == targets
        for got, want in zip(report.rho, closed_form):
            assert abs(got - want) <= 1e-3
        for got, want in zip(report.rho, printed_row):
            assert abs(got - want) <= 1e-2
        assert report.flagged == ("t5",)
        assert report.rho[5] >= 2.0
    _ok("rho regression (closed form ±0.001, printed row ±0.01, flag set)")


def _run_pipeline(workdir, fixtures_dir):
    workdir.mkdir()
    for name in ("toy.schema", "toy.rules", "toy.corpus"):
        shutil.copy(fixtures_dir / name, workdir / name)
    outputs = []
    model_path = workdir / "toy.model"
    assert main([
        "train", str(workdir / "toy.corpus"),
        "--schema", str(workdir / "toy.schema"),
        "--rules", str(workdir / "toy.rules"),
        "--out", str(model_path),
    ]) == 0
    outputs.append(model_path)
    tagged_paths = []
    for text in sorted((fixtures_dir / "texts").glob("*.txt")):
        out = workdir / (text.stem + ".tagged")
        assert main(["tag", str(text), "--model", str(model_path),
                     "--out", str(out)]) == 0
        outputs.append(out)
        tagged_paths.append(str(out))
    counts_path = workdir / "counts.csv"
    assert main(["count", *tagged_paths, "--schema", str(workdir / "toy.schema"),
                 "--out", str(counts_path)]) == 0
    outputs.append(counts_path)
    assert main(["chisq", str(counts_path), "--out", str(workdir / "report")]) == 0
    outputs.append(workdir / "report.txt")
    outputs.append(workdir / "report.csv")
    return outputs


def test_end_to_end_pipeline_determinism(tmp_path, fixtures_dir):
    first = _run_pipeline(tmp_path / "run1", fixtures_dir)
    second = _run_pipeline(tmp_path / "run2", fixtures_dir)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), (a.name, b.name)
    _ok(f"end-to-end pipeline determinism ({len(first)} artifacts byte-identical)")


def test_pipeline_is_byte_identical_across_hash_seeds(tmp_path, fixtures_dir):
    """The same pipeline in two fresh processes whose string hashing
    differs writes the same bytes: no output depends on set or dict
    iteration order, nor on the order in which tags first get ids."""
    script = ("import sys\nfrom pathlib import Path\n"
              "from test_acceptance import _run_pipeline\n"
              "for p in _run_pipeline(Path(sys.argv[1]), Path(sys.argv[2])):\n"
              "    print('output', p.relative_to(sys.argv[1]))\n")
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here),
                                         os.environ.get("PYTHONPATH")]))
    runs = []
    for seed in ("1", "2"):
        workdir = tmp_path / f"seed{seed}"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", script, str(workdir), str(fixtures_dir)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        runs.append((workdir, [line.split()[1] for line in done.stdout.splitlines()
                               if line.startswith("output ")]))
    (first, names), (second, names2) = runs
    assert names == names2 and len(names) == 10
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    _ok(f"pipeline byte-identical across hash seeds ({len(names)} artifacts)")


def test_round_trips(toy_model, toy_corpus, toy_schema, tmp_path):
    # annotated corpus
    c1, c2 = tmp_path / "c1", tmp_path / "c2"
    save_annotated_corpus(c1, toy_corpus)
    save_annotated_corpus(c2, load_annotated_corpus(c1, toy_schema))
    assert c1.read_bytes() == c2.read_bytes()
    # lexicon
    l1 = toy_model.lexicon.to_lines()
    l2 = Lexicon.from_lines(l1, toy_schema, toy_model.lexicon.rules).to_lines()
    assert l1 == l2
    # model
    m1, m2 = tmp_path / "m1", tmp_path / "m2"
    toy_model.save(m1)
    Model.load(m1).save(m2)
    assert m1.read_bytes() == m2.read_bytes()
    # counts CSV
    k1, k2 = tmp_path / "k1.csv", tmp_path / "k2.csv"
    save_counts_csv(k1, alpha_pattern_counts((1, 0, 1, 1, 0, 4), n_cats=6))
    save_counts_csv(k2, load_counts_csv(k1))
    assert k1.read_bytes() == k2.read_bytes()
    _ok("round trips (corpus, lexicon, model, counts CSV byte-exact)")


def _sample_hmm(rng, n_tags=3, n_words=12):
    init = rng.dirichlet(np.full(n_tags, 0.5))
    trans = rng.dirichlet(np.full(n_tags, 0.25), size=n_tags)
    emis = rng.dirichlet(np.full(n_words, 0.4), size=n_tags)

    def sample(n_seqs):
        out = []
        for _ in range(n_seqs):
            length = int(rng.integers(4, 12))
            state = rng.choice(n_tags, p=init)
            words, states = [], []
            for _pos in range(length):
                words.append(int(rng.choice(n_words, p=emis[state])))
                states.append(int(state))
                state = rng.choice(n_tags, p=trans[state])
            out.append((words, states))
        return out

    return sample


def test_self_training_sanity(capsys):
    rng = np.random.default_rng(2718)
    schema = TagSchema.from_lines(["category a", "category b", "category c"])
    tag_of = [schema.parse(c) for c in ("a", "b", "c")]
    sample = _sample_hmm(rng)
    train_raw = sample(250)
    test_raw = sample(60)

    def to_sequence(words, states):
        tokens = tuple(Token(f"w{w}", f"w{w}", i) for i, w in enumerate(words))
        return Sequence(tokens, tuple(tag_of[s] for s in states))

    corpus = [to_sequence(w, s) for w, s in train_raw]
    model = train(corpus, None, schema)

    word_tag = defaultdict(Counter)
    global_tags = Counter()
    for words, states in train_raw:
        for w, s in zip(words, states):
            word_tag[w][tag_of[s]] += 1
            global_tags[tag_of[s]] += 1
    fallback = min(
        (t for t, n in global_tags.items() if n == max(global_tags.values())),
        key=format_tag,
    )

    def baseline_tag(w):
        if w in word_tag:
            top = max(word_tag[w].values())
            return min((t for t, n in word_tag[w].items() if n == top), key=format_tag)
        return fallback

    hmm_correct = base_correct = total = 0
    for words, states in test_raw:
        seq = to_sequence(words, states)
        predicted = tag_sequence(model, seq.tokens)
        gold = seq.gold_tags
        hmm_correct += sum(p == g for p, g in zip(predicted, gold))
        base_correct += sum(baseline_tag(w) == g for w, g in zip(words, gold))
        total += len(words)

    hmm_acc = hmm_correct / total
    base_acc = base_correct / total
    assert hmm_acc >= base_acc, (hmm_acc, base_acc)
    _ok(f"self-training sanity (hmm {hmm_acc:.3f} >= baseline {base_acc:.3f})")
