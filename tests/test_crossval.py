"""Cross-validation by subtraction: the corpus is counted once, and each
fold's model is built on the counts less the fold's, with its weights
fitted from the corpus's one leave-one-out index.  The oracles are
``train`` on the sequences a fold keeps, ``fit_interpolation_reference``
on them, and ``cross_validation_reference``, which trains every fold
from scratch."""

import copy
import random
import re
from collections import Counter

import numpy as np
import pytest

from greektag import RuleSet, Sequence, Tag, train
from greektag import cli, decode, morph
from greektag.cli import CV_FOLDS, DEFAULT_SEED, cross_validation
from greektag.errors import GreektagError, ModelError, TagError
from greektag.model import (_fitted_model, _fold_models, _instances, count_sequences,
                            fit_interpolation)
from greektag.morph import LexiconCounts, count_lexicon, train_lexicon
from greektag.tags import TransitionStats, format_tag

from genmodels import random_corpus, tagged_sequences
from reference import _TagTables, cross_validation_reference, fit_interpolation_reference


def _outcome(fn):
    """What ``fn()`` returns, or the type and message of what it raises."""
    try:
        return fn()
    except Exception as exc:  # the oracle may raise anything
        return type(exc), str(exc)


def _check_folds(corpus, rules, schema, folds):
    """Each model ``_fold_models`` yields writes the file of ``train`` on
    the sequences its fold keeps, and a fold ``train`` rejects raises
    the same error.  A corpus ``train`` rejects raises its error at the
    first fold."""
    models = _fold_models(corpus, rules, schema, folds)
    try:
        train(corpus, rules, schema)
    except GreektagError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            next(models)
        return
    for held in folds:
        held_set = set(held)
        rest = [seq for i, seq in enumerate(corpus) if i not in held_set]
        try:
            want = train(rest, rules, schema).to_lines()
        except GreektagError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                next(models)
            return
        got_held, model = next(models)
        assert got_held == held
        assert model.to_lines() == want
        assert model.lexicon.log == ()
    assert next(models, None) is None


def _two_folds(n, first):
    """``first`` (sorted) and the other indices of ``n``, if any."""
    rest = [i for i in range(n) if i not in first]
    return [sorted(first), rest] if rest else [sorted(first)]


def test_cross_validation_matches_reference_on_fixture(toy_corpus, toy_rules, toy_schema,
                                                       monkeypatch):
    for seed in range(8):
        got = cross_validation(toy_corpus, toy_rules, toy_schema, seed=seed)
        assert got == cross_validation_reference(toy_corpus, toy_rules, toy_schema, seed=seed)
    for folds in (1, 2, 3, len(toy_corpus), 50):
        monkeypatch.setattr(cli, "CV_FOLDS", folds)
        got = _outcome(lambda: cross_validation(toy_corpus, toy_rules, toy_schema))
        assert got == _outcome(lambda: cross_validation_reference(toy_corpus, toy_rules,
                                                                  toy_schema, folds=folds))


def _untagged(corpus, i):
    """``corpus`` with sequence ``i`` stripped of its gold tags."""
    return [Sequence(seq.tokens, None) if j == i else seq for j, seq in enumerate(corpus)]


def _undeclared(corpus, i):
    """``corpus`` with the last tag of sequence ``i`` of an undeclared
    category."""
    tags = (*corpus[i].gold_tags[:-1], Tag("nosuch"))
    return [Sequence(seq.tokens, tags) if j == i else seq for j, seq in enumerate(corpus)]


def _spoil(rng, schema, corpus):
    """``corpus`` with one fault that ``train`` or tagging
    rejects, or none: a sequence without gold tags, a tag of an
    undeclared category, or every sequence but one emptied."""
    kind = int(rng.integers(0, 4))
    i = int(rng.integers(0, len(corpus)))
    if kind == 1:
        corpus = _untagged(corpus, i)
    elif kind == 2:
        corpus = _undeclared(corpus, i)
    elif kind == 3:
        corpus = [seq if j == i else Sequence((), ()) for j, seq in enumerate(corpus)]
    return corpus


def test_cross_validation_matches_reference_on_random_corpora():
    """Equal accuracy, or the same error, on 200 random corpora, a third
    of them spoiled."""
    rng = np.random.default_rng(5)
    for n in range(200):
        schema, rules, corpus, _ = random_corpus(rng)
        if n % 3 == 0:
            corpus = _spoil(rng, schema, corpus)
        seed = int(rng.integers(0, 100))
        got = _outcome(lambda: cross_validation(corpus, rules, schema, seed=seed))
        assert got == _outcome(lambda: cross_validation_reference(corpus, rules, schema,
                                                                   seed=seed))


def test_cross_validation_keeps_the_trellis_bound(toy_corpus, toy_rules, toy_schema,
                                                  monkeypatch):
    monkeypatch.setattr(decode, "MAX_TRELLIS_CELLS", 40)
    got = _outcome(lambda: cross_validation(toy_corpus, toy_rules, toy_schema))
    assert got[0] is decode.SearchSpaceError
    assert got == _outcome(lambda: cross_validation_reference(toy_corpus, toy_rules,
                                                              toy_schema))


def test_cross_validation_rejects_an_untagged_sequence_as_train_does(toy_corpus, toy_rules,
                                                                     toy_schema):
    """Sequence 8 of the fixture untagged, in the first fold at the
    default seed and elsewhere at others: the error of ``train``."""
    corpus = _untagged(toy_corpus, 8)
    order = list(range(len(corpus)))
    random.Random(DEFAULT_SEED).shuffle(order)
    assert 8 in order[::CV_FOLDS]
    for seed in (DEFAULT_SEED, *range(8)):
        with pytest.raises(ModelError, match="^training corpus must carry gold tags$"):
            cross_validation(corpus, toy_rules, toy_schema, seed=seed)
    with pytest.raises(ModelError, match="^training corpus must carry gold tags$"):
        train(corpus, toy_rules, toy_schema)


_UNTAGGED = (_untagged, ModelError, "training corpus must carry gold tags")
_UNDECLARED = (_undeclared, TagError, "unknown category: nosuch")


def test_fold_models_reject_a_bad_sequence_in_any_fold(toy_corpus, toy_rules, toy_schema):
    """A sequence without gold tags, or with a tag of an undeclared
    category, in each of 10 folds in turn raises its error at the first
    fold.  Of two bad sequences, the first in corpus order raises, as in
    ``train``, though a later one sits in an earlier fold."""
    order = np.random.default_rng(2).permutation(len(toy_corpus)).tolist()
    folds = [sorted(order[f::CV_FOLDS]) for f in range(CV_FOLDS)]
    for held in folds:
        for spoil, error, message in (_UNTAGGED, _UNDECLARED):
            with pytest.raises(error, match=f"^{message}$"):
                next(_fold_models(spoil(toy_corpus, held[-1]), toy_rules, toy_schema, folds))
    fold_of = {i: f for f, held in enumerate(folds) for i in held}
    n = len(toy_corpus)
    i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if fold_of[j] < fold_of[i])
    for (first, error, message), (second, _, _) in ((_UNTAGGED, _UNDECLARED),
                                                    (_UNDECLARED, _UNTAGGED)):
        corpus = second(first(toy_corpus, i), j)
        with pytest.raises(error, match=f"^{message}$"):
            train(corpus, toy_rules, toy_schema)
        with pytest.raises(error, match=f"^{message}$"):
            next(_fold_models(corpus, toy_rules, toy_schema, folds))


def test_one_emptiness_check(toy_corpus, toy_rules, toy_schema, abc_schema):
    """A corpus with no tag to count, and a fold whose rest has none,
    raise the one ``ModelError`` of ``train``."""
    empties = [Sequence((), ())] * 2
    for corpus in ([], empties):
        with pytest.raises(ModelError, match="^empty training corpus$"):
            train(corpus, None, abc_schema)
    for corpus, rules, schema, folds in (
            (empties, None, abc_schema, [[0], [1]]),
            (toy_corpus, toy_rules, toy_schema, [list(range(len(toy_corpus)))])):
        with pytest.raises(ModelError, match="^empty training corpus$"):
            next(_fold_models(corpus, rules, schema, folds))


def test_fold_models_match_training_on_the_rest(toy_corpus, toy_rules, toy_schema):
    """On the fixture at several fold seeds and on 200 random corpora
    (a third spoiled), split into up to 10 folds."""
    cases = [(toy_schema, toy_rules, toy_corpus, seed) for seed in range(4)]
    rng = np.random.default_rng(17)
    for n in range(200):
        schema, rules, corpus, _ = random_corpus(rng)
        if n % 3 == 0:
            corpus = _spoil(rng, schema, corpus)
        cases.append((schema, rules, corpus, n))
    for schema, rules, corpus, seed in cases:
        order = np.random.default_rng(seed).permutation(len(corpus)).tolist()
        k = min(10, len(corpus))
        _check_folds(corpus, rules, schema, [sorted(order[f::k]) for f in range(k)])


def test_fold_holding_every_occurrence(toy_corpus, toy_rules, toy_schema):
    """A fold that holds every occurrence of a tag, of a stem or of a
    word seen once: the fold model has none of it, and still writes the
    file of ``train`` on the rest."""
    model = train(toy_corpus, toy_rules, toy_schema)
    per_seq = [count_lexicon([seq], toy_rules, toy_schema) for seq in toy_corpus]
    tag = min(model.stats.observed_tags, key=lambda t: sum(t in s.gold_tags for s in toy_corpus))
    stem = sorted(model.lexicon.stems)[0]
    freq = Counter(tok.norm for seq in toy_corpus for tok in seq.tokens)
    hapax = min(w for w, n in freq.items() if n == 1 and w in model.lexicon.fullforms)
    cases = {
        "tag": [i for i, s in enumerate(toy_corpus) if tag in s.gold_tags],
        "stem": [i for i, c in enumerate(per_seq) if stem in c.stems],
        "hapax": [i for i, s in enumerate(toy_corpus)
                  if hapax in {tok.norm for tok in s.tokens}],
    }
    for what, held in cases.items():
        folds = _two_folds(len(toy_corpus), held)
        _check_folds(toy_corpus, toy_rules, toy_schema, folds)
        _, fold_model = next(_fold_models(toy_corpus, toy_rules, toy_schema, folds))
        if what == "tag":
            assert tag not in fold_model.stats.observed_tags
            assert all(tag not in key for key in fold_model.stats.trigram_counts)
        elif what == "stem":
            assert stem not in fold_model.lexicon.stems
        else:
            assert hapax not in fold_model.lexicon.fullforms


def test_fold_changes_the_hapax_prior(abc_schema):
    """Holding out a sequence turns a word seen twice into a hapax, also
    one seen once under each of two tags (with the tag the fold does
    not hold), and holding out the only hapax leaves the prior over
    every token."""
    corpus = tagged_sequences(abc_schema, [
        [("x", "a"), ("y", "b")],
        [("z", "c")],
        [("x", "a"), ("y", "b")],
    ])
    for held in ([0], [1], [2], [0, 2]):
        _check_folds(corpus, None, abc_schema, _two_folds(len(corpus), held))
    _, without_z = next(_fold_models(corpus, None, abc_schema, [[1], [0, 2]]))
    # x, y, x, y: no word is seen once, so the prior is over all four tokens
    a, b = abc_schema.parse("a"), abc_schema.parse("b")
    assert without_z.lexicon.hapax_prior == {a: 0.5, b: 0.5}
    two_tags = tagged_sequences(abc_schema, [[("x", "a")], [("x", "b"), ("z", "c")]])
    _check_folds(two_tags, None, abc_schema, [[0], [1]])
    _, without_xa = next(_fold_models(two_tags, None, abc_schema, [[0], [1]]))
    c = abc_schema.parse("c")
    assert without_xa.lexicon.hapax_prior == {b: 0.5, c: 0.5}


def test_fold_holding_every_token_of_a_weighted_rule(toy_corpus, toy_rules, toy_schema):
    """With a rule file that gives a rule its own weights, a fold that
    holds every token the rule admits gives the fold model the file's
    weights for it, where the corpus's lexicon has trained ones."""
    acc, nom = "subs:case=acc,num=pl,gend=masc", "subs:case=nom,num=pl,gend=masc"
    lines = [line if not line.startswith("ους\t") else f"ους\to-noun\t{acc}=0.25 {nom}=0.75"
             for line in toy_rules.to_lines()]
    rules = RuleSet.from_lines(lines, toy_schema)
    rid = next(i for i, r in enumerate(rules.suffix_rules) if r.pattern == "ους")
    weights = {toy_schema.parse(acc): 0.25, toy_schema.parse(nom): 0.75}
    assert rules.suffix_rules[rid].tag_probs == weights
    held = [i for i, seq in enumerate(toy_corpus)
            if rid in count_lexicon([seq], rules, toy_schema).rules]
    assert held
    folds = _two_folds(len(toy_corpus), held)
    _check_folds(toy_corpus, rules, toy_schema, folds)
    whole = train_lexicon(toy_corpus, rules, toy_schema)
    assert whole.rules.suffix_rules[rid].tag_probs == {toy_schema.parse(acc): 1.0}
    _, fold_model = next(_fold_models(toy_corpus, rules, toy_schema, folds))
    assert fold_model.lexicon.rules.suffix_rules[rid].tag_probs == weights


def test_fold_holding_one_paradigm_class_of_a_stem(toy_rules, toy_schema):
    """A stem seen under two paradigm classes keeps, in a fold that
    holds every token of one class, only the other."""
    noun = ["subs:case=nom,num=sg,gend=masc", "subs:case=acc,num=sg,gend=masc"]
    verb = ["verf:pers=3,num=sg,mood=ind,tense=pres,voice=act",
            "verf:pers=2,num=sg,mood=ind,tense=pres,voice=act"]
    corpus = tagged_sequences(toy_schema, [
        [("λόγος", noun[0]), ("καί", "konj")],
        [("λόγει", verb[0]), (".", "punct")],
        [("λόγον", noun[1]), (".", "punct")],
        [("λόγεις", verb[1]), ("καί", "konj")],
    ])
    whole = train_lexicon(corpus, toy_rules, toy_schema)
    assert whole.stems["λόγ"].paradigm_classes == {"o-noun", "w-verb"}
    for held, kept in (([1, 3], "o-noun"), ([0, 2], "w-verb"), ([0, 1], None)):
        folds = _two_folds(len(corpus), held)
        _check_folds(corpus, toy_rules, toy_schema, folds)
        _, fold_model = next(_fold_models(corpus, toy_rules, toy_schema, folds))
        classes = fold_model.lexicon.stems["λόγ"].paradigm_classes
        assert classes == ({kept} if kept else {"o-noun", "w-verb"})


def test_folds_must_partition_the_corpus(toy_corpus, toy_rules, toy_schema):
    for folds in ([[0]], [[0, 1], [1, *range(2, len(toy_corpus))]]):
        with pytest.raises(ValueError):
            next(_fold_models(toy_corpus, toy_rules, toy_schema, folds))


def test_subtraction_round_trip(toy_corpus, toy_schema):
    """Taking a fold's trigram counts out of the tables leaves the counts
    of the rest, with no zero-count row; adding them back restores the
    tables, and the model built on them is the one built before."""
    rng = np.random.default_rng(3)
    cases = [(toy_schema, toy_corpus)] + [(s, c) for s, _, c, _ in
                                          (random_corpus(rng) for _ in range(100))]
    for schema, corpus in cases:
        seqs = [s.gold_tags for s in corpus]
        tables, seq_counts = count_sequences(seqs)
        lexicon = train_lexicon(corpus, RuleSet.empty(), schema)

        def built():
            model = _fitted_model(schema, tables, seq_counts, lexicon)
            return model.to_lines(), model.stats.trigram_counts, model.stats.observed_tags

        before = built()
        held = set(range(0, len(seqs), 3))
        rest = [t for i, t in enumerate(seqs) if i not in held]
        for i in held:
            tables.add(seq_counts[i], -1)
        if rest:
            fold = TransitionStats(schema, tables)
            assert fold.trigram_counts == Counter(x for t in rest for x in _instances(t))
            assert fold.observed_tags == sorted({t for tags in rest for t in tags},
                                                key=format_tag)
            assert 0 not in fold.trigram_counts.values()
        for i in held:
            tables.add(seq_counts[i])
        assert built() == before
        assert 0 not in tables.tri.values()


def _namer(tables):
    """The function from (order, history ids, key id) to (order, history
    tags, key) of ``tables``."""
    key_of = {i: key for key, i in tables.key_id.items()}
    return lambda order, hist, k: (order, tuple(tables.tags[h] for h in hist), key_of[k])


def _table_counts(tables):
    """Every non-zero count of ``tables`` as ``{(order, history tags,
    key): count}``."""
    named = _namer(tables)
    return {named(order, hist, k): n
            for order, table in tables.pre.items() for hist, counts in table.items()
            for k, n in counts.items() if n}


def _reference_counts(ref):
    """The counts of the ``_TagTables`` ``ref`` keyed as ``_table_counts``
    keys them: a prefix after its history, and at order 1 the
    category-local, global and feature-total counts of each feature
    value under (0, category, f, v), (1, f, v) and (2, f)."""
    out = {(order, key[:-1], key[-1]): n
           for order, table in ref.pre.items() for key, n in table.items()}
    for (cat, f, v), n in ref.catfeat.items():
        # every counted tag of a category carries f: its count is the
        # category's, the local denominator the tables use
        assert ref.catfeat_ctx[(cat, f)] == ref.pre[1][((cat,),)]
        out[(1, (), (0, cat, f, v))] = n
    out.update({(1, (), (1, f, v)): n for (f, v), n in ref.featuni.items()})
    out.update({(1, (), (2, f)): n for f, n in ref.featuni_ctx.items()})
    return out


def test_tables_hold_the_reference_counts(toy_corpus):
    """Every count the tables hold, the feature backoff counts included,
    equals the count of the tag-keyed reference tables for the same
    history and key, and no other count is non-zero: after counting the
    corpus, and again with a fold's counts taken out.  The leave-one-out
    index holds exactly the corpus counts of the tables, key for key."""
    rng = np.random.default_rng(11)
    corpora = [toy_corpus] + [random_corpus(rng)[2] for _ in range(100)]
    featured = 0
    for corpus in corpora:
        seqs = [s.gold_tags for s in corpus]
        tables, index = count_sequences(seqs)
        want = _reference_counts(_TagTables(Counter(x for t in seqs for x in _instances(t))))
        assert _table_counts(tables) == want
        featured += any(key[:1] == (0,) for _, _, key in want)

        none, n_ids = len(tables.tags), len(tables.key_id)  # as the index codes keys
        named, indexed = _namer(tables), {}
        for code, n in zip(index.keys.tolist(), index.corpus.tolist()):
            (h2, h1), k = divmod(code // n_ids, none + 1), code % n_ids
            hist = tuple(h for h in (h2, h1) if h != none)
            indexed[named(len(hist) + 1, hist, k)] = n
        assert indexed == want

        held = set(rng.choice(len(seqs), size=max(1, len(seqs) // 3), replace=False).tolist())
        for i in held:
            tables.add(index[i], -1)
        rest = [t for i, t in enumerate(seqs) if i not in held]
        want = _reference_counts(_TagTables(Counter(x for t in rest for x in _instances(t))))
        assert _table_counts(tables) == want
    assert featured > 10


def _lexicon_cases(rng, toy_schema, toy_rules, toy_corpus, n=100):
    """The fixture and ``n`` random corpora, as (schema, rules, corpus)."""
    return [(toy_schema, toy_rules, toy_corpus)] + [
        (s, r or RuleSet.empty(), c) for s, r, c, _ in (random_corpus(rng) for _ in range(n))]


def test_lexicon_subtraction_round_trip(toy_corpus, toy_rules, toy_schema):
    """``to_lexicon`` of a corpus's lexicon counts less a fold's writes
    the lexicon and rule lines of ``train_lexicon`` of the rest, byte for
    byte, without a training log, and leaves the counts and the corpus's
    lexicon as they were."""
    rng = np.random.default_rng(8)
    for schema, rules, corpus in _lexicon_cases(rng, toy_schema, toy_rules, toy_corpus):
        counts = count_lexicon(corpus, rules, schema)
        whole = counts.to_lexicon(rules, schema)

        def snapshot():
            return (copy.deepcopy(vars(counts)), whole.to_lines(), whole.rules.to_lines(),
                    dict(whole.stems), dict(whole.fullforms),
                    {k: dict(v) for k, v in whole.suffix_probs.items()},
                    dict(whole.hapax_prior))

        before = snapshot()
        for start in range(min(3, len(corpus))):
            held = set(range(start, len(corpus), 3))
            rest = [seq for i, seq in enumerate(corpus) if i not in held]
            fold = count_lexicon([corpus[i] for i in sorted(held)], rules, schema)
            got = counts.to_lexicon(rules, schema, fold, whole)
            want = train_lexicon(rest, rules, schema)
            assert got.to_lines() == want.to_lines()
            assert got.rules.to_lines() == want.rules.to_lines()
            assert got.log == ()
            assert snapshot() == before


def test_summed_counts_give_the_corpus_lexicon(toy_corpus, toy_rules, toy_schema):
    """Per-sequence lexicon counts summed with ``add``, in any order and
    with repeats, normalize to the lexicon and trained rules of the
    corpus of those sequences."""
    rng = np.random.default_rng(29)
    for schema, rules, corpus in _lexicon_cases(rng, toy_schema, toy_rules, toy_corpus):
        per_seq = [count_lexicon([seq], rules, schema) for seq in corpus]
        picked = rng.integers(len(corpus), size=int(rng.integers(1, 2 * len(corpus) + 1)))
        counts = LexiconCounts()
        for i in rng.permutation(picked):
            counts.add(per_seq[i])
        got = counts.to_lexicon(rules, schema)
        want = train_lexicon([corpus[i] for i in picked], rules, schema)
        assert got.to_lines() == want.to_lines()
        assert got.rules.to_lines() == want.rules.to_lines()


def test_each_fold_normalizes_only_its_own_keys(toy_corpus, toy_rules, toy_schema,
                                                monkeypatch):
    """From the first fold on, a fold's lexicon normalizes the hapax
    prior and the distributions of the fold's keys the rest still
    counts, and no others.  On the fixture and 100 random corpora, in up
    to 10 folds."""
    calls = []
    real = morph._normalized
    monkeypatch.setattr(morph, "_normalized", lambda *a: calls.append(1) or real(*a))
    per_fold = []  # _normalized calls of each fold's to_lexicon
    to_lexicon = LexiconCounts.to_lexicon

    def counted(counts, rules, schema, part=None, whole=None):
        calls.clear()
        lexicon = to_lexicon(counts, rules, schema, part, whole)
        if part is not None:
            per_fold.append(len(calls))
        return lexicon

    monkeypatch.setattr(LexiconCounts, "to_lexicon", counted)
    rng = np.random.default_rng(31)
    for schema, rules, corpus in _lexicon_cases(rng, toy_schema, toy_rules, toy_corpus):
        if len(corpus) < 3:
            continue
        k = min(10, len(corpus))
        order = rng.permutation(len(corpus)).tolist()
        folds = [sorted(order[f::k]) for f in range(k)]
        want = []
        for held in folds:
            rest = [seq for i, seq in enumerate(corpus) if i not in held]
            fold_counts = count_lexicon([corpus[i] for i in held], rules, schema)
            rest_counts = count_lexicon(rest, rules, schema)
            want.append(1 + sum(len(getattr(fold_counts, name).keys()
                                    & getattr(rest_counts, name).keys())
                                for name in ("stems", "fullforms", "suffixes", "rules")))
        per_fold.clear()
        for _ in _fold_models(corpus, rules, schema, folds):
            pass
        assert per_fold == want


def test_fold_fits_match_reference(toy_corpus):
    """The weights fitted from one leave-one-out index less a fold equal
    (``==``) those of the reference on the sequences the fold keeps: every
    fold of up to 10, holding none and holding all, on the fixture and
    300 random corpora, among them observations whose levels tie and
    levels with a zero denominator."""
    rng = np.random.default_rng(23)
    corpora = [toy_corpus] + [random_corpus(rng)[2] for _ in range(300)]
    for corpus in corpora:
        seqs = [s.gold_tags for s in corpus]
        _, seq_counts = count_sequences(seqs)
        k = min(10, len(seqs))
        order = rng.permutation(len(seqs)).tolist()
        folds = [sorted(order[f::k]) for f in range(k)] + [[], list(range(len(seqs)))]
        for held in folds:
            kept = [tags for i, tags in enumerate(seqs) if i not in held]
            assert fit_interpolation(seq_counts, held) == \
                fit_interpolation_reference(kept)
