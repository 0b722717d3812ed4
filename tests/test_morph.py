import io

import pytest
from hypothesis import given, strategies as st

from greektag import morph
from greektag import (
    FormatError,
    GreektagError,
    Lexicon,
    LexiconEntry,
    Model,
    ModelError,
    RuleSet,
    lexical_prob,
    segment,
    train_lexicon,
)
from greektag.model import _fold_models
from greektag.morph import _OPERATORS, _expand_pattern
from greektag.tags import Tag, format_tag

from genmodels import mangled_lines
from reference import all_tags, analysis_mismatch, lexical_prob_reference

PART_GEN = "part:tense=aor,voice=act,case=gen,num=sg,gend=masc"
VERF_1PL = "verf:pers=1,num=pl,mood=ind,tense=pres,voice=act"
SUBS_NOM = "subs:case=nom,num=sg,gend=masc"


# -- pattern expansion -------------------------------------------------------


def test_expand_literal():
    assert _expand_pattern("ος") == ("ος",)


def test_expand_empty_sentinel():
    assert _expand_pattern("-") == ("",)


def test_expand_alternation_and_class():
    assert set(_expand_pattern("(ος|ου)")) == {"ος", "ου"}
    assert set(_expand_pattern("[αβ]ς")) == {"ας", "βς"}
    assert set(_expand_pattern("σα(ς|ντος)")) == {"σας", "σαντος"}


def test_expand_optional():
    assert set(_expand_pattern("ουσιν?")) == {"ουσι", "ουσιν"}


def test_expand_rejects_unbounded_operators():
    for bad in ["α*", "α+", "α{2}", "α.", "^α", "α$", "α\\b", "(αβ"]:
        with pytest.raises(FormatError):
            _expand_pattern(bad)


@pytest.mark.parametrize("bad", ["ος|ου", "ος)", "ο]ς", "((ος|ου)|ῳ)", "(ος*|ου)", "(ο.|ου)",
                                 "(ος?|ου)", "(ο[ς]|ου)", "[ο?]ς", "[ο|]ς", "[ο(]ς", "[ο{]ς"])
def test_rule_file_rejects_stray_and_nested_operators(toy_schema, bad):
    """An operator outside its place is an error naming the line, not a
    literal character."""
    with pytest.raises(FormatError, match="line 2"):
        RuleSet.from_lines([f"ος\to-noun\t{SUBS_NOM}", f"{bad}\to-noun\t{SUBS_NOM}"],
                           toy_schema)


@pytest.mark.parametrize("rest", [f"o-noun\t{SUBS_NOM}", "@prefix\tstrip"],
                         ids=["suffix", "prefix"])
def test_rule_file_rejects_empty_pattern(toy_schema, rest):
    """An empty pattern field is an error naming its file and line:
    ``-`` is the only spelling of the empty string."""
    with pytest.raises(FormatError, match="my.rules: line 2: empty pattern"):
        RuleSet.from_lines([f"ος\t{rest}", f"\t{rest}"], toy_schema, path="my.rules")


@pytest.mark.parametrize("klass", ["", "-", "w,verb", ",", "verb,"],
                         ids=["empty", "dash", "inner-comma", "comma", "trailing-comma"])
def test_rule_file_rejects_class_the_lexicon_cannot_carry(toy_schema, klass):
    """A lexicon row comma-joins its stem's paradigm classes and writes
    ``-`` for none, so a rule class that is empty, ``-`` or holds a
    comma would not come back from a saved model."""
    with pytest.raises(FormatError, match=f"my.rules: line 2: paradigm class {klass!r}"):
        RuleSet.from_lines([f"ος\to-noun\t{SUBS_NOM}", f"ου\t{klass}\t{SUBS_NOM}"],
                           toy_schema, path="my.rules")


@given(st.text(alphabet="ος-" + "".join(sorted(_OPERATORS)), max_size=12),
       st.sampled_from([f"o-noun\t{SUBS_NOM}", "@prefix\tstrip"]))
def test_rule_patterns_fuzz(toy_schema, pattern, rest):
    """Only ``FormatError`` escapes, and no literal of an accepted
    suffix or prefix pattern holds an operator character."""
    try:
        rules = RuleSet.from_lines([f"{pattern}\t{rest}"], toy_schema)
    except FormatError:
        return
    for rule in rules.suffix_rules + rules.prefix_rules:
        assert not _OPERATORS.intersection("".join(rule.literals)), rule.literals


# -- rule files and matching ---------------------------------------------------


def test_rule_file_round_trip(toy_rules, toy_schema):
    lines = toy_rules.to_lines()
    again = RuleSet.from_lines(lines, toy_schema)
    assert again.to_lines() == lines


def test_rule_file_errors(toy_schema):
    with pytest.raises(FormatError, match="line 1"):
        RuleSet.from_lines(["only two\tfields"], toy_schema)
    with pytest.raises(FormatError):
        RuleSet.from_lines(["ος\tcls\tnosuchtag"], toy_schema)
    with pytest.raises(FormatError):
        RuleSet.from_lines(["ἐ\t@prefix\tmangle"], toy_schema)
    # no tags; an empty class; 2**13 literals, past the 4096 a pattern may expand to
    for row, message in (("-\tw-verb\t", "rule lists no tags"),
                         (f"a[]\to-noun\t{SUBS_NOM}", "empty character class"),
                         (f"{'[ab]' * 13}\to-noun\t{SUBS_NOM}", "pattern .* expands too far")):
        with pytest.raises(FormatError, match=f"^line 1: {message}"):
            RuleSet.from_lines([row], toy_schema)


def test_suffix_matching_longest_first(toy_rules):
    matches = toy_rules.match_suffixes("παιδεύσαντος")
    literals = [lit for lit, _ in matches]
    assert literals == ["σαντος", "ος"]
    # never the whole word
    assert "ος" not in [lit for lit, _ in toy_rules.match_suffixes("ος")]


def test_prefix_matching(toy_rules):
    assert toy_rules.match_prefixes("ἐπαιδεύσαμεν") == ["ἐ"]
    assert toy_rules.match_prefixes("παιδεύομεν") == []
    assert toy_rules.match_prefixes("ἐ") == []  # remainder must be non-empty


# -- which stem, suffix and tag combine ---------------------------------------


def _entry(form, classes, tag_probs):
    return LexiconEntry(form, frozenset(classes), tuple(tag_probs))


def test_stem_suffix_truth_table(toy_schema):
    """Exhaustive enumeration over a three-class toy lexicon: a stem, a
    suffix rule and a tag combine exactly when the rule's paradigm class
    is one of the stem's and the stem has been seen with the tag."""
    verb = toy_schema.parse(VERF_1PL)
    noun = toy_schema.parse(SUBS_NOM)
    part = toy_schema.parse(PART_GEN)
    konj = toy_schema.parse("konj")
    stems = {
        "s_vw": _entry("sv", {"w-verb"}, [(verb, 1.0)]),
        "s_n": _entry("sn", {"o-noun"}, [(noun, 1.0)]),
        "s_mix": _entry("sm", {"w-verb", "a-noun"}, [(verb, 0.5), (part, 0.5)]),
    }
    rules = {
        "r_w": ("ομεν", "w-verb", [VERF_1PL, PART_GEN]),
        "r_o": ("ος", "o-noun", [SUBS_NOM]),
        "r_a": ("η", "a-noun", [SUBS_NOM]),
    }
    tags = {"verb": verb, "noun": noun, "part": part}
    expected = {
        ("s_vw", "r_w", "verb"),
        ("s_mix", "r_w", "verb"),
        ("s_mix", "r_w", "part"),
        ("s_n", "r_o", "noun"),
    }
    ruleset = RuleSet.from_lines(
        [f"{lit}\t{klass}\t{' '.join(ts)}" for lit, klass, ts in rules.values()],
        toy_schema,
    )
    words = [stem.form + lit for stem in stems.values() for lit, _, _ in rules.values()]
    lexicon = Lexicon(
        toy_schema, ruleset, stems=stems.values(),
        # a full form of every word keeps the suffix-only fallback out
        fullforms=[_entry(w, (), [(konj, 1.0)]) for w in words],
    )
    for sname, stem in stems.items():
        for rname, (lit, _, _) in rules.items():
            scored = {
                t for a in segment(stem.form + lit, lexicon)
                if (a.stem, a.suffix) == (stem.form, lit)
                for t, p in a.tag_probs if p > 0
            }
            for tname, tag in tags.items():
                assert (tag in scored) == ((sname, rname, tname) in expected), (
                    sname, rname, tname,
                )


# -- segmentation -------------------------------------------------------------


@pytest.fixture()
def paper_lexicon(toy_schema):
    """Toy lexicon mirroring the prefix-stem-suffix example setup."""
    part = toy_schema.parse(PART_GEN)
    verb = toy_schema.parse(VERF_1PL)
    noun = toy_schema.parse(SUBS_NOM)
    konj = toy_schema.parse("konj")
    rules = RuleSet.from_lines(
        [
            f"σαντος\tw-verb\t{PART_GEN}",
            f"ομεν\tw-verb\t{VERF_1PL}",
            f"ος\to-noun\t{SUBS_NOM}",
        ],
        toy_schema,
    )
    return Lexicon(
        toy_schema,
        rules,
        stems=[
            _entry("παιδεύ", {"w-verb"}, [(part, 0.4), (verb, 0.6)]),
            _entry("λόγ", {"o-noun"}, [(noun, 1.0)]),
        ],
        fullforms=[LexiconEntry("καί", frozenset(), ((konj, 1.0),))],
        suffix_probs={"σαντος": {part: 1.0}, "ομεν": {verb: 1.0}, "ος": {noun: 1.0}},
        hapax_prior={konj: 1.0},
    )


def test_segment_accepts_stem_suffix_split(paper_lexicon, toy_schema):
    analyses = segment("παιδεύσαντος", paper_lexicon)
    splits = [(a.prefix, a.stem, a.suffix) for a in analyses]
    assert ("", "παιδεύ", "σαντος") in splits


def test_segment_rejects_nonlexical_stem(paper_lexicon):
    analyses = segment("παιδεύσαντος", paper_lexicon)
    assert all(a.stem != "παιδεύσαντ" for a in analyses)


def test_segment_fullform_single_analysis(paper_lexicon, toy_schema):
    analyses = segment("καί", paper_lexicon)
    assert len(analyses) == 1
    a = analyses[0]
    assert (a.prefix, a.stem, a.suffix) == ("", "καί", "")
    assert a.tag_probs == ((toy_schema.parse("konj"), 1.0),)


def test_segment_parts_concatenate(paper_lexicon, toy_model):
    for lexicon in (paper_lexicon, toy_model.lexicon):
        for word in ["παιδεύσαντος", "λόγος", "καί", "ξεινος", "ἐπαιδεύσαμεν"]:
            for a in segment(word, lexicon):
                assert a.prefix + a.stem + a.suffix == word


def test_segment_orders_by_suffix_then_stem_length(toy_model):
    analyses = segment("παιδεύσαντος", toy_model.lexicon)
    keys = [(-len(a.suffix), -len(a.stem)) for a in analyses]
    assert keys == sorted(keys)


def test_segment_unknown_word_empty_suffix_fallback(paper_lexicon):
    analyses = segment("βββ", paper_lexicon)  # no suffix rule matches
    assert len(analyses) == 1
    assert analyses[0].suffix == "" and analyses[0].stem == "βββ"
    assert analyses[0].tag_probs  # hapax prior


def test_segment_strips_augment(toy_model):
    analyses = segment("ἐπαιδεύσαμεν", toy_model.lexicon)
    assert any(a.prefix == "ἐ" and a.stem == "παιδεύ" for a in analyses)


def test_punct_token_gets_punct_category(toy_model):
    probs = lexical_prob("«", toy_model.lexicon)
    assert [(format_tag(t), p) for t, p in probs] == [("punct", 1.0)]


# -- lexical probabilities ----------------------------------------------------


def test_lexical_prob_fullform_point_mass(paper_lexicon, toy_schema):
    assert lexical_prob("καί", paper_lexicon) == [(toy_schema.parse("konj"), 1.0)]


def test_lexical_prob_renormalizes_over_valid_tags(toy_schema):
    """Stem carries only the verb tag; the suffix splits 0.8/0.2 between
    verb and noun; only the verb combination is valid, so it takes all
    the mass."""
    verb = toy_schema.parse(VERF_1PL)
    noun = toy_schema.parse(SUBS_NOM)
    rules = RuleSet.from_lines([f"ω\tw-verb\t{VERF_1PL} {SUBS_NOM}"], toy_schema)
    lexicon = Lexicon(
        toy_schema,
        rules,
        stems=[_entry("παιδευ", {"w-verb"}, [(verb, 1.0)])],
        suffix_probs={"ω": {verb: 0.8, noun: 0.2}},
    )
    assert lexical_prob("παιδευω", lexicon) == [(verb, 1.0)]


def test_lexical_prob_unknown_word_restricted_by_suffix(toy_model, toy_schema):
    probs = lexical_prob("κωλύσαντος", toy_model.lexicon)
    support = {format_tag(t) for t, _ in probs}
    rule_tags = set()
    for lit, rids in toy_model.lexicon.rules.match_suffixes("κωλύσαντος"):
        for rid in rids:
            rule_tags.update(format_tag(t) for t in toy_model.lexicon.rules.suffix_rules[rid].tags)
    assert support and support <= rule_tags
    assert support < {format_tag(t) for t in all_tags(toy_schema)}


def test_lexical_prob_is_distribution(toy_model):
    words = ["λόγος", "παιδεύομεν", "κωλύσαντος", "ξεινος", "καί", ".",
             "ἐπαιδεύσαμεν", "τέχνην", "βββ"]
    for word in words:
        probs = lexical_prob(word, toy_model.lexicon)
        assert probs
        total = sum(p for _, p in probs)
        assert abs(total - 1.0) <= 1e-9
        assert all(0.0 < p <= 1.0 for _, p in probs)


def test_lexical_prob_splitting_invariance(toy_schema):
    """Stem and suffix each tied to one tag: the factorized estimate is
    the same point mass a full-form count would give."""
    verb = toy_schema.parse(VERF_1PL)
    rules = RuleSet.from_lines([f"ομεν\tw-verb\t{VERF_1PL}"], toy_schema)
    lexicon = Lexicon(
        toy_schema, rules,
        stems=[_entry("παιδευ", {"w-verb"}, [(verb, 1.0)])],
        suffix_probs={"ομεν": {verb: 1.0}},
    )
    assert lexical_prob("παιδευομεν", lexicon) == [(verb, 1.0)]


def test_category_shift_falls_back_to_suffix_only(toy_model, toy_schema):
    """λέγ was never seen as a participle, so the participle ending must
    drive the analysis (unknown-stem path), not silently vanish."""
    probs = lexical_prob("λέγσαντος", toy_model.lexicon)
    support = {format_tag(t) for t, _ in probs}
    canon = lambda s: format_tag(toy_schema.parse(s))
    assert support == {canon(PART_GEN), canon(SUBS_NOM)}


# -- training ------------------------------------------------------------------


def test_train_lexicon_fullform_fallback(toy_schema):
    from greektag.text import Sequence, Token

    seq = Sequence(
        (Token("x", "x", 0),),
        (toy_schema.parse(SUBS_NOM),),
    )
    lexicon = train_lexicon([seq], RuleSet.empty(), toy_schema)
    assert "x" in lexicon.fullforms
    assert lexicon.fullforms["x"].tag_probs == ((toy_schema.parse(SUBS_NOM), 1.0),)
    assert any("no segmentation" in line for line in lexicon.log)


def test_train_lexicon_rejects_untagged_corpus(toy_schema):
    """A sequence without gold tags is a ``ModelError``, as in ``train``."""
    from greektag.text import Sequence, Token

    tagged = Sequence((Token("x", "x", 0),), (toy_schema.parse(SUBS_NOM),))
    untagged = Sequence((Token("y", "y", 0),))
    with pytest.raises(ModelError, match="training corpus must carry gold tags"):
        train_lexicon([tagged, untagged], RuleSet.empty(), toy_schema)


def test_train_lexicon_matches_reference(toy_corpus, toy_rules, toy_schema):
    """Splitting each distinct (word, tag) pair once gives the lexicon
    file and the training log of splitting every token, on the fixture
    and 200 random corpora; the log keeps one line per unsegmented token,
    in corpus order."""
    import numpy as np

    from genmodels import random_corpus
    from greektag.text import Sequence, Token
    from reference import train_lexicon_reference

    nom = toy_schema.parse(SUBS_NOM)
    konj = toy_schema.parse("konj")
    words = ["x", "λόγος", "y", "x", "καί", "x"]
    tags = [nom, nom, nom, nom, konj, nom]
    logged = Sequence(tuple(Token(w, w, i) for i, w in enumerate(words)), tuple(tags))
    cases = [(toy_schema, toy_rules, toy_corpus),
             (toy_schema, toy_rules, [logged, *toy_corpus, logged])]
    rng = np.random.default_rng(31)
    for _ in range(200):
        schema, rules, corpus, _ = random_corpus(rng)
        cases.append((schema, rules or RuleSet.empty(), corpus))
    for schema, rules, corpus in cases:
        got = train_lexicon(corpus, rules, schema)
        want = train_lexicon_reference(corpus, rules, schema)
        assert got.to_lines() == want.to_lines()
        assert got.log == want.log
    log = train_lexicon([logged, logged], toy_rules, toy_schema).log
    assert [line.split("'")[1] for line in log] == ["x", "y", "x", "x"] * 2


def test_train_lexicon_shared_stem_counts(toy_schema, toy_rules):
    from greektag.text import Sequence, Token

    acc = toy_schema.parse("subs:case=acc,num=sg,gend=fem")
    nom = toy_schema.parse("subs:case=nom,num=sg,gend=fem")
    seq = Sequence(
        (Token("τέχνην", "τέχνην", 0), Token("τέχνη", "τέχνη", 1)),
        (acc, nom),
    )
    lexicon = train_lexicon([seq], toy_rules, toy_schema)
    entry = lexicon.stems["τέχν"]
    assert dict(entry.tag_probs) == {acc: 0.5, nom: 0.5}


def test_suffix_columns_are_distributions(toy_model):
    for literal, probs in toy_model.lexicon.suffix_probs.items():
        assert abs(sum(probs.values()) - 1.0) <= 1e-9


def test_trained_rule_weights_are_distributions(toy_model):
    for rule in toy_model.lexicon.rules.suffix_rules:
        if rule.tag_probs:
            assert abs(sum(rule.tag_probs.values()) - 1.0) <= 1e-9


def test_hapax_prior_is_distribution(toy_model):
    prior = toy_model.lexicon.hapax_prior
    assert prior
    assert abs(sum(prior.values()) - 1.0) <= 1e-9


# -- lexicon file --------------------------------------------------------------


def test_lexicon_round_trip(toy_model, toy_schema):
    lexicon = toy_model.lexicon
    first = "\n".join(lexicon.to_lines()) + "\n"
    again = Lexicon.from_lines(io.StringIO(first), toy_schema, lexicon.rules)
    second = "\n".join(again.to_lines()) + "\n"
    assert first == second


def test_lexicon_file_errors(toy_schema):
    with pytest.raises(FormatError, match="line 1"):
        Lexicon.from_lines(["not enough fields"], toy_schema, RuleSet.empty())
    with pytest.raises(FormatError):
        Lexicon.from_lines(["x\tbogus\t-\tkonj=1"], toy_schema, RuleSet.empty())
    with pytest.raises(FormatError):
        Lexicon.from_lines(["x\tstem\t-\tkonj"], toy_schema, RuleSet.empty())
    # to_lines writes the prior row as __hapax__, so no other form round-trips
    with pytest.raises(FormatError, match="line 2: prior row named 'foo'"):
        Lexicon.from_lines(["x\tstem\t-\tkonj=1", "foo\tprior\t-\tkonj=1"], toy_schema,
                           RuleSet.empty())


@pytest.mark.parametrize("row, message", [
    ("x\tstem\ta,,b\tkonj=1", "empty paradigm class in 'a,,b'"),
    ("x\tstem\t,a\tkonj=1", "empty paradigm class in ',a'"),
    ("x\tstem\t\tkonj=1", "empty paradigm class in ''"),
    ("\tstem\t-\tkonj=1", "empty form"),
    ("\tfullform\t-\tkonj=1", "empty form"),
    ("\tsuffix\t-\tkonj=1", "empty form"),
    ("ος\tsuffix\tbar,baz\tkonj=1", "suffix row with paradigm classes 'bar,baz', not -"),
    ("__hapax__\tprior\tfoo\tkonj=1", "prior row with paradigm classes 'foo', not -"),
], ids=["inner", "leading", "field", "stem", "fullform", "suffix",
        "suffix-classes", "prior-classes"])
def test_lexicon_file_rejects_rows_it_cannot_write(toy_schema, row, message):
    """``to_lines`` never writes an empty class name, an empty form (the
    empty suffix is ``-``) or a class on a suffix or prior row, so reading
    one is an error at its line."""
    with pytest.raises(FormatError, match=f"my.lexicon: line 2: {message}"):
        Lexicon.from_lines(["y\tstem\t-\tkonj=1", row], toy_schema, RuleSet.empty(),
                           path="my.lexicon")


@given(data=st.data())
def test_lexicon_loader_fuzz(toy_model, toy_schema, data):
    """Only a ``GreektagError`` escapes from reading damaged toy lexicon
    lines, and a lexicon that loads writes lines that load to the same
    lexicon."""
    rules = toy_model.lexicon.rules
    lines = data.draw(mangled_lines(toy_model.lexicon.to_lines()))
    try:
        lexicon = Lexicon.from_lines(lines, toy_schema, rules, path="f.lexicon")
    except GreektagError:
        return
    again = Lexicon.from_lines(lexicon.to_lines(), toy_schema, rules)
    assert again.to_lines() == lexicon.to_lines()


# -- golden lexical probabilities ------------------------------------------------

#: sha256 of ``_lexical_digest`` over the toy model's lexicon
LEXICAL_SHA256 = "f56d558b72213e21856c4bfdf644dd75a449b1b55d9bc8338d7697ca62cd9900"


def _fixture_words(fixtures_dir):
    """Normalized words of the toy texts and corpus, plus forms that add,
    drop or prefix a letter, so the suffix-only and prior tiers run."""
    from greektag.text import tokenize

    words = set()
    for path in sorted((fixtures_dir / "texts").glob("*.txt")):
        for seq in tokenize(path.read_text(encoding="utf-8")):
            words.update(tok.norm for tok in seq.tokens)
    for line in (fixtures_dir / "toy.corpus").read_text(encoding="utf-8").splitlines():
        if line.strip():
            words.add(line.split("\t")[0])
    forms = set(words)
    for w in words:
        forms.update({w + "ς", w + "β", "ἐ" + w, "β" + w})
        if len(w) > 1:
            forms.add(w[:-1])
    return sorted(forms)


def _lexical_digest(lexicon, fixtures_dir):
    import hashlib

    lines = []
    for word in _fixture_words(fixtures_dir):
        probs = " ".join(f"{format_tag(t)}={p!r}" for t, p in lexical_prob(word, lexicon))
        lines.append(f"{word}\t{probs}")
        for a in segment(word, lexicon):
            scores = " ".join(f"{format_tag(t)}={p!r}" for t, p in a.tag_probs)
            lines.append(f"\t{a.prefix}|{a.stem}|{a.suffix}\t{scores}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_lexical_probabilities_are_golden(toy_model, fixtures_dir):
    assert _lexical_digest(toy_model.lexicon, fixtures_dir) == LEXICAL_SHA256


# -- the one-pass, memoized analysis against the reference ----------------------


def _reversed_rows(lines):
    """Lexicon file lines with each row's tag items in reverse order."""
    out = []
    for line in lines:
        form, kind, classes, body = line.split("\t")
        out.append("\t".join((form, kind, classes, " ".join(reversed(body.split())))))
    return out


def _dense(lexicon, words):
    """``lexicon`` with a stem for every split of ``words`` that lacks
    one, admitting the split's rules and their tags, uniformly and in
    reverse canonical order, and a full form for every third word: most
    words then have several known analyses."""
    rules, schema = lexicon.rules, lexicon.schema
    stems, fullforms = dict(lexicon.stems), dict(lexicon.fullforms)
    for k, word in enumerate(words):
        for _, stem, _, rule_ids in morph._splits(word, rules):
            if stem not in stems and rule_ids:
                ruled = [rules.suffix_rules[rid] for rid in rule_ids]
                tags = sorted({t for r in ruled for t in r.tags}, key=format_tag, reverse=True)
                stems[stem] = _entry(stem, {r.paradigm_class for r in ruled},
                                     [(t, 1 / len(tags)) for t in tags])
        if k % 3 == 0 and word not in fullforms:
            fullforms[word] = _entry(word, (), [(schema.parse("konj"), 0.25),
                                                (schema.parse(VERF_1PL), 0.75)])
    return Lexicon(schema, rules, stems.values(), fullforms.values(), lexicon.suffix_probs,
                   lexicon.hapax_prior)


@pytest.fixture(scope="module")
def lexicons(toy_model, toy_corpus, toy_rules, toy_schema, fixtures_dir):
    """The toy model's lexicon, a cross-validation fold's, the toy one
    with every row's tags in reverse order, one trained with a rule for
    the empty suffix, under which a bare stem is never analysed, and
    ``_dense`` of the first and the last over the fixture words."""
    folds = [list(range(k, len(toy_corpus), 3)) for k in range(3)]
    _, fold_model = next(_fold_models(toy_corpus, toy_rules, toy_schema, folds))
    toy = toy_model.lexicon
    reordered = Lexicon.from_lines(_reversed_rows(toy.to_lines()), toy_schema, toy.rules)
    assert any(list(e.tag_probs) != sorted(e.tag_probs, key=lambda tp: format_tag(tp[0]))
               for e in [*reordered.stems.values(), *reordered.fullforms.values()])
    empty_rule = RuleSet.from_lines(toy_rules.to_lines() + [f"-\tw-verb\t{VERF_1PL}"],
                                    toy_schema)
    assert empty_rule.has_empty_suffix_rule
    with_empty_rule = train_lexicon(toy_corpus, empty_rule, toy_schema)
    words = _fixture_words(fixtures_dir)
    return {"toy": toy, "fold": fold_model.lexicon, "reordered": reordered,
            "empty suffix rule": with_empty_rule, "dense": _dense(toy, words),
            "dense, empty suffix rule": _dense(with_empty_rule, words)}


LEXICONS = ["toy", "fold", "reordered", "empty suffix rule", "dense",
            "dense, empty suffix rule"]


def _literal_count(rules):
    return len({lit for rule in rules.suffix_rules for lit in rule.literals})


def _assert_matches_reference(word, lexicon):
    """``segment`` and ``lexical_prob`` give the reference's analyses and
    doubles for ``word``, and the unknown-word memo stays in its bound."""
    assert analysis_mismatch(word, lexicon) is None
    assert len(lexicon._unknown) <= _literal_count(lexicon.rules) + 2


@pytest.mark.parametrize("name", LEXICONS)
def test_analysis_matches_reference_on_fixture_words(lexicons, name, fixtures_dir):
    lexicon = lexicons[name]
    for _ in range(2):  # the second pass reads the memo
        for word in _fixture_words(fixtures_dir):
            _assert_matches_reference(word, lexicon)


def _vocabulary(lexicon):
    """Words built from the rule literals, the prefixes, the lexicon's
    forms, punctuation and junk."""
    rules = lexicon.rules
    pieces = ({lit for rule in rules.suffix_rules for lit in rule.literals}
              | {lit for rule in rules.prefix_rules for lit in rule.literals}
              | set(lexicon.stems) | set(lexicon.fullforms)
              | {".", ";", "«", "·", "β", "x", "ῶ", "1", "ββββ"})
    return st.lists(st.sampled_from(sorted(pieces - {""})), min_size=1, max_size=4).map("".join)


@pytest.mark.parametrize("name", LEXICONS)
@given(data=st.data())
def test_analysis_matches_reference_fuzz(lexicons, name, data):
    lexicon = lexicons[name]
    words = data.draw(st.lists(_vocabulary(lexicon), min_size=1, max_size=8))
    for word in words + words:
        _assert_matches_reference(word, lexicon)


def test_unknown_words_share_their_suffix_analysis(toy_model, toy_schema):
    """Unknown words with the same longest suffix are analysed once: one
    memo entry, one candidate triple, and each caller gets its own copy
    of the distribution."""
    lexicon = Lexicon.from_lines(toy_model.lexicon.to_lines(), toy_schema,
                                 toy_model.lexicon.rules)
    model = Model(toy_model.schema, toy_model.stats, toy_model.lambdas, lexicon)
    first, second = "ζζζουσιν", "ξξξουσιν"
    assert [a.suffix for a in segment(first, lexicon)] == ["ουσιν"]
    dist = lexical_prob(first, lexicon)
    assert list(lexicon._unknown) == ["ουσιν"]
    dist.clear()
    assert lexical_prob(second, lexicon) == lexical_prob_reference(second, lexicon) != []
    assert list(lexicon._unknown) == ["ουσιν"]
    tags, ids, emis = model.candidates(first)
    other_tags, other_ids, other_emis = model.candidates(second)
    assert other_ids == ids and other_emis is emis and other_tags is tags
    assert len(model._cands) == 2 and len(model._dists) == 1
