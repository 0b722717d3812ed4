import copy
import io
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from greektag import (
    FormatError,
    GreektagError,
    TagError,
    TagSchema,
    format_tag,
    train,
)
from greektag.cli import default_schema_path
from greektag.tags import _TAGS, BOUNDARY, ROOT, Tag, TransitionStats, _Tables
from greektag.model import _instances
from greektag.text import read_annotated_corpus

from genmodels import random_corpus, tagged_sequences
from reference import _TagTables, all_tags, reference_chain_prob, rescored
from test_model import _deep_chain_corpus, _partly_counted_verf

VERB = "verf:pers=1,num=pl,mood=ind,tense=pres,voice=act"


def test_parse_bare_category(toy_schema):
    tag = toy_schema.parse("prae")
    assert tag == Tag("prae")
    assert format_tag(tag) == "prae"


def test_parse_five_feature_verb(toy_schema):
    tag = toy_schema.parse(VERB)
    assert tag.category == "verf"
    assert list(tag.features) == [
        ("pers", "1"), ("num", "pl"), ("mood", "ind"),
        ("tense", "pres"), ("voice", "act"),
    ]
    assert format_tag(tag) == VERB


def test_parse_reorders_to_canonical(toy_schema):
    assert format_tag(toy_schema.parse("subs:gend=masc,case=nom,num=sg")) == \
        "subs:case=nom,num=sg,gend=masc"
    # a tag built out of that order is not one of the schema's
    with pytest.raises(TagError, match="^features out of canonical order: subs:num=sg,case="):
        toy_schema.validate(Tag("subs", (("num", "sg"), ("case", "nom"), ("gend", "masc"))))


@pytest.mark.parametrize("bad", [
    "verf:pers=9",                      # unknown value
    "nosuch",                           # unknown category
    "prae:case=nom",                    # feature disallowed for category
    "verf:pers=1",                      # missing features
    "subs:case=nom,case=gen,num=sg,gend=masc",  # duplicate feature
    "subs:bogus=1,case=nom,num=sg,gend=masc",   # unknown feature
    "",
    "punct:",                           # empty feature list, which no writer makes
    "subs:",
])
def test_parse_rejects_schema_violations(toy_schema, bad):
    with pytest.raises(TagError):
        toy_schema.parse(bad)


# -- the parse memo and the canonical string kept on each tag -------------------

SUBS = Tag("subs", (("case", "nom"), ("num", "sg"), ("gend", "masc")))


def test_parse_memo_gives_one_tag_per_tag(toy_schema):
    """A string parsed again gives the same object, and every spelling of
    a tag gives the object of its canonical string."""
    schema = TagSchema(toy_schema.feature_values, toy_schema.category_features)
    tag = schema.parse("subs:gend=masc,case=nom,num=sg")
    assert tag == SUBS
    assert schema.parse("subs:gend=masc,case=nom,num=sg") is tag
    for spelling in ("subs:case=nom,num=sg,gend=masc", " subs:num=sg,gend=masc,case=nom\r"):
        assert schema.parse(spelling) is tag
    assert repr(tag) == repr(SUBS)
    assert format_tag(tag) == "subs:case=nom,num=sg,gend=masc"


@pytest.mark.parametrize("bad", ["verf:pers=9", "nosuch", "punct:", "subs:case=nom", " ",
                                 "subs:case=nom,case=gen,num=sg,gend=masc"])
def test_parse_memo_keeps_no_failure(toy_schema, bad):
    """A bad string raises the same error on every call and is never
    memoized, before or after a good parse."""
    schema = TagSchema(toy_schema.feature_values, toy_schema.category_features)
    errors = []
    for good in ("konj", "subs:case=nom,num=sg,gend=masc"):
        with pytest.raises(TagError) as info:
            schema.parse(bad)
        errors.append(str(info.value))
        schema.parse(good)
    assert errors[0] == errors[1]
    assert bad not in schema._parsed
    assert bad.strip() not in schema._parsed


def test_failed_parse_builds_no_tag(toy_schema):
    """A string that fails to parse leaves the intern table as it was,
    such as a weighted rule item, which is first parsed as a bare tag."""
    before = dict(_TAGS)
    for bad in ["verf:pers=9", "subs:case=nom,num=sg,gend=masc=0.5", "prae:case=nom",
                "subs:gend=masc,case=nom,case=gen,num=sg", "verf:pers=1"]:
        with pytest.raises(TagError):
            toy_schema.parse(bad)
    assert _TAGS == before


def test_parsed_and_built_tags_hash_alike(toy_schema):
    """A tag built by hand and an equal parsed tag find each other in
    sets and dicts, whichever was made first."""
    built = Tag("subs", (("case", "nom"), ("num", "sg"), ("gend", "masc")))
    h = hash(built)
    parsed = toy_schema.parse("subs:num=sg,case=nom,gend=masc")
    assert built == parsed and h == hash(parsed) == hash(built)
    assert {parsed: 1}[built] == 1 and {built: 2}[parsed] == 2
    assert built in {parsed} and parsed in {built}
    other = Tag("subs", (("case", "gen"), ("num", "sg"), ("gend", "masc")))
    assert other != parsed and other not in {parsed}
    assert Tag("konj") in {toy_schema.parse("konj")}


def test_building_a_tag_again_gives_the_same_object(toy_schema):
    """One object per (category, features), however the features are
    passed; the canonical string is made with it."""
    feats = [("case", "nom"), ("num", "sg"), ("gend", "masc")]
    tag = Tag("subs", tuple(feats))
    assert Tag("subs", tuple(feats)) is tag
    assert Tag("subs", feats) is tag
    assert Tag(category="subs", features=iter(feats)) is tag
    assert toy_schema.parse("subs:gend=masc,num=sg,case=nom") is tag
    assert Tag("subs", feats[::-1]) is not tag  # another feature order is another tag
    assert Tag("konj") is Tag("konj", ()) is toy_schema.parse("konj")
    assert tag.name == format_tag(tag) == "subs:case=nom,num=sg,gend=masc"
    assert repr(tag) == ("Tag(category='subs', "
                         "features=(('case', 'nom'), ('num', 'sg'), ('gend', 'masc')))")


def test_tags_hash_and_compare_by_identity():
    """``object``'s hash and equality apply, both in C."""
    assert Tag.__hash__ is object.__hash__
    assert Tag.__eq__ is object.__eq__
    assert Tag.__ne__ is object.__ne__


@pytest.mark.parametrize("copy_of", [
    copy.copy,
    copy.deepcopy,
    *(lambda t, p=p: pickle.loads(pickle.dumps(t, protocol=p))
      for p in range(pickle.HIGHEST_PROTOCOL + 1)),
], ids=["copy", "deepcopy", *(f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1))])
def test_copies_of_a_tag_are_the_tag(copy_of):
    tag = Tag("subs", (("case", "gen"), ("num", "pl"), ("gend", "fem")))
    assert copy_of(tag) is tag
    again, table = copy_of((tag, {tag: [tag]}))
    assert again is tag and table[tag][0] is tag


def test_tags_are_immutable():
    tag = Tag("subs", (("case", "nom"), ("num", "sg"), ("gend", "masc")))
    for attr in ("category", "features", "name", "other"):
        with pytest.raises(AttributeError):
            setattr(tag, attr, "x")
        with pytest.raises(AttributeError):
            delattr(tag, attr)
    assert (tag.category, tag.name) == ("subs", "subs:case=nom,num=sg,gend=masc")
    assert Tag("subs", tag.features) is tag


_DUMP = """
import pickle, sys
from greektag import TagSchema
schema = TagSchema.load(sys.argv[1])
tag = schema.parse("subs:num=sg,case=nom,gend=masc")
hash(tag)
sys.stdout.buffer.write(pickle.dumps((tag, {tag: 1})))
"""

_LOAD = """
import pickle, sys
from greektag import Tag
tag, table = pickle.loads(sys.stdin.buffer.read())
built = Tag("subs", (("case", "nom"), ("num", "sg"), ("gend", "masc")))
assert table[built] == 1 and {built: 2}[tag] == 2 and tag is built
"""


def test_pickled_tag_hashes_in_a_process_with_other_string_hashes(fixtures_dir):
    """A tag pickled by one process finds an equal tag built in a process
    whose string hashing differs: no hash travels with the pickle."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"),
                                         os.environ.get("PYTHONPATH")]))

    def run(script, seed, data=None, *args):
        done = subprocess.run([sys.executable, "-c", script, *args], input=data,
                              env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
                              capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr.decode()
        return done.stdout

    payload = run(_DUMP, "1", None, str(fixtures_dir / "toy.schema"))
    run(_LOAD, "2", payload)


def _tag_strategy(schema):
    def build(category, rng_values):
        feats = schema.features_of(category)
        values = {f: rng_values[i % len(rng_values)] for i, f in enumerate(feats)}
        parts = ",".join(
            f"{f}={schema.allowed_values(f)[values[f] % len(schema.allowed_values(f))]}"
            for f in feats
        )
        return f"{category}:{parts}" if parts else category

    return st.builds(
        build,
        st.sampled_from(schema.categories),
        st.lists(st.integers(0, 7), min_size=8, max_size=8),
    )


@given(data=st.data())
def test_parse_format_round_trip(toy_schema, data):
    s = data.draw(_tag_strategy(toy_schema))
    tag = toy_schema.parse(s)
    assert toy_schema.parse(format_tag(tag)) == tag
    assert format_tag(toy_schema.parse(format_tag(tag))) == format_tag(tag)


def test_schema_file_round_trip(toy_schema):
    lines = toy_schema.to_lines()
    again = TagSchema.from_lines(lines)
    assert again.to_lines() == lines


def test_schema_rejects_bad_lines():
    with pytest.raises(FormatError):
        TagSchema.from_lines(["nonsense here and more"])
    with pytest.raises(FormatError):
        TagSchema.from_lines(["category a", "category a"])
    with pytest.raises(FormatError):
        TagSchema.from_lines(["feature f "])


@pytest.mark.parametrize("lines, message", [
    (["feature case nom,nom,acc", "category subs case"],
     "line 1: feature case: value nom given twice"),
    (["feature case nom,acc", "category subs case,case"],
     "line 2: category subs: feature case given twice"),
])
def test_schema_rejects_duplicates(lines, message):
    """A value listed twice would shrink every floor share, and a feature
    listed twice would leave the category without a parsable tag."""
    with pytest.raises(FormatError, match=f"^my.schema: {message}$"):
        TagSchema.from_lines(lines, path="my.schema")


def test_schema_constructor_rejects_duplicates():
    with pytest.raises(FormatError, match="^feature case: value nom given twice$"):
        TagSchema({"case": ("nom", "nom", "acc")}, {"subs": ("case",)})
    with pytest.raises(FormatError, match="^category subs: feature case given twice$"):
        TagSchema({"case": ("nom", "acc")}, {"subs": ("case", "case")})


def test_schema_rejects_valueless_feature_and_unknown_lookup(toy_schema):
    with pytest.raises(FormatError, match="^feature f declares no values$"):
        TagSchema({"f": ()}, {})
    with pytest.raises(TagError, match="^unknown feature: nosuch$"):
        toy_schema.allowed_values("nosuch")


_SCHEMA_LINES = st.one_of(
    st.sampled_from([
        "feature case nom,acc", "feature num sg,pl", "feature case nom,nom",
        "feature f ", "feature f a,,b", "feature f a:b", "category subs case,num",
        "category subs case,case", "category subs nosuch", "category konj",
        "category", "category a b c", "# comment", "", "  ",
    ]),
    st.tuples(st.sampled_from(["feature", "category"]),
              st.text(alphabet="case,nom:=#<", max_size=5),
              st.text(alphabet="case,nom:=# \t", max_size=10)).map(" ".join),
    st.text(max_size=12),
)


@given(st.lists(_SCHEMA_LINES, max_size=8))
def test_schema_loader_fuzz(lines):
    """Only a ``GreektagError`` escapes; a schema that loads writes lines
    that load to the same schema, and every category has a tag that
    parses."""
    try:
        schema = TagSchema.from_lines(lines, path="f.schema")
    except GreektagError:
        return
    assert TagSchema.from_lines(schema.to_lines()).to_lines() == schema.to_lines()
    for cat, feats in schema.category_features.items():
        pairs = ",".join(f"{f}={schema.allowed_values(f)[0]}" for f in feats)
        tag = schema.parse(f"{cat}:{pairs}" if feats else cat)
        assert tag.category == cat and [f for f, _ in tag.features] == list(feats)


@pytest.fixture(scope="module")
def chain_schema():
    return TagSchema.from_lines(
        [
            "feature num sg,pl",
            "feature case nom,acc",
            "category n num,case",
            "category v num",
            "category k",
        ]
    )


@pytest.fixture(scope="module")
def chain_corpus(chain_schema):
    rows = [
        [("a", "n:num=sg,case=nom"), ("b", "v:num=sg"), ("c", "n:num=sg,case=acc")],
        [("a", "n:num=pl,case=nom"), ("b", "v:num=pl"), ("c", "n:num=pl,case=acc")],
        [("d", "k"), ("a", "n:num=sg,case=nom"), ("b", "v:num=sg")],
        [("a", "n:num=sg,case=nom"), ("b", "v:num=sg"), ("c", "n:num=sg,case=acc")],
        [("d", "k"), ("b", "v:num=pl"), ("c", "n:num=pl,case=acc")],
    ]
    return tagged_sequences(chain_schema, rows)


def test_chain_rule_identity_unsmoothed(chain_schema, chain_corpus):
    """Raw chain product == direct joint relative frequency, all triples."""
    model = rescored(train(chain_corpus, None, chain_schema), smooth=False)
    counts = model.stats.trigram_counts
    ctx = {}
    for (a, b, t), n in counts.items():
        ctx[(a, b)] = ctx.get((a, b), 0) + n
    for (a, b, t), n in counts.items():
        direct = n / ctx[(a, b)]
        chained = model.stats.chain_prob(t, (a, b))
        assert math.isclose(chained, direct, rel_tol=1e-12)


def test_chain_empty_features_reduces_to_category_prob(chain_schema, chain_corpus):
    model = rescored(train(chain_corpus, None, chain_schema), smooth=False)
    k = chain_schema.parse("k")
    # featureless tag: the chain is the bare category trigram probability;
    # 2 of the 5 sequences open with k
    assert model.stats.chain_prob(k, (BOUNDARY, BOUNDARY)) == 0.4
    v_sg = chain_schema.parse("v:num=sg")
    # v:num=sg never follows (BOUNDARY, k)
    assert model.stats.chain_prob(v_sg, (BOUNDARY, k)) == 0.0


def test_chain_prob_in_unit_interval(chain_schema, chain_corpus):
    model = train(chain_corpus, None, chain_schema)
    histories = [BOUNDARY] + all_tags(chain_schema)
    for h1 in histories[:4]:
        for h2 in histories[:4]:
            for t in all_tags(chain_schema):
                p = model.stats.chain_prob(t, (h2, h1))
                assert 0.0 <= p <= 1.0


def test_chain_sum_over_schema_smoothed(chain_schema, chain_corpus):
    """Smoothed: mass redistributes fully inside the schema (sum == 1)."""
    model = train(chain_corpus, None, chain_schema)
    tags = all_tags(chain_schema)
    k = chain_schema.parse("k")
    for history in [(BOUNDARY, BOUNDARY), (BOUNDARY, k), (k, k)]:
        total = sum(model.stats.chain_prob(t, history) for t in tags)
        assert abs(total - 1.0) <= 1e-9


def test_chain_sum_over_schema_raw_at_most_one(chain_schema, chain_corpus):
    model = rescored(train(chain_corpus, None, chain_schema), smooth=False)
    tags = all_tags(chain_schema)
    k = chain_schema.parse("k")
    for history in [(BOUNDARY, BOUNDARY), (BOUNDARY, k), (k, k)]:
        total = sum(model.stats.chain_prob(t, history) for t in tags)
        assert total <= 1.0 + 1e-9


def test_feature_factor_with_only_zero_weight_levels_is_uniform():
    """Fitted chain weights (1, 0, 0) leave an unseen history with only
    zero-weight levels: the feature factor is then uniform, not 0/0."""
    schema = TagSchema.from_lines(["feature f u,v", "category n f", "category k"])
    corpus = tagged_sequences(schema, [
        [("w", "k"), ("w", "n:f=u")], [("w", "k"), ("w", "n:f=u")],
        [("w", "k"), ("w", "k"), ("w", "n:f=v")], [("w", "k"), ("w", "k"), ("w", "n:f=v")],
    ])
    model = train(corpus, None, schema)
    assert model.stats.chain_weights == (1.0, 0.0, 0.0)
    n_u, n_v = schema.parse("n:f=u"), schema.parse("n:f=v")
    history = (n_u, n_u)  # never seen
    assert model.stats.chain_prob(n_u, history) == model.stats.chain_prob(n_v, history)
    total = sum(model.stats.chain_prob(t, history) for t in all_tags(schema))
    assert abs(total - 1.0) <= 1e-9


def test_tables_derive_bigrams_from_trigrams(chain_schema, chain_corpus):
    trigrams = {}
    for seq in chain_corpus:
        for key in _instances(seq.gold_tags):
            trigrams[key] = trigrams.get(key, 0) + 1
    tables = _Tables(trigrams)
    # the root prefix after a tag counts its occurrences as predecessor
    v_sg = chain_schema.parse("v:num=sg")
    occurrences = sum(n for (a, b, t), n in trigrams.items() if b == v_sg)
    assert tables.pre[2][(tables.tag_id[v_sg],)][ROOT] == occurrences


def test_stats_require_counts(chain_schema):
    from greektag.errors import ModelError

    with pytest.raises(ModelError):
        TransitionStats(chain_schema, _Tables({}))


def test_stats_reject_all_zero_chain_weights(chain_schema, chain_corpus):
    from greektag.errors import ModelError

    tables = train(chain_corpus, None, chain_schema).stats.tables
    with pytest.raises(ModelError, match="chain weights"):
        TransitionStats(chain_schema, tables, chain_weights=(0.0, 0.0, 0.0))


@pytest.mark.parametrize("weights", [(math.nan, 1.0, 1.0), (-1.0, 1.0, 1.0),
                                     (1.0, math.inf, 1.0), (0.5, 0.5), (1.0, 1.0, 1.0, 1.0)],
                         ids=["nan", "negative", "inf", "two", "four"])
def test_stats_reject_bad_chain_weight(chain_schema, chain_corpus, weights):
    from greektag.errors import ModelError

    tables = train(chain_corpus, None, chain_schema).stats.tables
    with pytest.raises(ModelError, match="chain weights"):
        TransitionStats(chain_schema, tables, chain_weights=weights)


@pytest.mark.parametrize("floor", [math.nan, -0.5, 2.0, math.inf])
def test_stats_reject_floor_outside_unit_interval(chain_schema, chain_corpus, floor):
    from greektag.errors import ModelError

    tables = train(chain_corpus, None, chain_schema).stats.tables
    for smoothed in (True, False):
        with pytest.raises(ModelError, match="floor"):
            TransitionStats(chain_schema, tables, smoothed=smoothed, floor=floor)


def _chain_oracle_cases():
    """(schema, corpus, tags to score, stride) for 200 random corpora,
    scoring every schema tag, and for the deep-chain corpus, scoring its
    observed tags plus a ``verf`` tag counted up to its last link and a
    tag of a category never counted; each history scores every
    stride-th tag, in turn."""
    rng = np.random.default_rng(31)
    for _ in range(200):
        schema, _, corpus, _ = random_corpus(rng)
        yield schema, corpus, all_tags(schema), 3
    schema = TagSchema.load(default_schema_path())
    corpus = read_annotated_corpus(_deep_chain_corpus(schema), schema)
    observed = sorted({t for seq in corpus for t in seq.gold_tags}, key=format_tag)
    partial = _partly_counted_verf(schema, observed)
    subs = schema.parse("subs:case=nom,num=sg,gend=masc")
    yield schema, corpus, observed + [partial, subs], 37


def test_chain_prob_matches_reference():
    """The one-lookup-per-link chain walk returns exactly the literal
    factor-by-factor product, smoothed (fitted weights, weights (1, 0, 0)
    and (0, 1, 0), floor 0) and raw, at orders 1-3, after unseen
    histories and for tags never counted."""
    for schema, corpus, tags, stride in _chain_oracle_cases():
        for smooth in (True, False):
            model = rescored(train(corpus, None, schema), smooth=smooth)
            stats = model.stats
            ref = _TagTables(stats.trigram_counts)
            uncounted = [t for t in tags if t not in stats.observed_tags]
            hist_tags = [BOUNDARY, *stats.observed_tags, *uncounted[-1:]]
            histories = [()] + [(h,) for h in hist_tags]
            histories += [(h2, h1) for h2 in hist_tags for h1 in hist_tags]
            variants = [stats]
            if smooth:
                variants += [
                    TransitionStats(schema, stats.tables, chain_weights=(1.0, 0.0, 0.0)),
                    TransitionStats(schema, stats.tables, chain_weights=(0.0, 1.0, 0.0)),
                    TransitionStats(schema, stats.tables, chain_weights=stats.chain_weights,
                                    floor=0.0),
                ]
            for v in variants:
                for i, history in enumerate(histories):
                    for t in tags[i % stride::stride]:
                        assert v.chain_prob(t, history) == reference_chain_prob(
                            ref, schema, t, history, smoothed=v.smoothed,
                            chain_weights=v.chain_weights, floor=v.floor,
                        ), (format_tag(t), history, v.chain_weights, v.floor)
