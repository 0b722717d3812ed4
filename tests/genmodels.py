"""Random toy models for decoder-oracle testing (seeded, deterministic),
and damaged file lines for loader fuzzing."""

import re

import numpy as np
from hypothesis import strategies as st

from greektag import RuleSet, Sequence, TagSchema, Token, train
from greektag.cli import default_schema_path
from greektag.tags import format_tag

from reference import all_tags, rescored


def tagged_sequences(schema, rows):
    """One gold-tagged ``Sequence`` per row of (word, tag string) pairs."""
    return [Sequence(tuple(Token(w, w, i) for i, (w, _) in enumerate(row)),
                     tuple(schema.parse(t) for _, t in row))
            for row in rows]


def _random_schema(rng):
    lines = []
    featured = rng.random() < 0.35
    two_features = featured and rng.random() < 0.5
    if featured:
        lines.append("feature f1 u,v")
    if two_features:
        lines.append("feature f2 p,q,r")
    n_cats = int(rng.integers(2, 5))
    for i in range(n_cats):
        if featured and i == 0:
            feats = "f1,f2" if two_features and rng.random() < 0.7 else "f1"
            lines.append(f"category c{i} {feats}")
        else:
            lines.append(f"category c{i}")
    return TagSchema.from_lines(lines)


def random_corpus(rng):
    """A random schema, optional suffix rules, a tagged training corpus
    and the vocabulary it draws from."""
    schema = _random_schema(rng)
    schema_tags = all_tags(schema)

    inflected = [t for t in schema_tags if t.features]
    rules = None
    vocab = [f"w{i}" for i in range(int(rng.integers(2, 7)))]
    if inflected and rng.random() < 0.5:
        rule_tags = [format_tag(t) for t in inflected[: max(1, len(inflected) // 2)]]
        rules = RuleSet.from_lines(
            ["as\tk\t" + " ".join(rule_tags)], schema
        )
        vocab = vocab + [w + "as" for w in vocab[:2]]

    sequences = []
    for _ in range(int(rng.integers(1, 7))):
        length = int(rng.integers(1, 9))
        tokens = []
        tags = []
        for i in range(length):
            word = vocab[int(rng.integers(0, len(vocab)))]
            tokens.append(Token(word, word, i))
            tags.append(schema_tags[int(rng.integers(0, len(schema_tags)))])
        sequences.append(Sequence(tuple(tokens), tuple(tags)))
    return schema, rules, sequences, vocab


def wide_corpus(rng, n_tags=32, sequences=30):
    """The built-in schema and a tagged corpus over ``n_tags`` of its
    tags drawn at random, whose words are mostly hapax legomena: the
    hapax prior, which is the candidate set of a word that matches no
    lexicon entry (there are no suffix rules), is about ``n_tags`` wide."""
    schema = TagSchema.load(default_schema_path())
    schema_tags = all_tags(schema)
    pool = [schema_tags[int(i)] for i in rng.choice(len(schema_tags), n_tags, replace=False)]
    corpus = []
    n_words = 0
    for _ in range(sequences):
        tokens = []
        tags = []
        for i in range(int(rng.integers(2, 9))):
            if rng.random() < 0.8:
                word = f"h{n_words}"
                n_words += 1
            else:
                word = f"w{int(rng.integers(0, 4))}"
            tokens.append(Token(word, word, i))
            tags.append(pool[int(rng.integers(0, n_tags))])
        corpus.append(Sequence(tuple(tokens), tuple(tags)))
    return schema, corpus


def random_instance(rng):
    """A trained toy model plus a token list to decode.

    Mixes featureless and feature-structured schemas, optional suffix
    rules, smoothed and raw estimation, and out-of-vocabulary tokens, so
    that every emission path of the decoder gets exercised.
    """
    schema, rules, sequences, vocab = random_corpus(rng)
    smooth = rng.random() < 0.8
    model = rescored(train(sequences, rules, schema), smooth=smooth)

    length = int(rng.integers(1, 7))
    tokens = []
    for i in range(length):
        if rng.random() < 0.85:
            word = vocab[int(rng.integers(0, len(vocab)))]
        else:
            word = f"oov{int(rng.integers(0, 3))}"
        tokens.append(Token(word, word, i))
    return model, tokens


def symmetric_tie_instance():
    """Two perfectly symmetric tags: every decode involves exact ties."""
    schema = TagSchema.from_lines(["category a", "category b"])
    a, b = schema.parse("a"), schema.parse("b")
    w = Token("w", "w", 0)
    w1 = Token("w", "w", 1)
    sequences = [
        Sequence((w, w1), (a, b)),
        Sequence((w, w1), (b, a)),
    ]
    model = train(sequences, None, schema)
    tokens = [Token("w", "w", i) for i in range(3)]
    return model, tokens


#: field values a damaged file may hold: non-finite, out-of-range and
#: empty numbers, stray separators and bits of other rows
_ODD_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1", "", "0", "1", "2.5", "x",
                     "-", ",", "=", "konj=1", "konj=nan", "a\tb", "[lexicon]", "<s>"]),
    st.text(max_size=4),
)


@st.composite
def mangled_lines(draw, lines):
    """``lines`` with one to three edits, each of which replaces one tab-
    or space-separated field, or the value after its last ``=``, by an
    odd value, or drops, repeats or inserts a line."""
    out = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        no = draw(st.integers(0, max(len(out) - 1, 0)))
        edit = draw(st.sampled_from(["field", "value", "drop", "repeat", "insert"]))
        if edit == "insert" or not out:
            out.insert(no, draw(_ODD_VALUES))
        elif edit == "drop":
            del out[no]
        elif edit == "repeat":
            out.insert(no, out[no])
        else:
            parts = re.split(r"([\t ])", out[no])  # fields at the even indices
            i = 2 * draw(st.integers(0, len(parts) // 2))
            head, eq, _ = parts[i].rpartition("=")
            parts[i] = (head + eq if edit == "value" else "") + draw(_ODD_VALUES)
            out[no] = "".join(parts)
    return out
