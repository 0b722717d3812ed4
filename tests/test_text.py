import copy
import io
import pickle

import pytest
from hypothesis import given, strategies as st

from greektag import (
    FormatError,
    GreektagError,
    Sequence,
    TagSchema,
    Token,
    normalize,
    read_annotated_corpus,
    tag_corpus,
    tokenize,
    write_annotated_corpus,
)


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_whitespace_split():
    seqs = tokenize("a b.")
    assert len(seqs) == 1
    assert [t.surface for t in seqs[0].tokens] == ["a", "b", "."]


def test_tokenize_two_sentences():
    seqs = tokenize("x. y.")
    assert [len(s) for s in seqs] == [2, 2]
    assert [t.surface for t in seqs[0].tokens] == ["x", "."]
    assert [t.surface for t in seqs[1].tokens] == ["y", "."]
    # a chunk met again is split once per call, and closes its sequence each time
    seqs = tokenize("Λόγος. Λόγος.")
    assert [s.tokens for s in seqs] == [(Token("Λόγος", "λόγος", 0), Token(".", ".", 1))] * 2


def test_tokenize_strips_punctuation():
    seqs = tokenize("«καί», ἔφη.")
    surfaces = [t.surface for s in seqs for t in s.tokens]
    assert surfaces == ["«", "καί", "»", ",", "ἔφη", "."]


def test_tokenize_greek_question_mark_is_boundary():
    seqs = tokenize("τίς; καί")
    assert [len(s) for s in seqs] == [2, 1]


def test_token_is_an_immutable_named_record():
    tok = tokenize("Λόγος")[0].tokens[0]
    assert (tok.surface, tok.norm, tok.index) == ("Λόγος", "λόγος", 0)
    assert tok == Token("Λόγος", "λόγος", 0) == ("Λόγος", "λόγος", 0)
    assert hash(tok) == hash(Token("Λόγος", "λόγος", 0))
    assert repr(tok) == "Token(surface='Λόγος', norm='λόγος', index=0)"
    with pytest.raises(AttributeError):
        tok.index = 1
    for again in (pickle.loads(pickle.dumps(tok)), copy.copy(tok), copy.deepcopy(tok)):
        assert type(again) is Token and again == tok and again.index == 0


def test_token_indices_are_contiguous():
    for seq in tokenize("ἡ μὲν οὖν. ὁ δέ."):
        assert [t.index for t in seq.tokens] == list(range(len(seq)))


@given(st.text())
def test_tokenize_preserves_nonspace_characters(text):
    surfaces = "".join(t.surface for s in tokenize(text) for t in s.tokens)
    assert surfaces == "".join(text.split())


def test_normalize_lowercases_with_final_sigma():
    assert normalize("ΛΟΓΟΣ") == "λογος"


def test_normalize_keeps_accents_by_default():
    assert normalize("λόγος") == "λόγος"


@given(st.text())
def test_normalize_idempotent(s):
    once = normalize(s)
    assert normalize(once) == once


def test_norm_nonempty_for_lettered_surface():
    for seq in tokenize("Ἄν θρωπος ᾖ X."):
        for tok in seq.tokens:
            if any(c.isalpha() for c in tok.surface):
                assert tok.norm


def test_sequence_rejects_tag_length_mismatch(toy_schema):
    tok = Token("a", "a", 0)
    with pytest.raises(ValueError):
        Sequence((tok,), (toy_schema.parse("konj"), toy_schema.parse("konj")))


def test_read_empty_corpus(toy_schema):
    assert read_annotated_corpus(io.StringIO(""), toy_schema) == []


def test_read_two_line_sequence(toy_schema):
    text = "w1\tsubs:case=nom,num=sg,gend=masc\nw2\tverf:pers=1,num=pl,mood=ind,tense=pres,voice=act\n\n"
    seqs = read_annotated_corpus(io.StringIO(text), toy_schema)
    assert len(seqs) == 1 and len(seqs[0]) == 2
    assert seqs[0].gold_tags[0].category == "subs"


def test_read_three_sequence_fixture(toy_corpus):
    assert len(toy_corpus) == 12
    assert [len(s) for s in toy_corpus[:3]] == [4, 3, 5]
    assert all(s.gold_tags is not None for s in toy_corpus)


def test_read_reports_line_number_on_bad_field_count(toy_schema):
    with pytest.raises(FormatError, match="line 2"):
        read_annotated_corpus(io.StringIO("a\tkonj\nbad line\n"), toy_schema)


def test_read_reports_bad_tag_string(toy_schema):
    with pytest.raises(FormatError, match="nosuch"):
        read_annotated_corpus(io.StringIO("a\tnosuch\n"), toy_schema)


@pytest.mark.parametrize("surface", ["", "a b", " a", "a\u00a0b", "λόγος,", "«a", "..."],
                         ids=["empty", "space", "leading-space", "nbsp",
                              "trailing-punct", "leading-punct", "punct-run"])
def test_read_rejects_surface_no_token_has(toy_schema, surface):
    """``tokenize`` never yields an empty token, one with whitespace, or
    one longer than a character that starts or ends with punctuation.
    A surface that recurs is rejected at its first line."""
    with pytest.raises(FormatError, match="line 2: surface"):
        read_annotated_corpus(io.StringIO(f"a\tkonj\n{surface}\tnega\n"), toy_schema)
    with pytest.raises(FormatError, match="line 3: surface"):
        read_annotated_corpus(io.StringIO(f"a\tkonj\n\n{surface}\tnega\n{surface}\tnega\n"),
                              toy_schema)


def test_read_accepts_surface_tokenize_yields(toy_schema):
    """A lone punctuation character and inner punctuation stay one token."""
    assert [t.surface for t in tokenize("ἀλλ'οὐ ;")[0].tokens] == ["ἀλλ'οὐ", ";"]
    seqs = read_annotated_corpus(io.StringIO("ἀλλ'οὐ\tnega\n;\tpunct\n"), toy_schema)
    assert [t.surface for t in seqs[0].tokens] == ["ἀλλ'οὐ", ";"]


def test_read_skips_comments_and_extra_blank_lines(toy_schema):
    text = "# c\n\n\na\tkonj\n\n\n# c2\nb\tkonj\n"
    seqs = read_annotated_corpus(io.StringIO(text), toy_schema)
    assert [len(s) for s in seqs] == [1, 1]


def test_hash_token_survives_tag_write_read(toy_model, toy_schema):
    """A ``#`` token is tagged, written as ``#<TAB>tag`` and read back as a
    token: a line is a comment only when it holds no tab."""
    tagged = tag_corpus(toy_model, tokenize("λόγος # λόγος ."))
    assert [t.surface for t in tagged[0].tokens] == ["λόγος", "#", "λόγος", "."]
    buf = io.StringIO()
    write_annotated_corpus(buf, tagged)
    assert "#\tpunct\n" in buf.getvalue()
    assert read_annotated_corpus(io.StringIO(buf.getvalue()), toy_schema) == tagged


def test_read_rejects_empty_feature_list(toy_schema):
    with pytest.raises(FormatError, match="line 2: bad tag 'punct:': empty feature list"):
        read_annotated_corpus(io.StringIO("a\tkonj\n.\tpunct:\n"), toy_schema)


_TAG_STRINGS = st.one_of(
    st.sampled_from([
        "konj", " punct", "punct:", ":", "konj,", "nosuch", "", "=",
        "subs:case=nom,num=sg,gend=masc", "subs:gend=masc,case=nom,num=sg",
        "subs:case=nom", "subs:case=nom,num=sg,gend=masc,", "subs:case=,num=sg,gend=masc",
        "subs:case=nom,case=gen,num=sg,gend=masc", "verf:pers=9",
        "verf:pers=1,num=pl,mood=ind,tense=pres,voice=act",
    ]),
    st.text(alphabet="subs:case=nom,gendpuct \t", max_size=24),
)
_SURFACES = st.one_of(st.sampled_from(["λόγος", "a", ".", ";", "«a", "a b", "", "#"]),
                      st.text(max_size=4))
_LINES = st.one_of(
    st.tuples(_SURFACES, _TAG_STRINGS).map("\t".join),
    st.sampled_from(["", "  ", "# comment", "one-field", "a\tkonj\tkonj"]),
    st.text(max_size=8),
)


@given(st.lists(_LINES, max_size=12))
def test_read_annotated_corpus_fuzz(toy_schema, lines):
    """Only a ``GreektagError`` escapes, and reading the same text again
    with the same schema, its tags memoized, or with a fresh one gives
    equal sequences, or the same error at the same line."""
    text = "\n".join(lines) + "\n"
    fresh = TagSchema(toy_schema.feature_values, toy_schema.category_features)
    outcomes = []
    for schema in (toy_schema, toy_schema, fresh):
        try:
            outcomes.append(read_annotated_corpus(io.StringIO(text), schema, path="f.tag"))
        except GreektagError as exc:
            outcomes.append((type(exc), str(exc), getattr(exc, "line", None)))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_corpus_round_trip(toy_corpus, toy_schema):
    buf = io.StringIO()
    write_annotated_corpus(buf, toy_corpus)
    first = buf.getvalue()
    again = read_annotated_corpus(io.StringIO(first), toy_schema)
    assert again == toy_corpus
    buf2 = io.StringIO()
    write_annotated_corpus(buf2, again)
    assert buf2.getvalue() == first


class _CountingWriter(io.StringIO):
    writes = 0

    def write(self, s):
        self.writes += 1
        return super().write(s)


def test_write_is_one_call_with_nothing_written_on_error(toy_corpus):
    """The whole corpus goes out in one write; a sequence without tags
    raises before anything is written, even after tagged sequences."""
    buf = _CountingWriter()
    write_annotated_corpus(buf, toy_corpus)
    assert buf.writes == 1
    buf = _CountingWriter()
    with pytest.raises(ValueError, match="without tags"):
        write_annotated_corpus(buf, [toy_corpus[0], Sequence(toy_corpus[1].tokens)])
    assert (buf.writes, buf.getvalue()) == (0, "")
