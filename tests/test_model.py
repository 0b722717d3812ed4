import copy
import hashlib
import io
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greektag import Model, ModelError, Sequence, TagSchema, Token, tag_corpus, train
from greektag.cli import default_schema_path
from greektag.errors import FormatError, GreektagError
from greektag.model import NEG_INF, _instances, count_sequences, fit_interpolation
from greektag.tags import BOUNDARY, ROOT, Tag, TransitionStats, _Tables
from greektag.text import read_annotated_corpus, tokenize, write_annotated_corpus

from genmodels import mangled_lines, random_corpus, tagged_sequences, wide_corpus
from reference import (
    all_tags,
    fit_interpolation_reference,
    reference_log_transition,
    rescored,
    transition_prob,
)


def test_trigram_counts_with_boundary_padding(abc_schema):
    model = train(tagged_sequences(abc_schema, [[("w1", "a"), ("w2", "b")]]), None, abc_schema)
    a, b = abc_schema.parse("a"), abc_schema.parse("b")
    assert model.stats.trigram_counts == {
        (BOUNDARY, BOUNDARY, a): 1,
        (BOUNDARY, a, b): 1,
    }


def test_lambdas_shift_down_when_trigrams_unique(abc_schema):
    corpus = tagged_sequences(abc_schema, [
        [("w", "a"), ("w", "b"), ("w", "c"), ("w", "a")],
        [("w", "b"), ("w", "a"), ("w", "a"), ("w", "c")],
        [("w", "c"), ("w", "c"), ("w", "b"), ("w", "b")],
    ])
    lambdas, _ = fit_interpolation(count_sequences([s.gold_tags for s in corpus])[1])
    assert lambdas[2] == 0.0
    assert abs(sum(lambdas) - 1.0) < 1e-12


def test_fit_interpolation_matches_reference(toy_corpus):
    """The leave-one-out index fit returns exactly the weights of the
    per-sequence-table reference, on the fixture and 1000 random corpora."""
    rng = np.random.default_rng(2024)
    corpora = [toy_corpus] + [random_corpus(rng)[2] for _ in range(1000)]
    for corpus in corpora:
        seqs = [s.gold_tags for s in corpus]
        assert fit_interpolation(count_sequences(seqs)[1]) == fit_interpolation_reference(seqs)


def test_training_counts_the_corpus_once(toy_corpus, toy_schema):
    """``fit_interpolation`` hands back the tables of ``count_sequences``
    exactly as it found them, so the same counts then score transitions;
    and ``train``'s trigram counts are those of the gold tags."""
    rng = np.random.default_rng(11)
    cases = [(toy_schema, toy_corpus)]
    cases += [(schema, corpus) for schema, _, corpus, _ in
              (random_corpus(rng) for _ in range(200))]
    for schema, corpus in cases:
        seqs = [s.gold_tags for s in corpus]
        tables, seq_counts = count_sequences(seqs)
        before = copy.deepcopy(vars(tables))
        fit_interpolation(seq_counts)
        assert vars(tables) == before
        expected = Counter(inst for tags in seqs for inst in _instances(tags))
        assert train(corpus, None, schema).stats.trigram_counts == expected


def test_retraining_is_deterministic(toy_corpus, toy_rules, toy_schema):
    m1 = train(toy_corpus, toy_rules, toy_schema)
    m2 = train(toy_corpus, toy_rules, toy_schema)
    assert m1.to_lines() == m2.to_lines()
    assert m1.lambdas == m2.lambdas


def test_unigram_weights_give_unigram_probability(abc_schema):
    corpus = tagged_sequences(abc_schema, [
        [("w", "a"), ("w", "b"), ("w", "a")],
        [("w", "a"), ("w", "c")],
    ])
    model = rescored(train(corpus, None, abc_schema), smooth=False, lambdas=(1.0, 0.0, 0.0))
    a = abc_schema.parse("a")
    c = abc_schema.parse("c")
    # unseen history: falls back to unigram relative frequencies 3/5 and 1/5
    assert transition_prob(model, a, c, c) == 3 / 5
    assert transition_prob(model, c, c, c) == 1 / 5


def test_pure_trigram_weights_give_trigram_mle(abc_schema):
    corpus = tagged_sequences(abc_schema, [
        [("w", "a"), ("w", "b"), ("w", "a"), ("w", "b"), ("w", "a")],
        [("w", "a"), ("w", "b"), ("w", "c")],
    ])
    model = rescored(train(corpus, None, abc_schema), smooth=False, lambdas=(0.0, 0.0, 1.0))
    a, b, c = (abc_schema.parse(x) for x in "abc")
    # history (a, b) occurs 3 times: twice followed by a, once by c
    assert transition_prob(model, a, b, a) == 2 / 3
    assert transition_prob(model, c, b, a) == 1 / 3
    assert transition_prob(model, b, b, a) == 0.0


def test_transition_distribution_sums_to_one(toy_model, toy_schema):
    tags = all_tags(toy_schema)
    observed = toy_model.stats.observed_tags
    histories = [(BOUNDARY, BOUNDARY), (BOUNDARY, observed[0])]
    histories += [(observed[i], observed[j]) for i in range(3) for j in range(3)]
    # unobserved histories, including ones never seen in any corpus
    histories += [(observed[0], tags[-1]), (tags[-1], tags[-2])]
    for h2, h1 in histories:
        total = sum(transition_prob(toy_model, t, h1, h2) for t in tags)
        assert abs(total - 1.0) <= 1e-9, (h2, h1, total)


def test_transition_strictly_positive_when_unigram_weight_positive(toy_model, toy_schema):
    assert toy_model.lambdas[0] > 0
    observed = toy_model.stats.observed_tags
    for t in all_tags(toy_schema):
        assert transition_prob(toy_model, t, observed[0], observed[1]) > 0.0


def test_smoothing_endpoint_matches_unigram(toy_corpus, toy_rules, toy_schema):
    uni = rescored(train(toy_corpus, toy_rules, toy_schema), lambdas=(1.0, 0.0, 0.0))
    tags = all_tags(toy_schema)
    observed = uni.stats.observed_tags
    for t in tags[:20]:
        expected = uni.stats.chain_prob(t, ())
        assert transition_prob(uni, t, observed[0], observed[1]) == pytest.approx(expected, abs=0)


def test_sequence_log_prob_empty_is_zero(toy_model):
    assert toy_model.sequence_log_prob([], []) == 0.0


def test_sequence_log_prob_single_token(toy_model, toy_schema):
    tok = Token("λόγος", "λόγος", 0)
    tag = toy_schema.parse("subs:case=nom,num=sg,gend=masc")
    expected = (
        reference_log_transition(toy_model, tag, BOUNDARY, BOUNDARY)
        + math.log(dict(toy_model.lexical_probs("λόγος"))[tag])
    )
    assert toy_model.sequence_log_prob([tok], [tag]) == expected


def test_sequence_log_prob_matches_hand_product(toy_model, toy_schema):
    words = ["παιδεύομεν", "λόγους", "."]
    tags = [
        toy_schema.parse("verf:pers=1,num=pl,mood=ind,tense=pres,voice=act"),
        toy_schema.parse("subs:case=acc,num=pl,gend=masc"),
        toy_schema.parse("punct"),
    ]
    tokens = [Token(w, w, i) for i, w in enumerate(words)]
    product = 1.0
    history = (BOUNDARY, BOUNDARY)
    for tok, tag in zip(tokens, tags):
        product *= transition_prob(toy_model, tag, history[1], history[0])
        product *= dict(toy_model.lexical_probs(tok.norm))[tag]
        history = (history[1], tag)
    got = toy_model.sequence_log_prob(tokens, tags)
    assert math.isclose(math.exp(got), product, rel_tol=1e-12)


def test_sequence_log_prob_zero_factor_gives_neg_inf(toy_corpus, toy_rules, toy_schema):
    raw = rescored(train(toy_corpus, toy_rules, toy_schema), smooth=False)
    tok = Token("λόγος", "λόγος", 0)
    punct = toy_schema.parse("punct")  # zero emission for this word
    assert raw.sequence_log_prob([tok], [punct]) == NEG_INF


def test_transition_blocks_are_cached_read_only_rows(toy_model, toy_corpus, toy_rules,
                                                     toy_schema):
    """Every block equals ``reference_log_transition`` on its tags byte
    for byte, and ``log_transition`` agrees on a cell: on the smoothed
    toy model and on a wide-schema model, and on rescorings of each, raw
    (with ``-inf`` cells) and with zero interpolation weights.  The
    blocks run over a sequence's candidate sets from the boundary on,
    plus a block of one h2 (X = 1); on the wide models, a block of
    several h2 where one h1 follows both a counted and an uncounted
    (h2, h1) history, and on the trained wide model the hapax-width
    block over the hapax-prior candidates of an unknown word."""
    toy = train(toy_corpus, toy_rules, toy_schema)
    wide_schema, wide_seqs = wide_corpus(np.random.default_rng(17))
    wide = train(wide_seqs, None, wide_schema)
    models = [toy_model, rescored(toy, smooth=False), wide, rescored(wide, smooth=False)]
    for trained in (toy, wide):
        for lambdas in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.0, 0.5)):
            models += [rescored(trained, lambdas=lambdas),
                       rescored(trained, smooth=False, lambdas=lambdas)]
    cells = []
    for model in models:
        boundary = ([BOUNDARY], (model.boundary_id,))
        words = ("λόγους", "κωλύσαντος", "ζζζ") if model.schema is toy_schema else ("w1", "oov")
        cands = [boundary, boundary] + [model.candidates(w)[:2] for w in words]
        triples = list(zip(cands, cands[1:], cands[2:]))
        last = cands[-1]
        triples.append((([last[0][-1]], last[1][-1:]), last, last))  # X = 1
        if model.schema is wide_schema:
            triples.append(_mixed_history_block(model))
        if model is wide:
            assert len(last[1]) > 30  # the hapax prior
            triples.append((last, last, last))
        for (tags2, ids2), (tags1, ids1), (tags, ids) in triples:
            block = model.transition_block(ids2, ids1, ids)
            assert block.shape == (len(ids2), len(ids1), len(ids))
            assert model.transition_block(ids2, ids1, ids) is block
            expected = np.array([reference_log_transition(model, t, h1, h2)
                                 for h2 in tags2 for h1 in tags1 for t in tags], np.float64)
            assert block.tobytes() == expected.tobytes()
            assert model.log_transition(tags[-1], tags1[-1], tags2[-1]) == expected[-1]
            cells.extend(block.ravel())
    assert NEG_INF in cells and any(math.isfinite(c) for c in cells)
    with pytest.raises(ValueError, match="read-only"):
        block[0, 0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        toy_model.candidates("παύει")[2][0] = 0.0


def _mixed_history_block(model):
    """A block triple ((tags2, ids2), (tags1, ids1), (tags, ids)) over
    observed tags whose first h1 follows one or two h2 after which
    (h2, h1) was counted, then two after which it was not."""
    observed = model.stats.observed_tags
    counted = {(a, b) for a, b, _ in model.stats.trigram_counts}
    h1 = next(b for b in observed if any((a, b) in counted for a in observed))
    after = [a for a in observed if (a, h1) in counted][:2]
    not_after = [a for a in observed if (a, h1) not in counted][:2]
    assert after and len(not_after) == 2
    tags2, tags1, tags = after + not_after, [h1, observed[-1]], observed[:5]
    intern = model.stats.tables.intern
    return tuple((list(group), tuple(map(intern, group))) for group in (tags2, tags1, tags))


def test_cold_blocks_walk_each_counted_history_once(monkeypatch):
    """A cold block over the W hapax-prior candidates of an unknown word
    as h2, h1 and t walks the order-3 chain once per counted (h2, h1)
    pair among its W² histories, and not at all with l3 = 0; every other
    pair shares its h1's history-free row.  The order-1 chain P(t) is
    walked once per distinct tag per model: not again for a second
    block, and again for another model on the same counts."""
    schema, seqs = wide_corpus(np.random.default_rng(5))
    model = train(seqs, None, schema)
    walked = []  # the history of each chain walk, as tag ids
    hist_of = {}  # id of a counted history's prefix counts -> that history
    counts_after, row = _Tables.counts_after, TransitionStats.row

    def spy_counts_after(self, hist):
        counts = counts_after(self, hist)
        hist_of[id(counts)] = hist
        return counts

    def spy_row(self, counts, chains):
        if counts.get(ROOT, 0):  # a history that was counted: a walk
            walked.append(hist_of[id(counts)])
        return row(self, counts, chains)

    monkeypatch.setattr(_Tables, "counts_after", spy_counts_after)
    monkeypatch.setattr(TransitionStats, "row", spy_row)
    tags, ids = model.candidates("oov")[:2]
    intern = model.stats.tables.intern
    pairs = {(intern(a), intern(b)) for a, b, _ in model.stats.trigram_counts
             if a in tags and b in tags}
    assert 0 < len(pairs) < len(ids) ** 2
    model.transition_block(ids, ids, ids)
    assert Counter(h for h in walked if len(h) == 2) == Counter(pairs)
    assert walked.count(()) == len(ids)
    model.transition_block(ids[:3], ids[1:], ids[::-1])
    assert walked.count(()) == len(ids)
    walked.clear()
    rescored(model, lambdas=(0.5, 0.5, 0.0)).transition_block(ids, ids, ids)
    assert not [h for h in walked if len(h) == 2]
    assert walked.count(()) == len(ids)


def test_sequence_log_prob_length_mismatch(toy_model, toy_schema):
    with pytest.raises(ModelError):
        toy_model.sequence_log_prob([Token("a", "a", 0)], [])


def test_train_rejects_empty_corpus(toy_schema):
    with pytest.raises(ModelError):
        train([], None, toy_schema)


def test_train_rejects_untagged_corpus(toy_schema):
    seq = Sequence((Token("a", "a", 0),))
    with pytest.raises(ModelError):
        train([seq], None, toy_schema)


def test_model_rejects_bad_lambdas(toy_model):
    with pytest.raises(ModelError):
        Model(toy_model.schema, toy_model.stats, (0.5, 0.2, 0.2), toy_model.lexicon)


@pytest.mark.parametrize("lambdas", [(math.nan, 0.5, 0.5), (0.5, 0.5, math.nan)],
                         ids=["first", "last"])
def test_model_rejects_nan_lambdas(toy_model, lambdas):
    with pytest.raises(ModelError, match="interpolation weights"):
        Model(toy_model.schema, toy_model.stats, lambdas, toy_model.lexicon)


@pytest.mark.parametrize("lambdas", [(0.5, 0.5), (0.25, 0.25, 0.25, 0.25)],
                         ids=["two", "four"])
def test_model_rejects_lambdas_of_wrong_length(toy_model, lambdas):
    """Weights that sum to 1 but are not one per order are an error at
    construction, not at the first transition scored."""
    with pytest.raises(ModelError, match="interpolation weights"):
        Model(toy_model.schema, toy_model.stats, lambdas, toy_model.lexicon)


@pytest.mark.parametrize("smooth", [True, False], ids=["smoothed", "raw"])
def test_model_file_round_trip(toy_corpus, toy_rules, toy_schema, smooth, tmp_path):
    model = rescored(train(toy_corpus, toy_rules, toy_schema), smooth=smooth)
    p1 = tmp_path / "m1"
    p2 = tmp_path / "m2"
    model.save(p1)
    again = Model.load(p1)
    again.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert again.lambdas == model.lambdas
    assert again.stats.trigram_counts == model.stats.trigram_counts


def test_model_with_hash_form_round_trips(toy_corpus, toy_rules, toy_schema, tmp_path):
    """A corpus row ``#<TAB>punct`` is a token, not a comment: the model
    trained on it has a ``#`` full form, and its file loads to the same
    lines."""
    corpus = toy_corpus + read_annotated_corpus(
        io.StringIO("λόγος\tsubs:case=nom,num=sg,gend=masc\n#\tpunct\n.\tpunct\n"), toy_schema)
    assert [t.surface for t in corpus[-1].tokens] == ["λόγος", "#", "."]
    model = train(corpus, toy_rules, toy_schema)
    assert "#" in model.lexicon.fullforms
    path = tmp_path / "m"
    model.save(path)
    assert Model.load(path).to_lines() == model.to_lines()


def test_comment_lines_load_in_every_section(toy_model, tmp_path):
    """A ``#`` comment line loads in every section of a model file, the
    ``[trigrams]`` section included, and the model reads back to the
    same lines."""
    lines = toy_model.to_lines()
    for section in ("[schema]", "[rules]", "[trigrams]", "[lexicon]"):
        at = lines.index(section) + 1
        lines[at:at] = ["# a comment"]
    path = tmp_path / "m"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert Model.load(path).to_lines() == toy_model.to_lines()


#: sha256 of the model file trained on ``_deep_chain_corpus()`` with the
#: built-in schema
DEEP_CHAIN_MODEL_SHA256 = "468cac6c15bc29ffc0513a238d7ffba8d95ee978cd7fe7f79e9758ca775c9239"


def _deep_chain_corpus(schema, seed=5, sequences=40):
    """Seeded tagged text over the built-in schema's categories with the
    longest feature chains (verf, part, pepn).  Each feature takes one of
    its first two values, so chain prefixes of every depth recur."""
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(12)]
    lines = []
    for _ in range(sequences):
        for _ in range(rng.randint(2, 7)):
            cat = rng.choice(("verf", "part", "pepn"))
            pairs = [f"{f}={rng.choice(schema.allowed_values(f)[:2])}"
                     for f in schema.features_of(cat)]
            lines.append(f"{rng.choice(words)}\t{cat}:{','.join(pairs)}")
        lines.append("")
    return lines


def test_train_deep_chain_model_file_is_golden(tmp_path):
    schema = TagSchema.load(default_schema_path())
    corpus = read_annotated_corpus(_deep_chain_corpus(schema), schema)
    train(corpus, None, schema).save(tmp_path / "deep.model")
    digest = hashlib.sha256((tmp_path / "deep.model").read_bytes()).hexdigest()
    assert digest == DEEP_CHAIN_MODEL_SHA256


def test_model_load_errors(tmp_path):
    bad = tmp_path / "bad"
    bad.write_text("not a model\n")
    with pytest.raises(FormatError):
        Model.load(bad)
    truncated = tmp_path / "trunc"
    truncated.write_text("greektag-model 1\nlambdas 1.0 0.0 0.0\n")
    with pytest.raises(FormatError):
        Model.load(truncated)


@settings(deadline=None)
@given(data=st.data())
def test_model_loader_fuzz(toy_model, tmp_path_factory, data):
    """Only a ``GreektagError`` escapes from loading a damaged toy model
    file, and a model that loads saves a file that loads to the same
    model."""
    lines = data.draw(mangled_lines(toy_model.to_lines()))
    path = tmp_path_factory.getbasetemp() / "fuzz.model"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogatepass"))
    try:
        model = Model.load(path)
    except GreektagError:
        return
    model.save(path)
    assert Model.load(path).to_lines() == model.to_lines()


def _transition_lines(model, tags, uncounted, stride=11):
    """``repr`` of ``transition_prob`` and of ``chain_prob`` at
    orders 1-3, for every tag of ``tags`` after histories over BOUNDARY,
    the observed tags and ``uncounted``, a schema tag that was never
    counted; each history pair scores every ``stride``-th tag, in turn,
    to keep it quick."""
    observed = model.stats.observed_tags
    hist_tags = [BOUNDARY, *observed, uncounted]
    stats = model.stats
    lines = [repr(stats.chain_prob(t, ())) for t in tags]
    pairs = [(h2, h1) for h2 in hist_tags for h1 in hist_tags]
    for i, (h2, h1) in enumerate(pairs):
        for t in tags[i % stride::stride]:
            lines.append(" ".join(map(repr, (
                transition_prob(model, t, h1, h2),
                stats.chain_prob(t, (h2, h1)),
                stats.chain_prob(t, (h1,)),
            ))))
    return lines


def _toy_transition_lines(model):
    """``_transition_lines`` over every toy schema tag."""
    tags = all_tags(model.schema)
    observed = model.stats.observed_tags
    return _transition_lines(model, tags, next(t for t in reversed(tags) if t not in observed))


#: sha256 of ``_transition_lines`` over the toy model, smoothed then raw
TOY_TRANSITION_SHA256 = "cc2b8e4a33623e834cf5b6dbd63492eb0ff6db7006784cd29ccfa7209f095b5d"


def test_transition_probabilities_are_golden(toy_model, toy_corpus, toy_rules, toy_schema):
    raw = rescored(train(toy_corpus, toy_rules, toy_schema), smooth=False)
    lines = _toy_transition_lines(toy_model) + _toy_transition_lines(raw)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == TOY_TRANSITION_SHA256


def _partly_counted_verf(schema, observed):
    """The first of the ``format_tag``-sorted ``observed`` ``verf`` tags with
    its last feature set to its last value: a deep-chain tag never
    counted, whose chain is counted up to its last link."""
    verf = next(t for t in observed if t.category == "verf")
    last, _ = verf.features[-1]
    tag = Tag("verf", verf.features[:-1] + ((last, schema.allowed_values(last)[-1]),))
    assert tag not in observed
    return tag


def _deep_transition_lines(model):
    """``_transition_lines`` over the observed tags of a deep-chain model
    plus ``_partly_counted_verf``."""
    observed = model.stats.observed_tags
    uncounted = _partly_counted_verf(model.schema, observed)
    return _transition_lines(model, [*observed, uncounted], uncounted, stride=29)


#: sha256 of ``_deep_transition_lines`` over the model trained on
#: ``_deep_chain_corpus()`` with the built-in schema, smoothed then raw
DEEP_TRANSITION_SHA256 = "fa4a3c9e0e9d098c2fa4a8c31d46f92614d3c54c8950a26f0a27be8ca4ce73a2"


def test_deep_chain_transition_probabilities_are_golden():
    schema = TagSchema.load(default_schema_path())
    corpus = read_annotated_corpus(_deep_chain_corpus(schema), schema)
    lines = []
    for smooth in (True, False):
        lines += _deep_transition_lines(rescored(train(corpus, None, schema), smooth=smooth))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DEEP_TRANSITION_SHA256


def test_scoring_leaves_the_model_file_unchanged(toy_corpus, toy_rules, toy_schema,
                                                 fixtures_dir):
    """Tagging text and scoring tags the corpus never carried changes
    nothing that the model file holds."""
    model = train(toy_corpus, toy_rules, toy_schema)
    before = model.to_lines()
    for path in sorted((fixtures_dir / "texts").glob("*.txt")):
        tag_corpus(model, tokenize(path.read_text(encoding="utf-8")))
    tags = all_tags(toy_schema)
    for t in tags:
        transition_prob(model, t, tags[-1], BOUNDARY)
        transition_prob(model, t, t, tags[0])
    assert len(model.stats.tables.tag_id) == len(tags) + 1  # BOUNDARY too
    assert model.to_lines() == before


#: sha256 of the tagged output of ``_deep_chain_text`` with the smoothed
#: and the raw model trained on ``_deep_chain_corpus()`` and the built-in
#: schema, each with exact search and then ``beam=4``
DEEP_CHAIN_TAGGED_SHA256 = "f635ed059aa06c0d504480773cb0992219a505713cf462569ab1febda7ead553"


def _deep_chain_text():
    """Every word of ``_deep_chain_corpus`` in a fixed order, with an
    unknown word among them, whose candidates are the whole hapax prior."""
    words = [f"w{(7 * i) % 12}" for i in range(12)]
    return " ".join(words[:5]) + " ξένος " + " ".join(words[5:]) + " w3 w3 ."


def test_deep_chain_tagged_output_is_golden():
    """Candidate order and the tie-break among multi-feature tags decide
    this output: the raw model scores exact ties on the unknown word."""
    schema = TagSchema.load(default_schema_path())
    corpus = read_annotated_corpus(_deep_chain_corpus(schema), schema)
    digest = hashlib.sha256()
    for smooth in (True, False):
        model = rescored(train(corpus, None, schema), smooth=smooth)
        for beam in (0, 4):
            out = io.StringIO()
            write_annotated_corpus(out, tag_corpus(model, tokenize(_deep_chain_text()), beam))
            digest.update(f"smoothed {smooth} beam {beam}\n{out.getvalue()}".encode())
    assert digest.hexdigest() == DEEP_CHAIN_TAGGED_SHA256
