from collections import Counter

import numpy as np
import pytest

from greektag import (
    Model,
    ModelError,
    Sequence,
    SearchSpaceError,
    TagSchema,
    Token,
    tag_sequence,
    tag_text,
    train,
)
from greektag import _viterbi
from greektag.cli import default_schema_path
from greektag.decode import tag_corpus
from greektag.tags import format_tag
from greektag.text import read_annotated_corpus, tokenize

from genmodels import random_corpus, random_instance, symmetric_tie_instance
from reference import _viterbi_loops, brute_force_best, reference_increments
from test_model import _deep_chain_corpus


def test_empty_input(toy_model):
    assert tag_sequence(toy_model, []) == []
    assert brute_force_best(toy_model, []) == []
    assert tag_text(toy_model, "") == []


def test_single_token_point_mass(toy_model, toy_schema):
    tok = Token("καί", "καί", 0)
    assert tag_sequence(toy_model, [tok]) == [toy_schema.parse("konj")]


def test_trellis_bound(toy_model, monkeypatch):
    """A trellis of exactly ``MAX_TRELLIS_CELLS`` increments decodes; one
    cell fewer raises, naming the token that crosses the bound."""
    from greektag import decode

    tokens = [Token(w, w, i) for i, w in enumerate(["παύει", "λόγους", "κωλύσαντος"])]
    widths = [1, 1] + [len(toy_model.lexical_probs(t.norm)) for t in tokens]
    cells = sum(widths[k] * widths[k + 1] * widths[k + 2] for k in range(len(tokens)))
    monkeypatch.setattr(decode, "MAX_TRELLIS_CELLS", cells)
    assert len(tag_sequence(toy_model, tokens)) == 3
    monkeypatch.setattr(decode, "MAX_TRELLIS_CELLS", cells - 1)
    with pytest.raises(SearchSpaceError, match="token 3 of the sequence .'κωλύσαντος'."):
        tag_sequence(toy_model, tokens)


def test_known_sentence(toy_model, toy_schema):
    seq = Sequence(tuple(Token(w, w, i) for i, w in enumerate(
        ["παιδεύομεν", "λόγους", "."])))
    tags = tag_sequence(toy_model, seq.tokens)
    assert [format_tag(t) for t in tags] == [
        "verf:pers=1,num=pl,mood=ind,tense=pres,voice=act",
        "subs:case=acc,num=pl,gend=masc",
        "punct",
    ]


def test_oracle_equivalence_quick():
    rng = np.random.default_rng(20240817)
    for _ in range(150):
        model, tokens = random_instance(rng)
        assert tag_sequence(model, tokens) == brute_force_best(model, tokens)


def test_oracle_equivalence_on_exact_ties():
    model, tokens = symmetric_tie_instance()
    got = tag_sequence(model, tokens)
    oracle = brute_force_best(model, tokens)
    assert got == oracle
    # the tie really exists: flipping both tags scores identically
    a, b = sorted(model.stats.observed_tags, key=format_tag)
    flipped = [b if t == a else a for t in got]
    assert model.sequence_log_prob(tokens, got) == model.sequence_log_prob(tokens, flipped)
    # and the lexicographically smaller sequence won
    assert [format_tag(t) for t in got] <= [format_tag(t) for t in flipped]


def test_optimality_certificate(toy_model):
    rng = np.random.default_rng(3)
    tokens = [Token(w, w, i) for i, w in enumerate(
        ["λόγος", "παύει", "τέχνην", "."])]
    best = tag_sequence(toy_model, tokens)
    best_score = toy_model.sequence_log_prob(tokens, best)
    candidates = [
        [t for t, _ in toy_model.lexical_probs(tok.norm)] for tok in tokens
    ]
    for _ in range(100):
        perturbed = list(best)
        pos = int(rng.integers(0, len(tokens)))
        pool = candidates[pos]
        perturbed[pos] = pool[int(rng.integers(0, len(pool)))]
        assert toy_model.sequence_log_prob(tokens, perturbed) <= best_score


def test_two_sentences_decode_independently(toy_model):
    text = "λόγος παύει. παιδεύομεν λόγους."
    pairs = tag_text(toy_model, text)
    from greektag.text import tokenize

    seqs = tokenize(text)
    manual = []
    for seq in seqs:
        manual.extend(zip(seq.tokens, tag_sequence(toy_model, seq.tokens)))
    assert pairs == manual


def test_tag_corpus_fills_tags(toy_model):
    from greektag.text import tokenize

    seqs = tokenize("λόγος παύει.")
    tagged = tag_corpus(toy_model, seqs)
    assert len(tagged) == 1
    assert tagged[0].gold_tags is not None
    assert len(tagged[0].gold_tags) == len(tagged[0].tokens)


def test_determinism(toy_model):
    tokens = [Token(w, w, i) for i, w in enumerate(
        ["κωλύσαντος", "λόγου", "παιδεύεις"])]
    first = tag_sequence(toy_model, tokens)
    for _ in range(3):
        assert tag_sequence(toy_model, tokens) == first


def test_wide_beam_matches_exact(toy_model):
    tokens = [Token(w, w, i) for i, w in enumerate(
        ["λόγος", "παύει", "τέχνην", "."])]
    exact = tag_sequence(toy_model, tokens)
    assert tag_sequence(toy_model, tokens, beam=1000) == exact
    narrow = tag_sequence(toy_model, tokens, beam=1)
    assert len(narrow) == len(exact)


@pytest.mark.parametrize("beam", [-1, -3, 2.5, 4.0, True, "4", None, np.int64(4)])
def test_tag_sequence_rejects_bad_beam(toy_model, beam):
    """``beam`` must be an ``int`` of at least 0: a negative one would
    silently run an exact search.  Checked before the empty input."""
    tokens = [Token(w, w, i) for i, w in enumerate(["λόγος", "παύει"])]
    for toks in (tokens, []):
        with pytest.raises(ValueError, match="beam must be an int of at least 0"):
            tag_sequence(toy_model, toks, beam=beam)
        with pytest.raises(ValueError, match="beam must be an int of at least 0"):
            tag_corpus(toy_model, [Sequence(tuple(tokens))], beam=beam)


def test_brute_force_guard():
    schema = TagSchema.from_lines(["category a", "category b"])
    rows = [[("w", "a")], [("w", "b")]]
    seqs = [
        Sequence(
            tuple(Token(w, w, i) for i, (w, _) in enumerate(row)),
            tuple(schema.parse(t) for _, t in row),
        )
        for row in rows
    ]
    model = train(seqs, None, schema)
    tokens = [Token("w", "w", i) for i in range(8)]
    with pytest.raises(SearchSpaceError):
        brute_force_best(model, tokens, limit=100)


def _layout(counts):
    """adims, bdims, off and the increment count for candidate counts."""
    K = len(counts)
    adims = np.array([counts[k - 2] if k >= 2 else 1 for k in range(K)], np.int64)
    bdims = np.array([counts[k - 1] if k >= 1 else 1 for k in range(K)], np.int64)
    off = np.zeros(K, np.int64)
    total = 0
    for k in range(K):
        off[k] = total
        total += adims[k] * bdims[k] * counts[k]
    return adims, bdims, off, int(total)


def _kernel_instances(seed, trials, max_len):
    """Random trellises: tie-heavy, tie-heavy with zero-probability
    (``-inf``) increments, and continuous; beams 0 to 4.  Then long
    trellises whose increments are all equal or all ``-inf``, where
    every state ties at every position."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        K = int(rng.integers(1, max_len + 1))
        width = int(rng.integers(1, 6))
        counts = rng.integers(1, width + 1, K).astype(np.int64)
        adims, bdims, off, total = _layout(counts)
        if trial % 3 == 2:
            inc = np.log(rng.random(total))
        else:
            inc = np.log(rng.choice([0.25, 0.5, 1.0], total))
            if trial % 3 == 1:
                inc[rng.random(total) < 0.4] = -np.inf
        beam = int(rng.integers(0, 5))
        yield counts, adims, bdims, off, inc, beam
    for K, value, beam in ((300, np.log(0.5), 0), (300, -np.inf, 0),
                           (200, np.log(0.5), 3), (200, -np.inf, 2)):
        counts = rng.integers(1, 4, K).astype(np.int64)
        adims, bdims, off, total = _layout(counts)
        yield counts, adims, bdims, off, np.full(total, value), beam


def test_kernel_matches_reference_loops():
    for args in _kernel_instances(99, 600, 30):
        assert np.array_equal(_viterbi.viterbi(*args), _viterbi_loops(*args))


def _run_widths(rng, K, ones):
    """K candidate counts: runs of width 1 (each run 1 to 8 positions)
    between runs of widths 2 to 5, or only width 1 when ``ones``."""
    counts = []
    while len(counts) < K:
        counts += [1] * int(rng.integers(1, 9))
        if not ones:
            counts += list(rng.integers(2, 6, int(rng.integers(1, 4))))
    return np.array(counts[:K], np.int64)


def _no_choice_instances(seed, trials, max_len):
    """Trellises rich in no-choice positions (a one-cell block): all of
    width 1, and width-1 runs between wider positions, with tie-heavy,
    ``-inf``-heavy and continuous increments; then long ones whose
    increments are all equal or all ``-inf``.  Beams 0 to 4."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        counts = _run_widths(rng, int(rng.integers(1, max_len + 1)), trial % 2 == 0)
        adims, bdims, off, total = _layout(counts)
        kind = (trial // 2) % 3
        if kind == 2:
            inc = np.log(rng.random(total))
        else:
            inc = np.log(rng.choice([0.25, 0.5, 1.0], total))
            if kind == 1:
                inc[rng.random(total) < 0.2] = -np.inf
        yield counts, adims, bdims, off, inc, int(rng.integers(0, 5))
    for trial in range(20):
        K = int(rng.integers(150, 301))
        counts = _run_widths(rng, K, trial % 4 == 0)
        adims, bdims, off, total = _layout(counts)
        value = -np.inf if trial % 2 else np.log(0.5)
        yield counts, adims, bdims, off, np.full(total, value), trial % 5


def test_kernel_matches_reference_loops_on_no_choice_runs():
    no_choice = 0
    for args in _no_choice_instances(7, 400, 40):
        counts, adims, bdims = args[:3]
        no_choice += int(((adims == 1) & (bdims == 1) & (counts == 1))[1:].sum())
        assert np.array_equal(_viterbi.viterbi(*args), _viterbi_loops(*args))
    assert no_choice > 5000


@pytest.fixture
def ranked_calls(monkeypatch):
    """The argument tuples ``_viterbi.viterbi`` hands to ``_ranked``, the
    tie-breaking pass it re-runs when the best path ties."""
    calls = []
    ranked = _viterbi._ranked

    def spy(*args):
        calls.append(args)
        return ranked(*args)

    monkeypatch.setattr(_viterbi, "_ranked", spy)
    return calls


def _reruns(args, calls):
    """How often decoding ``args`` ran the ranked pass; the path must
    equal the plain-loop reference's either way."""
    before = len(calls)
    assert np.array_equal(_viterbi.viterbi(*args), _viterbi_loops(*args))
    return len(calls) - before


def _continuous_instance(rng, K, max_width, beam):
    """Random log-probability increments: no two sums are equal."""
    counts = rng.integers(1, max_width + 1, K).astype(np.int64)
    adims, bdims, off, total = _layout(counts)
    return counts, adims, bdims, off, np.log(rng.random(total)), beam


def _tied_states(counts, adims, bdims, off, inc, beam):
    """States, over all positions, whose best score two or more
    predecessors reach, from a plain forward pass."""
    scores = _viterbi._prune(inc[: counts[0]].reshape(1, -1), beam)
    tied = 0
    for k in range(1, len(counts)):
        X, Y, Z = adims[k], bdims[k], counts[k]
        cand = scores[:, :, None] + inc[off[k] : off[k] + X * Y * Z].reshape(X, Y, Z)
        best = cand.max(axis=0)
        tied += int(((cand == best).sum(axis=0) > 1).sum())
        scores = _viterbi._prune(best, beam)
    return tied


def _twin(args, j, c, twin):
    """``args`` with candidate ``twin`` at position ``j`` scoring exactly
    as candidate ``c`` in every block that holds it, so every path
    through ``c`` ties with the same path through ``twin``."""
    counts, adims, bdims, off, inc, beam = args
    inc = inc.copy()
    for k, axis in ((j, 2), (j + 1, 1), (j + 2, 0)):
        if k < len(counts):
            size = adims[k] * bdims[k] * counts[k]
            block = inc[off[k] : off[k] + size].reshape(adims[k], bdims[k], counts[k])
            view = np.moveaxis(block, axis, 0)
            view[twin] = view[c]
    return counts, adims, bdims, off, inc, beam


def test_kernel_skips_ranked_pass_without_ties(ranked_calls):
    rng = np.random.default_rng(41)
    for trial in range(300):
        args = _continuous_instance(rng, int(rng.integers(1, 40)), 5, trial % 5)
        assert _reruns(args, ranked_calls) == 0


def test_kernel_skips_ranked_pass_for_ties_off_best_path(ranked_calls):
    """Pruned states leave ``-inf`` columns whose predecessors all tie,
    and a losing state may be reached by two predecessors at once: the
    best path is still unique, so the max pass returns it."""
    rng = np.random.default_rng(43)
    tied = 0
    for trial in range(200):
        args = _continuous_instance(rng, int(rng.integers(3, 40)), 5, 1 + trial % 4)
        tied += _tied_states(*args)
        assert _reruns(args, ranked_calls) == 0
    assert tied > 1000
    # best path 0, 0, 0 scores -3; state (1, 1) at the last position is
    # reached at -7 from both candidates two back
    counts = np.array([2, 2, 2], np.int64)
    adims, bdims, off, _ = _layout(counts)
    last = np.full((2, 2, 2), -8.0)
    last[0, 0, 0], last[0, 1, 1], last[1, 1, 1] = -1.0, -4.0, -2.0
    inc = np.concatenate([[-1.0, -3.0], [-1.0, -2.0, -1.0, -2.0], last.ravel()])
    args = (counts, adims, bdims, off, inc, 0)
    assert _tied_states(*args) == 1
    assert _reruns(args, ranked_calls) == 0
    assert list(_viterbi.viterbi(*args)) == [0, 0, 0]


def test_kernel_reruns_ranked_pass_for_ties_on_best_path(ranked_calls):
    """A tie on the best path, between two predecessors of one of its
    states or between two final states, re-runs the ranked pass once, and
    that pass's path is returned."""
    rng = np.random.default_rng(47)
    twins = Counter()
    for trial in range(300):
        args = _continuous_instance(rng, int(rng.integers(3, 30)), 5, 0)
        counts = args[0]
        K = len(counts)
        path = _viterbi_loops(*args)
        # a twin of the best path's candidate mid-sequence, where the tie
        # shows two positions on, or at the last position
        where = "mid" if trial % 2 else "last"
        spots = [j for j in range(K - 2) if counts[j] >= 2] if where == "mid" else [K - 1]
        if not spots or counts[spots[-1]] < 2:
            continue
        j = spots[int(rng.integers(0, len(spots)))]
        twin = int(rng.integers(0, counts[j] - 1))
        twin += twin >= path[j]
        assert _reruns(_twin(args, j, path[j], twin), ranked_calls) == 1
        twins[where] += 1
    assert min(twins.values()) > 50
    model, tokens = symmetric_tie_instance()
    before = len(ranked_calls)
    assert tag_sequence(model, tokens) == brute_force_best(model, tokens)
    assert len(ranked_calls) == before + 1
    # every path ties: all increments equal, or all -inf
    for trial in range(20):
        counts = _run_widths(rng, int(rng.integers(20, 120)), False)
        adims, bdims, off, total = _layout(counts)
        value = -np.inf if trial % 2 else np.log(0.5)
        args = (counts, adims, bdims, off, np.full(total, value), trial % 5)
        assert _reruns(args, ranked_calls) == 1


def _tag_capturing(monkeypatch, model, texts):
    """The tags of each token list of ``texts``, and the bytes of the
    increments ``tag_sequence`` handed the kernel for each."""
    captured = []
    kernel = _viterbi.viterbi

    def spy(counts, adims, bdims, off, inc, beam=0):
        captured.append(inc.tobytes())
        return kernel(counts, adims, bdims, off, inc, beam)

    with monkeypatch.context() as m:
        m.setattr(_viterbi, "viterbi", spy)
        tags = [tag_sequence(model, tokens) for tokens in texts]
    return tags, captured


def _check_increments(monkeypatch, make_model, texts, warm_text):
    """The increments ``tag_sequence`` hands the kernel for each token
    list of ``texts`` equal ``reference_increments`` byte for byte
    (``-inf`` cells included), on a fresh model and on one whose caches
    were warmed by tagging ``warm_text`` first."""
    reference = make_model()
    warm = make_model()
    for tokens in warm_text:
        tag_sequence(warm, tokens)
    expected = [reference_increments(reference, tokens).tobytes() for tokens in texts]
    for model in (make_model(), warm):
        assert _tag_capturing(monkeypatch, model, texts)[1] == expected


def _fixture_texts(fixtures_dir):
    return [seq.tokens for path in sorted((fixtures_dir / "texts").glob("*.txt"))
            for seq in tokenize(path.read_text(encoding="utf-8"))]


def test_increments_match_reference_on_fixture_texts(monkeypatch, fixtures_dir, toy_corpus,
                                                     toy_rules, toy_schema):
    _check_increments(monkeypatch, lambda: train(toy_corpus, toy_rules, toy_schema),
                      _fixture_texts(fixtures_dir), [seq.tokens for seq in toy_corpus])


def test_block_cache_cap(monkeypatch, fixtures_dir, toy_corpus, toy_rules, toy_schema):
    """With the block cache capped at a few cells, tagging the fixture
    texts cold and then warm gives the same tags and hands the kernel the
    same increments as under the default cap, and the cache never holds
    more cells than its cap."""
    from greektag import model as model_module

    texts = _fixture_texts(fixtures_dir) * 2
    expected = _tag_capturing(monkeypatch, train(toy_corpus, toy_rules, toy_schema), texts)
    held = []
    build = Model.transition_block

    def checked(self, *args):
        block = build(self, *args)
        held.append(sum(b.size for b in self._blocks.values()))
        assert held[-1] == self._block_cells <= model_module.MAX_BLOCK_CACHE_CELLS
        return block

    monkeypatch.setattr(model_module, "MAX_BLOCK_CACHE_CELLS", 24)
    monkeypatch.setattr(Model, "transition_block", checked)
    assert _tag_capturing(monkeypatch, train(toy_corpus, toy_rules, toy_schema),
                          texts) == expected
    assert any(b < a for a, b in zip(held, held[1:]))  # the cap cleared the cache


def test_lexical_analysis_runs_once_per_word(monkeypatch, fixtures_dir, toy_corpus, toy_rules,
                                             toy_schema):
    """Tagging the fixture texts twice analyses each distinct word once:
    ``Model.candidates`` caches what ``morph.lexical_prob`` returns."""
    from greektag import morph

    model = train(toy_corpus, toy_rules, toy_schema)
    texts = _fixture_texts(fixtures_dir)
    calls = Counter()
    analyse = morph.lexical_prob

    def counted(word, lexicon):
        calls[word] += 1
        return analyse(word, lexicon)

    monkeypatch.setattr(morph, "lexical_prob", counted)
    for _ in range(2):
        tag_corpus(model, [Sequence(tuple(tokens)) for tokens in texts])
    assert calls == Counter({tok.norm for tokens in texts for tok in tokens})


def _zero_emission_model(path, corpus, rules, schema):
    """Save the toy model with hapax-prior tag ``konj`` at probability 0
    to ``path``: an unknown word without a matching suffix, such as
    ``ζζζ``, then has a zero emission for ``konj``."""
    lines = train(corpus, rules, schema).to_lines()
    no = next(i for i, line in enumerate(lines) if line.startswith("__hapax__\t"))
    lines[no] += " konj=0"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    model = Model.load(path)
    assert dict(model.lexical_probs("ζζζ"))[schema.parse("konj")] == 0.0
    return model


def test_increments_match_reference_with_zero_emissions(monkeypatch, tmp_path, toy_corpus,
                                                        toy_rules, toy_schema):
    """A zero emission makes its cells ``-inf``."""
    path = tmp_path / "zero.model"
    _zero_emission_model(path, toy_corpus, toy_rules, toy_schema)
    texts = [[Token(w, w, i) for i, w in enumerate(["καί", "ζζζ", "λόγος", "ζζζ", "."])]]
    _check_increments(monkeypatch, lambda: Model.load(path), texts,
                      [seq.tokens for seq in toy_corpus])


def test_scores_stay_python_floats(tmp_path, toy_corpus, toy_rules, toy_schema):
    """``sequence_log_prob`` and the emissions of ``candidates`` are
    Python floats, not numpy scalars, ``-inf`` included."""
    model = _zero_emission_model(tmp_path / "zero.model", toy_corpus, toy_rules, toy_schema)
    tokens = [Token(w, w, i) for i, w in enumerate(["καί", "ζζζ", "λόγος", "."])]
    for tok in tokens:
        assert all(type(e) is float for e in model.candidates(tok.norm)[2])
    assert model.candidates("ζζζ")[2].count(float("-inf")) == 1
    tags = tag_sequence(model, tokens)
    konj = toy_schema.parse("konj")
    for tags, finite in ((tags, True), (tags[:1] + [konj] + tags[2:], False)):
        score = model.sequence_log_prob(tokens, tags)
        assert type(score) is float and np.isfinite(score) == finite


def test_word_without_candidates_raises(tmp_path, toy_model):
    """Without a hapax prior, a word that matches no lexicon entry and no
    suffix has no candidate tags: decoding and scoring it fail loudly."""
    path = tmp_path / "noprior.model"
    lines = [line for line in toy_model.to_lines() if not line.startswith("__hapax__\t")]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    model = Model.load(path)
    tokens = [Token(w, w, i) for i, w in enumerate(["καί", "ζζζ"])]
    for run in (lambda: tag_sequence(model, tokens), lambda: brute_force_best(model, tokens),
                lambda: model.sequence_log_prob(tokens, [toy_model.schema.parse("konj")] * 2)):
        with pytest.raises(ModelError, match="no candidate tags for 'ζζζ'"):
            run()


def test_increments_match_reference_on_deep_chains(monkeypatch):
    schema = TagSchema.load(default_schema_path())
    corpus = read_annotated_corpus(_deep_chain_corpus(schema), schema)
    other = read_annotated_corpus(_deep_chain_corpus(schema, seed=6, sequences=3), schema)
    texts = [seq.tokens for seq in other]
    texts.append(tuple(Token(w, w, i) for i, w in enumerate(["w1", "unseen", "w2", "w1"])))
    _check_increments(monkeypatch, lambda: train(corpus, None, schema), texts,
                      [seq.tokens for seq in corpus])


def test_increments_match_reference_on_random_models(monkeypatch):
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        schema, rules, sequences, vocab = random_corpus(rng)
        smooth = rng.random() < 0.8
        texts = []
        for _ in range(2):
            words = [vocab[int(rng.integers(0, len(vocab)))] if rng.random() < 0.85
                     else f"oov{int(rng.integers(0, 3))}"
                     for _ in range(int(rng.integers(1, 7)))]
            texts.append([Token(w, w, i) for i, w in enumerate(words)])
        _check_increments(monkeypatch, lambda: train(sequences, rules, schema, smooth=smooth),
                          texts, [seq.tokens for seq in sequences])
