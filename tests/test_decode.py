import re
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
    train,
)
from greektag import _viterbi, decode
from greektag.cli import default_schema_path
from greektag.decode import tag_corpus
from greektag.tags import format_tag
from greektag.text import read_annotated_corpus, tokenize

from genmodels import random_corpus, random_instance, symmetric_tie_instance, tagged_sequences
from reference import (_viterbi_loops, brute_force_best, reference_increments, rescored,
                       trellis_blocks)
from test_model import _deep_chain_corpus


def test_empty_input(toy_model):
    assert tag_sequence(toy_model, []) == []
    assert brute_force_best(toy_model, []) == []
    assert tag_corpus(toy_model, tokenize("")) == []


def test_single_token_point_mass(toy_model, toy_schema):
    tok = Token("καί", "καί", 0)
    assert tag_sequence(toy_model, [tok]) == [toy_schema.parse("konj")]


def test_trellis_bound(toy_model, monkeypatch):
    """A trellis of exactly ``MAX_TRELLIS_CELLS`` increments decodes; one
    cell fewer raises, naming the token that crosses the bound."""
    tokens = [Token(w, w, i) for i, w in enumerate(["παύει", "λόγους", "κωλύσαντος"])]
    widths = [1, 1] + [len(toy_model.lexical_probs(t.norm)) for t in tokens]
    cells = sum(widths[k] * widths[k + 1] * widths[k + 2] for k in range(len(tokens)))
    monkeypatch.setattr(decode, "MAX_TRELLIS_CELLS", cells)
    assert len(tag_sequence(toy_model, tokens)) == 3
    monkeypatch.setattr(decode, "MAX_TRELLIS_CELLS", cells - 1)
    with pytest.raises(SearchSpaceError, match="token 3 of the sequence .'κωλύσαντος'."):
        tag_sequence(toy_model, tokens)


def test_trellis_bound_crossed_mid_sequence(toy_model, monkeypatch):
    """A bound crossed at token 2 of 4 names token 2, from a bound that
    token 1's block ends exactly at to one cell under token 2's end."""
    tokens = [Token(w, w, i) for i, w in enumerate(["λόγους", "κωλύσαντος", "παύει", "."])]
    widths = [1, 1] + [len(toy_model.lexical_probs(t.norm)) for t in tokens]
    first = widths[0] * widths[1] * widths[2]
    second = first + widths[1] * widths[2] * widths[3]
    assert second - first >= 2
    for cells in (first, second - 1):
        monkeypatch.setattr(decode, "MAX_TRELLIS_CELLS", cells)
        with pytest.raises(SearchSpaceError, match="token 2 of the sequence .'κωλύσαντος'."):
            tag_sequence(toy_model, tokens)


def test_trellis_bound_on_forced_sequence(toy_model, monkeypatch):
    """A sequence with one candidate per token has a one-cell block a
    token: at a bound of its length it decodes, and under that it
    raises, naming token bound + 1."""
    tokens = [Token(w, w, i) for i, w in enumerate(["λόγος", "παύει", "τέχνην", "."])]
    assert all(len(toy_model.candidates(t.norm)[1]) == 1 for t in tokens)
    tags = tag_sequence(toy_model, tokens)
    monkeypatch.setattr(decode, "MAX_TRELLIS_CELLS", len(tokens))
    assert tag_sequence(toy_model, tokens) == tags
    for bound in range(len(tokens)):
        monkeypatch.setattr(decode, "MAX_TRELLIS_CELLS", bound)
        match = re.escape(f"token {bound + 1} of the sequence ({tokens[bound].surface!r})")
        with pytest.raises(SearchSpaceError, match=match):
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
    seqs = tokenize("λόγος παύει. παιδεύομεν λόγους.")
    pairs = [pair for seq in tag_corpus(toy_model, seqs)
             for pair in zip(seq.tokens, seq.gold_tags)]
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
    model = train(tagged_sequences(schema, [[("w", "a")], [("w", "b")]]), None, schema)
    tokens = [Token("w", "w", i) for i in range(8)]
    with pytest.raises(SearchSpaceError):
        brute_force_best(model, tokens, limit=100)


def _layout_loop(widths):
    """``_viterbi.layout`` as a plain loop: the candidate counts two and
    one positions back are 1 before the first position."""
    padded = [1, 1, *widths]
    counts, adims, bdims, ends = [], [], [], []
    end = 0
    for k, z in enumerate(widths):
        x, y = padded[k], padded[k + 1]
        counts.append(z)
        adims.append(x)
        bdims.append(y)
        end += x * y * z
        ends.append(end)
    return counts, adims, bdims, ends


def test_layout_matches_plain_loop():
    rng = np.random.default_rng(17)
    for K in range(1, 9):
        for trial in range(50):
            widths = rng.integers(1, 13 if trial % 2 else 3, K).tolist()
            got = _viterbi.layout(widths)
            for array, want in zip(got, _layout_loop(widths)):
                assert array.dtype == np.int64
                assert array.tolist() == want


def _kernel(blocks, beam):
    """``_viterbi.viterbi`` on ``blocks``, with the layout of their shapes."""
    return _viterbi.viterbi(*_viterbi.layout([b.shape[2] for b in blocks]), blocks, beam)


def _draw(rng, kind, mask):
    """A draw of n increments: each log 0.25, 0.5 or 1 (``kind`` 0), the
    same with ``-inf`` where a uniform draw is under ``mask`` (1), or
    continuous (2)."""
    def draw(n):
        if kind == 2:
            return np.log(rng.random(n))
        cells = np.log(rng.choice([0.25, 0.5, 1.0], n))
        if kind == 1:
            cells[rng.random(n) < mask] = -np.inf
        return cells
    return draw


def _kernel_instances(seed, trials, max_len):
    """Random trellises: tie-heavy, tie-heavy with zero-probability
    (``-inf``) increments, and continuous; beams 0 to 4.  Then long
    trellises whose increments are all equal or all ``-inf``, where
    every state ties at every position."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        K = int(rng.integers(1, max_len + 1))
        width = int(rng.integers(1, 6))
        blocks = trellis_blocks(rng.integers(1, width + 1, K), _draw(rng, trial % 3, 0.4))
        yield blocks, int(rng.integers(0, 5))
    for K, value, beam in ((300, np.log(0.5), 0), (300, -np.inf, 0),
                           (200, np.log(0.5), 3), (200, -np.inf, 2)):
        yield trellis_blocks(rng.integers(1, 4, K), lambda n: np.full(n, value)), beam


def test_kernel_matches_reference_loops():
    for args in _kernel_instances(99, 600, 30):
        assert np.array_equal(_kernel(*args), _viterbi_loops(*args))


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
        widths = _run_widths(rng, int(rng.integers(1, max_len + 1)), trial % 2 == 0)
        yield trellis_blocks(widths, _draw(rng, (trial // 2) % 3, 0.2)), int(rng.integers(0, 5))
    for trial in range(20):
        widths = _run_widths(rng, int(rng.integers(150, 301)), trial % 4 == 0)
        value = -np.inf if trial % 2 else np.log(0.5)
        yield trellis_blocks(widths, lambda n: np.full(n, value)), trial % 5


def test_kernel_matches_reference_loops_on_no_choice_runs(tie_walks):
    """Among these, the tied instances run the tie walk, which crosses
    their no-choice positions as edges that are always tight."""
    no_choice = walked_no_choice = 0
    for args in _no_choice_instances(7, 400, 40):
        n = sum(block.shape == (1, 1, 1) for block in args[0][1:])
        no_choice += n
        if _walks(args, tie_walks):
            walked_no_choice += n
    assert no_choice > 5000
    assert walked_no_choice > 1000


@pytest.fixture
def tie_walks(monkeypatch):
    """The argument tuples ``_viterbi.viterbi`` hands to ``_tie_walk``,
    the read-back it runs when the best path ties."""
    calls = []
    walk = _viterbi._tie_walk

    def spy(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(_viterbi, "_tie_walk", spy)
    return calls


def _walks(args, calls):
    """How often decoding ``args`` ran the tie walk; the path must equal
    the plain-loop reference's either way."""
    before = len(calls)
    assert np.array_equal(_kernel(*args), _viterbi_loops(*args))
    return len(calls) - before


def _continuous_instance(rng, K, max_width, beam):
    """Random log-probability increments: no two sums are equal."""
    return trellis_blocks(rng.integers(1, max_width + 1, K), _draw(rng, 2, None)), beam


def _tied_states(blocks, beam):
    """States, over all positions, whose best score two or more
    predecessors reach, from a plain forward pass."""
    scores = blocks[0][0].copy()
    _viterbi._prune(scores, beam)
    tied = 0
    for block in blocks[1:]:
        cand = scores[:, :, None] + block
        best = cand.max(axis=0)
        tied += int(((cand == best).sum(axis=0) > 1).sum())
        _viterbi._prune(best, beam)
        scores = best
    return tied


def _twin(args, j, c, twin):
    """``args`` with candidate ``twin`` at position ``j`` scoring exactly
    as candidate ``c`` in every block that holds it, so every path
    through ``c`` ties with the same path through ``twin``."""
    blocks, beam = args
    blocks = [block.copy() for block in blocks]
    for k, axis in ((j, 2), (j + 1, 1), (j + 2, 0)):
        if k < len(blocks):
            view = np.moveaxis(blocks[k], axis, 0)
            view[twin] = view[c]
    return blocks, beam


def test_kernel_skips_tie_walk_without_ties(tie_walks):
    rng = np.random.default_rng(41)
    for trial in range(300):
        args = _continuous_instance(rng, int(rng.integers(1, 40)), 5, trial % 5)
        assert _walks(args, tie_walks) == 0


def test_kernel_skips_tie_walk_for_ties_off_best_path(tie_walks):
    """Pruned states leave ``-inf`` columns whose predecessors all tie,
    and a losing state may be reached by two predecessors at once: the
    best path is still unique, so the max pass returns it."""
    rng = np.random.default_rng(43)
    tied = 0
    for trial in range(200):
        args = _continuous_instance(rng, int(rng.integers(3, 40)), 5, 1 + trial % 4)
        tied += _tied_states(*args)
        assert _walks(args, tie_walks) == 0
    assert tied > 1000
    # best path 0, 0, 0 scores -3; state (1, 1) at the last position is
    # reached at -7 from both candidates two back
    last = np.full((2, 2, 2), -8.0)
    last[0, 0, 0], last[0, 1, 1], last[1, 1, 1] = -1.0, -4.0, -2.0
    args = ([np.array([[[-1.0, -3.0]]]), np.array([[[-1.0, -2.0], [-1.0, -2.0]]]), last], 0)
    assert _tied_states(*args) == 1
    assert _walks(args, tie_walks) == 0
    assert list(_kernel(*args)) == [0, 0, 0]


def test_kernel_runs_tie_walk_for_ties_on_best_path(tie_walks):
    """A tie on the best path, between two predecessors of one of its
    states or between two final states, runs the tie walk once, and the
    walk's path is returned."""
    rng = np.random.default_rng(47)
    twins = Counter()
    for trial in range(300):
        args = _continuous_instance(rng, int(rng.integers(3, 30)), 5, 0)
        counts = [block.shape[2] for block in args[0]]
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
        assert _walks(_twin(args, j, path[j], twin), tie_walks) == 1
        twins[where] += 1
    assert min(twins.values()) > 50
    model, tokens = symmetric_tie_instance()
    before = len(tie_walks)
    assert tag_sequence(model, tokens) == brute_force_best(model, tokens)
    assert len(tie_walks) == before + 1
    # every path ties: all increments equal, or all -inf
    for trial in range(20):
        widths = _run_widths(rng, int(rng.integers(20, 120)), False)
        value = -np.inf if trial % 2 else np.log(0.5)
        args = (trellis_blocks(widths, lambda n: np.full(n, value)), trial % 5)
        assert _walks(args, tie_walks) == 1


def _tag_capturing(monkeypatch, model, texts):
    """The tags of each token list of ``texts``, and the bytes of each
    increment block ``tag_sequence`` handed the kernel for each."""
    captured = []
    kernel = _viterbi.viterbi

    def spy(counts, adims, bdims, ends, blocks, beam=0):
        captured.append([block.tobytes() for block in blocks])
        return kernel(counts, adims, bdims, ends, blocks, beam)

    with monkeypatch.context() as m:
        m.setattr(_viterbi, "viterbi", spy)
        tags = [tag_sequence(model, tokens) for tokens in texts]
    return tags, captured


def _increments_by_text(monkeypatch, model, texts):
    """The bytes of each increment block of each token list, in the
    order of ``texts``: those ``tag_sequence`` hands the kernel, or, for
    a sequence with one candidate per token, which does not reach the
    kernel, those of the ``decode._fill`` blocks.  Texts are taken in
    turn, so the model's caches fill as in one tagging pass."""
    out = []
    for tokens in texts:
        cands = [model.candidates(tok.norm) for tok in tokens]
        forced = all(len(c[1]) == 1 for c in cands)
        captured = _tag_capturing(monkeypatch, model, [tokens])[1]
        assert len(captured) == (not forced)
        blocks = decode._fill(model, tokens, cands)
        out += captured or [[block.tobytes() for block in blocks]]
    return out


def _check_increments(monkeypatch, make_model, texts, warm_text):
    """The increment blocks of each token list of ``texts`` equal
    ``reference_increments`` byte for byte (``-inf`` cells included),
    on a fresh model and on one whose caches were warmed by tagging
    ``warm_text`` first: at the kernel for a sequence with a choice,
    from ``decode._fill`` for one with one candidate per token."""
    reference = make_model()
    warm = make_model()
    for tokens in warm_text:
        tag_sequence(warm, tokens)
    expected = [[block.tobytes() for block in reference_increments(reference, tokens)]
                for tokens in texts]
    for model in (make_model(), warm):
        assert _increments_by_text(monkeypatch, model, texts) == expected


def _fixture_texts(fixtures_dir):
    return [seq.tokens for path in sorted((fixtures_dir / "texts").glob("*.txt"))
            for seq in tokenize(path.read_text(encoding="utf-8"))]


def test_increments_match_reference_on_fixture_texts(monkeypatch, fixtures_dir, toy_corpus,
                                                     toy_rules, toy_schema):
    _check_increments(monkeypatch, lambda: train(toy_corpus, toy_rules, toy_schema),
                      _fixture_texts(fixtures_dir), [seq.tokens for seq in toy_corpus])


def test_block_cache_cap(monkeypatch, fixtures_dir, toy_corpus, toy_rules, toy_schema):
    """With the block and increments caches capped at a few cells,
    tagging the fixture texts cold and then warm gives the same tags and
    hands the kernel the same increments as under the default cap, and
    neither cache ever holds more cells than the cap."""
    from greektag import model as model_module

    texts = _fixture_texts(fixtures_dir) * 2
    expected = _tag_capturing(monkeypatch, train(toy_corpus, toy_rules, toy_schema), texts)
    held = {"_blocks": [], "_incs": []}
    make = Model.increments

    def checked(self, *args):
        inc = make(self, *args)
        for name, sizes in held.items():
            cache = getattr(self, name)
            sizes.append(sum(a.size for a in cache.values()))
            assert sizes[-1] == cache.cells <= model_module.MAX_BLOCK_CACHE_CELLS
        return inc

    monkeypatch.setattr(model_module, "MAX_BLOCK_CACHE_CELLS", 24)
    monkeypatch.setattr(Model, "increments", checked)
    assert _tag_capturing(monkeypatch, train(toy_corpus, toy_rules, toy_schema),
                          texts) == expected
    for sizes in held.values():
        assert any(b < a for a, b in zip(sizes, sizes[1:]))  # the cap cleared the cache


def test_beam_prunes_only_arrays_the_kernel_made(fixtures_dir, toy_corpus, toy_rules,
                                                 toy_schema):
    """Tagging cold, warm and at beams 1 to 4 leaves every cached block
    and increments array read-only and as one exact pass made it; the
    kernel leaves writable blocks a caller hands it unchanged at beams 1
    to 4, the first position's included."""
    texts = _fixture_texts(fixtures_dir)
    model = train(toy_corpus, toy_rules, toy_schema)
    for tokens in texts:
        tag_sequence(model, tokens)
    made = {name: {key: a.tobytes() for key, a in getattr(model, name).items()}
            for name in ("_incs", "_blocks")}
    # a first position with more candidates than beam 1 keeps
    assert any(len(model.candidates(tokens[0].norm)[1]) > 1 for tokens in texts if tokens)
    for beam in range(5):
        for tokens in texts:
            tag_sequence(model, tokens, beam)
    for name, arrays in made.items():
        cache = getattr(model, name)
        assert {key: a.tobytes() for key, a in cache.items()} == arrays
        assert not any(a.flags.writeable for a in cache.values())

    rng = np.random.default_rng(53)
    for _ in range(40):
        blocks = trellis_blocks([6, *rng.integers(1, 7, int(rng.integers(0, 12)))],
                                _draw(rng, 2, None))
        before = [block.tobytes() for block in blocks]
        for beam in range(1, 5):
            _kernel(blocks, beam)
        assert [block.tobytes() for block in blocks] == before


def test_candidate_cache_cap(monkeypatch, fixtures_dir, toy_model):
    """With the candidate cache capped at a few words, tagging the
    fixture texts twice gives the tags of an uncapped model, and neither
    the candidate cache nor the distribution memo ever holds more words
    than the cap."""
    from greektag import model as model_module

    texts = _fixture_texts(fixtures_dir) * 2
    cap = 5
    assert len({tok.norm for tokens in texts for tok in tokens}) > 4 * cap
    expected = [tag_sequence(rescored(toy_model), tokens) for tokens in texts]
    monkeypatch.setattr(model_module, "MAX_CANDIDATE_WORDS", cap)
    model, sizes = rescored(toy_model), []
    for tokens, want in zip(texts, expected):
        for tok in tokens:
            model.candidates(tok.norm)
            sizes.append(len(model._cands))
            assert len(model._dists) <= len(model._cands) <= cap
        assert tag_sequence(model, tokens) == want
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # the cap cleared the cache


def test_warm_pass_builds_no_block(monkeypatch, fixtures_dir, toy_corpus, toy_rules,
                                   toy_schema):
    """A cold pass over the fixture texts, and two more sentences whose
    unknown words share the hapax prior's candidate ids with one of
    them, builds each distinct transition block once, and reuses some;
    a second pass takes every position's increments from the increments
    cache and calls ``Model.transition_block`` zero times."""
    model = train(toy_corpus, toy_rules, toy_schema)
    texts = _fixture_texts(fixtures_dir) + [
        seq.tokens for seq in tokenize("παύομεν ζζζ. παύομεν ξξξ.")]
    calls = Counter()
    for name in ("transition_block", "_log_probs"):
        def counted(self, *args, _fn=getattr(Model, name), _name=name):
            calls[_name] += 1
            return _fn(self, *args)

        monkeypatch.setattr(Model, name, counted)
    cold = [tag_sequence(model, tokens) for tokens in texts]
    assert calls["_log_probs"] == len(model._blocks) < calls["transition_block"]
    assert calls["transition_block"] == len(model._incs)
    calls.clear()
    assert [tag_sequence(model, tokens) for tokens in texts] == cold
    assert calls == Counter()


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


def test_forced_sequences_match_oracle_and_kernel(tmp_path, fixtures_dir, toy_corpus,
                                                  toy_rules, toy_schema):
    """A sequence with one candidate per token decodes, at beams 0 to 4,
    to the oracle's path and to the kernel's on its reference
    increments, whatever its score.  The models: the toy model, the
    zero-emission model, and raw trigram frequencies on the toy counts,
    under which an unseen trigram makes a sentence score ``-inf``.  (A
    zero emission cannot be a word's only candidate: a word whose every
    candidate scores 0 has none, and raises ``ModelError``.)"""
    toy = train(toy_corpus, toy_rules, toy_schema)
    models = [toy, _zero_emission_model(tmp_path / "zero.model", toy_corpus, toy_rules,
                                        toy_schema),
              rescored(toy, smooth=False, lambdas=(0.0, 0.0, 1.0))]
    texts = _fixture_texts(fixtures_dir) + [seq.tokens for seq in toy_corpus]
    scores = []
    for model in models:
        for tokens in texts:
            cands = [model.candidates(tok.norm) for tok in tokens]
            if any(len(ids) > 1 for _, ids, _ in cands):
                continue
            blocks = reference_increments(model, tokens)
            oracle = brute_force_best(model, tokens)
            for beam in range(5):
                path = _kernel(blocks, beam)
                assert [tags[i] for (tags, _, _), i in zip(cands, path)] == oracle
                assert tag_sequence(model, tokens, beam) == oracle
            scores.append(model.sequence_log_prob(tokens, oracle))
    assert len(scores) >= 60
    assert sum(np.isfinite(scores)) >= 40 and scores.count(-np.inf) >= 5


def test_forced_sequence_skips_trellis(monkeypatch, tmp_path, toy_corpus, toy_rules,
                                       toy_schema):
    """Neither ``Model.increments`` nor the kernel runs for a sequence
    with one candidate per token, at beam 0 or 4; a sequence with a
    choice anywhere, a zero-emission candidate included, fills every
    position and runs the kernel once."""
    model = _zero_emission_model(tmp_path / "zero.model", toy_corpus, toy_rules, toy_schema)
    calls = Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def spy(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, spy)

    counted(Model, "increments")
    counted(_viterbi, "viterbi")
    for tokens in (seq.tokens for seq in toy_corpus):
        assert all(len(model.candidates(t.norm)[1]) == 1 for t in tokens)
        for beam in (0, 4):
            assert tag_sequence(model, tokens, beam) == brute_force_best(model, tokens)
    assert calls == Counter()
    for words in (["ζζζ", "λόγος", "."], ["καί", "ζζζ", "λόγος", "."],
                  ["λόγος", "παύει", "τέχνην", "ζζζ"]):
        tokens = [Token(w, w, i) for i, w in enumerate(words)]
        for beam in (0, 4):
            calls.clear()
            tag_sequence(model, tokens, beam)
            assert calls == Counter(increments=len(tokens), viterbi=1)


def test_scores_stay_python_floats(tmp_path, toy_corpus, toy_rules, toy_schema):
    """``sequence_log_prob`` is a Python float, not a numpy scalar,
    ``-inf`` included."""
    model = _zero_emission_model(tmp_path / "zero.model", toy_corpus, toy_rules, toy_schema)
    tokens = [Token(w, w, i) for i, w in enumerate(["καί", "ζζζ", "λόγος", "."])]
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
        _check_increments(monkeypatch,
                          lambda: rescored(train(sequences, rules, schema), smooth=smooth),
                          texts, [seq.tokens for seq in sequences])
