"""Plain reference implementations used as test oracles.

``fit_interpolation_reference`` is the direct form of
``greektag.model.fit_interpolation``: every count is keyed by ``Tag``
objects, and for each held-out sequence a full set of tables is built
from that sequence alone and subtracted from the global one.  The awards
are summed in the same order and with the same arithmetic as the
library's leave-one-out index, so both must return exactly equal
weights.

``reference_chain_prob`` is ``TransitionStats.chain_prob`` computed
factor by factor on the ``Tag``-keyed tables below: the category factor
with its escape to the category unigram after an unseen history, and per
feature value its three levels, dropping a level whose denominator is 0,
renormalizing the weights left (uniform with none left) and mixing in
the floor; without smoothing, the product of raw relative frequencies.

``_viterbi_loops`` is the trigram Viterbi search written as plain loops
over a flat form of the instance of ``greektag._viterbi.viterbi``: the
increment blocks flattened and joined in one array ``inc``, position
k's block at offset ``off[k]``.  It copies
every state's whole best path at each position and breaks exact ties by
comparing those paths element by element, the most literal reading of
the lexicographic tie-break, beam pruning included.

``brute_force_best`` is the exhaustive decoding oracle: it enumerates
every candidate sequence and scores each with
``Model.sequence_log_prob``, so it must agree with
``greektag.decode.tag_sequence`` bit for bit on any instance small
enough to enumerate.

``cross_validation_reference`` is ``greektag.cli.cross_validation``
trained from scratch: it checks every sequence as ``train`` does, then
each fold's model is ``train`` on the sequences the fold keeps, so it
must give exactly the same accuracy, or raise the same error.

``train_lexicon_reference`` is ``greektag.morph.train_lexicon`` token
by token: it splits every token of the corpus on its own, counts it
once, and logs it where it stands; ``train_lexicon`` splits each
distinct (word, tag) pair once and counts it as often as it occurs.

``transition_prob`` is a model's transition probability computed one
cell at a time on ``Tag`` arguments through the public
``TransitionStats.chain_prob``: 0.0 plus l3·P(t | h2, h1), then
l2·P(t | h1), then l1·P(t), each term skipped where its weight is 0.
``reference_log_transition`` is its log, ``-inf`` for 0, so it must
equal every cell of ``Model.transition_block`` byte for byte.

``reference_increments`` fills a sequence's trellis cell by cell on
``Tag`` objects: ``reference_log_transition`` of each (h2, h1, t) plus
the ``math.log`` of the word's lexical probability of t, in the flat
layout of ``_viterbi_loops``: the blocks ``decode._fill`` returns,
flattened and joined.

``run_test_reference`` is the chi-square deviation test of
``greektag.stylometry.run_test`` from the definition: it drops each
category whose pool is degenerate, category by category, and computes
each cell's pooled probability on its own, so it must give the same
chi-square values, repr for repr.

``segment_reference`` and ``lexical_prob_reference`` are
``greektag.morph.segment`` and ``lexical_prob`` as they were before
their memos, with ``_scores_reference`` and
``_unknown_analyses_reference``: every word is analysed afresh, each
analysis's scores are sorted into a ``MorphAnalysis``, an unknown word
matches its suffixes a second time, and ``lexical_prob_reference``
sums the analyses of ``segment_reference``.  Only the names differ
from that code.  The library must give the same analyses and the same
doubles on every word and lexicon; ``analysis_mismatch`` says where it
does not.

The last two helpers serve the tests, not as oracles: ``all_tags``
lists every schema-valid tag, and ``rescored`` rebuilds a trained model
with raw scoring or fixed interpolation weights.
"""

import itertools
import math
import random
from collections import Counter, defaultdict

import numpy as np

from greektag.cli import CV_FOLDS, DEFAULT_SEED
from greektag.decode import tag_sequence
from greektag.errors import GreektagError, ModelError, SearchSpaceError
from greektag.model import NEG_INF, Model, _instances, train
from greektag.morph import (
    Lexicon,
    LexiconEntry,
    MorphAnalysis,
    RuleSet,
    SuffixRule,
    _sorted_scores,
    _splits,
    lexical_prob,
    segment,
)
from greektag.stylometry import chi_square_cell
from greektag.tags import (
    BOUNDARY,
    DEFAULT_CHAIN_WEIGHTS,
    Tag,
    TransitionStats,
    _tag_prefixes,
    format_tag,
)
from greektag.text import PUNCT_CATEGORY, is_punct


class _TagTables:
    """Tag-keyed count tables: ``pre[o]`` maps (history tags..., prefix
    tuple) to a count at order ``o``, ``ctx[o]`` maps the history alone;
    ``catfeat``/``featuni`` are the category-local and global
    feature-value counts."""

    def __init__(self, trigram_counts):
        self.pre = {1: defaultdict(int), 2: defaultdict(int), 3: defaultdict(int)}
        self.ctx = {1: defaultdict(int), 2: defaultdict(int), 3: defaultdict(int)}
        self.catfeat = defaultdict(int)
        self.catfeat_ctx = defaultdict(int)
        self.featuni = defaultdict(int)
        self.featuni_ctx = defaultdict(int)
        for (a, b, t), n in trigram_counts.items():
            prefixes = _tag_prefixes(t)
            for order, hist in ((3, (a, b)), (2, (b,)), (1, ())):
                self.ctx[order][hist] += n
                pre = self.pre[order]
                for p in prefixes:
                    pre[hist + (p,)] += n
            cat = t.category
            for f, v in t.features:
                self.catfeat[(cat, f, v)] += n
                self.catfeat_ctx[(cat, f)] += n
                self.featuni[(f, v)] += n
                self.featuni_ctx[f] += n


def reference_chain_prob(tables, schema, tag, history, *, smoothed,
                         chain_weights, floor):
    """P(tag | history) on the ``_TagTables`` ``tables``."""
    hist = tuple(history)
    pre = tables.pre[len(hist) + 1]
    den = tables.ctx[len(hist) + 1].get(hist, 0)
    prefix = (tag.category,)
    if not smoothed:
        p = 1.0
        for parent, child in zip(_tag_prefixes(tag), _tag_prefixes(tag)[1:]):
            d = pre.get(hist + (parent,), 0)
            p *= pre.get(hist + (child,), 0) / d if d else 0.0
        return p
    if den:
        mle = pre.get(hist + (prefix,), 0) / den
    else:  # unseen history: the category unigram
        mle = tables.pre[1].get((prefix,), 0) / tables.ctx[1][()]
    p = (1.0 - floor) * mle + floor / len(schema.categories)
    cat = tag.category
    for f, v in tag.features:
        d_spec = pre.get(hist + (prefix,), 0)
        d_cat = tables.catfeat_ctx.get((cat, f), 0)
        d_uni = tables.featuni_ctx.get(f, 0)
        levels = (
            pre.get(hist + (prefix + (v,),), 0) / d_spec if d_spec else None,
            tables.catfeat.get((cat, f, v), 0) / d_cat if d_cat else None,
            tables.featuni.get((f, v), 0) / d_uni if d_uni else None,
        )
        wsum = mixed = 0.0
        for w, m in zip(chain_weights, levels):
            if m is not None:
                wsum += w
                mixed += w * m
        nvals = len(schema.allowed_values(f))
        p *= (1.0 - floor) * (mixed / wsum) + floor / nvals if wsum else 1.0 / nvals
        prefix = prefix + (v,)
    return p


def fit_interpolation_reference(seq_tag_lists):
    """(lambdas, chain_weights) by leave-one-sequence-out deleted
    interpolation, one table per held-out sequence."""
    per_seq = [Counter(_instances(tags)) for tags in seq_tag_lists]
    tri_g = Counter()
    for c in per_seq:
        tri_g.update(c)

    big_g, uni_g, ctx3_g, ctx2_g = Counter(), Counter(), Counter(), Counter()
    n_g = 0
    for (a, b, t), n in tri_g.items():
        big_g[(b, t)] += n
        uni_g[t] += n
        ctx3_g[(a, b)] += n
        ctx2_g[b] += n
        n_g += n

    tables_g = _TagTables(tri_g)
    order_awards = [0.0, 0.0, 0.0]  # l1, l2, l3
    chain_awards = [0.0, 0.0, 0.0]  # specific, category-local, global
    saw_features = False

    for c_s in per_seq:
        big_s, uni_s, ctx3_s, ctx2_s = Counter(), Counter(), Counter(), Counter()
        n_s = 0
        for (a, b, t), n in c_s.items():
            big_s[(b, t)] += n
            uni_s[t] += n
            ctx3_s[(a, b)] += n
            ctx2_s[b] += n
            n_s += n
        tables_s = _TagTables(c_s)

        for (a, b, t), n in c_s.items():
            d3 = ctx3_g[(a, b)] - ctx3_s[(a, b)]
            c3 = (tri_g[(a, b, t)] - c_s[(a, b, t)]) / d3 if d3 else 0.0
            d2 = ctx2_g[b] - ctx2_s[b]
            c2 = (big_g[(b, t)] - big_s[(b, t)]) / d2 if d2 else 0.0
            d1 = n_g - n_s
            c1 = (uni_g[t] - uni_s[t]) / d1 if d1 else 0.0
            best = max(c3, c2, c1)
            if best <= 0.0:
                order_awards[0] += n
            else:
                winners = [i for i, c in ((0, c1), (1, c2), (2, c3)) if c == best]
                for i in winners:
                    order_awards[i] += n / len(winners)

            hist = (a, b)
            prefix = (t.category,)
            for f, v in t.features:
                saw_features = True
                key_den = hist + (prefix,)
                key_num = hist + (prefix + (v,),)
                d_spec = tables_g.pre[3].get(key_den, 0) - tables_s.pre[3].get(key_den, 0)
                c_spec = (
                    (tables_g.pre[3].get(key_num, 0) - tables_s.pre[3].get(key_num, 0)) / d_spec
                    if d_spec else 0.0
                )
                ckey = (t.category, f)
                d_cat = tables_g.catfeat_ctx.get(ckey, 0) - tables_s.catfeat_ctx.get(ckey, 0)
                vkey = (t.category, f, v)
                c_cat = (
                    (tables_g.catfeat.get(vkey, 0) - tables_s.catfeat.get(vkey, 0)) / d_cat
                    if d_cat else 0.0
                )
                d_uni = tables_g.featuni_ctx.get(f, 0) - tables_s.featuni_ctx.get(f, 0)
                ukey = (f, v)
                c_uni = (
                    (tables_g.featuni.get(ukey, 0) - tables_s.featuni.get(ukey, 0)) / d_uni
                    if d_uni else 0.0
                )
                best = max(c_spec, c_cat, c_uni)
                if best <= 0.0:
                    chain_awards[2] += n
                else:
                    winners = [i for i, c in ((0, c_spec), (1, c_cat), (2, c_uni)) if c == best]
                    for i in winners:
                        chain_awards[i] += n / len(winners)
                prefix = prefix + (v,)

    # left to right: sum() of floats is compensated from Python 3.12 on
    total = order_awards[0] + order_awards[1] + order_awards[2]
    lambdas = tuple(a / total for a in order_awards) if total else (1.0, 0.0, 0.0)
    ctotal = chain_awards[0] + chain_awards[1] + chain_awards[2]
    if not saw_features or not ctotal:
        chain_weights = DEFAULT_CHAIN_WEIGHTS
    else:
        chain_weights = tuple(a / ctotal for a in chain_awards)
    return lambdas, chain_weights


def cross_validation_reference(corpus, rules, schema, folds=CV_FOLDS, seed=DEFAULT_SEED):
    """Held-out tagging accuracy over up to ``folds`` folds, training
    each fold's model from scratch."""
    if len(corpus) < 2:
        return None
    for seq in corpus:  # as train checks its corpus, before any fold
        if seq.gold_tags is None:
            raise ModelError("training corpus must carry gold tags")
        for t in seq.gold_tags:
            schema.validate(t)
    order = list(range(len(corpus)))
    random.Random(seed).shuffle(order)
    k = min(folds, len(corpus))
    correct = 0
    total = 0
    for fold in range(k):
        held = set(order[fold::k])
        fold_train = [corpus[i] for i in range(len(corpus)) if i not in held]
        fold_model = train(fold_train, rules, schema)
        for i in sorted(held):
            seq = corpus[i]
            predicted = tag_sequence(fold_model, seq.tokens)
            correct += sum(p == g for p, g in zip(predicted, seq.gold_tags))
            total += len(seq)
    return correct / total if total else None


def train_lexicon_reference(corpus, rules, schema):
    """The lexicon of a gold-tagged corpus, counted token by token."""
    stem_counts = defaultdict(Counter)
    stem_classes = defaultdict(set)
    ff_counts = defaultdict(Counter)
    suffix_counts = defaultdict(Counter)
    rule_counts = defaultdict(Counter)
    word_freq = Counter()
    observations = []
    log = []
    for seq in corpus:
        for token, gold in zip(seq.tokens, seq.gold_tags):
            word = token.norm
            word_freq[word] += 1
            observations.append((word, gold))
            if not schema.features_of(gold.category):
                ff_counts[word][gold] += 1
                continue
            splits = []
            for prefix, stem, literal, rule_ids in _splits(word, rules):
                admitting = [rid for rid in rule_ids if gold in rules.suffix_rules[rid].tags]
                if admitting:
                    splits.append((prefix, stem, literal, admitting))
            if not splits:
                ff_counts[word][gold] += 1
                log.append(f"no segmentation for {word!r} with tag "
                           f"{format_tag(gold)}; stored as full form")
                continue
            splits.sort(key=lambda s: (-len(s[2]), -len(s[0])))
            prefix, stem, literal, admitting = splits[0]
            stem_counts[stem][gold] += 1
            suffix_counts[literal][gold] += 1
            for rid in admitting:
                stem_classes[stem].add(rules.suffix_rules[rid].paradigm_class)
                rule_counts[rid][gold] += 1

    def distribution(counter):
        total = sum(counter.values())
        items = sorted(counter.items(), key=lambda kv: format_tag(kv[0]))
        return tuple((t, n / total) for t, n in items)

    hapax = Counter(gold for word, gold in observations if word_freq[word] == 1)
    if not hapax:
        hapax = Counter(gold for _, gold in observations)
    trained_rules = RuleSet(
        [SuffixRule(rule.pattern, rule.paradigm_class, rule.tags, rule.literals,
                    dict(distribution(rule_counts[i])) if rule_counts.get(i) else rule.tag_probs)
         for i, rule in enumerate(rules.suffix_rules)],
        rules.prefix_rules,
    )
    return Lexicon(
        schema, trained_rules,
        [LexiconEntry(f, frozenset(stem_classes[f]), distribution(c))
         for f, c in sorted(stem_counts.items())],
        [LexiconEntry(f, frozenset(), distribution(c)) for f, c in sorted(ff_counts.items())],
        {lit: dict(distribution(c)) for lit, c in sorted(suffix_counts.items())},
        dict(distribution(hapax)) if hapax else {},
        log,
    )


def _viterbi_loops(counts, adims, bdims, off, inc, beam):
    K = counts.shape[0]
    maxc = 1
    for k in range(K):
        if counts[k] > maxc:
            maxc = counts[k]

    scores = np.full((maxc, maxc), -np.inf)
    paths = np.zeros((maxc, maxc, K), np.int32)
    new_scores = np.full((maxc, maxc), -np.inf)
    new_paths = np.zeros((maxc, maxc, K), np.int32)

    n0 = counts[0]
    for y in range(n0):
        scores[0, y] = inc[off[0] + y]
        paths[0, y, 0] = y
    if 0 < beam < n0:
        flat = np.sort(scores[0, :n0].copy())
        threshold = flat[n0 - beam]
        for y in range(n0):
            if scores[0, y] < threshold:
                scores[0, y] = -np.inf

    for k in range(1, K):
        X = adims[k]
        Y = bdims[k]
        Z = counts[k]
        base = off[k]
        for y in range(Y):
            for z in range(Z):
                best = -np.inf
                bestx = -1
                for x in range(X):
                    v = scores[x, y] + inc[base + (x * Y + y) * Z + z]
                    if bestx < 0 or v > best:
                        best = v
                        bestx = x
                    elif v == best:
                        # exact tie: keep the lexicographically smaller path
                        for i in range(k):
                            d = paths[x, y, i] - paths[bestx, y, i]
                            if d < 0:
                                bestx = x
                                break
                            if d > 0:
                                break
                new_scores[y, z] = best
                for i in range(k):
                    new_paths[y, z, i] = paths[bestx, y, i]
                new_paths[y, z, k] = z
        scores, new_scores = new_scores, scores
        paths, new_paths = new_paths, paths
        if 0 < beam < Y * Z:
            flat = np.sort(scores[:Y, :Z].copy().reshape(Y * Z))
            threshold = flat[Y * Z - beam]
            for y in range(Y):
                for z in range(Z):
                    if scores[y, z] < threshold:
                        scores[y, z] = -np.inf

    U = bdims[K - 1]
    V = counts[K - 1]
    best = -np.inf
    bu = -1
    bv = -1
    for u in range(U):
        for v in range(V):
            s = scores[u, v]
            if bu < 0 or s > best:
                best = s
                bu = u
                bv = v
            elif s == best:
                for i in range(K):
                    d = paths[u, v, i] - paths[bu, bv, i]
                    if d < 0:
                        bu = u
                        bv = v
                        break
                    if d > 0:
                        break
    out = np.empty(K, np.int32)
    for i in range(K):
        out[i] = paths[bu, bv, i]
    return out


#: Upper bound on sequences the oracle will enumerate.
ORACLE_LIMIT = 1_000_000


def brute_force_best(model, tokens, limit=ORACLE_LIMIT):
    """Exhaustive argmax over all candidate tag sequences.

    Applies the same tie-break as ``tag_sequence``: candidates are
    enumerated in lexicographic order and only strictly better scores
    replace the incumbent.
    """
    K = len(tokens)
    if K == 0:
        return []
    cands = [model.candidates(tok.norm)[0] for tok in tokens]
    size = 1
    for c in cands:
        size *= len(c)
        if size > limit:
            raise SearchSpaceError(
                f"instance enumerates over {limit} sequences"
            )
    best = None
    best_score = NEG_INF
    for combo in itertools.product(*cands):
        score = model.sequence_log_prob(tokens, combo)
        if best is None or score > best_score:
            best = combo
            best_score = score
    return list(best)


def reference_increments(model, tokens):
    """float64 trellis increments of ``tokens``, one cell at a time."""
    cands = [model.lexical_probs(tok.norm) for tok in tokens]
    boundary = [(BOUNDARY, 1.0)]
    inc = []
    for k in range(len(tokens)):
        prev2 = cands[k - 2] if k >= 2 else boundary
        prev1 = cands[k - 1] if k >= 1 else boundary
        for a, _ in prev2:
            for b, _ in prev1:
                for t, p in cands[k]:
                    emis = math.log(p) if p > 0.0 else NEG_INF
                    inc.append(reference_log_transition(model, t, b, a) + emis)
    return np.array(inc, np.float64)


def run_test_reference(group, threshold, exclude_self):
    """(categories, dropped categories, chi-square matrix, alpha) of the
    deviation test of ``group``, cell by cell."""
    texts = [c.counts for c in group]
    totals = [sum(c.values()) for c in texts]
    categories = sorted({cat for c in texts for cat in c})
    counts = np.array([[c.get(cat, 0) for cat in categories] for c in texts], np.int64)
    totals = np.array(totals, np.int64)
    grand = counts.sum(axis=0)
    grand_total = int(totals.sum())
    kept, dropped = [], []
    for j, cat in enumerate(categories):
        degenerate_pool = grand[j] in (0, grand_total)
        if exclude_self:
            rest = grand[j] - counts[:, j]
            rest_total = grand_total - totals
            degenerate_pool = degenerate_pool or any(
                r in (0, rt) for r, rt in zip(rest, rest_total))
        (dropped if degenerate_pool else kept).append(j)
    if not kept:
        raise GreektagError("no category has a usable pooled probability")
    chi2 = np.zeros((len(texts), len(kept)))
    for col, j in enumerate(kept):
        for i in range(len(texts)):
            if exclude_self:
                p = (grand[j] - counts[i, j]) / (grand_total - totals[i])
            else:
                p = grand[j] / grand_total
            chi2[i, col] = chi_square_cell(int(counts[i, j]), int(totals[i]), p)
    alpha = tuple(int((chi2[i] >= threshold).sum()) for i in range(len(texts)))
    return ([categories[j] for j in kept], [categories[j] for j in dropped], chi2, alpha)


def _scores_reference(lexicon: Lexicon, literal: str, rule_ids,
                      stem: LexiconEntry | None = None) -> tuple[tuple[Tag, float], ...]:
    """Positive per-tag scores of one analysis, summed over its rules.

    P(tag | suffix) is the trained table of ``literal``, else the rule's
    trained weights, else uniform over the rule's tags.  A known stem
    skips the rules outside its paradigm classes and multiplies each
    score by P(tag | stem); with no rule ids it stands alone, the suffix
    factor being 1."""
    if not rule_ids:
        return tuple((t, p) for t, p in stem.tag_probs if p > 0)
    table = lexicon.suffix_probs.get(literal)
    stem_probs = None if stem is None else dict(stem.tag_probs)
    scores: dict[Tag, float] = defaultdict(float)
    for rid in rule_ids:
        rule = lexicon.rules.suffix_rules[rid]
        if stem is not None and rule.paradigm_class not in stem.paradigm_classes:
            continue
        weights = table if table is not None else rule.tag_probs
        for tag in rule.tags:
            p = 1.0 / len(rule.tags) if weights is None else weights.get(tag, 0.0)
            if stem_probs is not None:
                p = stem_probs.get(tag, 0.0) * p
            if p > 0:
                scores[tag] += p
    return _sorted_scores(scores)


def segment_reference(word: str, lexicon: Lexicon) -> list[MorphAnalysis]:
    """Every admissible prefix-stem-suffix split of a normalized word.

    Known words yield full-form and stem-based analyses; a word without
    any yields suffix-only analyses with the stem treated as unknown; a
    word without even a matching suffix yields the hapax-prior fallback
    with an empty suffix.  Ordered by descending suffix length, ties by
    descending stem length.
    """
    analyses: list[MorphAnalysis] = []
    entry = lexicon.fullforms.get(word)
    if entry is not None:
        probs = _scores_reference(lexicon, "", (), entry)  # like a bare stem
        if probs:
            analyses.append(MorphAnalysis("", word, "", probs))
    for prefix, stem, literal, rule_ids in _splits(word, lexicon.rules):
        entry = lexicon.stems.get(stem)
        if entry is not None:
            probs = _scores_reference(lexicon, literal, rule_ids, entry)
            if probs:
                analyses.append(MorphAnalysis(prefix, stem, literal, probs))

    if not analyses:
        analyses = _unknown_analyses_reference(word, lexicon)

    analyses.sort(key=lambda a: (-len(a.suffix), -len(a.stem)))
    return analyses


def _unknown_analyses_reference(word: str, lexicon: Lexicon) -> list[MorphAnalysis]:
    if is_punct(word) and PUNCT_CATEGORY in lexicon.schema.category_features:
        return [MorphAnalysis("", word, "", ((Tag(PUNCT_CATEGORY), 1.0),))]
    out = []
    for literal, rule_ids in lexicon.rules.match_suffixes(word):
        if not literal:
            continue  # an empty suffix tells nothing about an unknown stem
        probs = _scores_reference(lexicon, literal, rule_ids)
        if probs:
            out.append(MorphAnalysis("", word[: len(word) - len(literal)], literal, probs))
    if out:
        return out
    prior = _sorted_scores(lexicon.hapax_prior)
    return [MorphAnalysis("", word, "", prior)]


def lexical_prob_reference(word: str, lexicon: Lexicon) -> list[tuple[Tag, float]]:
    """Distribution over tags for a normalized word: per-analysis scores
    summed per tag and renormalized.  Empty only for a lexicon with no
    usable statistics at all."""
    scores: dict[Tag, float] = defaultdict(float)
    for analysis in segment_reference(word, lexicon):
        for tag, score in analysis.tag_probs:
            scores[tag] += score
    tags = sorted(scores, key=format_tag)
    total = 0.0
    for t in tags:
        total += scores[t]
    if total <= 0.0:
        return []
    return [(t, scores[t] / total) for t in tags]


def analysis_mismatch(word: str, lexicon: Lexicon) -> str | None:
    """What ``segment`` or ``lexical_prob`` gives ``word`` otherwise than
    ``segment_reference`` or ``lexical_prob_reference``, doubles compared
    by ``float.hex``; None when both agree."""
    def hexed(pairs):
        return [(format_tag(t), p.hex()) for t, p in pairs]

    got, want = ([(a.prefix, a.stem, a.suffix, hexed(a.tag_probs)) for a in fn(word, lexicon)]
                 for fn in (segment, segment_reference))
    if got != want:
        return f"segment({word!r}) gives {got}, the reference {want}"
    got, want = hexed(lexical_prob(word, lexicon)), hexed(lexical_prob_reference(word, lexicon))
    if got != want:
        return f"lexical_prob({word!r}) gives {got}, the reference {want}"
    return None


def all_tags(schema):
    """Every schema-valid tag: by category in declaration order, then by
    the product of its features' values in declaration order."""
    return [Tag(cat, tuple(zip(feats, values)))
            for cat, feats in schema.category_features.items()
            for values in itertools.product(*(schema.feature_values[f] for f in feats))]


def transition_prob(model, t, h1, h2):
    """P(t | h1, h2) under ``model``, with h1 the immediately preceding tag."""
    l1, l2, l3 = model.lambdas
    chain = model.stats.chain_prob
    p = 0.0
    if l3:
        p += l3 * chain(t, (h2, h1))
    if l2:
        p += l2 * chain(t, (h1,))
    if l1:
        p += l1 * chain(t, ())
    return p


def reference_log_transition(model, t, h1, h2):
    """log ``transition_prob``, ``-inf`` where it is 0."""
    p = transition_prob(model, t, h1, h2)
    return math.log(p) if p > 0.0 else NEG_INF


def rescored(model, *, smooth=True, lambdas=None):
    """A model on the counts, fitted chain weights and lexicon of the
    trained ``model``: raw relative frequencies unless ``smooth``, and
    ``lambdas``, when given, in place of its interpolation weights.  It
    shares ``model``'s count tables."""
    stats = TransitionStats(model.schema, model.stats.tables, smoothed=smooth,
                            chain_weights=model.stats.chain_weights)
    return Model(model.schema, stats, model.lambdas if lambdas is None else lambdas,
                 model.lexicon)
