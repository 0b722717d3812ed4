"""Trigram tag model: training, smoothing, and sequence probability.

Transition probabilities interpolate the trigram, bigram, and unigram
chain estimates with weights fitted by deleted interpolation, leaving
one sequence out at a time.  All sequence arithmetic runs in log space
with ``-inf`` as the zero-probability sentinel; each position
contributes a single pre-added (transition + emission) increment so
that scores are bit-for-bit reproducible across the decoder, the
brute-force oracle, and this module.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from . import morph
from .errors import INT64_MAX, FormatError, ModelError, TagError, open_utf8, parse_weight
from .tags import (
    BOUNDARY,
    BOUNDARY_CATEGORY,
    ROOT,
    Tag,
    TagSchema,
    TransitionStats,
    _Tables,
    format_tag,
)
from .text import _tab_rows

NEG_INF = float("-inf")
#: Upper bound on the float64 cells held by each of one model's two array
#: caches, transition blocks and increments (8 MB each); the array that
#: would pass it clears its cache first, and a larger one is not cached.
MAX_BLOCK_CACHE_CELLS = 1_000_000
#: Upper bound on the words held by a model's candidate cache; the word
#: that would pass it clears that cache and the distribution memo first.
MAX_CANDIDATE_WORDS = 100_000

_FORMAT = "greektag-model 1"
_HEADER = ("lambdas", "chain", "floor", "smoothed")
_SECTIONS = ("schema", "rules", "trigrams", "lexicon")


def _instances(tags, boundary=BOUNDARY):
    """(h2, h1, t) triples over a sequence padded with two boundary tags."""
    a, b = boundary, boundary
    for t in tags:
        yield (a, b, t)
        a, b = b, t


def count_sequences(seq_tag_lists):
    """One id-keyed ``_Tables`` over all the tag sequences, and their
    ``LeaveOneOut`` index, which holds the id-keyed trigram counts of
    each sequence (what holds it out of the tables)."""
    # imported here, so that loading a model and tagging never compile it
    from ._loo import LeaveOneOut

    tables = _Tables({})
    boundary = tables.intern(BOUNDARY)
    seq_counts = [Counter(_instances([tables.intern(t) for t in tags], boundary))
                  for tags in seq_tag_lists]
    for c in seq_counts:
        tables.add(c)
    return tables, LeaveOneOut(tables, seq_counts)


def fit_interpolation(index, held=()):
    """Order weights (l1, l2, l3) and chain level weights fitted by
    leave-one-sequence-out deleted interpolation on the sequences of
    ``index`` outside ``held``.

    Each held-out observation is awarded to the order (or chain level)
    whose leave-one-out relative frequency is largest, ties split
    evenly; observations no order can explain go to the most robust
    level.  Weights are the normalized award totals, each added left to
    right, never by ``sum()`` (compensated from Python 3.12 on) or a
    pairwise sum, so the model file does not depend on the interpreter.

    ``index`` is the ``LeaveOneOut`` index ``count_sequences`` returns.
    Every count is read off it, so its tables may hold a fold out
    meanwhile, as cross-validation does.
    """
    return index.fit(held)


def _header_fields(header, name, path) -> tuple[int, list[str]]:
    """(file line, fields) of model header line ``name``."""
    if name not in header:
        raise FormatError(f"missing header line {name}", path)
    return header[name]


def _header_numbers(header, name, count, path) -> tuple[float, ...]:
    """The ``count`` numbers of model header line ``name``, each read by
    ``parse_weight``."""
    no, fields = _header_fields(header, name, path)
    try:
        values = tuple(map(parse_weight, fields))
    except ValueError:
        values = ()
    if len(values) != count:
        raise FormatError(
            f"{name} needs {count} finite non-negative number(s), got {' '.join(fields)}",
            path, no,
        )
    return values


class _ArrayCache(dict):
    """A dict of read-only arrays that holds at most
    ``MAX_BLOCK_CACHE_CELLS`` cells in all (``cells``)."""

    cells = 0

    def put(self, key, array: np.ndarray) -> np.ndarray:
        """Make ``array`` read-only and cache it under ``key``, first
        clearing the cache if it would pass the bound; an array larger
        than the bound is returned uncached."""
        array.flags.writeable = False
        if array.size <= MAX_BLOCK_CACHE_CELLS:
            if self.cells + array.size > MAX_BLOCK_CACHE_CELLS:
                self.clear()
                self.cells = 0
            self[key] = array
            self.cells += array.size
        return array


class Model:
    """Immutable trained model: trigram statistics, interpolation
    weights, and the morphological lexicon."""

    def __init__(self, schema: TagSchema, stats: TransitionStats,
                 lambdas, lexicon: morph.Lexicon):
        self.schema = schema
        self.stats = stats
        self.lambdas = tuple(lambdas)
        if (len(self.lambdas) != 3
                or not all(math.isfinite(l) and l >= 0.0 for l in self.lambdas)
                or abs(sum(self.lambdas) - 1.0) > 1e-12):
            raise ModelError(f"bad interpolation weights {self.lambdas}")
        self.lexicon = lexicon
        self._intern = stats.tables.intern
        #: tag id of the boundary padding before a sequence's first tag
        self.boundary_id = self._intern(BOUNDARY)
        self._blocks = _ArrayCache()  # (h2 ids, h1 ids, t ids) -> (X, Y, Z) log transitions
        self._incs = _ArrayCache()  # (h2 ids, h1 ids, word) -> increments(...)
        self._cands: dict = {}  # word -> candidates(word)
        self._dists: dict = {}  # tuple(lexical_probs(word)) -> candidates(word)

    # -- probabilities ------------------------------------------------------

    def _log_probs(self, prev2_ids, prev1_ids, ids) -> list[float]:
        """log P(t | h1, h2), or ``-inf`` where it is 0, for every h2 of
        ``prev2_ids``, h1 of ``prev1_ids`` and t of ``ids``, flat in that
        order.  P is l3·P(t | h2, h1) + l2·P(t | h1) + l1·P(t), added
        left to right, where a zero weight's term is 0.0 and its chain
        is not walked.  P(t) is read off the chain memo, the order-2 row
        is walked once per h1, and the order-3 row once per counted
        (h2, h1); every h2 after which (h2, h1) was not counted shares
        one row, built once per h1."""
        l1, l2, l3 = self.lambdas
        stats = self.stats
        after, row = stats.tables.counts_after, stats.row
        chains = stats.chains(ids)
        log = math.log
        zeros = [0.0] * len(ids)
        q1 = [l1 * chain[3] for chain in chains]
        q2 = [row(after((h1,)), chains) if l2 else zeros for h1 in prev1_ids]
        out = []
        shared = {}  # h1 index -> its cells after an uncounted (h2, h1)
        for h2 in prev2_ids:
            for y, h1 in enumerate(prev1_ids):
                counts = l3 and after((h2, h1))
                own = counts and counts.get(ROOT, 0)
                cells = None if own else shared.get(y)
                if cells is None:
                    q3 = row(counts, chains) if l3 else zeros
                    cells = [log(p) if (p := l3 * p3 + l2 * p2 + p1) > 0.0 else NEG_INF
                             for p3, p2, p1 in zip(q3, q2[y], q1)]
                    if not own:
                        shared[y] = cells
                out += cells
        return out

    def transition_block(self, prev2_ids, prev1_ids, ids) -> np.ndarray:
        """Read-only float64 array of shape (X, Y, Z) whose cell
        ``[x, y, z]`` is log P(ids[z] | prev1_ids[y], prev2_ids[x]).  The
        arguments are tuples of tag ids; one block is built per distinct
        triple of them and cached while the cache holds at most
        ``MAX_BLOCK_CACHE_CELLS`` cells."""
        key = (prev2_ids, prev1_ids, ids)
        block = self._blocks.get(key)
        if block is None:
            block = np.array(self._log_probs(prev2_ids, prev1_ids, ids), np.float64)
            block = self._blocks.put(key, block.reshape(len(prev2_ids), len(prev1_ids), len(ids)))
        return block

    def increments(self, prev2_ids, prev1_ids, norm: str) -> np.ndarray:
        """Read-only float64 array of shape (X, Y, Z) of the trellis
        increments of word ``norm`` after candidate ids ``prev2_ids`` and
        ``prev1_ids``: ``transition_block(prev2_ids, prev1_ids, ids) +
        emis``, with the word's ``candidates`` ids and log emissions, so
        cell ``[x, y, z]`` is the double ``sequence_log_prob`` adds for
        ``ids[z]`` after ``prev1_ids[y]`` and ``prev2_ids[x]``.  One
        array is made per distinct key, from the cached block, and cached
        under the same bound as the blocks."""
        key = (prev2_ids, prev1_ids, norm)
        inc = self._incs.get(key)
        if inc is None:
            _, ids, emis = self.candidates(norm)
            inc = self._incs.put(key, self.transition_block(prev2_ids, prev1_ids, ids) + emis)
        return inc

    def log_transition(self, t: Tag, h1: Tag, h2: Tag) -> float:
        intern = self._intern
        return self._log_probs((intern(h2),), (intern(h1),), (intern(t),))[0]

    def lexical_probs(self, norm: str) -> list[tuple[Tag, float]]:
        return morph.lexical_prob(norm, self.lexicon)

    def candidates(self, norm: str) -> tuple[list[Tag], tuple[int, ...], np.ndarray]:
        """The candidate tags of a word in canonical tag string order,
        with their ids and a read-only float64 array of their log
        emission probabilities (``-inf`` for 0).  Raises ``ModelError``
        when the word has none.  Words with equal distributions share
        one triple, so never change it.  At most ``MAX_CANDIDATE_WORDS``
        words are cached."""
        cands = self._cands.get(norm)
        if cands is None:
            probs = self.lexical_probs(norm)
            if not probs:
                raise ModelError(f"no candidate tags for {norm!r} (empty lexicon?)")
            if len(self._cands) >= MAX_CANDIDATE_WORDS:
                self._cands.clear()
                self._dists.clear()
            key = tuple(probs)
            cands = self._dists.get(key)
            if cands is None:
                tags = [t for t, _ in probs]  # sorted by canonical tag string
                emis = np.array([math.log(p) if p > 0.0 else NEG_INF for _, p in probs],
                                np.float64)
                emis.flags.writeable = False
                ids = tuple(self._intern(t) for t in tags)
                cands = self._dists[key] = (tags, ids, emis)
            self._cands[norm] = cands
        return cands

    def sequence_log_prob(self, tokens, tags) -> float:
        """Log joint probability of a tag sequence for the tokens;
        ``-inf`` when any factor vanishes.  Raises ``ModelError`` for a
        token without candidate tags, as the decoder does."""
        if len(tokens) != len(tags):
            raise ModelError(
                f"{len(tags)} tags for {len(tokens)} tokens"
            )
        total = 0.0
        a = b = self.boundary_id
        for token, tag in zip(tokens, tags):
            _, ids, log_emis = self.candidates(token.norm)
            t = self._intern(tag)
            emis = log_emis.item(ids.index(t)) if t in ids else NEG_INF
            inc = self._log_probs((a,), (b,), (t,))[0] + emis
            total += inc
            a, b = b, t
        return total

    # -- model file ----------------------------------------------------------
    #
    # Versioned text format: a header with the interpolation weights,
    # then [schema], [rules], [trigrams], and [lexicon] sections, every
    # section sorted so that identical models serialize byte-identically.

    def to_lines(self) -> list[str]:
        lines = [_FORMAT]
        lines.append("lambdas " + " ".join(repr(l) for l in self.lambdas))
        lines.append("chain " + " ".join(repr(g) for g in self.stats.chain_weights))
        lines.append(f"floor {self.stats.floor!r}")
        lines.append(f"smoothed {int(self.stats.smoothed)}")
        lines.append("[schema]")
        lines.extend(self.schema.to_lines())
        lines.append("[rules]")
        lines.extend(self.lexicon.rules.to_lines())
        lines.append("[trigrams]")
        rows = [
            (format_tag(a), format_tag(b), format_tag(t), n)
            for (a, b, t), n in self.stats.trigram_counts.items()
        ]
        for a, b, t, n in sorted(rows):
            lines.append(f"{a}\t{b}\t{t}\t{n}")
        lines.append("[lexicon]")
        lines.extend(self.lexicon.to_lines())
        return lines

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in self.to_lines():
                fh.write(line + "\n")

    @classmethod
    def load(cls, path) -> "Model":
        with open_utf8(path) as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != _FORMAT:
            raise FormatError("not a greektag model file", path, 1)
        header: dict[str, tuple[int, list[str]]] = {}
        i = 1
        while i < len(lines) and not lines[i].startswith("["):
            parts = lines[i].split()
            if len(parts) < 2:
                raise FormatError(f"bad header line {lines[i]!r}", path, i + 1)
            if parts[0] not in _HEADER:
                raise FormatError(f"unknown header line {parts[0]}", path, i + 1)
            if parts[0] in header:
                raise FormatError(f"header line {parts[0]} given twice", path, i + 1)
            header[parts[0]] = (i + 1, parts[1:])
            i += 1
        lambdas = _header_numbers(header, "lambdas", 3, path)
        chain_weights = _header_numbers(header, "chain", 3, path)
        (floor,) = _header_numbers(header, "floor", 1, path)
        no, fields = _header_fields(header, "smoothed", path)
        if fields not in (["0"], ["1"]):
            raise FormatError(f"smoothed needs 0 or 1, got {' '.join(fields)}", path, no)
        smoothed = fields == ["1"]
        if abs(sum(lambdas) - 1.0) > 1e-12:
            raise FormatError(f"lambdas sum to {sum(lambdas)!r}, not 1",
                              path, header["lambdas"][0])
        if not sum(chain_weights):
            raise FormatError("chain weights are all zero", path, header["chain"][0])
        if floor > 1.0:
            raise FormatError(f"floor {floor!r} exceeds 1", path, header["floor"][0])

        sections: dict[str, list[str]] = {}
        starts: dict[str, int] = {}  # file line of each section's [name] line
        current = None
        for no, line in enumerate(lines[i:], start=i + 1):
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1]
                if current not in _SECTIONS:
                    raise FormatError(f"unknown section {line}", path, no)
                if current in sections:
                    raise FormatError(f"section {line} given twice", path, no)
                sections[current] = []
                starts[current] = no
            elif current is not None:
                sections[current].append(line)
            else:
                raise FormatError(f"content outside any section: {line!r}", path, no)
        for needed in _SECTIONS:
            if needed not in sections:
                raise FormatError(f"missing [{needed}] section", path)

        schema = TagSchema.from_lines(sections["schema"], path=path,
                                      first_line=starts["schema"] + 1)
        rules = morph.RuleSet.from_lines(sections["rules"], schema, path=path,
                                         first_line=starts["rules"] + 1)

        def parse_tag(s: str) -> Tag:
            return BOUNDARY if s == BOUNDARY_CATEGORY else schema.parse(s)

        trigram_counts: dict = {}
        for no, fields in _tab_rows(sections["trigrams"], 4, path, starts["trigrams"] + 1):
            try:
                key = (parse_tag(fields[0]), parse_tag(fields[1]), parse_tag(fields[2]))
            except TagError as exc:
                raise FormatError(str(exc), path, no) from None
            digits = fields[3].lstrip("0")
            if not (fields[3].isascii() and fields[3].isdigit() and digits):
                raise FormatError(f"trigram count {fields[3]!r} is not a positive integer",
                                  path, no)
            # 20 digits pass the bound, and int() reads no more than 4300
            if len(digits) >= 20 or int(digits) > INT64_MAX:
                raise FormatError(f"trigram count more than {INT64_MAX} (int64)", path, no)
            # the boundary tag only pads the start of a sequence: never
            # the scored tag, and as h1 only after another boundary
            if key[2] == BOUNDARY or (key[1] == BOUNDARY and key[0] != BOUNDARY):
                raise FormatError(f"{BOUNDARY_CATEGORY} out of place in trigram "
                                  f"{' '.join(fields[:3])}", path, no)
            if key in trigram_counts:
                raise FormatError("trigram given twice", path, no)
            trigram_counts[key] = int(digits)
        if not trigram_counts:
            raise FormatError("[trigrams] section has no rows (untrained model)",
                              path, starts["trigrams"])

        stats = TransitionStats(schema, _Tables(trigram_counts), smoothed=smoothed,
                                chain_weights=chain_weights, floor=floor)
        lexicon = morph.Lexicon.from_lines(sections["lexicon"], schema, rules, path=path,
                                           first_line=starts["lexicon"] + 1)
        return cls(schema, stats, lambdas, lexicon)


def _check_gold(seq, schema) -> None:
    """Raise what ``train`` raises for ``seq`` of its corpus: a
    ``ModelError`` without gold tags, a ``TagError`` for an invalid one."""
    if seq.gold_tags is None:
        raise ModelError("training corpus must carry gold tags")
    for t in seq.gold_tags:
        schema.validate(t)


def _fitted_model(schema, tables, index, lexicon, held=()) -> Model:
    """The smoothed model on the counted ``tables``, with the weights
    fitted on the sequences of ``index`` outside ``held``."""
    if not tables.counts_after(()).get(ROOT, 0):
        raise ModelError("empty training corpus")
    lambdas, chain_weights = fit_interpolation(index, held)
    stats = TransitionStats(schema, tables, chain_weights=chain_weights)
    return Model(schema, stats, lambdas, lexicon)


def train(corpus, rules, schema) -> Model:
    """Train on an annotated corpus.

    Counts tag trigrams over sequences padded with two boundary tags
    once, fits the interpolation and chain weights leave-one-sequence-out
    and scores transitions on those counts, and builds the lexicon.
    Deterministic: the same corpus yields the same model file.
    """
    if rules is None:
        rules = morph.RuleSet.empty()
    for seq in corpus:
        _check_gold(seq, schema)
    tables, seq_counts = count_sequences([seq.gold_tags for seq in corpus])
    lexicon = morph.train_lexicon(corpus, rules, schema)
    return _fitted_model(schema, tables, seq_counts, lexicon)


def _fold_models(corpus, rules, schema, folds):
    """Yield ``(held, model)`` for each fold of ``folds``, sorted lists
    of corpus indices that partition the corpus; ``model`` is what
    ``train`` makes of the rest of the corpus, with the same model file.
    Its lexicon carries no training log.  A corpus ``train`` rejects for
    a sequence raises ``train``'s error before the first fold.

    The corpus is counted once: its trigram tables, its one
    leave-one-out index, and the lexicon counts of each fold, summed
    and normalized once.  For each fold, the fold's counts are taken out
    of the tables, the weights are fitted from the index less the fold,
    the lexicon is ``LexiconCounts.to_lexicon`` less the fold's counts,
    and the counts go back when the caller asks for the next fold.  A
    fold model reads the shared tables, so it is valid only until then.
    """
    if rules is None:
        rules = morph.RuleSet.empty()
    if sorted(i for held in folds for i in held) != list(range(len(corpus))):
        raise ValueError("folds must partition the corpus indices")
    for seq in corpus:
        _check_gold(seq, schema)
    tables, seq_counts = count_sequences([seq.gold_tags for seq in corpus])
    fold_lexicons = [morph.count_lexicon([corpus[i] for i in held], rules, schema)
                     for held in folds]
    lexicon_counts = morph.LexiconCounts()
    for counts in fold_lexicons:
        lexicon_counts.add(counts)
    whole = lexicon_counts.to_lexicon(rules, schema)

    for held, held_lexicon in zip(folds, fold_lexicons):
        for i in held:
            tables.add(seq_counts[i], -1)
        lexicon = lexicon_counts.to_lexicon(rules, schema, held_lexicon, whole)
        yield held, _fitted_model(schema, tables, seq_counts, lexicon, held)
        for i in held:
            tables.add(seq_counts[i])
