"""Prefix-stem-suffix morphology and lexical probabilities.

Inflected words are split into an optional past-tense prefix (augment),
a stem, and an inflectional suffix.  Stems and uninflected full forms
live in the lexicon with conditional tag distributions; suffixes carry
their own tag distributions in a separate table.  A word's lexical score
for a tag is the product of the stem and suffix conditionals, restricted
to combinations whose paradigm classes agree, then renormalized over all
admissible analyses.

Unknown words fall back to the suffix table alone (the suffix restricts
the candidate tags), and words without any matching suffix fall back to
the prior over hapax legomena seen in training.

A word is analysed in one walk over its splits.  The fallbacks depend on
the word's longest matching suffix literal alone, so a lexicon scores
them once per literal and keeps the result (``Lexicon._unknown``, at
most one entry per literal plus two); a lexicon entry builds the dict
of its positive tag probabilities once.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .errors import FormatError, GreektagError, ModelError, check_distinct, open_utf8
from .tags import Tag, TagSchema, format_tag
from .text import PUNCT_CATEGORY, Sequence, _tab_rows, is_punct

_EMPTY_PATTERN = "-"
_PREFIX_CLASS = "@prefix"
_PRIOR_FORM = "__hapax__"
_MAX_EXPANSION = 4096
#: characters with a meaning in a rule pattern; no literal holds one
_OPERATORS = frozenset("()[]|?*+{}\\^$.")
#: how far a lexicon row's probabilities may sum from 1
_SUM_TOLERANCE = 1e-9


def _weight(text: str) -> float:
    """A probability or rule weight; ValueError unless it is a finite
    non-negative number."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"weight {text!r} is not a finite non-negative number")
    return value


def _expand_pattern(pattern: str, path=None, line=None) -> tuple[str, ...]:
    """Expand a finite pattern into its literal strings.

    Supported syntax: literal characters, alternation groups ``(a|b)``
    and character classes ``[abc]`` of literal characters, and ``?``
    after an atom.  ``-`` denotes the empty string.  Any other use of an
    operator character is rejected: unbounded operators, since suffix
    and prefix inventories are finite, and nested or stray ones, which
    would otherwise end up inside a literal.
    """
    if pattern == _EMPTY_PATTERN:
        return ("",)
    if not pattern:
        raise FormatError(f"empty pattern; write {_EMPTY_PATTERN} for the empty string",
                          path, line)
    atoms: list[list[str]] = []
    i = 0
    while i < len(pattern):
        c = pattern[i]
        if c in "([":
            close = ")" if c == "(" else "]"
            j = pattern.find(close, i)
            if j < 0:
                raise FormatError(f"unbalanced {c!r} in pattern {pattern!r}", path, line)
            inner = pattern[i + 1 : j]
            alts = inner.split("|") if c == "(" else list(inner)
            if not alts:
                raise FormatError(f"empty character class in pattern {pattern!r}", path, line)
            ops = _OPERATORS.intersection("".join(alts))
            if ops:
                raise FormatError(f"operator {min(ops)!r} inside {c}{close} in pattern "
                                  f"{pattern!r}", path, line)
            atoms.append(alts)
            i = j + 1
        elif c == "?":
            if not atoms:
                raise FormatError(f"dangling '?' in pattern {pattern!r}", path, line)
            if "" not in atoms[-1]:
                atoms[-1] = atoms[-1] + [""]
            i += 1
        elif c in ")]|":
            raise FormatError(f"{c!r} outside a group in pattern {pattern!r}", path, line)
        elif c in _OPERATORS:
            raise FormatError(
                f"unsupported operator {c!r} in pattern {pattern!r}", path, line
            )
        else:
            atoms.append([c])
            i += 1
    literals = [""]
    for alts in atoms:
        literals = [p + a for p in literals for a in alts]
        if len(literals) > _MAX_EXPANSION:
            raise FormatError(f"pattern {pattern!r} expands too far", path, line)
    seen = set()
    out = []
    for lit in literals:
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return tuple(out)


@dataclass(frozen=True)
class SuffixRule:
    pattern: str
    paradigm_class: str
    tags: tuple[Tag, ...]
    literals: tuple[str, ...]
    tag_probs: dict | None = None  # Tag -> prob, filled by training


@dataclass(frozen=True)
class PrefixRule:
    pattern: str
    strippable: bool
    literals: tuple[str, ...]


class RuleSet:
    def __init__(self, suffix_rules, prefix_rules):
        self.suffix_rules: tuple[SuffixRule, ...] = tuple(suffix_rules)
        self.prefix_rules: tuple[PrefixRule, ...] = tuple(prefix_rules)
        suffix_ids = defaultdict(list)
        for idx, rule in enumerate(self.suffix_rules):
            for lit in rule.literals:
                suffix_ids[lit].append(idx)
        self._suffix_ids = {lit: tuple(ids) for lit, ids in suffix_ids.items()}
        self._suffix_lengths = sorted({len(lit) for lit in self._suffix_ids}, reverse=True)
        self.has_empty_suffix_rule = "" in self._suffix_ids
        self._prefix_literals = tuple(sorted(
            {lit for r in self.prefix_rules if r.strippable for lit in r.literals if lit},
            key=lambda s: (-len(s), s),
        ))

    @classmethod
    def empty(cls) -> "RuleSet":
        return cls((), ())

    def match_suffixes(self, word: str) -> list[tuple[str, tuple[int, ...]]]:
        """All (literal, rule indices) whose literal ends ``word``.

        The stem part must stay non-empty, so literals as long as the
        word itself never match.  Longest literals first.
        """
        found, end = [], len(word)
        for n in self._suffix_lengths:
            if n < end:
                literal = word[end - n:]
                rule_ids = self._suffix_ids.get(literal)
                if rule_ids:
                    found.append((literal, rule_ids))
        return found

    def match_prefixes(self, word: str) -> list[str]:
        """Strippable prefix literals that start ``word`` (longest first)."""
        if not word.startswith(self._prefix_literals):
            return []
        return [p for p in self._prefix_literals if len(p) < len(word) and word.startswith(p)]

    # -- rule file format ---------------------------------------------------
    #
    # One rule per line: `pattern<TAB>paradigm_class<TAB>tag[=prob] ...`;
    # a paradigm class of `@prefix` declares a prefix rule whose third
    # field is `strip` or `keep`; `-` denotes the empty pattern.

    def to_lines(self) -> list[str]:
        lines = []
        for rule in self.suffix_rules:
            if rule.tag_probs is None:
                tags = " ".join(format_tag(t) for t in rule.tags)
            else:
                tags = " ".join(
                    f"{format_tag(t)}={rule.tag_probs.get(t, 0.0):.12g}" for t in rule.tags
                )
            lines.append(f"{rule.pattern}\t{rule.paradigm_class}\t{tags}")
        for rule in self.prefix_rules:
            mode = "strip" if rule.strippable else "keep"
            lines.append(f"{rule.pattern}\t{_PREFIX_CLASS}\t{mode}")
        return lines

    @classmethod
    def from_lines(cls, lines, schema: TagSchema, path=None, first_line=1) -> "RuleSet":
        suffix_rules = []
        prefix_rules = []
        for no, (pattern, klass, tagfield) in _tab_rows(lines, 3, path, first_line):
            literals = _expand_pattern(pattern, path, no)
            if klass == _PREFIX_CLASS:
                if tagfield not in ("strip", "keep"):
                    raise FormatError(f"prefix mode must be strip or keep", path, no)
                if "" in literals:
                    raise FormatError("prefix pattern must be non-empty", path, no)
                prefix_rules.append(PrefixRule(pattern, tagfield == "strip", literals))
                continue
            if klass in ("", "-") or "," in klass:  # a lexicon row could not carry it
                raise FormatError(f"paradigm class {klass!r} must be non-empty, not '-', "
                                  "and hold no ','", path, no)
            tags = []
            probs = {}
            weighted = False
            for item in tagfield.split():
                # a bare tag parses as a whole; otherwise the part after
                # the last '=' is the trained weight
                try:
                    tag, w = schema.parse(item), None
                except GreektagError:
                    tagstring, eq, prob = item.rpartition("=")
                    try:
                        tag, w = schema.parse(tagstring), _weight(prob)
                    except (GreektagError, ValueError) as exc:
                        raise FormatError(f"bad tag item {item!r}: {exc}", path, no) from None
                tags.append(tag)
                if w is not None:
                    probs[tag] = w
                    weighted = True
            if not tags:
                raise FormatError("rule lists no tags", path, no)
            check_distinct(map(format_tag, tags), "tag", path, no)
            suffix_rules.append(
                SuffixRule(pattern, klass, tuple(tags), literals,
                           probs if weighted else None)
            )
        return cls(suffix_rules, prefix_rules)

    @classmethod
    def load(cls, path, schema: TagSchema) -> "RuleSet":
        with open_utf8(path) as fh:
            return cls.from_lines(fh, schema, path=str(path))


@dataclass(frozen=True)
class LexiconEntry:
    """A stem or full form with its conditional tag distribution."""

    form: str
    paradigm_classes: frozenset[str]
    tag_probs: tuple[tuple[Tag, float], ...]

    @cached_property
    def positive(self) -> dict[Tag, float]:
        """The tags of ``tag_probs`` with a positive probability, in row
        order, mapped to it; built once, on first use, and shared."""
        return {t: p for t, p in self.tag_probs if p > 0}


@dataclass(frozen=True)
class MorphAnalysis:
    """One admissible split; tag_probs holds the per-tag scores of this
    analysis (products of the stem and suffix conditionals, not yet
    normalized across analyses)."""

    prefix: str
    stem: str
    suffix: str
    tag_probs: tuple[tuple[Tag, float], ...]


class Lexicon:
    def __init__(self, schema, rules, stems=(), fullforms=(),
                 suffix_probs=None, hapax_prior=None, log=()):
        self.schema: TagSchema = schema
        self.rules: RuleSet = rules
        self.stems: dict[str, LexiconEntry] = {e.form: e for e in stems}
        self.fullforms: dict[str, LexiconEntry] = {e.form: e for e in fullforms}
        self.suffix_probs: dict[str, dict[Tag, float]] = dict(suffix_probs or {})
        self.hapax_prior: dict[Tag, float] = dict(hapax_prior or {})
        self.log: tuple[str, ...] = tuple(log)
        self._unknown: dict = {}  # see _unknown

    def __len__(self) -> int:
        return len(self.stems) + len(self.fullforms)

    # -- lexicon file format --------------------------------------------
    #
    # One entry per line: `form<TAB>kind<TAB>classes<TAB>tag=prob ...`
    # with kind one of stem/fullform/suffix/prior, classes comma-joined
    # or `-`, probabilities at 12 significant digits.

    def to_lines(self) -> list[str]:
        rows = []
        for entry in self.fullforms.values():
            rows.append((entry.form, "fullform", entry.paradigm_classes,
                         entry.tag_probs))
        if self.hapax_prior:
            rows.append((_PRIOR_FORM, "prior", frozenset(), _sorted_scores(self.hapax_prior)))
        for entry in self.stems.values():
            rows.append((entry.form, "stem", entry.paradigm_classes,
                         entry.tag_probs))
        for literal, probs in self.suffix_probs.items():
            rows.append((literal or _EMPTY_PATTERN, "suffix",
                         frozenset(), _sorted_scores(probs)))
        rows.sort(key=lambda r: (r[1], r[0]))
        lines = []
        for form, kind, classes, probs in rows:
            cls = ",".join(sorted(classes)) if classes else "-"
            body = " ".join(f"{format_tag(t)}={p:.12g}" for t, p in probs)
            lines.append(f"{form}\t{kind}\t{cls}\t{body}")
        return lines

    @classmethod
    def from_lines(cls, lines, schema, rules, path=None, first_line=1) -> "Lexicon":
        stems = []
        fullforms = []
        suffix_probs = {}
        hapax_prior = {}
        seen = set()
        for no, (form, kind, cls_field, body) in _tab_rows(lines, 4, path, first_line):
            if not form:
                raise FormatError("empty form", path, no)
            classes = frozenset() if cls_field == "-" else frozenset(cls_field.split(","))
            if "" in classes:
                raise FormatError(f"empty paradigm class in {cls_field!r}", path, no)
            if classes and kind in ("suffix", "prior"):
                # ``to_lines`` writes ``-`` for these rows, which keep no classes
                raise FormatError(f"{kind} row with paradigm classes {cls_field!r}, not -",
                                  path, no)
            probs = []
            for item in body.split():
                tagstring, eq, prob = item.rpartition("=")
                if not eq:
                    raise FormatError(f"missing probability in {item!r}", path, no)
                try:
                    probs.append((schema.parse(tagstring), _weight(prob)))
                except (GreektagError, ValueError) as exc:
                    raise FormatError(str(exc), path, no) from None
            check_distinct((format_tag(t) for t, _ in probs), "tag", path, no)
            key = kind if kind == "prior" else (kind, form)
            if key in seen:
                raise FormatError(f"second {kind} entry for {form!r}", path, no)
            seen.add(key)
            if kind == "prior" and form != _PRIOR_FORM:
                raise FormatError(f"prior row named {form!r}, not {_PRIOR_FORM}", path, no)
            total = math.fsum(p for _, p in probs)
            if abs(total - 1.0) > _SUM_TOLERANCE:
                raise FormatError(f"probabilities sum to {total!r}, not 1", path, no)
            if kind == "stem":
                stems.append(LexiconEntry(form, classes, tuple(probs)))
            elif kind == "fullform":
                fullforms.append(LexiconEntry(form, classes, tuple(probs)))
            elif kind == "suffix":
                literal = "" if form == _EMPTY_PATTERN else form
                suffix_probs[literal] = dict(probs)
            elif kind == "prior":
                hapax_prior = dict(probs)
            else:
                raise FormatError(f"unknown entry kind {kind!r}", path, no)
        return cls(schema, rules, stems, fullforms, suffix_probs, hapax_prior)


def _sorted_scores(scores: dict) -> tuple[tuple[Tag, float], ...]:
    """The items of a tag-keyed dict in canonical tag string order."""
    return tuple([(t, scores[t]) for t in sorted(scores, key=format_tag)])


def _splits(word: str, rules: RuleSet):
    """(prefix, stem, suffix, rule ids) for every strippable prefix of
    ``word`` (or none) and every suffix literal that ends the rest,
    longest first.  Unless a rule has the empty suffix, the whole rest
    comes first, as a bare stem with the empty suffix and no rule ids."""
    for prefix in [""] + rules.match_prefixes(word):
        rest = word[len(prefix):]
        if not rules.has_empty_suffix_rule:
            yield prefix, rest, "", ()
        for literal, rule_ids in rules.match_suffixes(rest):
            yield prefix, rest[: len(rest) - len(literal)], literal, rule_ids


def _scores(lexicon: Lexicon, literal: str, rule_ids,
            stem: LexiconEntry | None = None) -> dict[Tag, float]:
    """Positive per-tag scores of one analysis, summed over its rules, in
    the order the rules give the tags.

    P(tag | suffix) is the trained table of ``literal``, else the rule's
    trained weights, else uniform over the rule's tags.  A known stem
    skips the rules outside its paradigm classes and multiplies each
    score by P(tag | stem); with no rule ids it stands alone, the suffix
    factor being 1, and the dict is the stem's own ``positive``, shared,
    so a caller never changes the dict it gets."""
    if not rule_ids:
        return stem.positive
    table = lexicon.suffix_probs.get(literal)
    stem_probs = None if stem is None else stem.positive
    scores: dict[Tag, float] = {}
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
                scores[tag] = scores.get(tag, 0.0) + p
    return scores


def _known_analyses(word: str, lexicon: Lexicon):
    """One walk over the splits of ``word``: its known analyses, as
    (prefix, stem, suffix, rule ids, tag -> score dict) in ``segment``'s
    order, and the longest non-empty suffix literal that ends the whole
    word, the first of the splits without a prefix ("" for none).

    The full form and each split of a known stem with a positive score
    are known analyses.  A bare stem's or full form's dict is its
    entry's ``positive`` (no rule ids); the others are in rule order."""
    known = []
    entry = lexicon.fullforms.get(word)
    if entry is not None and entry.positive:
        known.append(("", word, "", (), entry.positive))
    longest = ""
    stems = lexicon.stems
    for prefix, stem, literal, rule_ids in _splits(word, lexicon.rules):
        if literal and not longest and not prefix:
            longest = literal
        entry = stems.get(stem)
        if entry is not None:
            scores = _scores(lexicon, literal, rule_ids, entry)
            if scores:
                known.append((prefix, stem, literal, rule_ids, scores))
    if len(known) > 1:
        # the longer suffix first, then the longer stem; stable, as ties keep walk order
        known.sort(key=lambda a: (-len(a[2]), -len(a[1])))
    return known, longest


def _normalized(scores: dict) -> list[tuple[Tag, float]]:
    """Summed per-tag scores in canonical tag string order, each divided
    by their total added in that order; empty when the total is not
    positive."""
    tags = sorted(scores, key=format_tag)
    total = 0.0
    for t in tags:
        total += scores[t]
    if total <= 0.0:
        return []
    return [(t, scores[t] / total) for t in tags]


def _unknown(word: str, longest: str, lexicon: Lexicon):
    """The analyses of a word with no known analysis, as (suffix, tag ->
    score dict) pairs, and its distribution.

    Every suffix literal that matches the word is a suffix of its
    longest match ``longest``, so both depend only on that literal, or
    on the word being punctuation: each is built once per lexicon and
    kept in ``lexicon._unknown``, which holds at most one entry per
    suffix literal plus two (no match, punctuation).  The stored dicts
    and distribution are shared; ``lexical_prob`` returns a copy."""
    punct = is_punct(word) and PUNCT_CATEGORY in lexicon.schema.category_features
    key = None if punct else longest
    memo = lexicon._unknown.get(key)
    if memo is None:
        if punct:
            analyses = [("", {Tag(PUNCT_CATEGORY): 1.0})]
        else:
            analyses = []
            for literal, rule_ids in lexicon.rules.match_suffixes(word):
                if not literal:
                    continue  # an empty suffix tells nothing about an unknown stem
                scores = _scores(lexicon, literal, rule_ids)
                if scores:
                    analyses.append((literal, scores))
            if not analyses:
                analyses = [("", lexicon.hapax_prior)]
        memo = lexicon._unknown[key] = (analyses, _normalized(_summed(analyses)))
    return memo


def _summed(analyses) -> dict[Tag, float]:
    """The per-tag sum of the score dicts that end the ``analyses``
    tuples, added in their order.  One dict is returned as it is: 0.0
    plus a score is that score."""
    if len(analyses) == 1:
        return analyses[0][-1]
    scores: dict[Tag, float] = {}
    for analysis in analyses:
        for tag, score in analysis[-1].items():
            scores[tag] = scores.get(tag, 0.0) + score
    return scores


def segment(word: str, lexicon: Lexicon) -> list[MorphAnalysis]:
    """Every admissible prefix-stem-suffix split of a normalized word.

    Known words yield full-form and stem-based analyses; a word without
    any yields suffix-only analyses with the stem treated as unknown; a
    word without even a matching suffix yields the hapax-prior fallback
    with an empty suffix.  Ordered by descending suffix length, ties by
    descending stem length.  A bare stem or full form lists its tags in
    its lexicon row's order, every other analysis in canonical order.
    """
    known, longest = _known_analyses(word, lexicon)
    if known:
        return [MorphAnalysis(prefix, stem, suffix,
                              _sorted_scores(scores) if rule_ids else tuple(scores.items()))
                for prefix, stem, suffix, rule_ids, scores in known]
    return [MorphAnalysis("", word[: len(word) - len(literal)], literal, _sorted_scores(scores))
            for literal, scores in _unknown(word, longest, lexicon)[0]]


def lexical_prob(word: str, lexicon: Lexicon) -> list[tuple[Tag, float]]:
    """Distribution over tags for a normalized word: per-analysis scores
    summed per tag, in ``segment``'s order, and renormalized.  Empty
    only for a lexicon with no usable statistics at all."""
    known, longest = _known_analyses(word, lexicon)
    if known:
        return _normalized(_summed(known))
    return list(_unknown(word, longest, lexicon)[1])


class LexiconCounts:
    """The additive counts behind a trained lexicon.

    ``stems``, ``fullforms``, ``suffixes`` and ``rules`` map a form, a
    suffix literal or a suffix rule index to a dict of gold tag counts,
    and ``classes`` maps a stem to a dict of paradigm class counts, a
    class for each rule that admitted a token of the stem.  ``words``
    counts (word, gold tag) pairs, which give each word's frequency for
    the hapax prior.  ``log`` is the training log of the corpus
    ``count_lexicon`` counted, in corpus order; ``add`` leaves it alone.
    """

    def __init__(self):
        self.stems = defaultdict(dict)
        self.fullforms = defaultdict(dict)
        self.suffixes = defaultdict(dict)
        self.rules = defaultdict(dict)
        self.classes = defaultdict(dict)
        self.words = Counter()
        self.log: list[str] = []

    def add(self, other: "LexiconCounts") -> None:
        """Add the counts of ``other`` to these."""
        for name in ("stems", "fullforms", "suffixes", "rules", "classes"):
            table = getattr(self, name)
            for key, counts in getattr(other, name).items():
                row = table.get(key)
                if row is None:
                    table[key] = dict(counts)
                    continue
                for item, n in counts.items():
                    row[item] = row.get(item, 0) + n
        self.words.update(other.words)

    def to_lexicon(self, rules: RuleSet, schema: TagSchema,
                   part: "LexiconCounts | None" = None,
                   whole: "Lexicon | None" = None) -> "Lexicon":
        """Normalize the counts into a lexicon: every table becomes
        conditional distributions by relative frequency, including the
        per-rule tag weights and the prior over hapax legomena (over
        all tokens when no word occurs once).  ``rules`` is the rule
        file the counts were made with.

        With ``part``, counts that must be part of these, and ``whole``,
        the lexicon of these counts, the lexicon is that of these counts
        less ``part``'s, without a training log: only the entries of
        ``part``'s keys and the hapax prior are normalized again, the
        others are ``whole``'s.  An entry with no counts left is
        dropped, and a rule with none goes back to its weights in
        ``rules``.  Neither the counts nor ``whole`` change."""
        if (part is None) != (whole is None):
            raise ValueError("part and whole are given together or not at all")
        keys, base = (self, Lexicon(schema, rules)) if part is None else (part, whole)

        def left(name, key):  # counts of ``key`` in table ``name`` less part's
            counts = getattr(self, name)[key]
            held = getattr(part, name).get(key) if part else None
            return _less(counts, held) if held else counts

        def normalized(name, entries, make):  # held: part's table, or these counts'
            entries, mine, held = dict(entries), getattr(self, name), getattr(keys, name)
            for key in held:
                if counts := mine[key] if part is None else _less(mine[key], held[key]):
                    entries[key] = make(key, _distribution(counts))
                else:
                    del entries[key]
            return entries

        stems = normalized("stems", base.stems, lambda form, probs: LexiconEntry(
            form, frozenset(left("classes", form)), probs))
        fullforms = normalized("fullforms", base.fullforms,
                               lambda form, probs: LexiconEntry(form, frozenset(), probs))
        suffix_probs = normalized("suffixes", base.suffix_probs, lambda _, probs: dict(probs))
        suffix_rules = list(base.rules.suffix_rules)
        for idx in keys.rules:
            r, counts = rules.suffix_rules[idx], left("rules", idx)
            suffix_rules[idx] = SuffixRule(r.pattern, r.paradigm_class, r.tags, r.literals,
                                           dict(_distribution(counts))) if counts else r
        words = self.words if part is None else _less(self.words, part.words)
        lexicon = Lexicon(schema, RuleSet(suffix_rules, rules.prefix_rules), (), (),
                          suffix_probs, _hapax_prior(words), self.log if part is None else ())
        lexicon.stems, lexicon.fullforms = stems, fullforms  # already keyed by form
        return lexicon


def _distribution(counter: dict) -> tuple[tuple[Tag, float], ...]:
    """Relative frequencies of a tag-keyed dict of counts, in canonical
    tag string order."""
    total = sum(counter.values())
    return tuple([(t, counter[t] / total) for t in sorted(counter, key=format_tag)])


def _less(counts: dict, part: dict) -> dict:
    """``counts`` less ``part``, keeping the keys left with a positive
    count, as ``Counter.__sub__`` does for non-negative counts."""
    return {k: m for k, n in counts.items() if (m := n - part.get(k, 0)) > 0}


def _hapax_prior(words: dict) -> dict[Tag, float]:
    """The tag distribution of the hapax legomena of the (word, gold
    tag) counts ``words``, the words seen once; with none, that of
    every token."""
    tags_of = Counter(map(itemgetter(0), words))
    hapax = Counter(gold for (word, gold), n in words.items()
                    if n == 1 and tags_of[word] == 1)
    if not hapax:
        for (_, gold), n in words.items():
            hapax[gold] += n
    return dict(_distribution(hapax))


def _training_split(word: str, gold: Tag, rules: RuleSet):
    """The split training counts ``word`` with inflected tag ``gold``
    under: (stem, suffix literal, ids of the rules admitting ``gold``),
    the longest suffix first and, at equal suffix length, the stripped
    prefix, so augmented forms share their bare stem.  None when no
    rule admits ``gold``."""
    best = None
    for prefix, stem, literal, rule_ids in _splits(word, rules):
        admitting = [rid for rid in rule_ids if gold in rules.suffix_rules[rid].tags]
        if admitting and (best is None or (len(literal), len(prefix)) > best[0]):
            best = ((len(literal), len(prefix)), (stem, literal, admitting))
    return None if best is None else best[1]


def count_lexicon(corpus: list[Sequence], rules: RuleSet,
                  schema: TagSchema) -> LexiconCounts:
    """Count a gold-tagged corpus for its lexicon.

    Tokens of uninflected categories count as full forms.  Inflected
    tokens count under the split of ``_training_split``; tokens no rule
    can segment count as full forms and are reported in the training
    log.  Each distinct (word, tag) pair is split once.
    """
    counts = LexiconCounts()
    pairs = counts.words
    for seq in corpus:
        if seq.gold_tags is None:
            raise ModelError("training corpus must carry gold tags")
        pairs.update(zip([token.norm for token in seq.tokens], seq.gold_tags))
    unsegmented = set()
    for (word, gold), n in pairs.items():
        split = None
        if schema.features_of(gold.category):
            split = _training_split(word, gold, rules)
            if split is None:
                unsegmented.add((word, gold))
        # plain dicts: a Counter per new key would cost a Python-level __init__
        if split is None:
            row = counts.fullforms[word]
            row[gold] = row.get(gold, 0) + n
            continue
        stem, literal, admitting = split
        for row in (counts.stems[stem], counts.suffixes[literal]):
            row[gold] = row.get(gold, 0) + n
        classes = counts.classes[stem]
        for rid in admitting:
            klass = rules.suffix_rules[rid].paradigm_class
            classes[klass] = classes.get(klass, 0) + n
            row = counts.rules[rid]
            row[gold] = row.get(gold, 0) + n
    if unsegmented:
        counts.log = [
            f"no segmentation for {token.norm!r} with tag {format_tag(gold)}; "
            "stored as full form"
            for seq in corpus for token, gold in zip(seq.tokens, seq.gold_tags)
            if (token.norm, gold) in unsegmented
        ]
    return counts


def train_lexicon(corpus: list[Sequence], rules: RuleSet,
                  schema: TagSchema) -> Lexicon:
    """Build the lexicon from a gold-tagged corpus: ``count_lexicon``,
    then ``LexiconCounts.to_lexicon``."""
    return count_lexicon(corpus, rules, schema).to_lexicon(rules, schema)
