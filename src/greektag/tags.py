"""Feature-structured tags.

A tag is a word category plus an ordered list of feature-value pairs
(e.g. ``verf:pers=1,num=pl,mood=ind,tense=pres,voice=act``).  The schema
declares which categories exist, which features each category carries,
and the canonical feature order, so that the chain-rule factorization of
trigram probabilities over the feature-value pairs is well defined.

Trigram statistics live in :class:`TransitionStats`: raw relative
frequencies factorize exactly (the chain rule is an identity), and the
smoothed estimator interpolates each conditional factor across three
levels (full conditioning, category-local, global) with a small uniform
floor so that every schema-valid tag keeps positive mass.
"""

from __future__ import annotations

import math
from collections import defaultdict
from operator import attrgetter
from types import MappingProxyType

from .errors import FormatError, ModelError, TagError, check_distinct, open_utf8

BOUNDARY_CATEGORY = "<s>"

# Characters that would collide with the tag string syntax or the
# tab-separated file formats.
_FORBIDDEN = set(" \t\n,:=|#<>")


#: The one Tag of each (category, features) built in this process.
_TAGS: dict[tuple, Tag] = {}


class Tag:
    """A category plus its ``(feature, value)`` string pairs, in the
    schema's canonical feature order.

    There is one ``Tag`` per (category, features): building it again
    returns the first object, so tags hash and compare by identity, both
    in C, and pickling or copying one gives the same object back.
    ``name`` is the canonical string, made when the tag is first built.
    Tags are immutable."""

    __slots__ = ("category", "features", "name")

    def __new__(cls, category: str, features=()):
        features = tuple(features)
        tag = _TAGS.get((category, features))
        if tag is None:
            tag = object.__new__(cls)
            init = object.__setattr__
            init(tag, "category", category)
            init(tag, "features", features)
            init(tag, "name", _tag_name(category, features))
            tag = _TAGS.setdefault((category, features), tag)
        return tag

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Tag is immutable: cannot set or delete {name}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Tag, (self.category, self.features)

    def __repr__(self) -> str:
        return f"Tag(category={self.category!r}, features={self.features!r})"


def _tag_name(category: str, features) -> str:
    """Canonical string form: ``category`` or ``category:f=v,f=v,...``."""
    name = category
    if features:
        name += ":" + ",".join(f"{f}={v}" for f, v in features)
    return name


#: History padding used before the first and second token of a sequence.
BOUNDARY = Tag(BOUNDARY_CATEGORY)

#: The canonical string of a tag, its ``name``; a C-level getter, so it
#: is a cheap sort key.
format_tag = attrgetter("name")


def _check_ident(name: str, what: str) -> str:
    if not name or any(c in _FORBIDDEN for c in name):
        raise FormatError(f"invalid {what} identifier: {name!r}")
    return name


class TagSchema:
    """Declares categories, features, allowed values, and feature masks.

    ``feature_values`` maps each feature name to its allowed values; the
    insertion order of the mapping is the canonical feature order.
    ``category_features`` maps each category to the (canonically ordered)
    tuple of features its tags must carry; an empty tuple marks an
    uninflected category.
    """

    def __init__(self, feature_values, category_features):
        self.feature_values: dict[str, tuple[str, ...]] = {}
        self.category_features: dict[str, tuple[str, ...]] = {}
        self._parsed: dict[str, Tag] = {}  # tag string -> its parse
        for feat, values in feature_values.items():
            self._declare_feature(feat, values)
        for cat, feats in category_features.items():
            self._declare_category(cat, feats)

    def _declare_feature(self, feat, values) -> None:
        _check_ident(feat, "feature")
        if not values:
            raise FormatError(f"feature {feat} declares no values")
        values = tuple(_check_ident(v, "value") for v in values)
        check_distinct(values, f"feature {feat}: value")
        self.feature_values[feat] = values

    def _declare_category(self, cat, feats) -> None:
        """Declare ``cat`` over already declared features."""
        _check_ident(cat, "category")
        check_distinct(feats, f"category {cat}: feature")
        for f in feats:
            if f not in self.feature_values:
                raise FormatError(f"category {cat} uses undeclared feature {f}")
        order = list(self.feature_values)
        self.category_features[cat] = tuple(sorted(feats, key=order.index))

    @property
    def categories(self) -> tuple[str, ...]:
        return tuple(self.category_features)

    def features_of(self, category: str) -> tuple[str, ...]:
        try:
            return self.category_features[category]
        except KeyError:
            raise TagError(f"unknown category: {category}") from None

    def allowed_values(self, feature: str) -> tuple[str, ...]:
        try:
            return self.feature_values[feature]
        except KeyError:
            raise TagError(f"unknown feature: {feature}") from None

    def validate(self, tag: Tag) -> None:
        """Raise TagError unless ``tag`` carries exactly its category's features."""
        if self._parsed.get(format_tag(tag)) is tag:
            return  # a parse of this schema
        self._check(tag.category, tag.features)

    def _check(self, category: str, features) -> None:
        """``validate`` of the tag (category, features), without building
        it, so that no invalid tag enters the intern table."""
        feats = self.features_of(category)
        seen = [f for f, _ in features]
        if len(set(seen)) != len(seen):
            raise TagError(f"duplicate feature in tag: {_tag_name(category, features)}")
        for f, v in features:
            if f not in self.feature_values:
                raise TagError(f"unknown feature: {f}")
            if f not in feats:
                raise TagError(f"feature {f} not allowed for category {category}")
            if v not in self.feature_values[f]:
                raise TagError(f"unknown value {v} for feature {f}")
        missing = [f for f in feats if f not in seen]
        if missing:
            raise TagError(
                f"tag {_tag_name(category, features)} misses feature(s) {','.join(missing)} "
                f"required for category {category}"
            )
        if tuple(seen) != feats:
            raise TagError(f"features out of canonical order: {_tag_name(category, features)}")

    def parse(self, s: str) -> Tag:
        """Parse ``category`` or ``category:f=v,...``; reorders to canon.

        Parses are memoized per schema: a string parsed before returns
        the same ``Tag``, and all spellings of one tag share the object
        of its canonical string.  A string that fails is not stored, so
        it raises again on every call.  The memo grows by at most two
        entries per distinct tag string parsed: the string and its
        canonical form."""
        tag = self._parsed.get(s)
        if tag is None:
            tag = self._parse(s)
            tag = self._parsed.setdefault(format_tag(tag), tag)
            self._parsed[s] = tag
        return tag

    def _parse(self, s: str) -> Tag:
        s = s.strip()
        if not s:
            raise TagError("empty tag string")
        category, colon, rest = s.partition(":")
        pairs = []
        if colon:
            if not rest:
                raise TagError(f"empty feature list in {s!r}")
            for item in rest.split(","):
                feat, eq, value = item.partition("=")
                if not eq or not feat or not value:
                    raise TagError(f"malformed feature-value pair {item!r} in {s!r}")
                pairs.append((feat, value))
        order = {f: i for i, f in enumerate(self.features_of(category))}
        # a feature foreign to the category sorts first; _check rejects it
        pairs.sort(key=lambda fv: order.get(fv[0], -1))
        self._check(category, pairs)
        return Tag(category, pairs)

    # -- schema file format -------------------------------------------------

    def to_lines(self) -> list[str]:
        lines = []
        for feat, values in self.feature_values.items():
            lines.append(f"feature {feat} {','.join(values)}")
        for cat, feats in self.category_features.items():
            lines.append(f"category {cat} {','.join(feats)}".rstrip())
        return lines

    @classmethod
    def from_lines(cls, lines, path=None, first_line=1) -> "TagSchema":
        """Parse the schema file format.  Categories are declared after
        every feature, so a category may use a feature declared below it;
        each error names the line of the declaration at fault."""
        schema = cls({}, {})
        categories: dict[str, tuple[int, tuple[str, ...]]] = {}
        for no, raw in enumerate(lines, start=first_line):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "feature" and len(parts) == 3:
                name, values = parts[1], parts[2]
                if name in schema.feature_values:
                    raise FormatError(f"duplicate feature {name}", path, no)
                try:
                    schema._declare_feature(name, tuple(values.split(",")))
                except FormatError as exc:
                    raise FormatError(str(exc), path, no) from None
            elif parts[0] == "category" and len(parts) in (2, 3):
                name = parts[1]
                if name in categories:
                    raise FormatError(f"duplicate category {name}", path, no)
                feats = tuple(parts[2].split(",")) if len(parts) == 3 else ()
                categories[name] = (no, feats)
            else:
                raise FormatError(f"unrecognized schema line: {line!r}", path, no)
        if not categories:
            raise FormatError("schema declares no categories", path)
        for name, (no, feats) in categories.items():
            try:
                schema._declare_category(name, feats)
            except FormatError as exc:
                raise FormatError(str(exc), path, no) from None
        return schema

    @classmethod
    def load(cls, path) -> "TagSchema":
        with open_utf8(path) as fh:
            return cls.from_lines(fh, path=str(path))


def _tag_prefixes(tag: Tag) -> list[tuple[str, ...]]:
    """Nested chain prefixes of ``tag``: the root (), then (category,
    v1, .., vj) for j = 0..l."""
    prefix = (tag.category,)
    out = [(), prefix]
    for _, v in tag.features:
        prefix = prefix + (v,)
        out.append(prefix)
    return out


def _backoff_keys(tag: Tag) -> list[tuple]:
    """Per feature-value pair (f, v) of ``tag``, its category-local,
    global and feature-total backoff keys, flat: (0, category, f, v),
    (1, f, v), (2, f).  Each leads with an int, so none equals a chain
    prefix."""
    cat = tag.category
    return [key for f, v in tag.features for key in ((0, cat, f, v), (1, f, v), (2, f))]


#: Key id of the root chain prefix (), which every tag extends.
ROOT = 0

#: The counts of a history that was never counted; read-only, so
#: scoring an unseen history inserts nothing.
_NO_COUNTS = MappingProxyType({})


def _key_counts():
    return defaultdict(int)


def _freq(counts, key, parent):
    """``counts[key] / counts[parent]`` over the counts of one history;
    None on a zero denominator."""
    den = counts.get(parent, 0)
    return counts.get(key, 0) / den if den else None


class _Tables:
    """Count tables derived from full-tag trigram counts, on integer keys.

    Every tag is interned to a dense int (``tag_id``; ``tags[i]`` is the
    tag of id i) when it is first counted or scored, and every count key
    of such a tag to an int in one id space (``key_id``): its chain
    prefixes (the root prefix () is ``ROOT``) and the backoff keys of
    its feature-value pairs.  ``prefixes[i]`` holds the prefix ids of
    tag ``i``, root first, and ``features[i]`` its backoff key ids, per
    feature value its category-local, global and feature-total key.
    ``tri`` maps id triples (h2, h1, t) to their counts.  ``pre[o]``
    maps a history of o-1 tag ids to its counts ``{key id: count}`` at
    order ``o``: the prefix counts after the history, so the root entry
    counts the positions that carry it, and at order 1 (``pre[1][()]``)
    the backoff counts too.  Every counted tag carries all the features
    of its category, so a category's count is its local denominator.  A
    tag with no counts reads zero everywhere.
    """

    def __init__(self, trigram_counts):
        self.tag_id: dict[Tag, int] = {}
        self.tags: list[Tag] = []
        self.key_id: dict[tuple, int] = {(): ROOT}
        self.prefixes: list[tuple[int, ...]] = []
        self.features: list[tuple[int, ...]] = []
        self.tri = defaultdict(int)
        self.pre = {o: defaultdict(_key_counts) for o in (1, 2, 3)}
        self.add({tuple(map(self.intern, key)): n for key, n in trigram_counts.items()})

    def intern(self, tag: Tag) -> int:
        """The id of ``tag``, assigning the next one on first sight."""
        i = self.tag_id.get(tag)
        if i is None:
            i = self.tag_id[tag] = len(self.tags)
            self.tags.append(tag)
            ids = self.key_id
            self.prefixes.append(tuple(ids.setdefault(k, len(ids)) for k in _tag_prefixes(tag)))
            self.features.append(tuple(ids.setdefault(k, len(ids)) for k in _backoff_keys(tag)))
        return i

    def add(self, counts, sign: int = 1) -> None:
        """Add ``sign`` times the id-keyed trigram counts ``{(a, b, t): n}``
        to every table; ``sign=-1`` takes them out again."""
        pre2, pre3 = self.pre[2], self.pre[3]
        d1 = self.pre[1][()]
        prefixes, features = self.prefixes, self.features
        for (a, b, t), n in counts.items():
            n *= sign
            self.tri[(a, b, t)] += n
            d3, d2 = pre3[(a, b)], pre2[(b,)]
            for p in prefixes[t]:
                d3[p] += n
                d2[p] += n
                d1[p] += n
            for k in features[t]:
                d1[k] += n

    def counts_after(self, hist):
        """The counts ``{key id: count}`` after the history ids ``hist``
        (order len(hist)+1); empty for an unseen history."""
        return self.pre[len(hist) + 1].get(hist, _NO_COUNTS)


#: Default weights for the (full conditioning, category-local, global)
#: levels of each feature factor when the corpus has no featured tags to
#: fit them on.
DEFAULT_CHAIN_WEIGHTS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

#: Default mass reserved for the uniform-over-schema floor of each factor.
DEFAULT_FLOOR = 1e-3


class TransitionStats:
    """Trigram tag statistics with category-first chain factorization.

    The probability of a tag given a history is the product of one factor
    for the category and one factor per feature value, each conditioned
    on the history plus the already-fixed part of the tag.  With
    ``smoothed=False`` every factor is a raw relative frequency and the
    product telescopes to the joint relative frequency.  With smoothing,
    feature factors interpolate their three backoff levels using
    ``chain_weights`` (levels with empty conditioning counts are dropped
    and the weights renormalized; with no weight left, uniform) and every
    factor mixes in ``floor`` mass spread uniformly over the schema-allowed
    values.  The counts are read off ``tables``, of which it keeps no copy;
    they must not change while it scores, since the history-free parts of
    each tag's chain are memoized by tag id on first use.  A count of 0
    reads as absent: ``trigram_counts`` and ``observed_tags`` skip it.
    Cross-validation builds each fold's stats on the corpus tables with
    the fold's counts taken out, so such stats are valid only until the
    counts are added back.
    """

    def __init__(self, schema, tables: _Tables, *, smoothed=True,
                 chain_weights=DEFAULT_CHAIN_WEIGHTS, floor=DEFAULT_FLOOR):
        self.schema = schema
        self.tables = tables
        self.smoothed = smoothed
        self.chain_weights = tuple(chain_weights)
        self.floor = floor if smoothed else 0.0
        if not tables.counts_after(()).get(ROOT, 0):
            raise ModelError("no trigram statistics (untrained model)")
        if (len(self.chain_weights) != 3
                or not all(math.isfinite(w) and w >= 0.0 for w in self.chain_weights)):
            raise ModelError(f"bad chain weights {self.chain_weights}")
        if not 0.0 <= floor <= 1.0:  # false for nan too
            raise ModelError(f"floor {floor!r} is outside [0, 1]")
        if not sum(self.chain_weights):
            raise ModelError("chain weights are all zero")
        self._keep = 1.0 - self.floor
        self._category_floor = self.floor / len(schema.categories)
        # raw scoring is the smoothed walk with weights (1, 0, 0), no floor
        # and a zero category factor after an unseen history: the specific
        # level is then the whole factor, and one is dropped only after a
        # zero factor
        self._weights = self.chain_weights if smoothed else (1.0, 0.0, 0.0)
        self._chains: dict = {}  # tag id -> _chain_constants(t)

    @property
    def trigram_counts(self) -> dict:
        tags = self.tables.tags
        return {(tags[a], tags[b], tags[t]): n
                for (a, b, t), n in self.tables.tri.items() if n}

    @property
    def observed_tags(self) -> list[Tag]:
        tags = self.tables.tags
        return sorted({tags[t] for (_, _, t), n in self.tables.tri.items() if n},
                      key=format_tag)

    def _chain_constants(self, t: int):
        """The history-free parts of the chain of tag id ``t``: its
        category prefix id; per feature value, its prefix id, w2·m2 and
        w3·m3 (m2, m3 the category-local and global levels; 0.0 when
        dropped), the weight sum with the specific level present, the
        whole factor with it absent, and the floor share; its whole
        chain after an unseen history; its whole chain after a counted
        history with no count for its category, the category floor
        times each link's absent factor, in link order (counts nest, so
        every deeper prefix count is then 0 too); and P(t), walked at
        order 1."""
        tb = self.tables
        prefixes = tb.prefixes[t]
        counts = tb.counts_after(())  # order 1, the backoff counts with it
        keep, floor = self._keep, self.floor
        w1, w2, w3 = self._weights
        unseen = 0.0
        if self.smoothed:  # escape to the category unigram
            unseen = keep * _freq(counts, prefixes[1], ROOT) + self._category_floor
        zero = self._category_floor
        links = []
        keys = iter(tb.features[t])  # three backoff keys per feature value
        for (feature, _), prefix, local, glob, total in zip(
                tb.tags[t].features, prefixes[2:], keys, keys, keys):
            # the category-local level over the category's count, and the
            # global level; None on a zero denominator
            m2 = _freq(counts, local, prefixes[1])
            m3 = _freq(counts, glob, total)
            nvals = len(self.schema.allowed_values(feature))
            share = floor / nvals
            c2 = c3 = mixed = wsum = 0.0
            wspec = w1
            if m2 is not None:
                c2 = w2 * m2
                mixed += c2
                wsum += w2
                wspec += w2
            if m3 is not None:
                c3 = w3 * m3
                mixed += c3
                wsum += w3
                wspec += w3
            absent = keep * (mixed / wsum) + share if wsum else 1.0 / nvals
            links.append((prefix, c2, c3, wspec, absent, share))
            unseen *= absent  # an unseen history drops every specific level
            zero *= absent
        chain = (prefixes[1], tuple(links), unseen, zero)
        (p1,) = self.row(counts, [chain + (None,)])
        return chain + (p1,)

    def chains(self, ids) -> list[tuple]:
        """The chain memo entries of the tag ids ``ids``, in that order,
        for ``row``: per tag, its ``_chain_constants``, made the first
        time the tag is asked for, once per model."""
        memo = self._chains
        return [memo.get(t) or memo.setdefault(t, self._chain_constants(t)) for t in ids]

    def row(self, counts, chains) -> list[float]:
        """The chain product of each tag of ``chains`` (memo entries, as
        ``chains`` gives them) after one history, whose prefix counts
        ``counts`` are ``tables.counts_after(hist)``: P(t | hist) at
        order len(hist)+1.  Each link reads one prefix count, whose
        parent's count is the previous link's; after a history that was
        not counted, every tag gets its history-free chain, and a tag
        whose category the history did not count gets its constant
        after one lookup."""
        den = counts.get(ROOT, 0)
        if not den:
            return [chain[2] for chain in chains]
        keep, w1, category_floor = self._keep, self._weights[0], self._category_floor
        out = []
        for category, links, _, zero, _ in chains:
            c = counts.get(category, 0)
            if not c:
                out.append(zero)
                continue
            p = keep * (c / den) + category_floor
            for prefix, c2, c3, wspec, absent, share in links:
                d, c = c, counts.get(prefix, 0)
                # with the specific level c/d present, the factor mixes it
                # with the backoff levels; without it, it is history-free
                p *= keep * ((w1 * (c / d) + c2 + c3) / wspec) + share if d else absent
            out.append(p)
        return out

    def chain_prob(self, tag: Tag, history: tuple[Tag, ...]) -> float:
        """P(tag | history) as the chain product, at order len(history)+1."""
        tb = self.tables
        counts = tb.counts_after(tuple(map(tb.intern, history)))
        return self.row(counts, self.chains((tb.intern(tag),)))[0]
