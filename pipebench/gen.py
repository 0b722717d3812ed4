"""Seeded input generator for the pipeline benchmark.

For one workload and one seed it writes the files greektag reads: an
annotated training corpus, a rule file (unless the workload uses the
fixture rules) and raw texts.  The gold tags of the raw texts, the
per-token word kinds and the make-up statistics are returned in memory
and never handed to greektag.  The same (workload, seed, size) always
gives byte-identical files.

Usage (writes the files and prints the make-up as JSON):

    python3 pipebench/gen.py --workload wide-oov --seed 1 --out DIR [--smoke]
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import zlib
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOY_SCHEMA = ROOT / "tests" / "fixtures" / "toy.schema"
TOY_RULES = ROOT / "tests" / "fixtures" / "toy.rules"
DEFAULT_SCHEMA = ROOT / "src" / "greektag" / "data" / "default.schema"

WORKLOADS = ("inflected-narrow", "wide-oov", "long-unpunct")

#: Each workload's language (stems, paradigm classes, rules, category
#: chain) is fixed; ``--seed`` draws the corpus and the texts from it, so
#: that runs with different seeds do comparable work.
LANGUAGE_SEED = 0

#: Texts per workload; the chi-square test needs at least three, and
#: with six texts one outlier can reach the flag level rho >= 2.
N_TEXTS = 6

CONSONANTS = "βγδζθκλμνξπρστφχ"
VOWELS = "αεηιουω"
AUGMENT = "ἐ"
PERIOD = "."
MID_PUNCT = (",", "·")

#: Sizes: training sentences, text sentences (or paragraphs) per text.
SIZES = {
    "inflected-narrow": {"full": (110, 60), "smoke": (30, 6)},
    "wide-oov": {"full": (70, 14), "smoke": (30, 1)},
    "long-unpunct": {"full": (40, 3), "smoke": (20, 1)},
}

# Uninflected closed-class words of the toy schema.
TOY_CLOSED = {
    "konj": ("καί", "δέ", "τε", "ἀλλά", "γάρ"),
    "prae": ("ἐν", "εἰς", "ἐκ", "πρός", "ἀπό", "διά"),
    "nega": ("οὐ", "μή"),
}


@dataclass
class Inputs:
    """Paths of the generated files plus what only the benchmark sees."""

    workload: str
    schema_path: str | None  # None: greektag's built-in schema
    rules_path: str
    corpus_path: str
    text_paths: list[str]
    # per text: gold sequences as tokenize will split them,
    # each a list of (surface, tag string, kind)
    gold: list[list[list[tuple[str, str, str]]]]
    train_tags: list[list[str]]  # gold tag strings per training sequence
    makeup: dict = field(default_factory=dict)


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(zlib.crc32(f"{workload}/{seed}/{part}".encode()))


def _parse_schema(path: Path):
    """(feature -> values, category -> features) from a schema file."""
    feats: dict[str, tuple[str, ...]] = {}
    cats: dict[str, tuple[str, ...]] = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "feature":
            feats[parts[1]] = tuple(parts[2].split(","))
        elif parts[0] == "category":
            cats[parts[1]] = tuple(parts[2].split(",")) if len(parts) == 3 else ()
    order = {f: i for i, f in enumerate(feats)}
    return feats, {c: tuple(sorted(fs, key=order.__getitem__)) for c, fs in cats.items()}


def _all_tags(feats, cats, category) -> list[str]:
    """Every tag string of a category, features in canonical order."""
    combos = [""]
    for f in cats[category]:
        combos = [c + ("," if c else "") + f"{f}={v}" for c in combos for v in feats[f]]
    return [category + (":" + c if c else "") for c in combos]


def _stems(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    """``n`` new stems of one or two consonant-vowel syllables plus a
    closing consonant (never a final sigma)."""
    out = []
    while len(out) < n:
        syl = rng.choice((1, 2, 2, 3))
        s = "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(syl))
        s += rng.choice(CONSONANTS.replace("σ", ""))
        if s not in taken:
            taken.add(s)
            out.append(s)
    return out


def _zipf_pick(rng: random.Random, items):
    """Zipf-like choice: item i has weight 1/(i+1); gives frequent words
    and a tail of hapax legomena."""
    return rng.choices(items, _zipf_weights(len(items)))[0]


@functools.cache
def _zipf_weights(n: int) -> tuple[float, ...]:
    return tuple(1.0 / (i + 1) for i in range(n))


def _pick_tag(rng: random.Random, group, prev: str, salt: str) -> str:
    """A tag of ``group``: usually the one the previous tag prefers, so
    that the trigram model has context to learn; otherwise any."""
    if rng.random() < 0.75:
        return group[zlib.crc32(f"{salt}|{prev}|{group[0]}".encode()) % len(group)]
    return rng.choice(group)


def _capitalize(word: str) -> str:
    return word[:1].upper() + word[1:]


def _suffix_free(word: str, literals: set[str]) -> bool:
    """True when no rule literal ends ``word`` with a non-empty stem left."""
    return not any(word[-d:] in literals for d in range(1, len(word)))


# -- inflected-narrow ---------------------------------------------------------


def _toy_endings():
    """(class, literal, tag) for every suffix literal of the fixture rules.

    The fixture patterns use literals and a trailing optional letter
    (``ουσιν?``); anything else is rejected so a fixture change cannot
    silently change the workload.
    """
    feats, _ = _parse_schema(TOY_SCHEMA)
    order = {f: i for i, f in enumerate(feats)}
    out = []
    for raw in TOY_RULES.read_text(encoding="utf-8").splitlines():
        if not raw.strip() or raw.startswith("#"):
            continue
        pattern, klass, tag = raw.split("\t")
        if klass == "@prefix":
            continue
        if any(c in pattern for c in "()[]|-") or pattern.count("?") > 1:
            raise ValueError(f"unsupported fixture pattern {pattern!r}")
        if pattern.endswith("?"):
            lits = (pattern[:-2], pattern[:-1])
        else:
            lits = (pattern,)
        cat, _, rest = tag.partition(":")
        if rest:  # canonical feature order, as greektag writes tags
            tag = cat + ":" + ",".join(sorted(rest.split(","),
                                              key=lambda fv: order[fv.partition("=")[0]]))
        for lit in lits:
            out.append((klass, lit, tag))
    return out


def _feature(tag: str, name: str) -> str | None:
    _, _, rest = tag.partition(":")
    for item in rest.split(","):
        f, _, v = item.partition("=")
        if f == name:
            return v
    return None


class _Narrow:
    """Short punctuated sentences over the fixture tagset: subject, verb,
    object, prepositional phrase, participle, conjunctions, negation."""

    def __init__(self):
        rng = _rng("inflected-narrow", LANGUAGE_SEED, "lexicon")
        endings = _toy_endings()
        self.by_class: dict[str, list[tuple[str, str]]] = {}
        for klass, lit, tag in endings:
            self.by_class.setdefault(klass, []).append((lit, tag))
        taken: set[str] = set()
        self.known = {k: _stems(rng, n, taken) for k, n in
                      (("w-verb", 40), ("o-noun", 50), ("a-noun", 30))}
        self.unknown = {k: _stems(rng, 60, taken) for k in self.known}

    def _inflect(self, rng, klass, want, p_unknown):
        choices = [(lit, tag) for lit, tag in self.by_class[klass] if want(tag)]
        lit, tag = rng.choice(choices)
        if rng.random() < p_unknown:
            stem, kind = rng.choice(self.unknown[klass]), "suffix"
        else:
            stem, kind = _zipf_pick(rng, self.known[klass]), "known"
        word = stem + lit
        if _feature(tag, "tense") == "aor" and _feature(tag, "mood") == "ind" \
                and rng.random() < 0.85:
            word = AUGMENT + word
        return (word, tag, kind)

    def _noun(self, rng, case, p_unknown):
        klass = "o-noun" if rng.random() < 0.65 else "a-noun"
        return self._inflect(rng, klass, lambda t: _feature(t, "case") == case, p_unknown)

    def sentence(self, rng, p_unknown):
        items = []
        if rng.random() < 0.3:
            items.append((rng.choice(TOY_CLOSED["konj"]), "konj", "closed"))
        items.append(self._noun(rng, "nom", p_unknown))
        if rng.random() < 0.15:
            items.append((rng.choice(TOY_CLOSED["nega"]), "nega", "closed"))
        items.append(self._inflect(rng, "w-verb", lambda t: t.startswith("verf"), p_unknown))
        if rng.random() < 0.6:
            items.append(self._noun(rng, "acc", p_unknown))
        if rng.random() < 0.35:
            items.append((rng.choice(TOY_CLOSED["prae"]), "prae", "closed"))
            items.append(self._noun(rng, "gen", p_unknown))
        if rng.random() < 0.25:
            items.append((rng.choice(MID_PUNCT), "punct", "punct"))
            items.append(self._inflect(rng, "w-verb", lambda t: t.startswith("part"), p_unknown))
            items.append(self._noun(rng, "acc", p_unknown))
        items.append((PERIOD, "punct", "punct"))
        return items


# -- wide-oov -----------------------------------------------------------------

#: Inflected categories of the built-in schema with their paradigm classes
#: and the number of tags each class covers.
WIDE_CLASSES = {
    "subs": (32, 32), "adjk": (32, 32), "name": (20, 20), "arti": (32,),
    "popn": (20,), "depn": (20,), "rlpn": (20,), "pepn": (20,),
    "verf": (40, 40, 40), "part": (40, 40), "veri": (12,),
}
WIDE_CLOSED = ("adva", "advs", "intj", "konj", "nega", "nume", "parl", "prae")
#: Tags admitted by each generated suffix.
WIDE_GROUP = 4


class _Wide:
    """The built-in 25-category schema with generated paradigm classes.

    Each class covers a random subset of its category's tags, split into
    suffix groups of WIDE_GROUP tags, so every suffix admits several tags.
    Sentence templates (the category and word kind of every slot) follow
    a category Markov chain; filling a template picks stems, suffixes and
    tags.
    """

    def __init__(self):
        rng = _rng("wide-oov", LANGUAGE_SEED, "lexicon")
        feats, cats = _parse_schema(DEFAULT_SCHEMA)
        taken_lits: set[str] = set()
        self.rules: list[tuple[str, str, list[str]]] = []  # literal, class, tags
        self.classes: dict[str, list[str]] = {}  # category -> classes
        self.groups: dict[str, list[tuple[str, list[str]]]] = {}  # class -> groups
        for cat, sizes in WIDE_CLASSES.items():
            space = _all_tags(feats, cats, cat)
            for i, size in enumerate(sizes):
                klass = f"{cat}{i}"
                tags = sorted(rng.sample(space, min(size, len(space))))
                rng.shuffle(tags)
                groups = []
                while tags:
                    group, tags = sorted(tags[:WIDE_GROUP]), tags[WIDE_GROUP:]
                    while True:
                        lit = "".join(rng.choice(VOWELS + CONSONANTS)
                                      for _ in range(rng.randint(2, 4)))
                        if lit not in taken_lits and lit[-1] != "σ":
                            break
                    taken_lits.add(lit)
                    groups.append((lit, group))
                    self.rules.append((lit, klass, group))
                self.classes.setdefault(cat, []).append(klass)
                self.groups[klass] = groups
        self.literals = taken_lits
        taken: set[str] = set()
        self.known = {k: _stems(rng, 25, taken) for k in self.groups}
        self.unknown = {k: _stems(rng, 40, taken) for k in self.groups}
        # few closed-class words, each frequent: a closed word missing from
        # a cross-validation fold's training part would be suffixless there
        self.closed = {c: [w for w in _stems(rng, 6, taken)
                           if _suffix_free(w, self.literals)][:2] for c in WIDE_CLOSED}
        # seeded category bigram chain over inflected and closed categories
        self.categories = list(WIDE_CLASSES) + list(WIDE_CLOSED)
        self.chain = {c: [0.05 + rng.random() ** 3 for _ in self.categories]
                      for c in self.categories + ["<s>"]}
        self._taken = taken
        self.salt = str(LANGUAGE_SEED)

    def suffixless_words(self, rng, n):
        out = []
        while len(out) < n:
            w = "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(3))
            w += rng.choice("ξψ")
            if w not in self._taken and _suffix_free(w, self.literals):
                self._taken.add(w)
                out.append(w)
        return out

    def rules_lines(self) -> list[str]:
        return [f"{lit}\t{klass}\t{' '.join(tags)}" for lit, klass, tags in self.rules]

    def template(self, rng, length, p_unknown, suffixless=False):
        """Slots (category, kind) of one sentence.  With ``suffixless``
        the sentence ends in a suffixless unknown word between closed-class
        words, so that its hapax-prior candidate block always has the
        same neighbours (see the hapax-prior note in CHANGES.md)."""
        slots = []
        prev = "<s>"
        for _ in range(length):
            cat = rng.choices(self.categories, self.chain[prev])[0]
            prev = cat
            if cat in WIDE_CLOSED:
                slots.append((cat, "closed"))
            else:
                slots.append((cat, "suffix" if rng.random() < p_unknown else "known"))
            if rng.random() < 0.08:
                slots.append(("punct", "punct"))
        if suffixless:
            closed = [(rng.choice(WIDE_CLOSED), "closed") for _ in range(3)]
            slots += closed[:2] + [("adva", "prior")] + closed[2:]
        return slots + [("punct", "period")]

    def fill(self, rng, slots):
        items = []
        prev_tag = "<s>"
        for cat, kind in slots:
            if kind == "period":
                items.append((PERIOD, "punct", "punct"))
            elif kind == "punct":
                items.append((rng.choice(MID_PUNCT), "punct", "punct"))
            elif kind == "closed":
                items.append((rng.choice(self.closed[cat]), cat, "closed"))
            elif kind == "prior":
                items.append((self.suffixless_words(rng, 1)[0], cat, "prior"))
            else:
                klass = rng.choice(self.classes[cat])
                lit, group = rng.choice(self.groups[klass])
                tag = _pick_tag(rng, group, prev_tag, self.salt)
                stem = (rng.choice(self.unknown[klass]) if kind == "suffix"
                        else _zipf_pick(rng, self.known[klass]))
                items.append((stem + lit, tag, kind))
            prev_tag = items[-1][1]
        return items


# -- long-unpunct ---------------------------------------------------------------


class _Long:
    """The fixture tagset with generated rules whose suffixes each admit
    9 to 12 tags, and few frequent stems, so inflected words keep 8 to 12
    candidates.  Texts are paragraphs with no sentence-final punctuation
    inside; one period closes each paragraph."""

    def __init__(self):
        rng = _rng("long-unpunct", LANGUAGE_SEED, "lexicon")
        feats, cats = _parse_schema(TOY_SCHEMA)
        verbs = _all_tags(feats, cats, "verf")  # 48 tags
        nouns = _all_tags(feats, cats, "subs")  # 18 tags
        rng.shuffle(verbs)
        rng.shuffle(nouns)
        self.groups = {
            "v": [("ομεν", sorted(verbs[:12]))],
            "n": [("οις", sorted(nouns[:9]))],
        }
        taken: set[str] = set()
        self.known = {"v": _stems(rng, 3, taken), "n": _stems(rng, 3, taken)}
        self.unknown = {"v": _stems(rng, 20, taken), "n": _stems(rng, 20, taken)}
        self.salt = str(LANGUAGE_SEED)

    def rules_lines(self) -> list[str]:
        return [f"{lit}\t{klass}\t{' '.join(tags)}"
                for klass, groups in self.groups.items() for lit, tags in groups]

    def coverage(self):
        """Short sentences that show every known stem with every tag of
        its suffix, so that candidate sets have the full 9 or 12 tags."""
        out = []
        for klass, groups in self.groups.items():
            for lit, group in groups:
                for stem in self.known[klass]:
                    out += [[("καί", "konj", "closed"), (stem + lit, tag, "known"),
                             (PERIOD, "punct", "punct")] for tag in group]
        return out

    def template(self, rng, n, p_inflected, p_unknown):
        """Slots (category or class, kind) of ``n`` words."""
        slots = []
        for _ in range(n):
            if rng.random() >= p_inflected:
                slots.append((rng.choice(("konj", "prae", "prae", "nega")), "closed"))
            else:
                klass = "v" if rng.random() < 0.55 else "n"
                slots.append((klass, "suffix" if rng.random() < p_unknown else "known"))
            if rng.random() < 0.04:
                slots.append(("punct", "punct"))
        if slots[-1][1] == "punct":
            slots.pop()
        return slots + [("punct", "period")]

    def fill(self, rng, slots):
        items = []
        prev = "<s>"
        for cat, kind in slots:
            if kind == "period":
                items.append((PERIOD, "punct", "punct"))
            elif kind == "punct":
                items.append((",", "punct", "punct"))
            elif kind == "closed":
                items.append((rng.choice(TOY_CLOSED[cat]), cat, "closed"))
            else:
                lit, group = rng.choice(self.groups[cat])
                tag = _pick_tag(rng, group, prev, self.salt)
                stem = rng.choice((self.unknown if kind == "suffix" else self.known)[cat])
                items.append((stem + lit, tag, kind))
            prev = items[-1][1]
        return items


# -- writing ------------------------------------------------------------------------


def _raw_text(sequences) -> str:
    """Words separated by spaces, punctuation attached to the word before
    it, a line break every twelve tokens and a blank line per sequence."""
    paras = []
    for seq in sequences:
        out = []
        for surface, _, kind in seq:
            if kind == "punct" and out:
                out[-1] += surface
            else:
                out.append(surface)
        lines = [" ".join(out[i:i + 12]) for i in range(0, len(out), 12)]
        paras.append("\n".join(lines))
    return "\n\n".join(paras) + "\n"


def _write_corpus(path: Path, sequences) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# generated training corpus\n")
        for seq in sequences:
            for surface, tag, _ in seq:
                fh.write(f"{surface}\t{tag}\n")
            fh.write("\n")


def _capitalize_first(seq):
    if seq and seq[0][2] != "punct":
        seq[0] = (_capitalize(seq[0][0]),) + tuple(seq[0][1:])
    return seq


def generate(workload: str, seed: int, out: Path, smoke: bool = False) -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out.mkdir(parents=True, exist_ok=True)
    (out / "texts").mkdir(exist_ok=True)
    n_train, n_text = SIZES[workload]["smoke" if smoke else "full"]
    rng_train = _rng(workload, seed, "train")
    rng_text = _rng(workload, seed, "text")
    rules_path = out / "generated.rules"
    texts: list[list[list[tuple[str, str, str]]]] = []

    # the templates belong to the workload, the seed only fills them
    trng = _rng(workload, LANGUAGE_SEED, "templates")
    if workload == "inflected-narrow":
        gen = _Narrow()
        schema_path, rules_path = str(TOY_SCHEMA), TOY_RULES
        train = [_capitalize_first(gen.sentence(rng_train, 0.0)) for _ in range(n_train)]
        for t in range(N_TEXTS):
            # the first text is half as long again as the others
            texts.append([_capitalize_first(gen.sentence(rng_text, 0.12))
                          for _ in range(n_text + (n_text // 2 if t == 0 else 0))])
    elif workload == "wide-oov":
        gen = _Wide()
        schema_path = None
        rules_path.write_text("\n".join(gen.rules_lines()) + "\n", encoding="utf-8")
        train = [_capitalize_first(gen.fill(rng_train, gen.template(trng, trng.randint(5, 14), 0.0)))
                 for _ in range(n_train)]
        for t in range(N_TEXTS):
            # one suffixless unknown word, in the first sentence of each text
            texts.append([_capitalize_first(gen.fill(rng_text, gen.template(
                trng, trng.randint(5, 12), 0.65, suffixless=i == 0))) for i in range(n_text)])
    else:
        gen = _Long()
        schema_path = str(TOY_SCHEMA)
        rules_path.write_text("\n".join(gen.rules_lines()) + "\n", encoding="utf-8")
        train = gen.coverage() + [
            gen.fill(rng_train, gen.template(trng, trng.randint(6, 16), 0.25, 0.0))
            for _ in range(n_train)]
        lengths = (100, 300) if not smoke else (20, 60)
        for t in range(N_TEXTS):
            texts.append([gen.fill(rng_text, gen.template(trng, trng.randint(*lengths), 0.3, 0.08))
                          for _ in range(n_text)])

    corpus_path = out / "train.tag"
    _write_corpus(corpus_path, train)
    text_paths = []
    for t, seqs in enumerate(texts):
        p = out / "texts" / f"text{t}.txt"
        p.write_text(_raw_text(seqs), encoding="utf-8")
        text_paths.append(str(p))
    inputs = Inputs(workload, schema_path, str(rules_path), str(corpus_path), text_paths,
                    texts, [[tag for _, tag, _ in seq] for seq in train])
    inputs.makeup = makeup(inputs)
    return inputs


def makeup(inputs: Inputs) -> dict:
    """Input make-up: sizes, sequence lengths and the word-kind mix."""
    seqs = [s for text in inputs.gold for s in text]
    lens = sorted(len(s) for s in seqs)
    kinds: dict[str, int] = {}
    for s in seqs:
        for _, _, kind in s:
            kinds[kind] = kinds.get(kind, 0) + 1
    n = sum(lens)
    return {
        "train_sequences": len(inputs.train_tags),
        "train_tokens": sum(len(s) for s in inputs.train_tags),
        "text_tokens": n,
        "text_sequences": len(seqs),
        "seq_len_min": lens[0],
        "seq_len_median": lens[len(lens) // 2],
        "seq_len_max": lens[-1],
        "word_kinds": {k: round(v / n, 4) for k, v in sorted(kinds.items())},
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    inputs = generate(args.workload, args.seed, Path(args.out), args.smoke)
    print(json.dumps(inputs.makeup, indent=1))


if __name__ == "__main__":
    main()
