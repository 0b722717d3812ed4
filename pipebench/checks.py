"""Correctness checks of one benchmark run.

Every check compares greektag's output with a computation made here,
apart from the program, or with a property the method must have; none
compares with a stored copy of earlier output.  ``run_checks`` returns
the list of failures (empty when everything holds).
"""

from __future__ import annotations

import csv
import itertools
import math
import random
from collections import Counter
from pathlib import Path

#: Lowest tagging accuracy against the generator's gold tags.
ACCURACY_FLOOR = {"inflected-narrow": 0.97, "wide-oov": 0.6, "long-unpunct": 0.75}

#: Sequences with at most this many candidate paths are checked by
#: exhaustive search; longer ones by single-position substitutions.
ENUMERATE_LIMIT = 256
#: Budget of paths scored by exhaustive search in one run.
ENUMERATE_BUDGET = 20000
#: Substitution checks: sequences per text and positions per sequence.
SUBST_SEQS = 2
SUBST_POSITIONS = 4

CHI2_THRESHOLD = 3.841
FLAG_LEVEL = 2.0
EXCLUDED = ("punct",)


def read_tagged(path) -> list[list[tuple[str, str]]]:
    """Sequences of (surface, tag string) from an annotated file."""
    seqs, cur = [], []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        if not line.strip():
            if cur:
                seqs.append(cur)
                cur = []
            continue
        surface, tag = line.split("\t")
        cur.append((surface, tag))
    if cur:
        seqs.append(cur)
    return seqs


def model_sections(path) -> tuple[dict, dict]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header, sections, current = {}, {}, None
    for line in lines[1:]:
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = []
        elif current is None:
            key, *values = line.split()
            header[key] = values
        else:
            sections[current].append(line)
    return header, sections


def own_trigrams(train_tags) -> Counter:
    counts = Counter()
    for tags in train_tags:
        a = b = "<s>"
        for t in tags:
            counts[(a, b, t)] += 1
            a, b = b, t
    return counts


def own_chisq(tally: dict[str, Counter]) -> dict:
    """The two-class chi-square test, written out from its definition."""
    texts = list(tally)
    cats = sorted({c for t in texts for c in tally[t]})
    n = {t: sum(tally[t].values()) for t in texts}
    grand_total = sum(n.values())
    kept = [c for c in cats if 0 < sum(tally[t][c] for t in texts) < grand_total]
    chi2 = []
    for t in texts:
        row = []
        for c in kept:
            p = sum(tally[u][c] for u in texts) / grand_total
            m = tally[t][c]
            e1, e2 = n[t] * p, n[t] * (1 - p)
            row.append((m - e1) ** 2 / e1 + ((n[t] - m) - e2) ** 2 / e2)
        chi2.append(row)
    alpha = [sum(v >= CHI2_THRESHOLD for v in row) for row in chi2]
    mu = sum(alpha) / len(alpha)
    sigma = math.sqrt(sum((a - mu) ** 2 for a in alpha) / len(alpha))
    rho = None if sigma == 0 else [(a - mu) / sigma for a in alpha]
    flagged = [] if rho is None else [t for t, r in zip(texts, rho) if r >= FLAG_LEVEL]
    return {"texts": texts, "categories": kept, "chi2": chi2, "alpha": alpha,
            "mu": mu, "sigma": sigma, "rho": rho, "flagged": flagged}


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def run_checks(inputs, outdir: Path, model_path: Path, train_rounds, tag_rounds,
               seed: int) -> tuple[list[str], dict]:
    """Failures (empty when every check holds), and what the checks saw."""
    from greektag import Model
    from greektag.tags import format_tag
    from greektag.text import tokenize

    failures: list[str] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        if not ok:
            failures.append(f"{name}: {detail}" if detail else name)

    # -- training ------------------------------------------------------------
    header, sections = model_sections(model_path)
    got = Counter()
    for row in sections.get("trigrams", []):
        if row.strip():
            a, b, t, n = row.split("\t")
            got[(a, b, t)] = int(n)
    want = own_trigrams(inputs.train_tags)
    check("trigram counts", got == want,
          f"{len(set(got.items()) ^ set(want.items()))} rows differ")
    for key in ("lambdas", "chain"):
        w = [float(x) for x in header.get(key, [])]
        check(f"{key} weights", len(w) == 3 and all(math.isfinite(x) and x >= 0 for x in w)
              and abs(sum(w) - 1.0) <= 1e-9, str(w))
    bad_rows = 0
    for row in sections.get("lexicon", []):
        body = row.split("\t")[3].split()
        total = sum(float(item.rpartition("=")[2]) for item in body)
        bad_rows += abs(total - 1.0) > 1e-9
    check("lexicon rows sum to 1", bad_rows == 0, f"{bad_rows} rows")
    model_shas = {r.get("model_sha") for r in train_rounds}
    check("retraining is byte-identical", len(train_rounds) >= 2 and model_shas
          == {train_rounds[0].get("model_sha")} and None not in model_shas)
    m = Model.load(model_path)
    check("save/load round trip", m.to_lines() ==
          Path(model_path).read_text(encoding="utf-8").splitlines())

    # -- tagging -----------------------------------------------------------------
    for label in ("cold", "warm", "beam"):
        shas = {tuple(r[label]["sha"]) for r in tag_rounds if label in r}
        check(f"{label} output identical in every round", len(shas) == 1)
    check("cold and warm outputs byte-identical",
          all(r["cold"]["sha"] == r["warm"]["sha"] for r in tag_rounds if "cold" in r))

    rng = random.Random(seed)
    enumerated = budget = 0
    substituted = correct = total = 0
    beam_worse = 0
    for t, path in enumerate(inputs.text_paths):
        stem = Path(path).stem
        out = read_tagged(outdir / "tag" / "cold" / f"{stem}.tag")
        beamed = read_tagged(outdir / "tag" / "beam" / f"{stem}.tag")
        seqs = tokenize(Path(path).read_text(encoding="utf-8"))
        gold = inputs.gold[t]
        split_ok = ([[s for s, _ in q] for q in out]
                    == [[tok.surface for tok in q.tokens] for q in seqs]
                    == [[s for s, _, _ in q] for q in gold]
                    == [[s for s, _ in q] for q in beamed])
        check(f"{stem}: outputs follow the generated sequences", split_ok)
        if not split_ok:
            continue
        long_seqs = []
        for q, tagged, btagged, g in zip(seqs, out, beamed, gold):
            cands = [{format_tag(tag): tag for tag, _ in m.lexical_probs(tok.norm)}
                     for tok in q.tokens]
            tags = [tag for _, tag in tagged]
            outside = [tg for tg, c in zip(tags, cands) if tg not in c]
            check("output tags within candidate sets", not outside, str(outside[:3]))
            if outside:
                continue
            path_tags = [c[tg] for tg, c in zip(tags, cands)]
            score = m.sequence_log_prob(q.tokens, path_tags)
            beam_tags = [c.get(tg) for (_, tg), c in zip(btagged, cands)]
            beam_worse += None in beam_tags or not (
                m.sequence_log_prob(q.tokens, beam_tags) <= score)
            correct += sum(a == b for a, (_, b, _) in zip(tags, g))
            total += len(tags)
            size = math.prod(len(c) for c in cands)
            if size <= ENUMERATE_LIMIT and budget + size <= ENUMERATE_BUDGET:
                budget += size
                enumerated += 1
                best = None
                for combo in itertools.product(*(sorted(c) for c in cands)):
                    s = m.sequence_log_prob(q.tokens, [c[x] for x, c in zip(combo, cands)])
                    if best is None or s > best[0]:
                        best = (s, combo)  # lexicographic order: first wins ties
                check("exhaustive search agrees", list(best[1]) == tags,
                      f"{stem}: {best[1]} vs {tags}")
            elif size > ENUMERATE_LIMIT:
                long_seqs.append((q, tags, cands, path_tags, score))
        for q, tags, cands, path_tags, score in rng.sample(long_seqs, min(SUBST_SEQS, len(long_seqs))):
            for k in rng.sample(range(len(tags)), min(SUBST_POSITIONS, len(tags))):
                for alt in cands[k].values():
                    trial = list(path_tags)
                    trial[k] = alt
                    substituted += 1
                    s = m.sequence_log_prob(q.tokens, trial)
                    check("no single substitution scores higher", s <= score,
                          f"{stem} position {k}")
    check("beam path scores no higher than exact", beam_worse == 0, f"{beam_worse} sequences")
    accuracy = correct / total if total else 0.0
    check("accuracy floor", accuracy >= ACCURACY_FLOOR[inputs.workload],
          f"{accuracy:.4f} < {ACCURACY_FLOOR[inputs.workload]}")

    # -- count and chisq ----------------------------------------------------------
    tally = {}
    for path in sorted((outdir / "tag" / "warm").glob("*.tag")):
        tally[path.stem] = Counter(tag.partition(":")[0] for seq in read_tagged(path)
                                   for _, tag in seq if tag.partition(":")[0] not in EXCLUDED)
    with open(outdir / "tag" / "counts.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    csv_counts = {t: Counter() for t in rows[0][1:]}
    for row in rows[1:]:
        for t, cell in zip(rows[0][1:], row[1:]):
            if int(cell):
                csv_counts[t][row[0]] = int(cell)
    check("counts CSV equals own tally", csv_counts == tally)
    own = own_chisq(tally)
    report = tag_rounds[-1].get("report")
    check("chisq report present", report is not None)
    if report is not None:
        check("chisq texts and categories", report["texts"] == own["texts"]
              and report["categories"] == own["categories"])
        cells = [a for row in report["chi2"] for a in row]
        own_cells = [a for row in own["chi2"] for a in row]
        check("chisq cells", len(cells) == len(own_cells)
              and all(close(a, b) for a, b in zip(cells, own_cells)))
        check("chisq alpha", report["alpha"] == own["alpha"])
        check("chisq mu and sigma", close(report["mu"], own["mu"])
              and close(report["sigma"], own["sigma"]))
        check("chisq rho", (report["rho"] is None) == (own["rho"] is None) and (
            own["rho"] is None or all(close(a, b) for a, b in zip(report["rho"], own["rho"]))))
        check("chisq flagged set", report["flagged"] == own["flagged"])
    return failures, {"accuracy": round(accuracy, 4), "checked_exhaustive": enumerated,
                      "checked_substitutions": substituted,
                      "flagged": own["flagged"], "alpha": own["alpha"]}
