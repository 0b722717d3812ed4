"""Two-class chi-square deviation test over word-category counts.

Each category of each text is tested against the pooled distribution of
the whole group: the two classes are "word belongs to the category" and
"word does not", with expected counts ``N*p`` and ``N*(1-p)``.  A text's
deviation count is the number of categories whose chi-square value
meets the significance cutoff; the group's mean and (population)
standard deviation of those counts standardize them into one score per
text, and a score of at least 2 flags the text as deviating from the
group.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import INT64_MAX, FormatError, GreektagError, open_utf8

#: Chi-square cutoff for one category: 1 degree of freedom at p = 0.05.
DEFAULT_THRESHOLD = 3.841

#: Standardized deviation score at or above which a text is flagged.
FLAG_LEVEL = 2.0

DEFAULT_EXCLUDED = ("punct",)


@dataclass(frozen=True)
class CategoryCounts:
    text_id: str
    counts: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class DeviationReport:
    texts: tuple[str, ...]
    categories: tuple[str, ...]
    chi2: np.ndarray  # texts x categories
    pooled_probs: dict[str, float]
    alpha: tuple[int, ...]
    mu: float
    sigma: float
    rho: tuple[float, ...] | None  # None when sigma == 0
    chi2_threshold: float
    flagged: tuple[str, ...]
    dropped_categories: tuple[str, ...] = ()

    @property
    def degenerate(self) -> bool:
        return self.rho is None


def count_categories(tagged, text_id: str,
                     exclude=DEFAULT_EXCLUDED) -> CategoryCounts:
    """Histogram of tag categories over (token, tag) pairs."""
    excluded = set(exclude)
    counts = Counter()
    for _, tag in tagged:
        if tag.category not in excluded:
            counts[tag.category] += 1
    return CategoryCounts(text_id, dict(sorted(counts.items())))


def chi_square_cell(m: int, n: int, p: float) -> float:
    """Two-class chi-square for one category of one text.

    ``m`` words belong to the category out of ``n`` total; ``p`` is the
    pooled probability of the category, so the expected counts are
    ``n*p`` and ``n*(1-p)``.
    """
    if n <= 0:
        raise GreektagError("text has no counted words")
    if not 0.0 < p < 1.0:
        raise GreektagError(f"pooled probability {p} outside (0, 1)")
    e1 = n * p
    e2 = n * (1.0 - p)
    o1 = float(m)
    o2 = float(n - m)
    return (o1 - e1) ** 2 / e1 + (o2 - e2) ** 2 / e2


def run_test(group, threshold: float = DEFAULT_THRESHOLD,
             exclude_self: bool = False) -> DeviationReport:
    """Chi-square deviation test of every text against the group.

    The pooled distribution includes the text under test unless
    ``exclude_self``.  Categories whose pooled probability degenerates
    to 0 or 1 are dropped and reported.  With three or more texts the
    deviation counts standardize against the group mean and population
    standard deviation; if every text deviates equally the report is
    degenerate and nothing is flagged.
    """
    if len(group) < 3:
        raise GreektagError(f"need at least 3 texts, got {len(group)}")
    texts = tuple(c.text_id for c in group)
    if len(set(texts)) != len(texts):
        raise GreektagError("duplicate text ids in group")
    totals = [c.total for c in group]
    if min(totals) <= 0:
        empty = texts[totals.index(min(totals))]
        raise GreektagError(f"text {empty!r} has no counted words")
    grand_total = sum(totals)
    if grand_total > INT64_MAX:
        raise GreektagError(f"the group's counts total {grand_total}, "
                            f"more than {INT64_MAX} (int64)")
    totals = np.array(totals, dtype=np.int64)

    categories = tuple(sorted({cat for c in group for cat in c.counts}))
    counts = np.array(
        [[c.counts.get(cat, 0) for cat in categories] for c in group],
        dtype=np.int64,
    )
    grand = counts.sum(axis=0)
    # each text's pool and its total: the group's, or the other texts'
    pool, pool_total = grand[None, :], np.array([[grand_total]])
    if exclude_self:
        pool, pool_total = grand - counts, (grand_total - totals)[:, None]
    kept = ~((pool == 0) | (pool == pool_total)).any(axis=0)
    if not kept.any():
        raise GreektagError("no category has a usable pooled probability")
    dropped_names = tuple(c for c, k in zip(categories, kept) if not k)
    categories = tuple(c for c, k in zip(categories, kept) if k)
    counts = counts[:, kept]
    probs = np.broadcast_to(pool[:, kept] / pool_total, counts.shape)
    # one call per cell: an array formula would square by x*x, not pow
    chi2 = np.array([[chi_square_cell(int(m), int(n), p) for m, p in zip(row, prow)]
                     for row, n, prow in zip(counts, totals, probs)])
    pooled = dict(zip(categories, grand[kept] / grand_total))

    alpha = tuple(int((row >= threshold).sum()) for row in chi2)
    mu = float(np.mean(alpha))
    sigma = float(np.sqrt(np.mean((np.array(alpha, dtype=float) - mu) ** 2)))
    if sigma == 0.0:
        rho = None
        flagged = ()
    else:
        rho = tuple((a - mu) / sigma for a in alpha)
        flagged = tuple(t for t, r in zip(texts, rho) if r >= FLAG_LEVEL)
    return DeviationReport(texts, categories, chi2, pooled, alpha, mu, sigma,
                           rho, threshold, flagged, dropped_names)


# -- rendering ---------------------------------------------------------------


def render_table(report: DeviationReport) -> str:
    """Aligned plain-text table: categories as rows, texts as columns,
    chi-square cells, and a final row with the standardized scores."""
    headers = ["category"] + list(report.texts)
    rows = _rows(report, "{:.4g}".format)
    widths = [max(len(headers[c]), *(len(r[c]) for r in rows)) for c in range(len(headers))]
    out = []

    def fmt(cells):
        left = cells[0].ljust(widths[0])
        rest = "  ".join(c.rjust(widths[i + 1]) for i, c in enumerate(cells[1:]))
        return (left + "  " + rest).rstrip()

    out.append(fmt(headers))
    for row in rows[:-2]:
        out.append(fmt(row))
    out.append("-" * len(out[0]))
    out.append(fmt(rows[-2]))
    out.append(fmt(rows[-1]))
    meta = [f"threshold {report.chi2_threshold:g}"]
    if report.dropped_categories:
        meta.append("dropped " + ",".join(report.dropped_categories))
    if report.degenerate:
        meta.append("degenerate (all deviation counts equal)")
    elif report.flagged:
        meta.append("flagged " + ",".join(report.flagged))
    else:
        meta.append("flagged none")
    out.append("; ".join(meta))
    return "\n".join(out) + "\n"


def render_csv(report: DeviationReport) -> str:
    """Machine-readable report: chi-square matrix plus alpha and rho rows."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [["category"] + list(report.texts)] + _rows(report, repr))
    return buf.getvalue()


def _rows(report: DeviationReport, cell) -> list[list[str]]:
    """A row per category, then the ``alpha`` and ``rho`` rows, with
    each chi-square and rho score written by ``cell``."""
    n = len(report.texts)
    rows = [[cat] + [cell(report.chi2[i, j].item()) for i in range(n)]
            for j, cat in enumerate(report.categories)]
    rows.append(["alpha"] + [str(a) for a in report.alpha])
    rows.append(["rho"] + (["undef"] * n if report.rho is None else [cell(r) for r in report.rho]))
    return rows


def render_report(report: DeviationReport) -> tuple[str, str]:
    return render_table(report), render_csv(report)


# -- counts CSV ---------------------------------------------------------------
#
# Header `category,<text_id>,...`; one row per category; integer cells.


def write_counts_csv(stream, group) -> None:
    texts = [c.text_id for c in group]
    if len(set(texts)) != len(texts):
        raise GreektagError("duplicate text ids")
    categories = sorted({cat for c in group for cat in c.counts})
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["category"] + texts)
    for cat in categories:
        writer.writerow([cat] + [str(c.counts.get(cat, 0)) for c in group])


def read_counts_csv(stream, path=None) -> list[CategoryCounts]:
    rows = list(csv.reader(stream))
    if not rows:
        return []
    header = rows[0]
    if not header or header[0] != "category":
        raise FormatError("counts CSV must start with a 'category' header", path, 1)
    texts = header[1:]
    if len(set(texts)) != len(texts):
        raise FormatError("a text id is given twice", path, 1)
    per_text: list[dict[str, int]] = [{} for _ in texts]
    seen: set[str] = set()
    total = 0  # of every count read so far
    for no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise FormatError(
                f"expected {len(header)} columns, got {len(row)}", path, no
            )
        if not row[0]:
            raise FormatError("empty category name", path, no)
        if row[0] in seen:
            raise FormatError(f"category {row[0]!r} given twice", path, no)
        seen.add(row[0])
        for i, cell in enumerate(row[1:]):
            if not (cell.isascii() and cell.isdigit()):
                raise FormatError(f"count {cell!r} is not a non-negative integer", path, no)
            digits = cell.lstrip("0")
            # 20 digits pass the bound, and int() reads no more than 4300
            count = int(digits or "0") if len(digits) < 20 else INT64_MAX + 1
            per_text[i][row[0]] = count
            total += count
        if total > INT64_MAX:
            raise FormatError(f"counts total more than {INT64_MAX} (int64)", path, no)
    return [CategoryCounts(t, dict(sorted(d.items()))) for t, d in zip(texts, per_text)]


def load_counts_csv(path) -> list[CategoryCounts]:
    with open_utf8(path, newline="") as fh:
        return read_counts_csv(fh, path=str(path))


def save_counts_csv(path, group) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_counts_csv(fh, group)
