import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from greektag import (
    CategoryCounts,
    GreektagError,
    chi_square_cell,
    count_categories,
    render_report,
    run_test,
)
from greektag.stylometry import (
    DeviationReport,
    read_counts_csv,
    write_counts_csv,
)
from greektag.tags import Tag
from greektag.text import Token

from reference import run_test_reference


def alpha_pattern_counts(targets, n_cats=20, base=1000, delta=300):
    """Counts engineered so text i has exactly targets[i] significant
    categories at the default threshold.

    Bumps alternate sign inside each text and each bump prefers the
    category whose running net it cancels, so both per-text totals and
    pooled probabilities stay near the baseline and non-bumped cells
    stay far below the cutoff.
    """
    nets = {j: 0 for j in range(n_cats)}
    texts = []
    for i, a in enumerate(targets):
        counts = {f"k{j:02d}": base for j in range(n_cats)}
        used = set()
        for j in range(a):
            sign = 1 if j % 2 == 0 else -1
            cat = min(
                (c for c in range(n_cats) if c not in used),
                key=lambda c: (abs(nets[c] + sign * delta), c),
            )
            used.add(cat)
            nets[cat] += sign * delta
            counts[f"k{cat:02d}"] += sign * delta
        texts.append(CategoryCounts(f"t{i}", counts))
    return texts


# -- counting -----------------------------------------------------------------


def _pairs(tagged):
    return [(Token(w, w, i), Tag(c)) for i, (w, c) in enumerate(tagged)]


def test_count_empty_text():
    counts = count_categories([], "empty")
    assert counts.counts == {} and counts.total == 0


def test_count_three_tokens():
    counts = count_categories(_pairs([("a", "subs"), ("b", "subs"), ("c", "verf")]), "t")
    assert counts.counts == {"subs": 2, "verf": 1}
    assert counts.total == 3


def test_count_order_invariant():
    tagged = _pairs([("a", "subs"), ("b", "verf"), ("c", "subs")])
    assert count_categories(tagged, "t").counts == \
        count_categories(list(reversed(tagged)), "t").counts


def test_count_excludes_punct_by_default():
    counts = count_categories(_pairs([("a", "subs"), (".", "punct")]), "t")
    assert counts.counts == {"subs": 1}
    kept = count_categories(_pairs([(".", "punct")]), "t", exclude=())
    assert kept.counts == {"punct": 1}


# -- the chi-square cell --------------------------------------------------------


def test_chi_square_hand_value():
    assert chi_square_cell(30, 100, 0.2) == 6.25


def test_chi_square_perfect_fit_is_zero():
    assert chi_square_cell(25, 100, 0.25) == 0.0


def test_chi_square_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 1000))
        m = int(rng.integers(0, n + 1))
        p = float(rng.uniform(0.01, 0.99))
        assert chi_square_cell(m, n, p) >= 0.0


def test_chi_square_scaling_linearity():
    for m, n, p in [(30, 100, 0.2), (7, 50, 0.13), (400, 1000, 0.41)]:
        base = chi_square_cell(m, n, p)
        for k in (2, 5, 17):
            scaled = chi_square_cell(k * m, k * n, p)
            assert math.isclose(scaled, k * base, rel_tol=1e-9)


def test_chi_square_rejects_degenerate_inputs():
    with pytest.raises(GreektagError):
        chi_square_cell(0, 0, 0.5)
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(GreektagError):
            chi_square_cell(10, 100, p)


# -- the group test --------------------------------------------------------------


def test_identical_texts_are_degenerate():
    counts = {"a": 10, "b": 20}
    group = [CategoryCounts(f"t{i}", dict(counts)) for i in range(4)]
    report = run_test(group)
    assert np.allclose(report.chi2, 0.0)
    assert report.alpha == (0, 0, 0, 0)
    assert report.sigma == 0.0
    assert report.degenerate
    assert report.rho is None
    assert report.flagged == ()


def test_requires_three_texts():
    group = [CategoryCounts(f"t{i}", {"a": 5, "b": 5}) for i in range(2)]
    with pytest.raises(GreektagError):
        run_test(group)


def test_rejects_duplicate_ids():
    group = [CategoryCounts("same", {"a": 5}) for _ in range(3)]
    for run in (lambda: run_test(group), lambda: write_counts_csv(io.StringIO(), group)):
        with pytest.raises(GreektagError, match="^text id same given twice$"):
            run()


def test_rejects_empty_text_id():
    group = [CategoryCounts(text_id, {"a": 5}) for text_id in ("a", "", "c")]
    for run in (lambda: run_test(group), lambda: write_counts_csv(io.StringIO(), group)):
        with pytest.raises(GreektagError, match="^empty text id$"):
            run()


def test_rejects_empty_text():
    group = [
        CategoryCounts("a", {"x": 5}),
        CategoryCounts("b", {"x": 5}),
        CategoryCounts("c", {}),
    ]
    with pytest.raises(GreektagError):
        run_test(group)


def test_rejects_a_group_total_past_int64():
    """Three texts of 2**62 words would wrap the int64 sums."""
    group = [CategoryCounts(f"t{i}", {"a": 2**62 - 1, "b": 1}) for i in range(3)]
    with pytest.raises(GreektagError, match=f"^the group's counts total {3 * 2**62}, "):
        run_test(group)


@pytest.mark.parametrize("x", [1, 2, 7])
def test_alpha_pattern_reproduces_expected_rho(x):
    targets = (x, x - 1, x, x, x - 1, x + 3)
    report = run_test(alpha_pattern_counts(targets))
    assert report.alpha == targets
    expected = (-0.124, -0.868, -0.124, -0.124, -0.868, 2.109)
    for got, want in zip(report.rho, expected):
        assert abs(got - want) <= 1e-3
    assert report.flagged == ("t5",)


def test_rho_translation_invariance():
    r1 = run_test(alpha_pattern_counts((1, 0, 1, 1, 0, 4)))
    r2 = run_test(alpha_pattern_counts((5, 4, 5, 5, 4, 8)))
    assert r1.alpha != r2.alpha
    for a, b in zip(r1.rho, r2.rho):
        assert math.isclose(a, b, rel_tol=0, abs_tol=1e-9)


def test_rho_sums_to_zero():
    report = run_test(alpha_pattern_counts((2, 1, 2, 2, 1, 5)))
    assert abs(sum(report.rho)) <= 1e-9
    assert abs(sum(a - report.mu for a in report.alpha)) <= 1e-9


def test_flag_threshold_boundary_included():
    # alpha (1,5,3,3,3,3,3,3): mu=3, sigma=1, rho=(-2,2,0,...): the text
    # at exactly +2 standard deviations is flagged
    report = run_test(alpha_pattern_counts((1, 5, 3, 3, 3, 3, 3, 3)))
    assert report.alpha == (1, 5, 3, 3, 3, 3, 3, 3)
    assert report.mu == 3.0 and report.sigma == 1.0
    assert report.rho[1] == 2.0
    assert report.flagged == ("t1",)


def test_flag_set_matches_rho_rule():
    report = run_test(alpha_pattern_counts((2, 1, 2, 2, 1, 5)))
    manual = tuple(
        t for t, r in zip(report.texts, report.rho) if r >= 2.0
    )
    assert report.flagged == manual


def test_pooled_probs_sum_to_one():
    report = run_test(alpha_pattern_counts((1, 0, 1, 1, 0, 4)))
    assert abs(sum(report.pooled_probs.values()) - 1.0) <= 1e-9


def test_degenerate_pool_drops_category():
    group = [
        CategoryCounts("a", {"x": 5, "y": 4, "dead": 0}),
        CategoryCounts("b", {"x": 5, "y": 6, "dead": 0}),
        CategoryCounts("c", {"x": 5, "y": 5, "dead": 0}),
    ]
    report = run_test(group)
    assert report.dropped_categories == ("dead",)
    assert "dead" not in report.categories


def test_exclude_self_changes_pool():
    group = [
        CategoryCounts("a", {"x": 30, "y": 70}),
        CategoryCounts("b", {"x": 20, "y": 80}),
        CategoryCounts("c", {"x": 10, "y": 90}),
    ]
    include = run_test(group)
    exclude = run_test(group, exclude_self=True)
    # text a against pool without itself: p_x = 30/200
    expected = chi_square_cell(30, 100, 30 / 200)
    j = exclude.categories.index("x")
    assert exclude.chi2[0, j] == expected
    assert include.chi2[0, j] != exclude.chi2[0, j]


# -- rendering and CSV ------------------------------------------------------------


def test_run_test_matches_reference():
    """On random groups, some of whose categories have a degenerate pool
    (no word, every word, or only one text's words), ``run_test`` keeps
    and drops the categories of the cell-by-cell reference and gives the
    same chi-square values, repr for repr, and the same alpha, in both
    pooling modes."""
    rng = np.random.default_rng(5)
    dropped_any = {False: 0, True: 0}
    for _ in range(300):
        n_texts, n_cats = int(rng.integers(3, 7)), int(rng.integers(1, 7))
        group = []
        for i in range(n_texts):
            counts = {f"c{j}": int(rng.integers(0, 30)) * int(rng.random() < 0.7)
                      for j in range(n_cats)}
            counts["last"] = 1 + int(rng.integers(0, 5)) * (i == 0)
            group.append(CategoryCounts(f"t{i}", counts))
        for exclude_self in (False, True):
            try:
                expected = run_test_reference(group, 3.841, exclude_self)
            except GreektagError as exc:
                with pytest.raises(GreektagError, match=str(exc)):
                    run_test(group, exclude_self=exclude_self)
                continue
            report = run_test(group, exclude_self=exclude_self)
            categories, dropped, chi2, alpha = expected
            assert list(report.categories) == categories
            assert list(report.dropped_categories) == dropped
            assert [repr(x) for x in report.chi2.ravel().tolist()] == \
                [repr(x) for x in chi2.ravel().tolist()]
            assert report.alpha == alpha
            dropped_any[exclude_self] += bool(dropped)
    assert all(dropped_any.values())


def test_render_golden(fixtures_dir):
    report = DeviationReport(
        texts=("text1", "text2"),
        categories=("konj", "subs"),
        chi2=np.array([[0.0, 6.25], [1.5, 0.0]]),
        pooled_probs={"konj": 0.4, "subs": 0.6},
        alpha=(1, 0),
        mu=0.5,
        sigma=0.5,
        rho=(1.0, -1.0),
        chi2_threshold=3.841,
        flagged=(),
    )
    table, _ = render_report(report)
    golden = (fixtures_dir / "golden_report.txt").read_text(encoding="utf-8")
    assert table == golden


def test_render_degenerate_marks_rho_undef():
    group = [CategoryCounts(f"t{i}", {"a": 3, "b": 4}) for i in range(3)]
    table, csv_text = render_report(run_test(group))
    assert "undef" in table
    assert "degenerate" in table
    assert "rho,undef" in csv_text


def test_report_csv_reparses_to_same_matrix():
    report = run_test(alpha_pattern_counts((1, 0, 1, 1, 0, 4)))
    _, csv_text = render_report(report)
    header, *body, alpha, rho = csv.reader(io.StringIO(csv_text))
    assert (alpha[0], rho[0]) == ("alpha", "rho")
    assert tuple(header[1:]) == report.texts
    assert tuple(row[0] for row in body) == report.categories
    matrix = np.array([[float(v) for v in row[1:]] for row in body]).T
    assert np.array_equal(matrix, report.chi2)


def test_counts_csv_round_trip():
    group = alpha_pattern_counts((1, 0, 1, 1, 0, 4), n_cats=5)
    buf = io.StringIO()
    write_counts_csv(buf, group)
    first = buf.getvalue()
    again = read_counts_csv(io.StringIO(first))
    buf2 = io.StringIO()
    write_counts_csv(buf2, again)
    assert buf2.getvalue() == first
    assert [c.text_id for c in again] == [c.text_id for c in group]
    assert all(a.counts == b.counts for a, b in zip(again, group))


def test_counts_csv_errors():
    from greektag.errors import FormatError

    with pytest.raises(FormatError):
        read_counts_csv(io.StringIO("bogus,t1\nx,1\n"))
    with pytest.raises(FormatError):
        read_counts_csv(io.StringIO("category,t1\nx,notanumber\n"))
    with pytest.raises(FormatError):
        read_counts_csv(io.StringIO("category,t1\nx,-3\n"))
    with pytest.raises(FormatError):
        read_counts_csv(io.StringIO("category,t1,t2\nx,1\n"))


def test_counts_csv_total_must_fit_int64():
    """The row at which the counts read so far total 2**63 fails with
    its line; a cell ``int`` cannot read fails the same way, and zeros
    in front of a count do not count."""
    from greektag.errors import FormatError

    fits = f"category,t1,t2\nx,{2**63 - 2},0\ny,0,1\n"
    assert [c.counts for c in read_counts_csv(io.StringIO(fits))] == [
        {"x": 2**63 - 2, "y": 0}, {"x": 0, "y": 1}]
    for text, line in ((fits + "z,0,1\n", 4),
                       ("category,t1\nx,1" + "0" * 5000 + "\n", 2)):
        with pytest.raises(FormatError,
                           match=f"^f.csv: line {line}: counts total more than {2**63 - 1} "):
            read_counts_csv(io.StringIO(text), path="f.csv")
    padded = read_counts_csv(io.StringIO("category,t1\nx," + "0" * 5000 + "7\n"))
    assert padded[0].counts == {"x": 7}


_CSV_CELLS = st.one_of(
    st.sampled_from(["category", "t1", "t2", "x", "", "0", "7", "-3", " 1", "1.5", "1e3",
                     "١", "99999999999999999999", "\"", "\"a,b\"", "\"x\ny\""]),
    st.text(max_size=5),
)
_CSV_LINES = st.one_of(
    st.lists(_CSV_CELLS, max_size=4).map(",".join),
    st.text(max_size=10),
)


@given(st.lists(_CSV_LINES, max_size=6), st.booleans())
def test_counts_csv_loader_fuzz(lines, header):
    """Only a ``GreektagError`` escapes, and counts that load write a CSV
    that loads to the same counts."""
    text = "\n".join((["category,t1,t2"] if header else []) + lines) + "\n"
    try:
        group = read_counts_csv(io.StringIO(text, newline=""), path="f.csv")
    except GreektagError:
        return
    buf = io.StringIO()
    write_counts_csv(buf, group)
    again = read_counts_csv(io.StringIO(buf.getvalue()))
    assert [(c.text_id, c.counts) for c in again] == [(c.text_id, c.counts) for c in group]
