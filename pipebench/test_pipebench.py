"""Tests of the pipeline benchmark itself (seconds, on smoke-size inputs).

    python3 -m pytest pipebench/test_pipebench.py -q
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


def bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_seeded(tmp_path, workload):
    a = gen.generate(workload, 5, tmp_path / "a", smoke=True)
    b = gen.generate(workload, 5, tmp_path / "b", smoke=True)
    c = gen.generate(workload, 6, tmp_path / "c", smoke=True)
    files = [Path(a.corpus_path)] + [Path(p) for p in a.text_paths]
    for f in files:
        assert f.read_bytes() == (tmp_path / "b" / f.relative_to(tmp_path / "a")).read_bytes()
    assert Path(a.corpus_path).read_bytes() != Path(c.corpus_path).read_bytes()
    assert a.gold == b.gold and len(a.text_paths) >= 3


def test_own_chisq_matches_hand_computation():
    tally = {"a": Counter(x=10, y=10), "b": Counter(x=10, y=10), "c": Counter(x=20)}
    own = checks.own_chisq(tally)
    # pooled p(x) = 40/60; text a: m=10, n=20, expected 13.33 and 6.67
    assert own["chi2"][0][0] == pytest.approx((10 - 40 / 3) ** 2 / (40 / 3)
                                             + (10 - 20 / 3) ** 2 / (20 / 3))
    # text c: chi2 = 10 in both categories; alpha = (0, 0, 2), rho_c = sqrt(2)
    assert own["alpha"] == [0, 0, 2] and own["flagged"] == []
    assert own["rho"][2] == pytest.approx(2 ** 0.5)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(trace):
    p = bench("--workload", "all", "--seed", "1", "--seconds", "1", "--smoke",
              "--trace", trace)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    want = {f"{w}.{name}" for w in gen.WORKLOADS for name, _ in names}
    assert set(result["metrics"]) == want
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "pipebench/run.py", "--workload", "wide-oov",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0 and not p.stdout.strip()
