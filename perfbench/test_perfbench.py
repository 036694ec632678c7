"""The benchmark's own tests: smoke runs of every workload and the oracles.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
import oracle  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = _run(HERE.parent, "--workload", workload, "--seed", "7", "--seconds", "0.5",
                "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_same_seed_same_corpus():
    for workload in corpus.WORKLOADS:
        first = corpus.build(workload, 3, "smoke")
        again = corpus.build(workload, 3, "smoke")
        other = corpus.build(workload, 4, "smoke")
        argvs = [[op.argv() for op in case.ops] for case in first]
        assert argvs == [[op.argv() for op in case.ops] for case in again]
        assert argvs != [[op.argv() for op in case.ops] for case in other]


def test_pinned_roots_have_the_typical_separation_depth():
    import random

    roots = corpus.pinned_roots(random.Random(1), 3, 24, 100_000, 999_999)
    deepest = max(oracle.int_vp(a - b, 3) for i, a in enumerate(roots) for b in roots[:i])
    assert len(set(roots)) == 24 and deepest == 5  # 3**5 <= C(24, 2) < 3**6


@pytest.mark.parametrize(
    "p, roots",
    [
        (2, ((Fraction(1), 2), (Fraction(-1), 1), (Fraction(5), 1))),
        (3, ((Fraction(1), 3), (Fraction(10), 2), (Fraction(1, 2), 1))),
        (5, ((Fraction(0), 2), (Fraction(25), 1), (Fraction(2, 5), 1))),
    ],
)
def test_class_oracle_matches_residue_sweep(p, roots):
    unit = Fraction(1)
    for root, mult in roots:
        unit *= root.denominator**mult  # integer coefficients
    n = 6 if p < 5 else 4
    assert oracle.class_counts(unit, roots, p, n) == oracle.sweep_counts(unit, roots, p, n)


def test_closed_form_of_a_linear_polynomial():
    # Z(t, x) = (p - 1) / (p - t)
    assert oracle.rf_equal(oracle.closed_form_zeta(5, ((Fraction(0), 1),)), ([4], [5, -1]))


def test_rendered_rational_functions_parse_back():
    assert oracle.parse_rf_text("(18 - 6*t - t^6)/(27 - 9*t + 3*t^3)") == (
        [18, -6, 0, 0, 0, 0, -1], [27, -9, 0, 3])
    assert oracle.parse_rf_text("4/(5 - t)") == ([4], [5, -1])
    assert oracle.parse_rf_text("-t^2") == ([0, 0, -1], [1])


def test_register_reference():
    # a_n = -(a_{n-1} + a_{n-2}) mod 2 has period 3 from a nonzero state
    assert oracle.register_outputs(2, [1, 1], [1, 0], 6) == [1, 0, 1, 1, 0, 1]
    assert oracle.register_period(2, [1, 1], [1, 0]) == 3


def test_checks_reject_a_wrong_keystream():
    case = next(c for c in corpus.build("stream", 1, "smoke") if c.check == "stream")
    u = case.info["depth"]
    good = oracle.class_counts(case.poly.unit, case.poly.roots, case.poly.p, u)
    text = "\n".join(map(str, good))
    assert checks.check_case(case, [text, text]) == []
    bad = "\n".join(map(str, good[:-1] + [good[-1] + 1]))
    assert checks.check_case(case, [bad, bad])


def test_checks_reject_a_wrong_zeta_function():
    case = corpus.build("dense-bigp", 1, "smoke")[0]
    p = case.poly.p
    text = f"p = {p}, shift = 0\nterms:\n  1\nZ = 1, t = {p}^(-s)"
    assert checks.check_case(case, [text, text])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "results", "__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "stream", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
