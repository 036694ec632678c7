import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localzeta.cli
import localzeta.zeta
from localzeta import (
    FactoredPoly,
    InvariantViolation,
    PAdicContext,
    RationalFunctionT,
    coeff_stream,
    compute_zeta,
    counts_from_coeffs,
    parse_poly,
    solution_counts,
    tree_from_json,
    zeta_from_json,
)
from localzeta.cli import main
from localzeta.ratfunc import decimal


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_zeta_text_output(capsys):
    status, out, _ = run_cli(capsys, "zeta", "--poly", "x", "--prime", "5")
    assert status == 0
    assert "Z = 4/(5 - t), t = 5^(-s)" in out


def test_zeta_json_round_trips(capsys):
    status, out, _ = run_cli(
        capsys, "zeta", "--poly", "(x-1)^2*(x-4)", "--prime", "3", "--format", "json"
    )
    assert status == 0
    doc = json.loads(out)
    z = zeta_from_json(doc)
    assert z.shift == 0 and len(z.terms) == 5
    assert doc["normalized"]["num"] == ["18", "-6", "-6", "5", "1", "1", "-1"]


@pytest.mark.parametrize("argv, term, coeff", [
    # a rootless tree: the root term p/p prints as 1
    (["--poly", "(x - 1/3)"], "1", "1"),
    # all residues mod 3 hold one simple root: spf's term p(p - 1)/p^2 is 2/3
    (["--poly", "(x - 0)*(x - 1)*(x - 2)", "--method", "spf"], "(2/3)*t / (1 - t/3)", "2/3"),
])
def test_zeta_prints_coefficients_in_lowest_terms(capsys, argv, term, coeff):
    status, out, _ = run_cli(capsys, "zeta", "--prime", "3", *argv)
    assert status == 0
    assert out.splitlines()[1:-1] == ["terms:", f"  {term}"]
    status, out, _ = run_cli(capsys, "zeta", "--prime", "3", *argv, "--format", "json")
    assert status == 0
    doc = json.loads(out)
    assert [t["coeff"] for t in doc["terms"]] == [coeff]
    assert zeta_from_json(doc).terms[0].j == coeff.count("/")


def test_poincare_output(capsys):
    status, out, _ = run_cli(capsys, "poincare", "--poly", "x", "--prime", "5")
    assert status == 0
    assert out.strip() == "H = 5/(5 - t), t = 5^(-s)"


def test_count_single_method(capsys):
    status, out, _ = run_cli(
        capsys, "count", "--poly", "x^2 - 1", "--prime", "2", "--max-m", "3"
    )
    assert status == 0
    assert out.splitlines() == ["N_0 = 1", "N_1 = 1", "N_2 = 2", "N_3 = 4"]


def test_count_all_methods_agree(capsys):
    status, out, _ = run_cli(
        capsys,
        "count", "--poly", "(x-1)^2*(x-4)", "--prime", "3",
        "--max-m", "5", "--method", "all",
    )
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "m\ttree\tspf\tbrute"
    assert lines[-1] == "all methods agree"
    assert lines[6] == "5\t36\t36\t36"


def test_crosschecks_on_an_expanded_input_never_expand(capsys, monkeypatch):
    # integrality is read off the factors (Gauss's lemma), and the oracle
    # counts on the parsed dense form, so no factorisation is multiplied out
    def forbidden(self):
        raise AssertionError("FactoredPoly.expand called")

    monkeypatch.setattr(FactoredPoly, "expand", forbidden)
    poly = "x^6 - 10*x^5 + 19*x^4 + 68*x^3 - 233*x^2 + 230*x - 75"
    for argv, last in (
        (["count", "--method", "all"], "all methods agree"),
        (["verify"], "all 6 checks passed"),
    ):
        status, out, _ = run_cli(capsys, *argv, "--poly", poly, "--prime", "2", "--max-m", "8")
        assert status == 0
        assert out.splitlines()[-1] == last


def test_count_json(capsys):
    status, out, _ = run_cli(
        capsys,
        "count", "--poly", "x", "--prime", "7", "--max-m", "2", "--format", "json",
    )
    doc = json.loads(out)
    assert doc == {
        "p": "7",
        "counts": ["1", "1", "1"],
        "coeffs": ["6/7", "6/49", "6/343"],
    }


@st.composite
def count_cases(draw):
    """(poly text, p, max_m, method): a factored polynomial in Z[x].

    Integer roots with multiplicities, sometimes a second root close to the
    first p-adically, and a unit or a content divisible by p in front.
    `brute` stops at p**max_m <= 10**6.
    """
    p = draw(st.sampled_from([2, 3, 5, 7, 101]))
    roots = draw(st.dictionaries(st.integers(-40, 40), st.integers(1, 3),
                                 min_size=1, max_size=4))
    if draw(st.booleans()):
        first = min(roots)
        roots.setdefault(first + p ** draw(st.integers(1, 6)), draw(st.integers(1, 2)))
    lead = draw(st.sampled_from([1, -1, 2, 30, p]))
    factors = "*".join(
        f"(x {'-' if r >= 0 else '+'} {abs(r)})^{m}" for r, m in sorted(roots.items())
    )
    method = draw(st.sampled_from(["tree", "spf", "brute"]))
    top = max(m for m in range(13) if p**m <= 10**6) if method == "brute" else 12
    return f"{lead}*{factors}", p, draw(st.integers(0, top)), method


def test_printed_coefficients_match_the_rational_reference(capsys):
    # c_m = (p*N_m - N_(m+1)) / p**(m+1) is formed only where count prints it
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(count_cases())
    def check(case):
        poly, p, max_m, method = case
        status, out, _ = run_cli(
            capsys, "count", "--poly", poly, "--prime", str(p),
            "--max-m", str(max_m), "--method", method, "--format", "json",
        )
        assert status == 0
        doc = json.loads(out)
        ctx = PAdicContext(p)
        coeffs = coeff_stream(compute_zeta(parse_poly(poly), ctx), max_m)
        shown = coeffs[:max_m] if method == "brute" else coeffs
        assert doc["coeffs"] == [decimal(c) for c in shown]
        assert doc["counts"] == [decimal(n) for n in counts_from_coeffs(coeffs, ctx, max_m)]

    check()


def test_keystream_text_and_json(capsys):
    status, out, _ = run_cli(
        capsys, "keystream", "--poly", "x^2 - 1", "--prime", "2", "--length", "3"
    )
    assert status == 0 and out.splitlines() == ["1", "1", "2", "4"]
    status, out, _ = run_cli(
        capsys,
        "keystream", "--poly", "x^2 - 1", "--prime", "2",
        "--length", "3", "--format", "json",
    )
    assert json.loads(out)["values"] == ["1", "1", "2", "4"]


def test_tree_formats(capsys):
    status, out, _ = run_cli(
        capsys, "tree", "--poly", "(x-1)^2*(x-4)", "--prime", "3"
    )
    assert status == 0 and out.startswith("tree p=3 l_f=2")
    status, out, _ = run_cli(
        capsys,
        "tree", "--poly", "(x-1)^2*(x-4)", "--prime", "3", "--format", "json",
    )
    tree = tree_from_json(json.loads(out))
    assert len(tree.vertices) == 6
    status, out, _ = run_cli(
        capsys, "tree", "--poly", "x", "--prime", "2", "--format", "dot"
    )
    assert out.startswith("digraph") and "->" in out


def test_lfsr_command(capsys):
    status, out, _ = run_cli(
        capsys,
        "lfsr", "--prime", "2", "--taps", "1,1", "--init", "0,1",
        "--steps", "8", "--period",
    )
    assert status == 0
    assert out.splitlines() == ["output: 0 1 1 0 1 1 0 1", "period: 3"]


def test_verify_passes(capsys):
    status, out, _ = run_cli(
        capsys, "verify", "--poly", "x^2 - 1", "--prime", "2", "--max-m", "3"
    )
    assert status == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 5


def test_verify_fails_on_a_wrong_poincare_series(capsys, monkeypatch):
    # H = 1/(1 - t) instead of 5/(5 - t) for f = x at p = 5
    monkeypatch.setattr(
        localzeta.cli, "poincare", lambda z: RationalFunctionT((1,), (1, -1))
    )
    status, out, _ = run_cli(
        capsys, "verify", "--poly", "x", "--prime", "5", "--max-m", "3"
    )
    assert status == 2
    assert "FAIL  (1 - t)H + tZ = 1  [1/(1 - t)]" in out.splitlines()
    # the series check reads N_m = 5^m off H(5u) against the tree's N_m = 1
    assert "FAIL  term expansion equals long-division series" in out.splitlines()


def test_verify_reports_a_poincare_series_without_integer_counts(capsys, monkeypatch):
    # H = 1/(2 - t) gives N_0 = 1/2: a FAIL line, not an exception
    monkeypatch.setattr(
        localzeta.cli, "poincare", lambda z: RationalFunctionT((1,), (2, -1))
    )
    status, out, _ = run_cli(
        capsys, "verify", "--poly", "x", "--prime", "5", "--max-m", "3"
    )
    assert status == 2
    assert "FAIL  term expansion equals long-division series" in out.splitlines()


FAULT_LINE = "      error: InvariantViolation: poincare: total measure is not 1; upstream bug"
EVALUATOR_FAULT = "      error: InvariantViolation: a faulty tree evaluator"


def drop_first_term(real):
    """A tree evaluator that loses one term, so Z(1) = 1 no longer holds."""
    def faulty(tree, shift=0):
        z = real(tree, shift)
        return replace(z, terms=z.terms[1:])
    return faulty


def raise_fault(real):
    """A tree evaluator that raises an upstream-bug error."""
    def faulty(tree, shift=0):
        raise InvariantViolation("a faulty tree evaluator")
    return faulty


def test_verify_evaluates_each_value_once(capsys, monkeypatch):
    # the checks share Z, H and the counts: each is formed by the first check
    # that needs it, not again by the later ones
    calls = []

    def spy(name, real):
        def counted(*args, **kwargs):
            calls.append(name if name != "compute_zeta" else kwargs["method"])
            return real(*args, **kwargs)
        return counted

    for name in ("compute_zeta", "normalize", "poincare", "tree_counts"):
        monkeypatch.setattr(localzeta.cli, name, spy(name, getattr(localzeta.cli, name)))
    status, _, _ = run_cli(
        capsys, "verify", "--poly", "(x-1)^2*(x-4)", "--prime", "3", "--max-m", "4"
    )
    assert status == 0
    assert sorted(calls) == ["normalize", "normalize", "poincare", "spf", "tree", "tree_counts"]


@pytest.mark.parametrize("fault, lines", [
    # poincare refuses the lossy Z: the two checks that need H fail with its
    # error below them, and the others still compare the lossy Z's values
    (drop_first_term, [
        "FAIL  tree and residue-recursion methods agree  "
        "[(3*t^3 + t^4 + t^5 - t^6)/(27 - 9*t - 9*t^2 + 3*t^3)]",
        "FAIL  Z(1) = 1  [Z(1) = 1/3]",
        "FAIL  (1 - t)H + tZ = 1", FAULT_LINE,
        "FAIL  term expansion equals long-division series", FAULT_LINE,
        "PASS  counts are integral and within lifting bounds  [1 3 9 27 72]",
        "FAIL  brute-force counts match up to m = 4",
        "1/6 checks passed",
    ]),
    # every check needs the tree's Z, so every check fails on its error
    (raise_fault, [
        "FAIL  tree and residue-recursion methods agree", EVALUATOR_FAULT,
        "FAIL  Z(1) = 1", EVALUATOR_FAULT,
        "FAIL  (1 - t)H + tZ = 1", EVALUATOR_FAULT,
        "FAIL  term expansion equals long-division series", EVALUATOR_FAULT,
        "FAIL  counts are integral and within lifting bounds", EVALUATOR_FAULT,
        "FAIL  brute-force counts match up to m = 4", EVALUATOR_FAULT,
        "0/6 checks passed",
    ]),
])
def test_verify_reports_an_evaluator_fault_as_failed_checks(capsys, monkeypatch, fault, lines):
    monkeypatch.setattr(localzeta.zeta, "generating_function",
                        fault(localzeta.zeta.generating_function))
    status, out, err = run_cli(
        capsys, "verify", "--poly", "(x-1)^2*(x-4)", "--prime", "3", "--max-m", "4"
    )
    assert (status, err) == (2, "")
    assert out.splitlines() == lines


def test_verify_handles_non_integer_polynomials(capsys):
    status, out, _ = run_cli(
        capsys, "verify", "--poly", "(x - 1/2)", "--prime", "3", "--max-m", "3"
    )
    assert status == 0
    assert "FAIL" not in out
    # negative shift: series/count checks are skipped, identities still run
    status, out, _ = run_cli(
        capsys, "verify", "--poly", "3*(x - 1/5)*(x - 2)", "--prime", "5",
        "--max-m", "3",
    )
    assert status == 0
    assert "FAIL" not in out and "Z(1) = 1" in out


@pytest.mark.parametrize("command, line", [
    ("zeta", "Z = 1, t = 3^(-s)"),
    ("poincare", "H = 1, t = 3^(-s)"),
])
def test_a_constant_function_prints_without_a_denominator(capsys, command, line):
    # |3x - 1|_3 = 1 on Z_3, so Z = H = 1
    status, out, _ = run_cli(capsys, command, "--poly", "3*(x - 1/3)", "--prime", "3")
    assert status == 0 and out.splitlines()[-1] == line


@pytest.mark.parametrize("command", ["zeta", "poincare", "verify"])
@pytest.mark.parametrize("poly, degree", [
    # the tree terms of (x - 1)^N reach t^(2N)/(1 - t^N/3), and the root
    # 1/3 gives the shift -N; 10^30 raised OverflowError from a list of that
    # length, and 10^11 MemoryError
    (f"(x-1)^{10**30}", 3 * 10**30),
    (f"(x - 1/3)^{10**30}", 10**30),
    (f"(x-1)^{10**11}", 3 * 10**11),
    (f"(x - 1/3)^{10**11}", 10**11),
])
def test_a_normal_form_past_the_dense_degree_bound_exits_one(capsys, command, poly, degree):
    argv = [command, "--poly", poly, "--prime", "3"]
    start = time.perf_counter()
    status, out, err = run_cli(capsys, *argv, *(["--max-m", "4"] if command == "verify" else []))
    assert time.perf_counter() - start < 1
    assert (status, out) == (1, "")
    assert err == f"error: CapExceeded: the normal form has dense degree {degree}, past the bound 100000\n"


def test_domain_errors_exit_one(capsys):
    status, _, err = run_cli(capsys, "zeta", "--poly", "x^2 + 1", "--prime", "3")
    assert status == 1 and "SplittingFieldNotQ" in err
    status, _, err = run_cli(capsys, "zeta", "--poly", "x^2 + + 1", "--prime", "3")
    assert status == 1 and "ParseError" in err
    status, _, err = run_cli(capsys, "zeta", "--poly", "x", "--prime", "4")
    assert status == 1 and "InvalidPrime" in err
    # 399165290221 * 798330580441, a strong pseudoprime to the bases 2..37
    status, _, err = run_cli(
        capsys, "zeta", "--poly", "(x-1)*(x-2)", "--prime", "318665857834031151167461"
    )
    assert status == 1 and "InvalidPrime" in err
    status, _, err = run_cli(
        capsys, "count", "--poly", "x", "--prime", "3", "--max-m", "030",
        "--method", "brute",
    )
    assert status == 1 and "CapExceeded" in err


@pytest.mark.parametrize("command, error", [
    # count checks integrality before it factors f once for both evaluators
    ("count", "IntegralityError: polynomial does not have integer coefficients"),
    # verify factors first: its identity checks need no integer coefficients
    ("verify", "SplittingFieldNotQ: a degree-2 factor has no rational roots"),
])
def test_crosscheck_commands_name_the_first_failing_stage(capsys, command, error):
    argv = [command, "--poly", "1/2*x^2 + 1/2", "--prime", "3", "--max-m", "3"]
    if command == "count":
        argv += ["--method", "all"]
    status, out, err = run_cli(capsys, *argv)
    assert (status, out, err) == (1, "", f"error: {error}\n")


def test_brute_sweeps_a_large_prime_in_arrays(capsys):
    # level 0 finds the roots mod p of f from gcd(f, x^p - x), in O(log p)
    # products mod f; a loop over the 1000003 residues in Python would take
    # about a second
    start = time.perf_counter()
    status, out, _ = run_cli(
        capsys, "count", "--poly", "x^3 - 2", "--prime", "1000003", "--max-m", "1",
        "--method", "brute",
    )
    elapsed = time.perf_counter() - start
    assert (status, out) == (0, "N_0 = 1\nN_1 = 0\n")  # 2 is not a cube mod 1000003
    assert elapsed < 0.5, elapsed


def test_importing_the_cli_leaves_numpy_unloaded():
    # no command loads numpy: not zeta, poincare or keystream, not the root
    # search, whose residue scan the oracle shares below the kernel's
    # threshold (the expanded (x - 1)...(x - 50) scans q = 53), and not the
    # brute count, which walks a multiple root at p = 7 with the scan and at
    # p = 1000003 with the kernel
    src = str(Path(localzeta.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    big = ["count", "--poly", "(x-1)^2*(x-4)*(x-10)^3", "--prime", "1000003", "--max-m", "3",
           "--method", "brute", "--brute-cap", str(1000003**3)]
    code = (
        "import sys, localzeta.cli\n"
        "from localzeta import FactoredPoly, find_rational_roots\n"
        "f = FactoredPoly(1, tuple((k, 1) for k in range(1, 51)))\n"
        "print(find_rational_roots(f.expand()) == f)\n"
        f"print(localzeta.cli.main({big!r}))\n"
        "argv = ['count', '--poly', '(x-1)^2*(x-8)', '--prime', '7', '--max-m', '4', '--method', 'brute']\n"
        "print(localzeta.cli.main(argv), localzeta.cli.__file__, 'numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    f = parse_poly("(x-1)^2*(x-4)*(x-10)^3")
    deep = "".join(f"N_{m} = {n}\n" for m, n in enumerate(solution_counts(f, PAdicContext(1000003), 3)))
    counts = "".join(f"N_{m} = {n}\n" for m, n in enumerate([1, 1, 7, 49, 98]))
    assert out == f"True\n{deep}0\n{counts}0 {localzeta.cli.__file__} False\n"


def test_brute_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("LOCALZETA_BRUTE_CAP", "10")
    status, _, err = run_cli(
        capsys, "count", "--poly", "x", "--prime", "3", "--max-m", "4",
        "--method", "brute",
    )
    assert status == 1 and "CapExceeded" in err
    monkeypatch.delenv("LOCALZETA_BRUTE_CAP")
    status, out, _ = run_cli(
        capsys, "count", "--poly", "x", "--prime", "3", "--max-m", "4",
        "--method", "brute",
    )
    assert status == 0


def test_default_brute_cap_refuses_no_prime(capsys, monkeypatch):
    # only a cap the user sets must be at least p; the default stays below a
    # large p, and the oracle itself refuses a depth the cap does not reach
    monkeypatch.delenv("LOCALZETA_BRUTE_CAP", raising=False)
    p = str(BIG_P)
    status, out, err = run_cli(capsys, "zeta", "--poly", "x", "--prime", p)
    assert (status, err) == (0, "")
    assert run_cli(capsys, "zeta", "--poly", "x", "--prime", p, "--brute-cap", p) == (0, out, "")
    status, out, err = run_cli(
        capsys, "count", "--method", "brute", "--poly", "x", "--prime", "10000019",
        "--max-m", "1",
    )
    assert (status, out) == (1, "")
    assert err == "error: CapExceeded: p^1 = 10000019 exceeds the cap 10000000\n"
    status, out, _ = run_cli(
        capsys, "verify", "--poly", "x", "--prime", "10000019", "--max-m", "3"
    )
    assert status == 0
    assert "PASS  brute-force counts match up to m = 0\n" in out


def test_bad_lfsr_register_exits_one(capsys):
    for taps, init in (("1", "0,1"), ("", "")):
        status, out, err = run_cli(
            capsys, "lfsr", "--prime", "2", "--taps", taps, "--init", init
        )
        assert status == 1 and out == ""
        assert err.startswith("error: LocalZetaError: ")


def test_negative_lfsr_steps_exit_one(capsys):
    status, out, err = run_cli(
        capsys, "lfsr", "--prime", "2", "--taps", "1,1", "--init", "0,1",
        "--steps", "-3",
    )
    assert status == 1 and out == ""
    assert err == "error: LocalZetaError: steps must be nonnegative\n"


def test_non_integer_brute_cap_env_var_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("LOCALZETA_BRUTE_CAP", "abc")
    status, out, err = run_cli(capsys, "zeta", "--poly", "x", "--prime", "5")
    assert status == 1 and out == ""
    assert err.startswith("error: LocalZetaError: LOCALZETA_BRUTE_CAP ")
    assert "'abc'" in err


def test_lfsr_ignores_the_brute_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("LOCALZETA_BRUTE_CAP", "1")
    status, out, _ = run_cli(
        capsys, "lfsr", "--prime", "2", "--taps", "1,1", "--init", "0,1",
        "--steps", "4",
    )
    assert status == 0 and out == "output: 0 1 1 0\n"


def test_verify_reaches_deep_brute_levels(capsys):
    status, out, _ = run_cli(
        capsys, "verify", "--poly", "x^2-1", "--prime", "2", "--max-m", "60",
        "--brute-cap", str(2**60),
    )
    assert status == 0
    assert "PASS  brute-force counts match up to m = 60" in out


def test_lfsr_period_search_stops_at_its_budget(capsys):
    status, out, err = run_cli(
        capsys, "lfsr", "--prime", "1000003", "--taps", "2,3,5", "--init", "1,0,0",
        "--period",
    )
    assert status == 1 and out == ""
    assert err == ("error: CapExceeded: no period found within the budget of "
                   "1000000 register steps\n")


DEFAULT_DIGIT_LIMIT = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() <= 4300,
    reason="needs the default int-to-str digit limit",
)

# roots 0 and P**k with P = 10^12 + 39: the root's literal fits the digit
# limit, but Z's terms reach P**(k + 2), which does not (k = 357 at 4300)
BIG_P = 10**12 + 39
DEEP_PAIR = "(x - 0)*(x - {})".format(
    BIG_P ** ((getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300) // 12 - 1)
)


@DEFAULT_DIGIT_LIMIT
@pytest.mark.parametrize("argv", [
    ["keystream", "--poly", "(x-1)^4", "--prime", "101", "--length", "3000"],
    ["keystream", "--poly", "(x-1)^4", "--prime", "101", "--length", "3000",
     "--format", "json"],
    ["count", "--poly", "(x-1)^4", "--prime", "1000003", "--max-m", "1000"],
    ["count", "--poly", "(x-1)^4", "--prime", "1000003", "--max-m", "1000",
     "--format", "json"],
    ["zeta", "--poly", DEEP_PAIR, "--prime", str(BIG_P), "--brute-cap", str(BIG_P)],
    ["zeta", "--poly", DEEP_PAIR, "--prime", str(BIG_P), "--brute-cap", str(BIG_P),
     "--format", "json"],
])
def test_values_past_the_digit_limit_exit_one(capsys, argv):
    limit = sys.get_int_max_str_digits()
    status, out, err = run_cli(capsys, *argv)
    assert status == 1 and out == ""
    assert err.startswith("error: CapExceeded: ") and str(limit) in err
    assert "Traceback" not in err


# N = 99...9 has as many digits as the int-to-str limit allows, so the parser
# reads it, but 2N has one digit more: the t-power of a Z term and the stalk
# weight of a tree vertex
NINES = "9" * (getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300)


@DEFAULT_DIGIT_LIMIT
@pytest.mark.parametrize("argv", [
    ["zeta", "--poly", f"(x-1)^{NINES}"],
    ["zeta", "--method", "spf", "--poly", f"(x-1)^{NINES}*(x-4)^{NINES}"],
    *(["tree", "--format", form, "--poly", f"(x-1)^{NINES}"] for form in ("text", "json", "dot")),
], ids=["zeta-tree", "zeta-spf", "tree-text", "tree-json", "tree-dot"])
def test_a_small_output_with_a_number_past_the_digit_limit_exits_one(capsys, argv):
    # each raised ValueError: zeta wrote t^(2N) before the normal form's size
    # check ran, and tree printed the stalk weight 2N as a bare int
    start = time.perf_counter()
    status, out, err = run_cli(capsys, *argv, "--prime", "3")
    assert time.perf_counter() - start < 1
    assert (status, out) == (1, "")
    assert err.startswith("error: CapExceeded: ") and "Traceback" not in err


@DEFAULT_DIGIT_LIMIT
@pytest.mark.parametrize("argv", [["zeta"], ["poincare"], ["verify", "--max-m", "4"]],
                         ids=["zeta", "poincare", "verify"])
def test_a_dense_degree_past_the_digit_limit_names_the_bound(capsys, argv):
    # the tree terms of (x - 1)^N give dense degree 3N, one digit past the
    # limit; the message named neither the normal form nor the bound
    status, out, err = run_cli(capsys, *argv, "--prime", "3", "--poly", f"(x-1)^{NINES}")
    assert (status, out) == (1, "")
    assert err == (
        "error: CapExceeded: the normal form has a dense degree past the int-to-str "
        "digit limit, past the bound 100000\n"
    )


@DEFAULT_DIGIT_LIMIT
def test_brute_cap_message_past_the_digit_limit(capsys):
    # p^3000 has 6013 digits, so the message names the power only
    status, _, err = run_cli(
        capsys, "count", "--poly", "x", "--prime", "101", "--max-m", "3000",
        "--method", "brute",
    )
    assert status == 1
    assert err == "error: CapExceeded: p^3000 exceeds the cap 10000000\n"
    # 3^10000 is small enough to try, but its 4772 digits are past the limit
    status, _, err = run_cli(
        capsys, "count", "--poly", "x", "--prime", "3", "--max-m", "10000",
        "--method", "brute",
    )
    assert status == 1
    assert err == "error: CapExceeded: p^10000 exceeds the cap 10000000\n"


def test_brute_cap_check_does_not_form_a_huge_power(capsys):
    # 3^(10^9) has about 1.6 * 10^9 bits; the check stops at the cap instead
    status, _, err = run_cli(
        capsys, "count", "--poly", "x^2-1", "--prime", "3", "--max-m", str(10**9),
        "--method", "brute",
    )
    assert status == 1
    assert err == "error: CapExceeded: p^1000000000 exceeds the cap 10000000\n"


@pytest.mark.parametrize("argv, lines", [
    # `localzeta keystream ... | head -1`: N_m = 2^floor(m/2), about 1.9 MB,
    # far past a pipe's buffer, so the write itself fails
    (["keystream", "--poly", "x^2", "--prime", "2", "--length", "5000"], 1),
    # one short line, which a pipe buffers until it is flushed
    (["zeta", "--poly", "x", "--prime", "5"], 0),
    # N_m = 3^floor(m/2), about 1 MB: one line read, then the pipe closes
    (["keystream", "--poly", "x^2", "--prime", "3", "--length", "3000"], 1),
])
def test_closed_pipe_exits_one_without_a_traceback(argv, lines):
    src = str(Path(localzeta.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)  # buffer stdout as a plain run does
    proc = subprocess.Popen(
        [sys.executable, "-m", "localzeta.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    for _ in range(lines):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert err == ""  # no traceback, nor an "Exception ignored" note at exit
