"""The rational-root search and the gcd under it, against sympy as an oracle."""

import math
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localzeta.polynomials
import localzeta.ratfunc
from localzeta import (
    DensePoly,
    FactoredPoly,
    SplittingFieldNotQ,
    find_rational_roots,
    parse_poly,
)
from localzeta.polynomials import roots_mod
from localzeta.ratfunc import _primitive, poly_mul

sympy = pytest.importorskip("sympy")

F = Fraction
X = sympy.Symbol("x")
# from 1 up to primes near 10^6 and 2^31
DENOMINATORS = [1, 2, 3, 7, 12, 35, 999983, 1000003, 2**31 - 1]


@pytest.fixture(autouse=True)
def gcds_carry_their_proof(monkeypatch):
    """Every poly_gcd result here is checked: G * (x/G) = x and G * (y/G) = y.

    x and y are the primitive forms of the arguments; the root search reads
    its squarefree part P / G off the first quotient.
    """
    gcd = localzeta.ratfunc.poly_gcd

    def checked(a, b):
        g, qx, qy = result = gcd(a, b)
        assert poly_mul(g, qx) == _primitive(a), (a, b, result)
        assert poly_mul(g, qy) == _primitive(b), (a, b, result)
        return result

    monkeypatch.setattr(localzeta.ratfunc, "poly_gcd", checked)
    monkeypatch.setattr(localzeta.polynomials, "poly_gcd", checked)


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


# a*x^2 + b*x + c, constant term first; irreducible over Q iff b^2 - 4ac is not a square
irreducible_quadratics = st.tuples(
    st.integers(-10**6, 10**6).filter(bool),
    st.integers(-10**6, 10**6),
    st.integers(1, 50),
).filter(lambda q: not _is_square(q[1] ** 2 - 4 * q[2] * q[0]))


@st.composite
def root_search_cases(draw):
    """unit * prod (x - a/b)^e, times 0-2 irreducible quadratics, and its roots."""
    roots = {}
    for _ in range(draw(st.integers(1, 5))):
        r = F(draw(st.integers(-10**12, 10**12)), draw(st.sampled_from(DENOMINATORS)))
        roots[r] = roots.get(r, 0) + draw(st.integers(1, 4))
    unit = F(draw(st.sampled_from([-3, -1, 1, 2, 7])), draw(st.sampled_from([1, 5])))
    factored = FactoredPoly(unit, tuple(roots.items()))
    coeffs = factored.expand().coefficients
    for quad in draw(st.lists(irreducible_quadratics, max_size=2)):
        coeffs = poly_mul(coeffs, quad)
    return DensePoly(tuple(coeffs)), factored


def _sympy_rational_roots(f: DensePoly) -> dict[Fraction, int]:
    poly = sympy.Poly(list(reversed(f.coefficients)), X, domain="QQ")
    roots = {}
    for factor, mult in poly.factor_list()[1]:
        if factor.degree() == 1:
            root = -factor.nth(0) / factor.nth(1)
            roots[F(int(root.p), int(root.q))] = mult
    return roots


def test_find_rational_roots_matches_sympy():
    reached = {"splits": 0, "does not split": 0}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(root_search_cases())
    def check(case):
        f, factored = case
        expected = _sympy_rational_roots(f)
        assert expected == dict(factored.roots)
        if (left := f.degree - sum(expected.values())) > 0:
            with pytest.raises(SplittingFieldNotQ, match=f"^a degree-{left} factor "):
                find_rational_roots(f)
            reached["does not split"] += 1
        else:
            assert find_rational_roots(f) == factored
            reached["splits"] += 1

    check()
    assert min(reached.values()) >= 30, reached


def _expanded(*factors: list) -> DensePoly:
    """The product of the factors, each a coefficient list with its constant term first."""
    coeffs = [1]
    for factor in factors:
        coeffs = poly_mul(coeffs, factor)
    return DensePoly(tuple(F(c) for c in coeffs))


@pytest.mark.parametrize(
    "factors, degree",
    [
        ([[1, 0, 1]] * 2 + [[-1, 1]] * 3, 4),  # (x^2 + 1)^2 (x - 1)^3
        ([[-3, 2]] * 5 + [[-2, 0, 1]], 2),  # (2x - 3)^5 (x^2 - 2)
    ],
)
def test_the_failure_names_the_degree_no_root_accounts_for(factors, degree):
    with pytest.raises(SplittingFieldNotQ) as err:
        find_rational_roots(_expanded(*factors))
    assert str(err.value) == f"a degree-{degree} factor has no rational roots"


def test_zero_root_is_kept_beside_a_multiple_root():
    f = find_rational_roots(_expanded(*[[0, 1]] * 3, *[[-5, 1]] * 4))  # x^3 (x - 5)^4
    assert f == FactoredPoly(F(1), ((F(0), 3), (F(5), 4)))


def _sympy_gcd(a: list[int], b: list[int]) -> list[int]:
    g = sympy.Poly(list(reversed(a)), X).gcd(sympy.Poly(list(reversed(b)), X))
    coeffs = [int(c) for c in reversed(g.all_coeffs())]
    content = math.gcd(*coeffs) * (1 if coeffs[-1] > 0 else -1)
    return [c // content for c in coeffs]


small_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(lambda cs: cs[-1])


def test_poly_gcd_matches_sympy(monkeypatch):
    # small coefficients often put a spurious factor into gcd(a(xi), b(xi)),
    # so the retry with a larger xi runs too
    def poly_gcd(a, b):
        # G alone: with derandomize, check's source text seeds its examples,
        # so its body keeps the name and the comparison it had
        return localzeta.ratfunc.poly_gcd(a, b)[0]

    evaluations = []
    value = localzeta.ratfunc._scaled_value
    monkeypatch.setattr(
        localzeta.ratfunc,
        "_scaled_value",
        lambda ints, xi, b: evaluations.append(xi) or value(ints, xi, b),
    )
    retried = 0

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(small_polys, small_polys, small_polys, st.integers(1, 6))
    def check(g, u, v, scale):
        nonlocal retried
        a = poly_mul(g, u)
        b = [scale * c for c in poly_mul(g, v)]
        evaluations.clear()
        assert poly_gcd(a, b) == _sympy_gcd([int(c) for c in a], [int(c) for c in b])
        retried += len(set(evaluations)) > 1

    check()
    assert retried >= 10


def test_poly_gcd_zero_and_constant_arguments():
    gcd = localzeta.ratfunc.poly_gcd
    assert gcd([0], [0]) == ([1], [0], [0])
    assert gcd([0], [F(-2, 3), F(4, 3)]) == ([-1, 2], [0], [1])
    assert gcd([6, 4], [0]) == ([3, 2], [1], [0])
    assert gcd([5], [1, 1]) == ([1], [1], [1, 1])


def test_no_root_search_divides_the_same_pair_twice(monkeypatch):
    # poly_gcd proves G = gcd(P, P') by dividing P and P' by it and hands the
    # quotients back, so the squarefree part P / G is not divided out again;
    # spied over the dense-bigp benchmark inputs of seeds 1-3
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    corpus = pytest.importorskip("corpus")
    calls = []
    divide = localzeta.ratfunc._divide_exact

    def spy(a, b):
        calls.append((tuple(a), tuple(b)))
        return divide(a, b)

    monkeypatch.setattr(localzeta.ratfunc, "_divide_exact", spy)
    monkeypatch.setattr(localzeta.polynomials, "_divide_exact", spy)
    searches = 0
    for seed in (1, 2, 3):
        for case in corpus.build("dense-bigp", seed):
            calls.clear()
            poly = case.poly
            assert find_rational_roots(parse_poly(poly.text)) == FactoredPoly(poly.unit, poly.roots)
            assert calls and len(set(calls)) == len(calls), calls
            searches += 1
    assert searches == 27


@st.composite
def scan_cases(draw):
    """(coeffs, q, k): prod (x - r)**e times a cofactor, moved by multiples of q.

    q is a prime below 2**12; the roots may repeat or meet mod q, and half
    the cases get a leading coefficient that q divides.
    """
    q = draw(st.sampled_from(list(sympy.primerange(2**12))))
    coeffs = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=3))
    for r, e in draw(st.lists(st.tuples(st.integers(-10**4, 10**4), st.integers(1, 3)), max_size=4)):
        for _ in range(e):
            coeffs = poly_mul(coeffs, [-r, 1])
    coeffs = [c + q * draw(st.integers(-3, 3)) for c in coeffs]
    if draw(st.booleans()):
        coeffs.append(q * draw(st.integers(-5, 5)))
    return coeffs, q, draw(st.integers(0, 3))


def test_residue_scan_matches_a_direct_sweep():
    # the root search and the count oracle share roots_mod; its primes lie on
    # both sides of the q = 1000 where the gcd kernel takes over from the scan
    reached = {"multiple root": 0, "q | lc": 0, "stopped early": 0}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(scan_cases())
    def check(case):
        coeffs, q, k = case
        expected = [x for x in range(q)
                    if sum(c * pow(x, i, q) for i, c in enumerate(coeffs)) % q == 0]
        assert list(roots_mod(coeffs, q)) == expected
        assert list(islice(roots_mod(coeffs, q), k)) == expected[:k]
        slopes = [i * c for i, c in enumerate(coeffs)][1:]
        reached["multiple root"] += any(
            sum(c * pow(x, i, q) for i, c in enumerate(slopes)) % q == 0 for x in expected
        )
        reached["q | lc"] += coeffs[-1] % q == 0
        reached["stopped early"] += k < len(expected)

    check()
    assert min(reached.values()) >= 20, reached
