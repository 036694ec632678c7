"""The rational-root search and the gcd under it, against sympy as an oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localzeta.ratfunc
from localzeta import DensePoly, FactoredPoly, SplittingFieldNotQ, find_rational_roots
from localzeta.ratfunc import poly_gcd, poly_mul

sympy = pytest.importorskip("sympy")

F = Fraction
X = sympy.Symbol("x")
# from 1 up to primes near 10^6 and 2^31
DENOMINATORS = [1, 2, 3, 7, 12, 35, 999983, 1000003, 2**31 - 1]


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
    assert poly_gcd([0], [0]) == [1]
    assert poly_gcd([0], [F(-2, 3), F(4, 3)]) == [-1, 2]
    assert poly_gcd([6, 4], [0]) == [3, 2]
    assert poly_gcd([5], [1, 1]) == [1]
