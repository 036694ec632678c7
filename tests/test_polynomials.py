import random
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localzeta import (
    ConstantPolynomial,
    DensePoly,
    FactoredPoly,
    IntegralityError,
    LocalZetaError,
    NegativeValuation,
    PAdicContext,
    ParseError,
    ReducedInput,
    SplittingFieldNotQ,
    ZeroPolynomial,
    as_integer_poly,
    compute_lf,
    find_rational_roots,
    parse_poly,
    reduce_to_integral_roots,
    vp,
)
from localzeta.polynomials import _Parser, _parse_expression, _parse_factored
from tokenize_reference import tokenize

F = Fraction


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_dense_example():
    f = parse_poly("x^2 - 3*x + 2")
    assert isinstance(f, DensePoly)
    assert f.coefficients == (F(2), F(-3), F(1))


def test_parse_factored_example():
    f = parse_poly("3*(x - 1/5)*(x - 2)")
    assert isinstance(f, FactoredPoly)
    assert f.unit == 3
    assert f.roots == ((F(1, 5), 1), (F(2), 1))


def test_parse_error_example():
    with pytest.raises(ParseError) as err:
        parse_poly("x^2 + + 1")
    assert err.value.position == 6


@pytest.mark.parametrize(
    "text,coeffs",
    [
        ("x", (0, 1)),
        ("7", (7,)),
        ("-x^3 + 4", (4, 0, 0, -1)),
        ("1/2*x^2 + 1/2", (F(1, 2), 0, F(1, 2))),
        ("x + x", (0, 2)),
        ("2*x^0", (2,)),
        ("  x ^ 2 - 1 ", (-1, 0, 1)),
    ],
)
def test_parse_dense_forms(text, coeffs):
    f = parse_poly(text)
    assert isinstance(f, DensePoly)
    assert f.coefficients == tuple(F(c) for c in coeffs)


def test_parse_factored_forms():
    f = parse_poly("(x-1)^2*(x-4)")
    assert f.unit == 1 and f.roots == ((F(1), 2), (F(4), 1))
    f = parse_poly("(x + 1/3)")
    assert f.roots == ((F(-1, 3), 1),)
    f = parse_poly("-2*(x - 0)^3")
    assert f.unit == -2 and f.roots == ((F(0), 3),)
    # duplicate factors merge by summing multiplicities
    f = parse_poly("(x-1)*(x-1)^2")
    assert f.roots == ((F(1), 3),)


@pytest.mark.parametrize(
    "text",
    ["", "x^", "3*", "(x-1", "(x)", "(x-1)^0", "1/0", "x**2", "2x", "y+1", "(x-1)+(x-2)"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_poly(text)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="needs an int-to-str digit limit",
)
@pytest.mark.parametrize(
    "template,position",
    [("x - {}", 4), ("x^{}", 2), ("x - 1/{}", 6), ("(x - {})", 5), ("{}*(x - 1)", 0)],
)
def test_parse_rejects_literals_past_the_digit_limit(template, position):
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ParseError) as err:
        parse_poly(template.format("7" * (limit + 100)))
    assert err.value.position == position
    assert f"limit of {limit} digits" in str(err.value)


@pytest.mark.parametrize("text, position", [("x^\u00b2-1", 2), ("(x-1)^\u00b2", 6)])
def test_parse_rejects_superscript_digits(text, position):
    # str.isdigit accepts '\u00b2' but int() does not; it is no digit here
    with pytest.raises(ParseError) as err:
        parse_poly(text)
    assert err.value.position == position
    assert "unexpected character '\u00b2'" in str(err.value)


def test_parse_reads_any_decimal_digit():
    # int() reads every Unicode decimal digit, e.g. ARABIC-INDIC DIGIT THREE
    assert parse_poly("(x - \u0663)").roots == ((F(3), 1),)


@pytest.mark.parametrize(
    "text, message",
    [
        ("(x - 1)\u3000y", "unexpected character 'y' (at position 8)"),
        ("(x - 1)\u00a0^\u00a00", "factor exponent must be >= 1 (at position 8)"),
        ("(x - 1/\u30000)", "zero denominator (at position 8)"),
    ],
)
def test_parse_error_after_a_non_ascii_blank(text, message):
    # IDEOGRAPHIC SPACE and NO-BREAK SPACE are blanks, one position each
    with pytest.raises(ParseError) as err:
        parse_poly(text)
    assert str(err.value) == message


space = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def factored_texts(draw):
    """Factored text, and the unit and (value -> multiplicity) it stands for.

    Roots come from a small pool, so factors repeat, and each is written
    with an extra common factor g (2/4 for 1/2) and its sign split between
    the factor's '-'/'+' and a sign on the number.
    """
    def sp():
        return draw(space)

    def written(a, b):
        g = draw(st.integers(1, 3))
        if b * g == 1 and draw(st.booleans()):
            return str(a)
        return f"{a * g}{sp()}/{sp()}{b * g}"

    text, unit = "", F(1)
    lead = draw(st.sampled_from(["", "+", "-"]))
    if lead:
        text += lead + sp()
        unit = F(-1) if lead == "-" else unit
    if draw(st.booleans()):
        a, b = draw(st.integers(1, 10**4)), draw(st.integers(1, 10**3))
        text += written(a, b) + sp() + "*" + sp()
        unit *= F(a, b)
    pool = draw(st.lists(
        st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**3)),
        min_size=1, max_size=6,
    ))
    roots: Counter = Counter()
    factors = []
    for _ in range(draw(st.integers(1, 8))):
        root = draw(st.sampled_from(pool))
        outer = draw(st.sampled_from("-+"))
        negate = (root < 0) == (outer == "-")  # the sign the number carries
        inner = "-" if negate else draw(st.sampled_from(["", "+"]))
        number = written(abs(root.numerator), root.denominator)
        mult = draw(st.integers(1, 4))
        power = f"{sp()}^{sp()}{mult}" if mult > 1 or draw(st.booleans()) else ""
        factors.append(f"({sp()}x{sp()}{outer}{sp()}{inner}{number}{sp()}){power}")
        roots[root] += mult
    text += f"{sp()}*{sp()}".join(factors)
    return sp() + text + sp(), unit, roots


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(factored_texts())
def test_parse_factored_matches_a_fraction_reference(case):
    text, unit, roots = case
    f = parse_poly(text)
    assert isinstance(f, FactoredPoly)
    assert f.unit == unit
    assert f.roots == tuple(sorted(roots.items()))


@st.composite
def dense_texts(draw):
    """Expression text, and the coefficients a Fraction sum of its terms gives.

    Degrees come from a small pool, so they repeat; a coefficient is an
    integer or an unreduced a/b, and a term may be followed by its negation,
    written another way, so that the two cancel.
    """
    def sp():
        return draw(space)

    def written(c, k):
        a, b = c.numerator, c.denominator
        g = draw(st.integers(1, 3))
        number = str(a) if b * g == 1 and draw(st.booleans()) else f"{a * g}{sp()}/{sp()}{b * g}"
        if k == 0:
            return number
        power = f"{sp()}^{sp()}{k}" if k > 1 or draw(st.booleans()) else ""
        if c == 1 and draw(st.booleans()):
            return f"x{power}"
        return f"{number}{sp()}*{sp()}x{power}"

    degrees = draw(st.lists(st.integers(0, 8), min_size=1, max_size=4))
    terms = []
    for _ in range(draw(st.integers(1, 10))):
        c = draw(st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**3)))
        k = draw(st.sampled_from(degrees))
        terms.append((c, k))
        if draw(st.integers(0, 3)) == 0:
            terms.append((-c, k))
    sums: Counter = Counter()
    text = sp()
    for i, (c, k) in enumerate(terms):
        sums[k] += c
        if c < 0:
            sign = "-"
        else:  # only the leading sign may be left out
            sign = "+" if i else draw(st.sampled_from(["", "+"]))
        text += f"{sign}{sp()}{written(abs(c), k)}{sp()}"
    top = max(k for k, c in sums.items() if c) if any(sums.values()) else 0
    return text, tuple(sums[k] for k in range(top + 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(dense_texts())
def test_parse_expression_matches_a_fraction_reference(case):
    text, coeffs = case
    f = parse_poly(text)
    assert isinstance(f, DensePoly)
    assert f.coefficients == coeffs


# the token characters, blanks (two of them non-ASCII), a non-ASCII decimal
# digit that int() reads, and two characters the tokenizer must reject
PARSER_ALPHABET = list("x0123456789+-*^/() \t") + ["\u0663", "\u00b2", "y", "\u3000", "\u00a0"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.text(st.sampled_from(PARSER_ALPHABET), max_size=20))
@example("")
@example("x^")
@example("-0*(x - 1)")
@example(" - 2 * ( x - - 1/2 ) ^ 2 * ( x + \u0663 ) ")
@example("+ x ^ 2 - - 1")
@example("\u3000(x\u00a0-\u00a0\u0663)^2\u3000")
def test_parse_gives_a_polynomial_or_a_domain_error(text):
    try:
        f = parse_poly(text)
    except ParseError as err:
        assert 0 <= err.position <= len(text)
    except LocalZetaError as err:
        assert isinstance(err, ZeroPolynomial)
    else:
        assert isinstance(f, (DensePoly, FactoredPoly))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.text(st.sampled_from(PARSER_ALPHABET), max_size=20))
@example("x\u3000y")
@example("(x - 1)\u00a0^\u00a00")
@example(" 12\u0663 * x ^\t3 ")
def test_tokens_match_the_character_loop(text):
    # the reference keeps each token's position; the parser finds one only to raise
    try:
        expected = tokenize(text)
    except ParseError as err:
        with pytest.raises(ParseError) as raised:
            _Parser(text)
        assert (str(raised.value), raised.value.position) == (str(err), err.position)
        return
    parser = _Parser(text)
    assert parser.tokens == [tok for _, tok, _ in expected]
    starts = [position for _, _, position in expected]
    assert [parser.where(i) for i in range(len(starts))] == starts
    try:
        parse_poly(text)
    except ParseError as err:
        assert err.position in starts
    except ZeroPolynomial:
        pass


def walk(text):
    """parse_poly as the token walk alone reads text."""
    p = _Parser(text)
    f = _parse_factored(p) if "(" in p.tokens else _parse_expression(p)
    p.take("", "end of input")
    return f


def outcome(parse, text):
    """The polynomial, or the error's type, message and position."""
    try:
        return parse(text)
    except LocalZetaError as err:
        return type(err), str(err), getattr(err, "position", None)


@st.composite
def edited_factored_texts(draw):
    """A factored text with 0-2 characters of PARSER_ALPHABET inserted, replaced or deleted."""
    text = draw(factored_texts())[0]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(PARSER_ALPHABET))
        text = draw(st.sampled_from([text[:i] + c + text[i:], text[:i] + c + text[i + 1:],
                                     text[:i] + text[i + 1:]]))
    return text


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edited_factored_texts())
@example("(x-1)*(x-2)^0")
@example("(x-1)*(x-2/0)")
@example("1/0*(x-1)")
@example("0*(x-1)")
@example("(x-1)*(x-2)*")
@example("(x-1)(x-2)")
@example("(x - - 1)")
@example("(x - " + "9" * 4301 + ")")
@example("(x - \u0661)^\u0662\u3000*\u3000(x - \u0664\u0660)")
def test_the_factor_reader_gives_the_walks_result_or_error(text):
    # a well-formed factored text is read by one match per factor; anything
    # the reader does not accept goes to the walk, so no outcome may differ
    assert outcome(parse_poly, text) == outcome(walk, text)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


def test_find_roots_examples():
    f = find_rational_roots(DensePoly((F(2), F(-3), F(1))))
    assert f.unit == 1 and f.roots == ((F(1), 1), (F(2), 1))
    f = find_rational_roots(DensePoly((F(1), F(-2), F(1))))
    assert f.unit == 1 and f.roots == ((F(1), 2),)
    with pytest.raises(SplittingFieldNotQ):
        find_rational_roots(DensePoly((F(1), F(0), F(1))))


def test_find_roots_degenerate_inputs():
    with pytest.raises(ZeroPolynomial):
        find_rational_roots(DensePoly((F(0),)))
    with pytest.raises(ConstantPolynomial):
        find_rational_roots(DensePoly((F(5),)))


def test_find_roots_rational_and_zero_roots():
    # 6x^3 - x^2 - x = x(3x + 1)(2x - 1)
    f = find_rational_roots(DensePoly((0, -1, -1, 6)))
    assert f.unit == 6
    assert f.roots == ((F(-1, 3), 1), (F(0), 1), (F(1, 2), 1))


def test_find_roots_large_prime_numerator():
    f = FactoredPoly(F(1), ((F(10007), 1), (F(1), 2)))
    found = find_rational_roots(f.expand())
    assert found == f


def test_find_roots_constant_term_with_many_prime_factors():
    # the constant term has 22 distinct prime factors, so 2^22 divisors,
    # none of which the lifting search forms
    roots = (30030, 215441, 47027, 107113, 241133, 409457)
    f = FactoredPoly(F(1), tuple((F(r), 1) for r in roots))
    assert find_rational_roots(f.expand()) == f


def test_find_roots_divisibility_filter_skips_most_candidates(monkeypatch):
    import localzeta.polynomials as poly_mod

    calls = 0
    scaled_value = poly_mod._scaled_value

    def counted(*args):
        nonlocal calls
        calls += 1
        return scaled_value(*args)

    monkeypatch.setattr(poly_mod, "_scaled_value", counted)
    roots = (30030, 215441, 47027, 107113, 241133, 409457)
    f = FactoredPoly(F(1), tuple((F(r), 1) for r in roots))
    assert find_rational_roots(f.expand()) == f
    # one exact test per lifted precision and per division, where a
    # search over divisor pairs would make 15,948 Horner evaluations
    assert calls < 1000


def test_find_roots_many_candidates_below_the_root_bound():
    # about 676k divisor pairs a/b lie below Fujiwara's root bound
    f = FactoredPoly(
        F(-11), ((F(-600851, 9), 3), (F(2069, 577), 2), (F(115607, 700), 3))
    )
    assert find_rational_roots(f.expand()) == f


def _eisenstein(degree):
    # monic, every lower coefficient even and the constant 2 mod 4:
    # irreducible by Eisenstein's criterion at 2, so it has no rational root
    rng = random.Random(degree)
    return DensePoly((F(2 + 4 * rng.randint(-25, 25)),)
                     + tuple(F(2 * rng.randint(-50, 50)) for _ in range(degree - 1))
                     + (F(1),))


_SIX_DIGIT = random.Random(7).sample(range(100_000, 1_000_000), 30)


@pytest.mark.parametrize("f", [
    FactoredPoly(F(-11), ((F(-600851, 9), 3), (F(2069, 577), 2), (F(115607, 700), 3))),
    FactoredPoly(F(1), ((F(1), 3), (F(1 + 3**40), 2))),
    FactoredPoly(F(1), tuple((F(r), 1) for r in _SIX_DIGIT)),
    FactoredPoly(F(1), tuple((F(r), 1) for r in range(1, 61))),
    _eisenstein(50),
    _eisenstein(100),
    _eisenstein(200),
    _eisenstein(400),
], ids=["found", "tower", "six-digit-roots", "one-to-sixty",
        "dense-50", "dense-100", "dense-200", "dense-400"])
def test_find_roots_pinned_inputs_in_well_under_a_second(f):
    start = time.perf_counter()
    if isinstance(f, FactoredPoly):
        assert find_rational_roots(f.expand()) == f
    else:
        with pytest.raises(SplittingFieldNotQ, match=f"degree-{f.degree} factor"):
            find_rational_roots(f)
    assert time.perf_counter() - start < 1.0


def test_find_roots_semiprime_constant_term():
    n = 1_000_003 * 1_000_033
    f = find_rational_roots(DensePoly((F(n), F(-n - 1), F(1))))
    assert f.roots == ((F(1), 1), (F(n), 1))


def test_find_roots_mixed_splitting_failure():
    # (x^2 + 1)(x - 3): the rational root comes out, the rest does not split
    f = DensePoly((F(-3), F(1), F(-3), F(1)))
    with pytest.raises(SplittingFieldNotQ):
        find_rational_roots(f)


def test_expand_round_trip():
    rng = random.Random(3)
    for _ in range(60):
        n_roots = rng.randint(1, 4)
        roots = {}
        while len(roots) < n_roots:
            roots[F(rng.randint(-9, 9), rng.randint(1, 9))] = rng.randint(1, 3)
        f = FactoredPoly(
            F(rng.choice([-3, -1, 1, 2, 5])), tuple(roots.items())
        )
        expanded = f.expand()
        assert expanded.degree == f.degree
        assert find_rational_roots(expanded) == f
        # and factoring a dense input reproduces it coefficient for coefficient
        assert find_rational_roots(expanded).expand() == expanded


def fraction_product(f):
    """unit * prod (x - root)**mult multiplied out one Fraction factor at a time."""
    coeffs = [f.unit]
    for root, mult in f.roots:
        for _ in range(mult):
            coeffs = [F(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= root * coeffs[i + 1]
    return DensePoly(tuple(coeffs))


nonzero = st.integers(-10**6, 10**6).filter(bool)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.builds(F, nonzero, st.integers(1, 10**3)),
    st.dictionaries(
        st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**3)),
        st.integers(1, 4),
        max_size=8,
    ),
)
def test_expand_matches_the_fraction_product(unit, roots):
    f = FactoredPoly(unit, tuple(roots.items()))
    assert f.expand() == fraction_product(f)


# ---------------------------------------------------------------------------
# reduction and separation depth
# ---------------------------------------------------------------------------


root_values = st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(root_values, st.integers(1, 4)), max_size=12), st.randoms())
def test_factored_poly_orders_roots_as_fractions_do(roots, rng):
    merged = dict(roots)
    # Farey neighbours of order 10**6 differ by 1/(b*d) only
    merged.update({F(1, 10**6): 1, F(1, 10**6 - 1): 1, F(10**6 - 2, 10**6 - 1): 2})
    written = [
        (rng.choice([r, str(r)] + ([int(r)] if r.denominator == 1 else [])), e)
        for r, e in merged.items()
    ]
    rng.shuffle(written)
    f = FactoredPoly(F(1), tuple(written))
    assert f.roots == tuple(sorted(((F(r), e) for r, e in written), key=lambda re: re[0]))
    assert all(type(r) is F for r, _ in f.roots)


@pytest.mark.parametrize("a, b", [(1, F(2, 2)), (F(1, 2), "2/4"), (F(-3, 7), "-6/14")])
def test_factored_poly_rejects_equal_roots_written_differently(a, b):
    with pytest.raises(ValueError, match="roots must be pairwise distinct"):
        FactoredPoly(F(1), ((a, 1), (F(5), 1), (b, 2)))


def reduce_reference(f, ctx):
    """The rule reduce_to_integral_roots follows, one vp per root."""
    unit_v = vp(f.unit, ctx)
    shift, keep = unit_v, []
    for root, mult in f.roots:
        v = vp(root, ctx)
        if v < 0:
            shift += mult * v
        else:
            keep.append((root, mult))
    return ReducedInput(int(shift), FactoredPoly(f.unit / F(ctx.p) ** unit_v, tuple(keep)))


@st.composite
def reduce_cases(draw):
    """A prime and a factored f whose roots and unit carry powers of p."""
    p = draw(st.sampled_from([2, 3, 5, 101, 10**12 + 39]))
    p_powers = st.builds(lambda k: F(p) ** k, st.integers(-3, 3))
    unit = draw(st.builds(
        lambda a, b, s: a * b * s, root_values.filter(bool), p_powers, st.sampled_from([1, -1])
    ))
    roots = draw(st.dictionaries(
        st.builds(lambda r, s: r * s, root_values, p_powers), st.integers(1, 4), max_size=10
    ))
    return p, FactoredPoly(unit, tuple(roots.items()))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(reduce_cases())
def test_reduce_matches_the_per_root_rule(case):
    p, f = case
    ctx = PAdicContext(p)
    assert reduce_to_integral_roots(f, ctx) == reduce_reference(f, ctx)


def test_reduce_examples():
    ctx = PAdicContext(5)
    red = reduce_to_integral_roots(
        FactoredPoly(F(3), ((F(1, 5), 1), (F(2), 1))), ctx
    )
    assert red.shift == -1
    assert red.fplus.roots == ((F(2), 1),)

    red = reduce_to_integral_roots(FactoredPoly(F(5), ((F(0), 1),)), ctx)
    assert red.shift == 1
    assert red.fplus.roots == ((F(0), 1),)
    assert vp(red.fplus.unit, ctx) == 0

    ctx3 = PAdicContext(3)
    f = FactoredPoly(F(1), ((F(1), 2), (F(4), 1)))
    red = reduce_to_integral_roots(f, ctx3)
    assert red.shift == 0 and red.fplus == f


def test_reduce_shift_oracle_on_valuations():
    # oracle: v_5(f(x)) = shift + v_5(x - 2) for f = 3(x - 1/5)(x - 2)
    ctx = PAdicContext(5)
    f = FactoredPoly(F(3), ((F(1, 5), 1), (F(2), 1)))
    red = reduce_to_integral_roots(f, ctx)
    for x in range(25):
        if x == 2:
            continue
        assert vp(f(x), ctx) == red.shift + vp(x - 2, ctx)


def test_integer_polynomials_reduce_with_nonnegative_shift():
    rng = random.Random(17)
    for _ in range(80):
        p = rng.choice([2, 3, 5])
        roots = {}
        for _ in range(rng.randint(1, 3)):
            roots[F(rng.randint(-20, 20), rng.randint(1, 12))] = rng.randint(1, 2)
        unit = rng.randint(1, 4)
        for r in roots:
            unit *= r.denominator ** roots[r]
        f = FactoredPoly(F(unit), tuple(roots.items()))
        assert f.expand().is_integral()
        red = reduce_to_integral_roots(f, PAdicContext(p))
        assert red.shift >= 0


def test_compute_lf_examples():
    ctx = PAdicContext(3)
    assert compute_lf(FactoredPoly(F(1), ((F(1), 1), (F(4), 1))), ctx) == 2
    assert compute_lf(FactoredPoly(F(1), ((F(7), 4),)), ctx) == 1
    assert compute_lf(FactoredPoly(F(1), ((F(0), 1), (F(9), 1))), ctx) == 3


def test_compute_lf_needs_reduced_roots():
    # roots with v_p < 0 have no residue mod p^k; reduce_to_integral_roots drops them
    ctx = PAdicContext(3)
    f = FactoredPoly(F(1), ((F(1, 3), 1), (F(1), 2)))
    with pytest.raises(NegativeValuation):
        compute_lf(f, ctx)
    assert compute_lf(reduce_to_integral_roots(f, ctx).fplus, ctx) == 1


def test_roots_distinct_modulo_p_to_the_lf():
    rng = random.Random(23)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        ctx = PAdicContext(p)
        roots = {}
        while len(roots) < rng.randint(2, 4):
            roots[F(rng.randint(-40, 40))] = 1
        f = FactoredPoly(F(1), tuple(roots.items()))
        l_f = compute_lf(f, ctx)
        assert l_f >= 1
        residues = {int(r) % p**l_f for r, _ in f.roots}
        assert len(residues) == len(f.roots)


def test_as_integer_poly():
    assert as_integer_poly(parse_poly("x^2 - 1")).coefficients == (F(-1), F(0), F(1))
    assert as_integer_poly(parse_poly("2*(x - 1/2)")).coefficients == (F(-1), F(2))
    with pytest.raises(IntegralityError):
        as_integer_poly(parse_poly("(x - 1/2)"))
    with pytest.raises(IntegralityError):
        as_integer_poly(parse_poly("1/2*x^2"))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=36).filter(bool),
    st.dictionaries(
        st.fractions(min_value=-20, max_value=20, max_denominator=12), st.integers(1, 3),
        max_size=4,
    ),
)
def test_factored_integrality_needs_no_expansion(unit, roots):
    f = FactoredPoly(unit, tuple(roots.items()))
    assert f.is_integral() == f.expand().is_integral()


def test_find_roots_product_of_two_large_primes():
    # the constant term is the product of a 27-digit and a 33-digit prime;
    # the search factors no integer, so that product costs nothing
    a = 2**89 - 1
    b = 2**107 - 1
    f = DensePoly((F(a) * b, F(-a * b - 1), F(1)))
    assert find_rational_roots(f) == FactoredPoly(F(1), ((F(1), 1), (F(a * b), 1)))
