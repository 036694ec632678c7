import random

import pytest

import localzeta.lfsr
import localzeta.padic
from localzeta import (
    CapExceeded,
    DegenerateTaps,
    DegreeViolation,
    InvalidPrime,
    Lfsr,
    PAdicContext,
    lfsr_from_rational,
    lfsr_generating_function,
    lfsr_run,
    parse_poly,
    period_of,
    series_mod_p,
    solution_counts,
)
from localzeta.cli import main


def recurrence_oracle(p, taps, init, steps):
    """Replay a_n = -(q_1 a_{n-1} + ... + q_r a_{n-r}) directly."""
    seq = [a % p for a in init]
    while len(seq) < steps:
        n = len(seq)
        seq.append(-sum(q * seq[n - i] for i, q in enumerate(taps, start=1)) % p)
    return seq[:steps]


def test_register_modulus_must_be_prime():
    for p in (0, 1, 4, 318665857834031151167461):
        with pytest.raises(InvalidPrime):
            Lfsr(p, (1,), (1,))


def test_register_modulus_must_be_an_int():
    # is_prime(3.0) holds, but a float register would step in floats
    with pytest.raises(InvalidPrime, match="got 3.0"):
        Lfsr(3.0, [1, 2], [1, 0])


def test_register_copy_does_not_prove_the_prime_again(monkeypatch):
    calls = []
    is_prime = localzeta.padic.is_prime

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(localzeta.padic, "is_prime", counting_is_prime)
    monkeypatch.setattr(localzeta.lfsr, "is_prime", counting_is_prime, raising=False)
    register = Lfsr(1000003, (2, 3, 5), (1, 0, 0))
    assert calls == [1000003]
    clone = register.copy()
    assert calls == [1000003]
    assert clone == register
    assert lfsr_run(clone, 5) == recurrence_oracle(1000003, (2, 3, 5), (1, 0, 0), 5)
    assert register.state == (1, 0, 0)


def test_lfsr_command_proves_the_prime_once(monkeypatch, capsys):
    calls = []
    is_prime = localzeta.padic.is_prime
    monkeypatch.setattr(localzeta.padic, "is_prime", lambda n: calls.append(n) or is_prime(n))
    p = 1000000000039
    argv = ["lfsr", "--prime", str(p), "--taps", "1,2", "--init", "1,0", "--steps", "4"]
    assert main(argv) == 0
    assert calls == [p]
    assert capsys.readouterr().out == f"output: 1 0 {p - 2} 2\n"
    # the prime is proved before the register's lengths are checked, so an
    # invalid prime is reported first, with an empty or a mismatched register
    invalid = f"InvalidPrime: modulus must be prime, got {p - 2}"
    cases = [
        (p, ["--taps", "", "--init", ""], "register length must be >= 1"),
        (p, ["--taps", "1,2", "--init", "1"], "state length must equal the register length"),
        (p - 2, ["--taps", "", "--init", ""], invalid),
        (p - 2, ["--taps", "1,2", "--init", "1"], invalid),
    ]
    for prime, register, message in cases:
        calls.clear()
        assert main(["lfsr", "--prime", str(prime), *register]) == 1
        assert calls == [prime]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err


def test_from_rational_proves_the_prime_once(monkeypatch):
    calls = []
    is_prime = localzeta.padic.is_prime

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(localzeta.padic, "is_prime", counting_is_prime)
    register = Lfsr(1000003, (2, 3, 5), (1, 0, 0))
    calls.clear()
    back = lfsr_from_rational(lfsr_generating_function(register), 1000003)
    assert calls == [1000003]
    assert back == register


def test_run_binary_fibonacci():
    register = Lfsr(2, (1, 1), (0, 1))
    assert lfsr_run(register, 8) == [0, 1, 1, 0, 1, 1, 0, 1]


def test_run_zero_state_stays_zero():
    register = Lfsr(3, (1, 2, 1), (0, 0, 0))
    assert lfsr_run(register, 10) == [0] * 10


def test_run_matches_recurrence_oracle():
    assert lfsr_run(Lfsr(3, (0, 2), (1, 0)), 6) == recurrence_oracle(
        3, (0, 2), (1, 0), 6
    )
    rng = random.Random(5)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        r = rng.randint(1, 4)
        taps = tuple(rng.randrange(p) for _ in range(r))
        init = tuple(rng.randrange(p) for _ in range(r))
        assert lfsr_run(Lfsr(p, taps, init), 20) == recurrence_oracle(
            p, taps, init, 20
        )


def test_run_consumes_state():
    register = Lfsr(2, (1, 1), (0, 1))
    first = lfsr_run(register, 4)
    second = lfsr_run(register, 4)
    assert first + second == recurrence_oracle(2, (1, 1), (0, 1), 8)


def test_period_examples():
    assert period_of(Lfsr(2, (1, 1), (0, 0))) == 1
    for state in [(0, 1), (1, 0), (1, 1)]:
        assert period_of(Lfsr(2, (1, 1), state)) == 3


def test_period_primitive_length_four():
    # connection polynomial x^4 + x + 1 over F_2, taps (1, 0, 0, 1)
    taps = (1, 0, 0, 1)
    for state in range(1, 16):
        bits = tuple((state >> i) & 1 for i in range(4))
        assert period_of(Lfsr(2, taps, bits)) == 15


def test_period_bound():
    rng = random.Random(9)
    for _ in range(60):
        p = rng.choice([2, 3])
        r = rng.randint(1, 4)
        taps = [rng.randrange(p) for _ in range(r - 1)] + [rng.randrange(1, p)]
        init = [rng.randrange(p) for _ in range(r)]
        if all(a == 0 for a in init):
            init[0] = 1
        assert 1 <= period_of(Lfsr(p, taps, init)) <= p**r - 1


def stored_orbit_period(p, taps, init):
    """Eventual period by keeping every state of the orbit."""
    seen = {}
    state = tuple(init)
    while state not in seen:
        seen[state] = len(seen)
        state = state[1:] + (-sum(q * a for q, a in zip(taps, reversed(state))) % p,)
    return len(seen) - seen[state]


def test_period_matches_a_stored_orbit():
    # q_r = 0 is allowed here, so some orbits run through a tail first
    rng = random.Random(17)
    tails = 0
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        r = rng.randint(1, 5)
        taps = tuple(rng.randrange(p) for _ in range(r))
        init = tuple(rng.randrange(p) for _ in range(r))
        assert period_of(Lfsr(p, taps, init)) == stored_orbit_period(p, taps, init)
        tails += taps[-1] == 0 and any(init)
    assert tails


def test_period_search_is_bounded(monkeypatch):
    monkeypatch.setattr(localzeta.lfsr, "PERIOD_STEP_BUDGET", 1000)
    assert period_of(Lfsr(2, (1, 0, 0, 1), (1, 0, 0, 0))) == 15
    # period up to 1000003**3 - 1: stopped at the budget, not searched out
    with pytest.raises(CapExceeded, match="budget of 1000 register steps"):
        period_of(Lfsr(1000003, (2, 3, 5), (1, 0, 0)))


def test_generating_function_series_match():
    rng = random.Random(13)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        r = rng.randint(1, 4)
        taps = tuple(rng.randrange(p) for _ in range(r - 1)) + (rng.randrange(1, p),)
        init = tuple(rng.randrange(p) for _ in range(r))
        register = Lfsr(p, taps, init)
        g = lfsr_generating_function(register)
        assert series_mod_p(g, p, 16) == lfsr_run(register.copy(), 16)


def test_generating_function_zero_state():
    num, _ = lfsr_generating_function(Lfsr(5, (2, 3), (0, 0)))
    assert num == (0,)


def test_generating_function_needs_last_tap():
    with pytest.raises(DegenerateTaps):
        lfsr_generating_function(Lfsr(3, (1, 0), (1, 2)))


def test_round_trip_binary_example():
    register = Lfsr(2, (1, 1), (0, 1))
    back = lfsr_from_rational(lfsr_generating_function(register), 2)
    assert back == register


def test_round_trip_random():
    rng = random.Random(21)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        r = rng.randint(1, 4)
        taps = tuple(rng.randrange(p) for _ in range(r - 1)) + (rng.randrange(1, p),)
        init = tuple(rng.randrange(p) for _ in range(r))
        register = Lfsr(p, taps, init)
        back = lfsr_from_rational(lfsr_generating_function(register), p)
        assert back.taps == register.taps
        assert back.state == register.state


@pytest.mark.parametrize("g, p", [
    (((1,), (2, 1)), 4),
    (((1,), (1, 1)), 3.0),
    (((1,), (1, 1)), 1),
])
def test_from_rational_checks_the_modulus_first(g, p):
    # unchecked, each would fail elsewhere: in the inverse mod 4 (ValueError),
    # in pow with a float (TypeError), or as a zero denominator mod 1
    with pytest.raises(InvalidPrime):
        lfsr_from_rational(g, p)


def test_from_rational_degree_guard():
    with pytest.raises(DegreeViolation):
        lfsr_from_rational(((1, 1), (1, 1)), 2)
    with pytest.raises(DegreeViolation):
        lfsr_from_rational(((1,), (0, 1)), 2)
    # 1 + 3t is the constant 1 mod 3: no register of length 0
    with pytest.raises(DegreeViolation, match="denominator must have degree >= 1 mod p"):
        lfsr_from_rational(((1,), (1, 3)), 3)


def test_register_equality_and_repr():
    register = Lfsr(2, (1, 0, 0, 1), (1, 0, 0, 0))
    assert register == register.copy() and register != (1, 0, 0, 1)
    assert repr(register) == "Lfsr(p=2, taps=(1, 0, 0, 1), state=(1, 0, 0, 0))"


def test_keystream_examples():
    assert tuple(solution_counts(parse_poly("x"), PAdicContext(5), 3)) == (1, 1, 1, 1)
    assert tuple(solution_counts(parse_poly("(x-1)^2*(x-4)"), PAdicContext(3), 5)) == (
        1, 1, 3, 9, 18, 36,
    )
    assert tuple(solution_counts(parse_poly("x^2 - 1"), PAdicContext(2), 3)) == (1, 1, 2, 4)


def test_keystream_brute_agreement():
    for p, text in [(2, "x^2 - 1"), (3, "(x-1)^2*(x-4)"), (5, "x^3 - x")]:
        ctx = PAdicContext(p)
        f = parse_poly(text)
        u = 1
        while p ** (u + 1) <= 10**5:
            u += 1
        assert tuple(solution_counts(f, ctx, u)) == tuple(solution_counts(f, ctx, u, method="brute"))


def test_keystream_serialization_injective_on_corpus(capsys):
    corpus = [
        ("x", 5),
        ("x^2 - 1", 2),
        ("(x-1)^2*(x-4)", 3),
        ("x^2", 3),
        ("x^3 - x", 3),
        ("x^2 - 1", 3),
    ]
    streams = {}
    for text, p in corpus:
        assert main(["keystream", "--poly", text, "--prime", str(p), "--length", "6"]) == 0
        streams[(text, p)] = capsys.readouterr().out
    values = list(streams.values())
    assert len(set(values)) == len(values)
    assert main(["keystream", "--poly", "x^2 - 1", "--prime", "2", "--length", "3"]) == 0
    assert capsys.readouterr().out == "1\n1\n2\n4\n"
