"""The traced run: every op replayed stage by stage through the library.

A replay makes the same library calls the CLI command makes, in the same
order, and wraps each in a span.  Spans are kept in memory as
(name, start, end, parent, op) and written out when the run ends; the
op's own span is the parent of its stage spans, and stage spans do not
nest, so a stage's duration is its self time.  Counts are recorded at the
same boundaries.  Calls the replay makes without a span (argument
parsing, rendering, ``as_integer_poly``, the identity arithmetic in
``verify``) are left to ``cli.residual_ms``: the untraced CLI time of the
op minus the sum of its stage spans.

``lfsr.roundtrip`` is not on the CLI path: after each ``lfsr`` op the
replay also converts the register to its generating function and back,
and that span is left out of the residual.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

from localzeta import (
    RF_ONE,
    DensePoly,
    Lfsr,
    PAdicContext,
    as_integer_poly,
    brute_counts_upto,
    build_tree,
    coeff_stream,
    compute_lf,
    counts_from_coeffs,
    find_rational_roots,
    generating_function,
    lfsr_from_rational,
    lfsr_generating_function,
    lfsr_run,
    normalize,
    parse_poly,
    period_of,
    poincare,
    reduce_to_integral_roots,
    rf_add,
    rf_equal,
    rf_eval,
    rf_from_poly,
    rf_mul,
    rf_series,
    spf_eval,
)

import oracle
from corpus import Op

STAGES = (
    "polynomials.parse", "polynomials.factor", "polynomials.reduce", "polynomials.lf",
    "padic.context",
    "tree.build",
    "zeta.generating_function", "zeta.spf_eval", "zeta.normalize", "zeta.poincare",
    "ratfunc.rf_series", "ratfunc.rf_equal",
    "counting.brute", "counting.coeff_stream", "counting.counts",
    "lfsr.run", "lfsr.period", "lfsr.roundtrip",
)
OFF_PATH = ("lfsr.roundtrip",)
COUNTS = (
    "polynomials.degree", "polynomials.coeff_bits",
    "tree.vertices", "tree.depth",
    "zeta.terms", "zeta.den_pows", "zeta.num_degree", "zeta.den_degree", "zeta.coeff_bits",
    "counting.residues", "counting.series_len", "counting.count_bits",
    "lfsr.steps",
)


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.round_counts: dict[str, int] | None = None
        self.problems: list[str] = []
        self.op = -1
        self._parent: int | None = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._parent, self.op))
        outer, self._parent = self._parent, index
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._parent = outer
            self.spans[index] = (name, start, end, outer, self.op)

    def count(self, key: str, n: int) -> None:
        self.counts[key] += n

    def end_round(self) -> None:
        """Keep the first round's counts; later rounds repeat them."""
        if self.round_counts is None:
            self.round_counts = dict(self.counts)

    def metrics(self, ops: int, residuals: list[float]) -> dict[str, tuple[float, str]]:
        """Mean ms per op for each stage and the residual; counts per round."""
        totals = dict.fromkeys(STAGES, 0.0)
        for name, start, end, _, _ in self.spans:
            if name in totals:
                totals[name] += end - start
        metrics = {f"{name}_ms": (t / ops * 1e3, "ms") for name, t in totals.items()}
        metrics["cli.residual_ms"] = (statistics.fmean(residuals) * 1e3, "ms")
        metrics.update({name: (n, "count") for name, n in self.round_counts.items()})
        return metrics

    def span_cost(self, n: int = 10_000) -> float:
        """Seconds one empty span costs, measured on a scratch tracer."""
        scratch = Tracer()
        start = perf_counter()
        for _ in range(n):
            with scratch.span("empty"):
                pass
        return (perf_counter() - start) / n

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": parent, "op": op}
                for n, s, e, parent, op in self.spans
            ],
            "counts": self.counts,
        }


def _record_rf(tr: Tracer, rf) -> None:
    tr.count("zeta.num_degree", len(rf.numerator) - 1)
    tr.count("zeta.den_degree", len(rf.denominator) - 1)
    tr.count("zeta.coeff_bits", oracle.bits(rf.numerator + rf.denominator))


def _evaluate(tr: Tracer, f, ctx: PAdicContext, method: str):
    """compute_zeta, one stage per span."""
    if isinstance(f, DensePoly):
        with tr.span("polynomials.factor"):
            f = find_rational_roots(f)
    with tr.span("polynomials.reduce"):
        reduced = reduce_to_integral_roots(f, ctx)
    if method == "tree":
        with tr.span("polynomials.lf"):
            l_f = compute_lf(reduced.fplus, ctx)
        with tr.span("tree.build"):
            tree = build_tree(reduced.fplus, ctx, l_f)
        with tr.span("zeta.generating_function"):
            z = generating_function(tree, shift=reduced.shift)
        tr.count("tree.vertices", len(tree.vertices))
        tr.count("tree.depth", l_f + 1)
    else:
        with tr.span("zeta.spf_eval"):
            z = spf_eval(reduced.fplus.roots, ctx)
        z = replace(z, shift=reduced.shift)
    tr.count("zeta.terms", len(z.terms))
    tr.count("zeta.den_pows", len({t.den_pow for t in z.terms if t.den_pow}))
    return z


def _front(tr: Tracer, op: Op):
    with tr.span("padic.context"):
        ctx = PAdicContext(op.p)
    with tr.span("polynomials.parse"):
        f = parse_poly(op.poly.text)
    tr.count("polynomials.degree", f.degree)
    sizes = f.coefficients if isinstance(f, DensePoly) else [r for r, _ in f.roots]
    tr.count("polynomials.coeff_bits", oracle.bits(sizes))
    return ctx, f


def _counts(tr: Tracer, coeffs, ctx: PAdicContext, n: int) -> list[int]:
    with tr.span("counting.counts"):
        counts = counts_from_coeffs(coeffs, ctx, n)
    tr.count("counting.series_len", len(coeffs))
    tr.count("counting.count_bits", oracle.bits(counts))
    return counts


def _sequence(tr: Tracer, f, ctx: PAdicContext, op: Op, method: str) -> list[int]:
    """count_sequence for one method."""
    dense = as_integer_poly(f)
    if method == "brute":
        with tr.span("counting.brute"):
            counts = brute_counts_upto(dense, ctx, op.depth, cap=op.cap)
        tr.count("counting.residues", op.p**op.depth)
        return counts
    z = _evaluate(tr, f, ctx, method)
    if method == "tree":
        with tr.span("counting.coeff_stream"):
            coeffs = coeff_stream(z, op.depth)
    else:
        with tr.span("zeta.normalize"):
            rf = normalize(z)
        _record_rf(tr, rf)
        with tr.span("ratfunc.rf_series"):
            coeffs = rf_series(rf, op.depth + 1)
    return _counts(tr, coeffs, ctx, op.depth)


def _zeta(tr: Tracer, op: Op) -> None:
    ctx, f = _front(tr, op)
    z = _evaluate(tr, f, ctx, op.method)
    with tr.span("zeta.normalize"):
        rf = normalize(z)
    _record_rf(tr, rf)


def _poincare(tr: Tracer, op: Op) -> None:
    ctx, f = _front(tr, op)
    z = _evaluate(tr, f, ctx, op.method)
    with tr.span("zeta.poincare"):
        h = poincare(z)
    _record_rf(tr, h)


def _count(tr: Tracer, op: Op) -> None:
    ctx, f = _front(tr, op)
    for method in ("tree", "spf", "brute"):
        _sequence(tr, f, ctx, op, method)


def _keystream(tr: Tracer, op: Op) -> None:
    ctx, f = _front(tr, op)
    _sequence(tr, f, ctx, op, op.method)


def _verify(tr: Tracer, op: Op) -> None:
    ctx, f = _front(tr, op)
    z_tree = _evaluate(tr, f, ctx, "tree")
    z_spf = _evaluate(tr, f, ctx, "spf")
    with tr.span("zeta.normalize"):
        rf_tree = normalize(z_tree)
    with tr.span("zeta.normalize"):
        rf_spf = normalize(z_spf)
    _record_rf(tr, rf_tree)
    with tr.span("ratfunc.rf_equal"):
        rf_equal(rf_tree, rf_spf)
    rf_eval(rf_tree, 1)
    with tr.span("zeta.poincare"):
        h = poincare(z_tree)
    identity = rf_add(rf_mul(rf_from_poly([1, -1]), h), rf_mul(rf_from_poly([0, 1]), rf_tree))
    with tr.span("ratfunc.rf_equal"):
        rf_equal(identity, RF_ONE)
    with tr.span("counting.coeff_stream"):
        coeff_stream(z_tree, op.depth)
    with tr.span("ratfunc.rf_series"):
        rf_series(rf_tree, op.depth + 1)
    dense = as_integer_poly(f)
    with tr.span("counting.coeff_stream"):
        coeffs = coeff_stream(z_tree, op.depth)
    _counts(tr, coeffs, ctx, op.depth)
    with tr.span("counting.brute"):
        brute_counts_upto(dense, ctx, op.depth, cap=op.cap)
    tr.count("counting.residues", op.p**op.depth)


def _lfsr(tr: Tracer, op: Op) -> None:
    with tr.span("lfsr.run"):
        register = Lfsr(op.p, op.taps, op.init)
        lfsr_run(register.copy(), op.steps)
    with tr.span("lfsr.period"):
        period_of(register)
    tr.count("lfsr.steps", op.steps)
    with tr.span("lfsr.roundtrip"):
        back = lfsr_from_rational(lfsr_generating_function(register), op.p)
    if back != register:
        tr.problems.append(f"op {tr.op}: the register changed in the generating-function round trip")


REPLAYS = {
    "zeta": _zeta,
    "poincare": _poincare,
    "count": _count,
    "keystream": _keystream,
    "verify": _verify,
    "lfsr": _lfsr,
}


def replay(tr: Tracer, index: int, op: Op) -> float:
    """Replay one op under its own span; returns the sum of its on-path stages."""
    tr.op = index
    first = len(tr.spans)
    with tr.span("op:" + op.command):
        REPLAYS[op.command](tr, op)
    return sum(
        end - start
        for name, start, end, _, _ in tr.spans[first + 1:]
        if name not in OFF_PATH
    )
