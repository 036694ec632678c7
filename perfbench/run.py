"""Closed-loop benchmark of the localzeta CLI, one client, one process.

    python3 perfbench/run.py --workload zeta-wide --seed 1 --seconds 20 --trace 0

Each op is one in-process ``localzeta.cli.main(argv)`` call with stdout
captured.  The corpus round is replayed in whole rounds until --seconds
have passed (and at least `min_rounds` rounds ran), then every output of
the first round is checked against references computed apart from the
program, and later rounds must repeat the first round's output.  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end with --trace 0, per-layer with --trace 1).  The same
object and, with --trace 1, the spans go to perfbench/results/.

The program is imported from src/ of the checkout this file sits in; the
run fails when that tree is missing.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # the set-up probe times everything after this line

import argparse
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import corpus  # noqa: E402

SETUP_SAMPLES = 7
KERNEL_EVERY_S = 0.5  # op time between two calls of the reference kernel
MIN_OPS_BEYOND = 10  # ops beyond the tail percentile in the shortest run


def import_program():
    if not (SRC / "localzeta" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import localzeta.cli

    if Path(localzeta.cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: localzeta was imported from {localzeta.cli.__file__}, not {SRC}")
    return localzeta.cli.main


def setup_probe(workload: str, seed: int, size: str) -> float:
    """Time the imports (numpy and the program) and the corpus generation."""
    import_program()
    corpus.build(workload, seed, size)
    return perf_counter() - STARTED


def measure_setup(args) -> float:
    """Median of SETUP_SAMPLES fresh interpreters, each importing and building."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--size", args.size, "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"error: setup probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def call(main, argv: list[str]) -> tuple[float, int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            status = exc.code
        elapsed = perf_counter() - start
    return elapsed, status, out.getvalue()


def min_rounds(round_len: int) -> int:
    """Enough rounds for a p90 or higher tail with MIN_OPS_BEYOND ops beyond it."""
    return math.ceil(10 * MIN_OPS_BEYOND / round_len)


def tail_percentile(round_len: int) -> int:
    """The highest whole percentile with MIN_OPS_BEYOND ops beyond it in
    a run of min_rounds rounds; fixed per workload, so that it keeps its
    meaning however many rounds a run makes."""
    ops = round_len * min_rounds(round_len)
    return math.floor(100 * (ops - MIN_OPS_BEYOND) / ops)


def nearest_rank(sorted_values: list[float], pct: int) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def run(args) -> dict:
    main = import_program()
    cases = corpus.build(args.workload, args.seed, args.size)
    ops = corpus.round_ops(cases)
    rounds_needed = min_rounds(len(ops))
    tracer = None
    if args.trace:
        import tracing  # imports the program, so only after import_program()

        tracer = tracing.Tracer()

    first = [None] * len(ops)
    latencies: list[float] = []
    residuals: list[float] = []
    kernel_times: list[float] = []
    failed = attempted = rounds = 0
    nondeterministic = set()
    call(main, ops[0][1].argv())  # warm-up: lazy imports, first allocations
    gc.collect()
    start = perf_counter()
    since_kernel = KERNEL_EVERY_S
    while rounds < rounds_needed or perf_counter() - start < args.seconds:
        for i, (_, op) in enumerate(ops):
            if since_kernel >= KERNEL_EVERY_S:
                kernel_times.append(calibrate.timed(args.workload))
                since_kernel = 0.0
            elapsed, status, out = call(main, op.argv())
            since_kernel += elapsed
            attempted += 1
            latencies.append(elapsed)
            if status != 0:
                failed += 1
            elif first[i] is None:
                first[i] = out
            elif first[i] != out:
                nondeterministic.add(i)
            if tracer is not None:
                residuals.append(elapsed - tracing.replay(tracer, i, op))
        rounds += 1
        if tracer is not None:
            tracer.end_round()
    wall = perf_counter() - start - sum(kernel_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = [f"op {i}: output changed between rounds" for i in sorted(nondeterministic)]
    for index, case in enumerate(cases):
        outputs = [first[i] for i, (c, _) in enumerate(ops) if c == index]
        if any(out is None for out in outputs):
            continue  # a failed op; counted in `failed`
        problems += [f"case {index} ({case.check}): {p}" for p in checks.check_case(case, outputs)]
    if tracer is not None:
        problems += tracer.problems
    for problem in problems:
        print(problem, file=sys.stderr)

    if tracer is None:
        ordered = sorted(latencies)
        pct = tail_percentile(len(ops))
        kernel_s = statistics.median(kernel_times)
        scale = calibrate.NOMINAL_S[args.workload] / kernel_s
        raw = {
            "op_latency_p50_ms": statistics.median(ordered) * 1e3,
            "op_latency_tail_ms": nearest_rank(ordered, pct) * 1e3,
            "ops_per_s": attempted / wall,
        }
        metrics = {
            "setup_s": (measure_setup(args), "s"),
            "op_latency_p50_ms": (raw["op_latency_p50_ms"] * scale, "ms"),
            "op_latency_tail_ms": (raw["op_latency_tail_ms"] * scale, "ms"),
            "ops_per_s": (raw["ops_per_s"] / scale, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        detail = {
            "tail_percentile": pct,
            "rounds": rounds,
            "round_ops": len(ops),
            "kernel_s": kernel_s,
            "scale": scale,
            "raw": raw,
        }
    else:
        metrics = tracer.metrics(attempted, residuals)
        span_cost = tracer.span_cost()
        detail = {
            "rounds": rounds,
            "round_ops": len(ops),
            "spans_per_op": len(tracer.spans) / attempted,
            "span_cost_us": span_cost * 1e6,
            "tracing_overhead_share": len(tracer.spans) * span_cost / sum(latencies),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({**result, "detail": detail}, indent=1))
    if tracer is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json()))
    return result


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=corpus.SIZES, default="full",
                        help="smoke: a seconds-long corpus for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args()


if __name__ == "__main__":
    ARGS = parse_args()
    if ARGS.setup_probe:
        print(json.dumps({"setup_s": setup_probe(ARGS.workload, ARGS.seed, ARGS.size)}))
    else:
        print(json.dumps(run(ARGS)))
