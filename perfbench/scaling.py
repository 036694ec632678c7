"""Scaling curve of the zeta-wide ops: root counts r = 50, 100, 200 at p = 3, 101.

    python3 perfbench/scaling.py [--seed 1]

For each (p, r) one factored input with six-digit roots and pinned l_f is
made as the zeta-wide skeletons are, and each of its four ops (zeta
and poincare, tree and spf) is run once through the CLI and once through
the traced replay.  Prints one row per op: the CLI time and the stages
that take more than 1 % of it.  Takes about a minute.
"""

from __future__ import annotations

import argparse

import run  # puts perfbench/ on the path

cli_main = run.import_program()  # puts src/ on the path

import corpus  # noqa: E402
import tracing  # noqa: E402


def scaling(seed: int) -> None:
    print("p\tr\top\tmethod\tcli_ms\tstages (ms)")
    for p in (3, 101):
        for r in (50, 100, 200):
            roots, mults = corpus.skeleton(f"scaling:{seed}", p, r, 100_000, 999_999)
            poly = corpus.factored(p, roots, mults)
            for command, fmt in (("zeta", None), ("poincare", "json")):
                for method in corpus.METHODS:
                    op = corpus.Op(command, p, poly, method, fmt, cap=10**6)
                    elapsed = run.call(cli_main, op.argv())[0]
                    tracer = tracing.Tracer()
                    tracing.replay(tracer, 0, op)
                    stages = {}
                    for name, start, end, parent, _ in tracer.spans:
                        if parent is not None:
                            stages[name] = stages.get(name, 0.0) + end - start
                    shown = ", ".join(
                        f"{name} {t * 1e3:.0f}" for name, t in stages.items()
                        if t > 0.01 * elapsed
                    )
                    print(f"{p}\t{r}\t{command}\t{method}\t{elapsed * 1e3:.0f}\t{shown}",
                          flush=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    scaling(parser.parse_args().seed)
