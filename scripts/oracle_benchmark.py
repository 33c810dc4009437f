#!/usr/bin/env python3
"""Benchmark the NSGA-II engine against the exact optimum on tiny instances.

For each randomized tiny instance (at most 1 supplier, 2 plants, 2 DCs,
2 retailers, integer data) the script reports the median relative gap between
the solver's best feasible cost and ``oracle.exact_optimum`` over a set of
seeds, together with the lower-bound sanity check, the median number of
generations the solves ran and the time the oracle took on the instance.  A
solve whose best plan reaches the lower bound stops there, so instances whose
optimum equals the bound show 0 generations: the initial population already
holds such a plan.  The summary adds the generations all solves ran and how
many of them stopped at generation 0.  The instances
and the loop are criterion 4's own (``oracle_agreement`` in
``tests/conftest.py``); run it directly to study how the gap responds to the
generation budget.

Usage: python scripts/oracle_benchmark.py [--instances N] [--seeds N]
       [--generations N] [--master-seed N]
"""

import argparse
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

from pdnet.cli import format_percent


def _oracle_agreement():
    path = Path(__file__).resolve().parent.parent / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("criterion_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.oracle_agreement


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=20)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--generations", type=int, default=300)
    parser.add_argument("--master-seed", type=int, default=20260823)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    rows = _oracle_agreement()(args.master_seed, args.instances, args.seeds, args.generations)
    elapsed = time.perf_counter() - t0
    print(
        f"{'instance':>8} {'topology':>12} {'optimum':>9} {'bound':>7} {'median gap':>11} {'gens':>5}"
        f" {'oracle ms':>10}"
    )
    for idx, row in enumerate(rows):
        shape = "x".join(str(c) for c in row.instance.counts)
        print(
            f"{idx:>8} {shape:>12} {row.optimum:>9.1f} {row.bound:>7.1f} {format_percent(row.median_gap):>10}"
            f" {np.median(row.generations):>5.0f} {1e3 * row.oracle_s:>10.2f}"
        )

    medians = [row.median_gap for row in rows]
    within = sum(m <= 0.02 for m in medians)
    runs = [g for row in rows for g in row.generations]
    print(
        f"\n{within}/{args.instances} instance medians within 2%; "
        f"median of medians {np.median(medians):.2%}; {sum(runs)} generations run, "
        f"{runs.count(0)}/{len(runs)} solves stopped at generation 0; {elapsed:.1f}s total"
    )
    below = [idx for idx, row in enumerate(rows) if row.below_bound]
    if below:
        print(f"a feasible cost fell below the lower bound on instances {below}", file=sys.stderr)
    return 0 if within == args.instances and not below else 1


if __name__ == "__main__":
    sys.exit(main())
