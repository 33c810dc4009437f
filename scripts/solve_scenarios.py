#!/usr/bin/env python3
"""Solve the bundled scenario instances and write results plus convergence traces.

The traces (generation, best feasible cost, mean cost, minimum violation,
feasible count) are plot-ready CSV; costs are in raw synthetic currency units.
All three scenarios reach feasible plans within the default budget; the
network_expansion instance sets demand to the exact production frontier
(aggregate DC storage).

Usage: python scripts/solve_scenarios.py [--outdir DIR] [--seed N] [--generations N]
"""

import argparse
import os

from pdnet.nsga2 import SolverConfig, solve
from pdnet.scenarios import SCENARIO_NAMES, default_instance
from pdnet.serialize import emit_trace, save_result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="scenario-runs")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--generations", type=int, default=2000)
    args = parser.parse_args(argv)

    os.makedirs(args.outdir, exist_ok=True)
    config = SolverConfig(seed=args.seed, max_generations=args.generations)
    for name in SCENARIO_NAMES:
        instance = default_instance(name)
        result = solve(instance, config)
        save_result(result, os.path.join(args.outdir, f"{name}.result.json"))
        emit_trace(result, os.path.join(args.outdir, f"{name}.trace.csv"))
        if result.best_feasible is None:
            front_min = result.final_front.violation.min()
            print(f"{name}: no feasible plan in {result.generations_run} generations "
                  f"(min violation {front_min:.4g})")
        else:
            _, breakdown = result.best_feasible
            print(f"{name}: best feasible cost {breakdown.total:,.0f} "
                  f"after {result.generations_run} generations ({result.terminated_by})")


if __name__ == "__main__":
    main()
