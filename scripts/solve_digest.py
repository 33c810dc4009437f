#!/usr/bin/env python3
"""Print one SHA-256 per mode over a fixed grid of solves, to check that a change keeps every run's bits.

Each solve adds its full-precision trace (generation, best cost, mean
cost), its final front (genes, cost), its best plan's flows and cost
breakdown, ``generations_run`` and ``terminated_by``.  The grid is the three
bundled scenarios in both modes, seeds 0 .. seeds-1, with the default stall
rule and with the stall stop off, at --generations generations; then --tiny
instances drawn as criterion 4 draws them (``tiny_oracle_instance`` in
``tests/conftest.py``), in both modes, at 5 or 300 generations, population
50 or 4, and mutation rate 0.001 or 0.2.  Each mode's solves feed that mode's digest in grid
order, printed as ``aggregate <hex>`` and ``strict <hex>``.  Run it in two
checkouts: equal digests mean equal runs in that mode.

Usage: python scripts/solve_digest.py [--generations N] [--seeds N] [--tiny N]
"""

import argparse
import dataclasses
import hashlib
import importlib.util
from pathlib import Path

import numpy as np

from pdnet.nsga2 import SolverConfig, solve
from pdnet.scenarios import SCENARIO_NAMES, default_instance

TINY_MASTER_SEED = 20261020


def _tiny_oracle_instance():
    path = Path(__file__).resolve().parent.parent / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("criterion_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.tiny_oracle_instance


def runs(generations, seeds, tiny):
    """(instance, config) of every solve in the grid, in a fixed order."""
    for name in SCENARIO_NAMES:
        for strict in (False, True):
            instance = dataclasses.replace(default_instance(name), strict_per_dc=strict)
            for seed in range(seeds):
                for stall in (SolverConfig.stall_generations, generations):
                    yield instance, SolverConfig(seed=seed, max_generations=generations, stall_generations=stall)
    draw, rng = _tiny_oracle_instance(), np.random.default_rng(TINY_MASTER_SEED)
    for k in range(tiny):
        instance = dataclasses.replace(draw(rng), strict_per_dc=bool(k % 2))
        config = SolverConfig(
            population_size=(50, 4)[k // 2 % 2],
            mutation_prob=(0.001, 0.2)[k // 4 % 2],
            max_generations=(300, 5)[k // 8 % 2],
            seed=k,
        )
        yield instance, config


def feed(digest, result):
    """Add everything ``result`` holds to ``digest``: floats by repr, arrays by shape and bytes.

    Each field is named, not taken as a whole record, so that a checkout whose
    results hold more fields gives the same digest for the same runs.
    """
    parts = [result.generations_run, result.terminated_by]
    parts += [(r.generation, r.best_feasible_cost, r.mean_cost) for r in result.trace]
    front = result.final_front
    parts += [(a.shape, a.tobytes()) for a in (front.genes, front.cost)]
    plan, breakdown = result.best_feasible
    parts += [(a.shape, a.tobytes()) for a in dataclasses.astuple(plan)]
    parts.append(dataclasses.astuple(breakdown))
    digest.update(repr(parts).encode())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--generations", type=int, default=600)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--tiny", type=int, default=300)
    args = parser.parse_args(argv)

    digests = {False: hashlib.sha256(), True: hashlib.sha256()}  # by strict_per_dc
    for instance, config in runs(args.generations, args.seeds, args.tiny):
        feed(digests[instance.strict_per_dc], solve(instance, config))
    for mode, digest in zip(("aggregate", "strict"), digests.values()):
        print(mode, digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
