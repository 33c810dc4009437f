import time
from typing import NamedTuple

import numpy as np
import pytest

from pdnet.network import FlowPlan, NetworkInstance
from pdnet.nsga2 import SolverConfig, solve
from pdnet.oracle import brute_force_optimum, lower_bound


def single_chain(d=10.0, u=1.0, c_s=2.0, c_kj=3.0, h_j=1.0, r_ji=4.0, cap=20.0):
    """1x1x1x1 instance with the worked-example cost structure."""
    return NetworkInstance(
        num_suppliers=1,
        num_plants=1,
        num_dcs=1,
        num_retailers=1,
        supplier_capacity=[cap],
        plant_capacity=[cap],
        dc_capacity=[cap],
        demand=[d],
        raw_unit_cost=[c_s],
        holding_unit_cost=[h_j],
        plant_dc_unit_cost=[[c_kj]],
        dc_retailer_unit_cost=[[r_ji]],
        utilization=u,
    )


def random_instance(rng, s=None, k=None, j=None, i=None):
    """Small random instance with nonnegative data and positive utilization."""
    s = s or int(rng.integers(1, 4))
    k = k or int(rng.integers(1, 4))
    j = j or int(rng.integers(1, 4))
    i = i or int(rng.integers(1, 4))
    return NetworkInstance(
        num_suppliers=s,
        num_plants=k,
        num_dcs=j,
        num_retailers=i,
        supplier_capacity=rng.uniform(5, 50, s),
        plant_capacity=rng.uniform(5, 50, k),
        dc_capacity=rng.uniform(5, 50, j),
        demand=rng.uniform(0, 10, i),
        raw_unit_cost=rng.uniform(0.1, 10, s),
        holding_unit_cost=rng.uniform(0.1, 10, j),
        plant_dc_unit_cost=rng.uniform(0.1, 10, (k, j)),
        dc_retailer_unit_cost=rng.uniform(0.1, 10, (j, i)),
        utilization=float(rng.uniform(0.5, 2.0)),
    )


def random_plan(rng, instance):
    s, k, j, i = instance.counts
    return FlowPlan(
        rng.uniform(0, 20, (s, k)),
        rng.uniform(0, 20, (k, j)),
        rng.uniform(0, 20, (j, i)),
    )


def tiny_oracle_instance(rng):
    """Integer 1x2x2x2-or-smaller instance with u=1 and even capacity bounds.

    Data are drawn so that the decode boxes have integral corners, the
    grid-1 lattice contains the continuous optimum, and capacities admit
    the demand.
    """
    k = int(rng.integers(1, 3))
    j = int(rng.integers(1, 3))
    i = int(rng.integers(1, 3))
    demand = rng.integers(1, 4, size=i).astype(float)
    total = demand.sum()
    plant_cap = 2.0 * np.ceil((total / k + rng.integers(0, 3, size=k)) / 2.0) + 2.0
    dc_cap = rng.integers(int(total), int(total) + 6, size=j).astype(float)
    supplier_cap = np.array([2.0 * np.ceil(total / 2.0) + 2.0 * rng.integers(1, 4)])
    return NetworkInstance(
        num_suppliers=1,
        num_plants=k,
        num_dcs=j,
        num_retailers=i,
        supplier_capacity=supplier_cap,
        plant_capacity=plant_cap,
        dc_capacity=dc_cap,
        demand=demand,
        raw_unit_cost=rng.integers(1, 6, size=1).astype(float),
        holding_unit_cost=rng.integers(1, 4, size=j).astype(float),
        plant_dc_unit_cost=rng.integers(1, 8, size=(k, j)).astype(float),
        dc_retailer_unit_cost=rng.integers(1, 8, size=(j, i)).astype(float),
        utilization=1.0,
    )


def criterion_4_instances(count=20):
    """The first ``count`` instances criterion 4 solves, drawn from its master seed."""
    rng = np.random.default_rng(20260823)
    return [tiny_oracle_instance(rng) for _ in range(count)]


class Agreement(NamedTuple):
    instance: NetworkInstance
    optimum: float  # brute-force optimum on the grid-1 lattice
    bound: float  # oracle.lower_bound
    median_gap: float  # median over seeds of (cost - optimum) / optimum, inf for a run with no feasible plan
    below_bound: bool  # some feasible cost fell more than 1e-9 below the bound
    generations: tuple  # generations_run of each seed's solve
    oracle_s: float  # wall time of brute_force_optimum on this instance


def oracle_agreement(master_seed, instances, seeds, generations):
    """The GA against the brute-force oracle on tiny instances (criterion 4): one Agreement per instance.

    Draws ``instances`` instances with ``tiny_oracle_instance`` from
    ``master_seed`` and solves each with solver seeds 0 .. seeds-1 for
    ``generations`` generations, the other settings at their defaults.
    """
    rng = np.random.default_rng(master_seed)
    rows = []
    for _ in range(instances):
        instance = tiny_oracle_instance(rng)
        t0 = time.perf_counter()
        _, optimum = brute_force_optimum(instance, grid_step=1.0)
        oracle_s = time.perf_counter() - t0
        bound = lower_bound(instance)
        costs = []
        runs = []
        for seed in range(seeds):
            result = solve(instance, SolverConfig(seed=seed, max_generations=generations))
            costs.append(np.inf if result.best_feasible is None else result.best_feasible[1].total)
            runs.append(result.generations_run)
        costs = np.array(costs)
        median_gap = float(np.median((costs - optimum) / optimum))
        below = bool(np.any(costs < bound - 1e-9))
        rows.append(Agreement(instance, optimum, bound, median_gap, below, tuple(runs), oracle_s))
    return rows


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
