"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 1-3 and 8 audit the bundled production tables and capacity data;
4-6 validate the solver against the independent oracles and its own unit
properties; 7 checks end-to-end determinism through the CLI.
"""

import json
import time

import numpy as np
import pytest

from pdnet.cli import EXIT_OK, main
from pdnet.network import FlowPlan, evaluate_constraints
from pdnet.nsga2 import SolverConfig, decode, decode_batch, solve
from pdnet.scenarios import build_scenario, check_schedule, compare_scenarios, load_schedule_file
from pdnet.serialize import data_path, save_instance

from conftest import oracle_agreement, random_instance, single_chain, tiny_oracle_instance
from test_nsga2 import brute_fronts, front_crowding, fronts_of


def announce(capsys, criterion, label, ok):
    with capsys.disabled():
        print(f"\ncriterion {criterion} ({label}): {'PASS' if ok else 'FAIL'}")


def audited(name, scenario, strict=False):
    table = load_schedule_file(data_path(name))
    return check_schedule(table, build_scenario(scenario), strict_per_dc=strict)


def test_criterion_1_table_totals(capsys):
    t0 = time.perf_counter()
    totals = {}
    for name, scenario in (
        ("table1.csv", "baseline"),
        ("table2.csv", "dc_expansion"),
        ("table3.csv", "network_expansion"),
    ):
        audit = audited(name, scenario)
        totals[name] = (audit.grand_total_rows, audit.grand_total_cols)
    elapsed = time.perf_counter() - t0
    ok = (
        totals["table1.csv"] == (50493, 50493)
        and totals["table2.csv"] == (58558, 58558)
        and totals["table3.csv"] == (117110, 117110)
        and elapsed < 3.0  # three audits, < 1 s each
    )
    announce(capsys, 1, "table fixture totals", ok)
    assert ok, totals


def test_criterion_2_capacity_flags(capsys):
    plain = audited("table1.csv", "baseline")
    strict = audited("table1.csv", "baseline", strict=True)
    expansion = audited("table3.csv", "network_expansion", strict=True)

    plant = [b for b in plain.breaches if b.max_utilization is not None]
    one_plant = (
        len(plain.breaches) == 1
        and len(plant) == 1
        and plant[0].entity == "Plant 4"
        and plant[0].total == 13093
        and plant[0].capacity == 12800
        and abs(plant[0].max_utilization - 0.9776) <= 0.0001
    )
    dc = {b.entity: b.total for b in strict.breaches if b.max_utilization is None}
    three_dcs = dc == {"DC 2": 13913, "DC 3": 12371, "DC 4": 12698}
    ok = one_plant and three_dcs and expansion.breaches == ()
    announce(capsys, 2, "capacity breach flags", ok)
    assert ok, (plain.breaches, strict.breaches, expansion.breaches)


def test_criterion_3_percent_claims(capsys):
    base = audited("table1.csv", "baseline")
    dc_up = audited("table2.csv", "dc_expansion")
    net_up = audited("table3.csv", "network_expansion")
    first = compare_scenarios(base, dc_up).pct_change_new_basis
    second = compare_scenarios(base, net_up).pct_change_new_basis
    ok = (
        abs(first - 13.77) <= 0.01
        and abs(first - 13.0) <= 1.0
        and abs(second - 56.88) <= 0.01
        and abs(second - 57.0) <= 0.2
    )
    announce(capsys, 3, "throughput percent claims", ok)
    assert ok, (first, second)


def test_criterion_4_oracle_agreement(capsys):
    t0 = time.perf_counter()
    rows = oracle_agreement(20260823, instances=20, seeds=10, generations=300)
    elapsed = time.perf_counter() - t0
    medians = [row.median_gap for row in rows]
    never_below_lb = not any(row.below_bound for row in rows)
    within_two_pct = [m <= 0.02 for m in medians]
    ok = all(within_two_pct) and never_below_lb and elapsed < 60.0
    announce(capsys, 4, "GA within 2% of the exact optimum", ok)
    assert never_below_lb, "a reported feasible cost fell below the lower bound"
    assert elapsed < 60.0, f"benchmark took {elapsed:.1f}s"
    assert all(within_two_pct), (
        f"{sum(not w for w in within_two_pct)}/20 instance medians exceed 2%: "
        f"{sorted(round(m, 4) for m in medians if m > 0.02)}"
    )


def test_criterion_5_feasibility_soundness(capsys):
    rng = np.random.default_rng(11)
    sound = True
    for _ in range(5):
        instance = tiny_oracle_instance(rng)
        # a window as long as the budget: the final front is generation 120's, not the one the bound stops at
        config = SolverConfig(seed=int(rng.integers(0, 100)), max_generations=120, stall_generations=120)
        result = solve(instance, config)
        if result.best_feasible is None:
            continue
        plan, _ = result.best_feasible
        if evaluate_constraints(instance, plan, tolerance=1e-9).total_violation != 0.0:
            sound = False
        front = result.final_front
        r, p, t = decode_batch(front.genes, instance)  # the front's plans, in one decode
        for q in np.flatnonzero(front.violation == 0.0):
            if evaluate_constraints(instance, FlowPlan(r[q], p[q], t[q]), tolerance=1e-9).total_violation != 0.0:
                sound = False

    demand_ok = True
    for _ in range(10):
        instance = random_instance(rng)
        genes = rng.random((1000, instance.num_genes))
        for row in genes:
            plan = decode(row, instance)
            shipped = plan.dc_retailer_flow.sum(axis=0)
            if np.any(np.abs(shipped - instance.demand) > 1e-9 * np.maximum(1.0, instance.demand)):
                demand_ok = False
    ok = sound and demand_ok
    announce(capsys, 5, "feasibility soundness", ok)
    assert ok, (sound, demand_ok)


def test_criterion_6_nsga2_unit_properties(capsys):
    rng = np.random.default_rng(6)
    sort_ok = True
    for _ in range(1000):
        objs = rng.integers(0, 8, size=(int(rng.integers(1, 33)), 2)).astype(float)
        if fronts_of(objs) != brute_fronts(objs):
            sort_ok = False
            break

    crowd_ok = True
    for _ in range(200):
        objs = rng.random((int(rng.integers(3, 24)), 2))
        d = front_crowding(objs)
        extremes = set()
        for m in range(2):
            col = objs[:, m]
            extremes |= set(np.flatnonzero(col == col.min()))
            extremes |= set(np.flatnonzero(col == col.max()))
        infinite = set(np.flatnonzero(np.isinf(d)))
        # every per-objective extreme value is represented among the infinite
        # points, and nothing else is infinite
        if not infinite <= extremes:
            crowd_ok = False
        for m in range(2):
            col = objs[:, m]
            if not any(col[i] == col.min() for i in infinite) or not any(
                col[i] == col.max() for i in infinite
            ):
                crowd_ok = False

    elitism_ok = True
    for seed in range(5):
        # the whole 60 generations: a run that stopped at the bound would leave an empty trace
        result = solve(single_chain(), SolverConfig(seed=seed, max_generations=60, stall_generations=60))
        best = [r.best_feasible_cost for r in result.trace if r.best_feasible_cost is not None]
        if any(b2 > b1 for b1, b2 in zip(best, best[1:])):
            elitism_ok = False

    ok = sort_ok and crowd_ok and elitism_ok
    announce(capsys, 6, "NSGA-II unit properties", ok)
    assert ok, (sort_ok, crowd_ok, elitism_ok)


def test_criterion_7_cli_determinism(capsys, tmp_path):
    instance_path = str(data_path("baseline.instance.json"))
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / f"result-{run}.json"
        trace = tmp_path / f"trace-{run}.csv"
        code = main(
            ["solve", instance_path, "--seed", "7", "--out", str(out), "--trace", str(trace)]
        )
        blobs.append((code, out.read_bytes(), trace.read_bytes()))
    ok = blobs[0] == blobs[1] and json.loads(blobs[0][1]) is not None
    announce(capsys, 7, "CLI determinism", ok)
    assert ok


def test_criterion_8_scenario_data_fidelity(capsys):
    baseline = build_scenario("baseline")
    dc_up = build_scenario("dc_expansion")
    net_up = build_scenario("network_expansion")
    ok = (
        baseline.plant_capacities.tolist() == [12800, 12000, 25600, 12800]
        and baseline.dc_capacities.tolist() == [12000] * 4
        and dc_up.plant_capacities.tolist() == [12800, 12000, 25600, 12800]
        and dc_up.dc_capacities.tolist() == [15000] * 4
        and net_up.plant_capacities.tolist() == [15000, 15000, 15000, 30000, 15000, 15000, 15000]
        and net_up.dc_capacities.tolist() == [15000] * 8
    )
    announce(capsys, 8, "scenario capacity fidelity", ok)
    assert ok
