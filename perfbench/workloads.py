"""The benchmark's workloads, their input generators and their output checks.

Every workload is a sequence of cycles.  Cycle ``i`` depends only on the
workload seed and ``i``, so a traced pass can replay exactly the cycles an
untraced pass ran.  The program is reached only through its public entry
points: ``pdnet.nsga2.solve``, ``pdnet.oracle.brute_force_optimum`` and
``lower_bound``, ``pdnet.scenarios``, ``pdnet.serialize`` and ``pdnet.cli.main``.
See README.md beside this file for why each workload is there.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import time
from collections import defaultdict

import numpy as np

# Criterion 4 draws 20 instances from this master seed and solves each at the
# pinned defaults with 300 generations.
CRITERION_4_MASTER_SEED = 20260823
CRITERION_4_INSTANCES = 20
TINY_GENERATIONS = 300
SCENARIO_GENERATIONS = 2000
# Every scenario solve runs all 2000 generations (the stall stop is off), so a
# solve's time measures the solver's speed, not the generation it stalled at.
SCENARIO_STALL_GENERATIONS = SCENARIO_GENERATIONS
# Short enough that reading and writing files is a visible share of `pdnet solve`.
CLI_GENERATIONS = 5
# cli-io's oracle reads a tiny instance of at most this many genes, so that its
# lattice stays small and file handling, not enumeration, dominates the command.
CLI_ORACLE_MAX_GENES = 5
CLI_TINY_POOL = 8
WARM_UP_GENERATIONS = 20

AUDIT_TOTALS = {"baseline": 50493, "dc_expansion": 58558, "network_expansion": 117110}
COMPARISONS = (("baseline", "dc_expansion", "13.77"), ("baseline", "network_expansion", "56.88"))
TABLES = {"baseline": "table1.csv", "dc_expansion": "table2.csv", "network_expansion": "table3.csv"}


def tiny_instance(rng, network):
    """The criterion-4 instance generator: integer, at most 1x2x2x2, u = 1.

    Must draw exactly what ``tests/conftest.py::tiny_oracle_instance`` draws;
    ``test_perfbench.py`` checks that it does.
    """
    k = int(rng.integers(1, 3))
    j = int(rng.integers(1, 3))
    i = int(rng.integers(1, 3))
    demand = rng.integers(1, 4, size=i).astype(float)
    total = demand.sum()
    plant_cap = 2.0 * np.ceil((total / k + rng.integers(0, 3, size=k)) / 2.0) + 2.0
    dc_cap = rng.integers(int(total), int(total) + 6, size=j).astype(float)
    supplier_cap = np.array([2.0 * np.ceil(total / 2.0) + 2.0 * rng.integers(1, 4)])
    return network.NetworkInstance(
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


class Stats:
    """Samples, counts and failures of one measured pass."""

    def __init__(self):
        self.samples = defaultdict(list)
        self.counts = defaultdict(int)
        self.attempted = 0
        self.failures = []
        self.cycles = 0
        self.wall_s = 0.0

    @property
    def failed(self):
        return len(self.failures)

    def op(self, sample, call, check=None):
        """Time one call into the program; a raise or a failed check is a failure.

        Returns the call's result, or None when it failed.
        """
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            result = call()
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            problem = check(result) if check is not None else None
        except Exception as exc:  # the benchmark must keep running and report it
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{sample}: {problem}")
            return None
        self.samples[sample].append(elapsed_ms)
        return result

    def solve_outcome(self, generations, solve_ms, improving):
        self.counts["solves"] += 1
        self.counts["generations"] += generations
        self.counts["improving_generations"] += improving
        self.samples["solve_s"].append(solve_ms / 1e3)


class SeedStream:
    """Solver seeds drawn from the workload seed; the i-th is the same on every replay."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._seeds = []

    def __getitem__(self, i):
        while len(self._seeds) <= i:
            self._seeds.append(int(self._rng.integers(0, 2**31)))
        return self._seeds[i]


def improving_generations(best_costs):
    """Generations whose best feasible cost improved on the one before (None = none yet)."""
    count, prev = 0, None
    for best in best_costs:
        if best is not None and (prev is None or best < prev):
            count += 1
        prev = best if best is not None else prev
    return count


def rooted(tracer, name, fn, *args, **kwargs):
    """Call ``fn``; inside a root span when tracing."""
    if tracer is None:
        return fn(*args, **kwargs)
    with tracer.span(name):
        return fn(*args, **kwargs)


def plan_problem(pd, instance, plan, cost, lower, what):
    """Output check shared by every reported plan: feasible, priced right, above the bound."""
    if pd.network.evaluate_constraints(instance, plan, tolerance=1e-9).total_violation != 0.0:
        return f"{what}: reported plan violates the constraints"
    recomputed = pd.network.evaluate_cost(instance, plan).total
    if abs(recomputed - cost) > 1e-9 * max(1.0, abs(cost)):
        return f"{what}: reported cost {cost!r} but the plan costs {recomputed!r}"
    if cost < lower - 1e-9:
        return f"{what}: cost {cost!r} below the lower bound {lower!r}"
    return None


class _Solving:
    """Shared by the two workloads that call ``solve`` in process."""

    def _solve(self, stats, tracer, label, instance, lower, config):
        pd = self.pd
        result = stats.op(
            "solve_ms",
            lambda: rooted(tracer, "nsga2.solve", pd.nsga2.solve, instance, config),
            check=lambda r: r.best_feasible
            and plan_problem(pd, instance, r.best_feasible[0], r.best_feasible[1].total, lower, label),
        )
        if result is None:
            return None
        solve_ms = stats.samples["solve_ms"][-1]
        stats.samples[f"solve_ms:{label}"].append(solve_ms)
        stats.solve_outcome(
            result.generations_run, solve_ms, improving_generations([g.best_feasible_cost for g in result.trace])
        )
        stats.counts[f"solves:{label}"] += 1
        if result.best_feasible is None:
            return None
        cost = result.best_feasible[1].total
        stats.counts["feasible"] += 1
        stats.counts[f"feasible:{label}"] += 1
        stats.samples["lb_gap_pct"].append(100.0 * (cost - lower) / lower)
        return cost


class TinyOracle(_Solving):
    """Criterion 4's 20 instances, visited in turn, one solve per visit.

    Every visit also runs ``lower_bound`` and ``brute_force_optimum``, so
    their samples span the whole run.  Every run measures the same instances,
    so the seed, which picks the solver seeds, does not change which
    instances make up the median.
    """

    name = "tiny-oracle"

    def __init__(self, pd, seed, workdir):
        self.pd = pd
        rng = np.random.default_rng(CRITERION_4_MASTER_SEED)
        self.instances = [tiny_instance(rng, pd.network) for _ in range(CRITERION_4_INSTANCES)]
        self.seeds = SeedStream(seed)
        pd.nsga2.solve(self.instances[0], pd.nsga2.SolverConfig(max_generations=WARM_UP_GENERATIONS))

    def cycle(self, i, stats, tracer):
        pd = self.pd
        k = i % len(self.instances)
        instance = self.instances[k]
        lower = stats.op("lb_ms", lambda: rooted(tracer, "oracle.lower_bound", pd.oracle.lower_bound, instance))
        if lower is None:
            return
        found = stats.op(
            "oracle_ms",
            lambda: rooted(tracer, "oracle.brute_force", pd.oracle.brute_force_optimum, instance, grid_step=1.0),
            check=lambda r: plan_problem(pd, instance, r[0], r[1], lower, "brute_force_optimum"),
        )
        optimum = None
        if found is not None:
            optimum = found[1]
            stats.samples[f"oracle_ms:{k}"].append(stats.samples["oracle_ms"][-1])
        config = pd.nsga2.SolverConfig(seed=self.seeds[i], max_generations=TINY_GENERATIONS)
        cost = self._solve(stats, tracer, f"instance {k}", instance, lower, config)
        if optimum is None:
            return
        gap = np.inf if cost is None else 100.0 * (cost - optimum) / optimum
        if cost is not None:
            stats.samples["oracle_gap_pct"].append(gap)
        stats.samples[f"gaps:{k}"].append(gap)


class ScenarioSolve(_Solving):
    """The bundled scenarios at 2000 generations; dc_expansion in strict per-DC mode."""

    name = "scenario-solve"
    CASES = (("baseline", False), ("dc_expansion", True), ("network_expansion", False))

    def __init__(self, pd, seed, workdir):
        self.pd = pd
        self.seeds = SeedStream(seed)
        self.cases = []
        for name, strict in self.CASES:
            instance = pd.scenarios.default_instance(name)
            if strict:
                instance = dataclasses.replace(instance, strict_per_dc=True)
            label = name + ("-strict" if strict else "")
            self.cases.append((label, instance, pd.oracle.lower_bound(instance)))
            pd.nsga2.solve(instance, pd.nsga2.SolverConfig(max_generations=WARM_UP_GENERATIONS))

    def cycle(self, i, stats, tracer):
        for c, (label, instance, lower) in enumerate(self.cases):
            config = self.pd.nsga2.SolverConfig(
                seed=self.seeds[len(self.cases) * i + c],
                max_generations=SCENARIO_GENERATIONS,
                stall_generations=SCENARIO_STALL_GENERATIONS,
            )
            self._solve(stats, tracer, label, instance, lower, config)


class CliIO:
    """``pdnet.cli.main`` in process over a fixed mix of commands in a work directory."""

    name = "cli-io"

    def __init__(self, pd, seed, workdir):
        self.pd = pd
        self.dir = workdir
        rng = np.random.default_rng(seed)
        self.tiny = []  # (path, instance, lower bound)
        while len(self.tiny) < CLI_TINY_POOL:
            instance = tiny_instance(rng, pd.network)
            if instance.num_genes > CLI_ORACLE_MAX_GENES:
                continue
            path = self._path(f"tiny{len(self.tiny)}.instance.json")
            pd.serialize.save_instance(instance, path)
            self.tiny.append((path, instance, pd.oracle.lower_bound(instance)))
        self.seeds = SeedStream([seed, 1])
        self.emitted = {
            name: pd.serialize.dumps_instance(pd.scenarios.default_instance(name)) for name in TABLES
        }
        self._first_solve = None  # (result bytes, trace bytes) of the seed's first solve
        self._last_solve = None  # (generations, improving generations) of the last solve checked
        for _, argv, _ in self.commands(0):  # warm-up: one pass, unchecked
            self._main(argv, None)

    def _path(self, name):
        return os.path.join(self.dir, name)

    def _main(self, argv, tracer):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = rooted(tracer, "cli.main", self.pd.cli.main, argv)
        return code, out.getvalue(), err.getvalue()

    def commands(self, i):
        """(label, argv, check) for cycle ``i``; each check returns a problem or None."""
        cmds = []
        for name in TABLES:
            cmds.append(("scenario", ["scenario", name, "--emit", self.dir], self._check_emit(name)))
        for name in TABLES:
            path = self._path(f"{name}.instance.json")
            cmds.append(("check", ["check", path], _expect_ok_line))
        for name, table in TABLES.items():
            argv = ["audit", self._path(table), "--scenario", name, "--json"]
            cmds.append(("audit", argv, self._check_audit(name)))
        for a, b, pct in COMPARISONS:
            argv = ["compare", self._path(TABLES[a]), self._path(TABLES[b]), "--scenario-a", a, "--scenario-b", b]
            cmds.append(("compare", argv, _check_compare(pct)))
        path, instance, lower = self.tiny[i % len(self.tiny)]
        seed = str(self.seeds[i])
        for run in ("a", "b"):
            out, trace = self._path(f"result-{run}.json"), self._path(f"trace-{run}.csv")
            argv = ["solve", path, "--seed", seed, "--generations", str(CLI_GENERATIONS), "--out", out, "--trace", trace]
            cmds.append(("solve", argv, self._check_solve(instance, lower, out, trace, repeat=run == "b")))
        cmds.append(("oracle", ["oracle", path], self._check_oracle(instance, lower)))
        cmds.append(("check", ["check", path], _expect_ok_line))
        return cmds

    def cycle(self, i, stats, tracer):
        for label, argv, check in self.commands(i):
            self._last_solve = None
            if stats.op("cli_ms", lambda: self._main(argv, tracer), check=check) is None:
                continue
            latency = stats.samples["cli_ms"][-1]
            stats.samples[f"cli_ms:{label}"].append(latency)
            if label == "solve":
                gens, improving = self._last_solve
                stats.solve_outcome(gens, latency, improving)

    # -- output checks -------------------------------------------------------

    def _check_emit(self, name):
        def check(res):
            code, _, err = res
            if code != 0:
                return f"scenario {name} exited {code}: {err.strip()}"
            with open(self._path(f"{name}.instance.json"), encoding="utf-8") as fh:
                if fh.read() != self.emitted[name]:
                    return f"scenario {name} emitted an instance that differs from default_instance"
            if not os.path.isfile(self._path(TABLES[name])):
                return f"scenario {name} did not emit {TABLES[name]}"
            return None

        return check

    def _check_audit(self, name):
        def check(res):
            code, out, err = res
            if code != 0:
                return f"audit {name} exited {code}: {err.strip()}"
            doc = json.loads(out)
            want = AUDIT_TOTALS[name]
            if doc["grand_total_rows"] != want or doc["grand_total_cols"] != want:
                return f"audit {name}: totals {doc['grand_total_rows']}/{doc['grand_total_cols']}, want {want}"
            return None

        return check

    def _check_solve(self, instance, lower, out_path, trace_path, repeat):
        pd = self.pd

        def check(res):
            code, out, err = res
            with open(out_path, "rb") as fh:
                result_bytes = fh.read()
            with open(trace_path, "rb") as fh:
                trace_bytes = fh.read()
            if repeat and (result_bytes, trace_bytes) != self._first_solve:
                return "a repeated seed gave a different result or trace file"
            self._first_solve = (result_bytes, trace_bytes)
            doc = json.loads(result_bytes)
            best = doc["best_feasible"]
            if code != (0 if best is not None else 1):
                return f"solve exited {code} with best_feasible={'set' if best else 'null'}: {err.strip()}"
            rows = trace_bytes.decode().splitlines()[1:]
            if len(rows) != doc["generations_run"] or f"generations run: {len(rows)} " not in out:
                return f"trace has {len(rows)} rows for {doc['generations_run']} generations"
            if best is not None:
                plan = pd.network.FlowPlan(best["raw_flow"], best["plant_dc_flow"], best["dc_retailer_flow"])
                problem = plan_problem(pd, instance, plan, best["cost_breakdown"]["total"], lower, "pdnet solve")
                if problem:
                    return problem
            best_costs = [float(r.split(",")[1]) if r.split(",")[1] else None for r in rows]
            self._last_solve = (len(rows), improving_generations(best_costs))
            return None

        return check

    def _check_oracle(self, instance, lower):
        pd = self.pd

        def check(res):
            code, out, err = res
            if code != 0:
                return f"oracle exited {code}: {err.strip()}"
            fields = dict(line.split(": ", 1) for line in out.splitlines())
            plan = pd.network.FlowPlan(
                *(json.loads(fields[k]) for k in ("raw_flow", "plant_dc_flow", "dc_retailer_flow"))
            )
            printed = float(fields["optimum cost"])
            cost = pd.network.evaluate_cost(instance, plan).total
            if abs(cost - printed) > 1e-6 * max(1.0, abs(cost)):
                return f"oracle printed cost {printed} for a plan that costs {cost}"
            return plan_problem(pd, instance, plan, cost, lower, "pdnet oracle")

        return check


def _expect_ok_line(res):
    code, out, err = res
    if code != 0 or not out.startswith("ok: "):
        return f"check exited {code}: {(out + err).strip()}"
    return None


def _check_compare(pct):
    def check(res):
        code, out, err = res
        if code != 0 or f"percent change (new basis): {pct}%" not in out:
            return f"compare exited {code}, want {pct}% on the new basis: {(out + err).strip()}"
        return None

    return check


WORKLOADS = {w.name: w for w in (TinyOracle, ScenarioSolve, CliIO)}
