import ast
import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdnet import oracle
from pdnet.network import NetworkInstance, evaluate_constraints, evaluate_cost
from pdnet.oracle import OracleError, brute_force_optimum, exact_optimum, lower_bound
from pdnet.scenarios import default_instance

from conftest import criterion_4_instances, family_lp, random_instance, single_chain, tiny_oracle_instance

# the constraint families whose rows cover a need: a plan short on one is priced below what it must cost
COVER_FAMILIES = ("demand_mismatch", "production_vs_shipment", "raw_per_plant", "dc_throughput")


def reference_boxes(instance):
    """Upper bound per flow variable in the order [r (S,K) | p (K,J) | t (J,I)], row-major.

    Each flow is boxed by the one capacity or demand at its own end, so the
    boxes imply neither supplier capacity (with K >= 2) nor plant capacity
    (with J >= 2): the lattice holds points that breach each of them.
    """
    s, k, j, i = instance.counts
    r_up = instance.supplier_capacity.repeat(k)
    p_up = (instance.plant_capacity / instance.utilization).repeat(j)
    return np.concatenate([r_up, p_up, np.tile(instance.demand, j)])


def reference_violations(instance, x):
    """Total violation per lattice point, each row judged on its own at the 1e-9 tolerance."""
    s, k, j, i = instance.counts
    n = x.shape[0]
    r = x[:, : s * k].reshape(n, s, k)
    p = x[:, s * k : s * k + k * j].reshape(n, k, j)
    t = x[:, s * k + k * j :].reshape(n, j, i)
    u = instance.utilization
    tol = 1e-9

    v = np.zeros(n)
    v += max(0.0, instance.demand.sum() - instance.dc_capacity.sum())
    v += np.maximum(0.0, t.sum(axis=(1, 2)) - p.sum(axis=(1, 2)))
    mism = np.abs(t.sum(axis=1) - instance.demand[None, :])
    v += np.where(mism > tol * np.maximum(1.0, instance.demand), mism, 0.0).sum(axis=1)
    prod = p.sum(axis=2)
    v += np.maximum(0.0, u * prod - r.sum(axis=1) - tol * np.maximum(1.0, u * prod)).sum(axis=1)
    v += np.maximum(
        0.0, u * prod - instance.plant_capacity[None, :] - tol * np.maximum(1.0, instance.plant_capacity[None, :])
    ).sum(axis=1)
    v += np.maximum(
        0.0, r.sum(axis=2) - instance.supplier_capacity[None, :] - tol * np.maximum(1.0, instance.supplier_capacity[None, :])
    ).sum(axis=1)
    if instance.strict_per_dc:
        arrivals = p.sum(axis=1)
        v += np.maximum(0.0, arrivals - instance.dc_capacity[None, :]).sum(axis=1)
        v += np.maximum(0.0, t.sum(axis=2) - arrivals).sum(axis=1)
    return v


def reference_prices(instance):
    """Unit cost of every flow variable, as rows of [r | p | t] price them."""
    route = instance.plant_dc_unit_cost + instance.holding_unit_cost[None, :]
    raw = np.repeat(instance.raw_unit_cost, instance.num_plants)
    return np.concatenate([raw, route.ravel(), instance.dc_retailer_unit_cost.ravel()])


def reference_lattice(instance, grid_step):
    """Every lattice point in index (lexicographic) order, as rows of [r | p | t]."""
    uppers = reference_boxes(instance)
    levels = (1 + np.ceil(uppers / grid_step)).astype(np.int64)
    strides = np.ones(uppers.size, dtype=np.int64)
    for v in range(uppers.size - 2, -1, -1):
        strides[v] = strides[v + 1] * levels[v + 1]
    idx = np.arange(int(np.prod(levels)), dtype=np.int64)
    x = ((idx[:, None] // strides[None, :]) % levels[None, :]).astype(np.float64)
    return np.minimum(x * grid_step, uppers[None, :])


def reference_brute_force(instance, grid_step):
    """Row-by-row enumeration of the whole lattice: the cheapest feasible point's cost, None if none is feasible."""
    x = reference_lattice(instance, grid_step)
    feas = np.flatnonzero(reference_violations(instance, x) == 0.0)
    return float((x[feas] @ reference_prices(instance)).min()) if feas.size else None


def small_lattice_instance(rng, grid_step, integer, strict, max_points=3000):
    """Random instance whose lattice at grid_step has at most max_points points.

    Integer draws use u in {0.5, 1, 2}, so every box bound and every lattice
    cost is exact in binary; fractional draws use any u in [0.5, 2].
    Capacities reach below demand, so some draws are infeasible.
    """
    while True:
        s, k, j, i = (int(c) for c in rng.integers(1, 3, size=4))
        if integer:
            draw = lambda lo, hi, size: rng.integers(lo, hi + 1, size=size).astype(float)
            u = float(rng.choice([0.5, 1.0, 2.0]))
        else:
            draw = lambda lo, hi, size: rng.uniform(lo, hi, size=size)
            u = float(rng.uniform(0.5, 2.0))
        instance = NetworkInstance(
            num_suppliers=s,
            num_plants=k,
            num_dcs=j,
            num_retailers=i,
            supplier_capacity=draw(0, 6, s),
            plant_capacity=draw(0, 6, k),
            dc_capacity=draw(0, 4, j),
            demand=draw(0, 3, i),
            raw_unit_cost=draw(1, 5, s),
            holding_unit_cost=draw(0, 3, j),
            plant_dc_unit_cost=draw(1, 7, (k, j)),
            dc_retailer_unit_cost=draw(1, 7, (j, i)),
            utilization=u,
            strict_per_dc=strict,
        )
        if np.prod(1 + np.ceil(reference_boxes(instance) / grid_step)) <= max_points:
            return instance


def optimum_or_none(instance):
    try:
        return exact_optimum(instance)
    except OracleError:
        return None


def chain(strict=False, **fields):
    """``single_chain``'s worked example, with fields replaced."""
    return dataclasses.replace(single_chain(), strict_per_dc=strict, **fields)


class TestAgainstTheFamilyLP:
    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_same_verdict_and_optimum(self, seed, strict):
        inst = dataclasses.replace(random_instance(np.random.default_rng(seed)), strict_per_dc=strict)
        lp = family_lp(inst)
        found = optimum_or_none(inst)
        assert (found is None) == (lp is None)
        if lp is not None:
            assert found[1] == pytest.approx(lp, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("strict", [False, True])
    def test_only_the_dc_storage_row_fails(self, strict):
        # DC storage holds 9 of the 10 cases; suppliers and plants hold 20
        inst = chain(strict, dc_capacity=[9.0])
        with pytest.raises(OracleError, match="^DC storage 9 falls short of the 10 the demand needs$"):
            exact_optimum(inst)
        assert family_lp(inst) is None
        # without the storage row, aggregate mode has no other DC row; strict mode's per-DC capacity still fails
        assert (family_lp(inst, drop=("dc_storage",)) is None) == strict

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"supplier_capacity": [19.0], "utilization": 2.0}, "supplier capacity 19 falls short of the 20"),
            ({"plant_capacity": [9.0]}, "plant capacity 9 falls short of the 10"),
            ({"plant_capacity": [19.0], "utilization": 2.0}, "plant capacity 9.5 falls short of the 10"),
        ],
        ids=["supplier", "plant", "plant-at-u-2"],
    )
    def test_a_total_that_falls_short_is_named(self, fields, message, strict):
        inst = chain(strict, **fields)
        with pytest.raises(OracleError, match=f"^{message} the demand needs$"):
            exact_optimum(inst)
        assert family_lp(inst) is None


class TestAgainstTheRowByRowReference:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1.0, 0.5]),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_no_lattice_point_is_cheaper(self, seed, grid_step, integer, strict):
        # every feasible lattice point is a plan, so none costs less than the optimum; with
        # integer data and u = 1 the flow matrix is totally unimodular and the optimum is a lattice point
        inst = small_lattice_instance(np.random.default_rng(seed), grid_step, integer, strict)
        ref = reference_brute_force(inst, grid_step)
        found = optimum_or_none(inst)
        if found is None:
            assert ref is None
            return
        if ref is not None:
            assert found[1] <= ref + 1e-9 * max(1.0, ref)
        if integer and inst.utilization == 1.0:
            assert ref == found[1]


class TestExactOptimum:
    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_plan_is_feasible_covers_every_need_and_is_priced_as_evaluate_cost_prices_it(self, seed, strict):
        inst = dataclasses.replace(random_instance(np.random.default_rng(seed)), strict_per_dc=strict)
        found = optimum_or_none(inst)
        if found is None:
            return
        plan, cost = found
        assert evaluate_constraints(inst, plan).total_violation == 0.0
        exact = evaluate_constraints(inst, plan, tolerance=0.0).residuals
        assert all(exact[name].min() >= 0.0 for name in COVER_FAMILIES if name in exact)
        assert cost == evaluate_cost(inst, plan).total

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_strict_mode_never_costs_less_than_aggregate_mode(self, seed):
        # strict per-DC mode only adds constraints, and both modes share the feasibility checks
        inst = random_instance(np.random.default_rng(seed))
        aggregate, strict = (optimum_or_none(dataclasses.replace(inst, strict_per_dc=m)) for m in (False, True))
        assert (aggregate is None) == (strict is None)
        if aggregate is not None:
            assert strict[1] >= aggregate[1] - 1e-9 * max(1.0, aggregate[1])

    def test_the_oracle_does_not_import_the_solver_it_checks(self):
        tree = ast.parse(inspect.getsource(oracle))
        imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        assert not [name for name in imported if name and "nsga2" in name]

    @pytest.mark.parametrize("strict", [False, True])
    def test_criterion_4_instances(self, strict):
        costs = []
        for inst in criterion_4_instances(20):
            inst = dataclasses.replace(inst, strict_per_dc=strict)
            plan, cost = exact_optimum(inst)
            assert cost == round(cost)  # integer data, u = 1: a totally unimodular flow
            assert evaluate_constraints(inst, plan, tolerance=0.0).total_violation == 0.0
            assert cost >= lower_bound(inst)
            costs.append(cost)
        if strict:
            assert (costs[5], costs[17]) == (37.0, 58.0)
        else:
            assert costs == [lower_bound(inst) for inst in criterion_4_instances(20)]

    @pytest.mark.parametrize(
        "name, strict, optimum",
        [
            ("baseline", False, 4_416_602.105263158),
            ("baseline", True, 4_704_882.105263158),
            ("dc_expansion", False, 4_416_602.105263158),
            ("dc_expansion", True, 4_638_082.105263158),
            ("network_expansion", False, 11_585_105.263157895),
            ("network_expansion", True, 13_030_105.263157895),
        ],
    )
    def test_bundled_scenarios(self, name, strict, optimum):
        inst = dataclasses.replace(default_instance(name), strict_per_dc=strict)
        plan, cost = exact_optimum(inst)
        assert cost == pytest.approx(optimum, rel=1e-12)
        assert evaluate_constraints(inst, plan).total_violation == 0.0

    @pytest.mark.parametrize("strict", [False, True])
    def test_perfbench_alias_is_the_exact_optimum(self, strict):
        inst = dataclasses.replace(criterion_4_instances(13)[12], strict_per_dc=strict)
        assert brute_force_optimum(inst, grid_step=1.0) == exact_optimum(inst)

    @pytest.mark.parametrize("strict", [False, True])
    def test_worked_example(self, strict):
        plan, cost = exact_optimum(chain(strict))
        assert cost == 100.0
        assert (plan.raw_flow[0, 0], plan.plant_dc_flow[0, 0], plan.dc_retailer_flow[0, 0]) == (10.0, 10.0, 10.0)

    @pytest.mark.parametrize("strict", [False, True])
    def test_zero_demand(self, strict):
        plan, cost = exact_optimum(chain(strict, demand=[0.0]))
        assert cost == 0.0
        assert plan.raw_flow.sum() == plan.plant_dc_flow.sum() == plan.dc_retailer_flow.sum() == 0.0

    def test_utilization_doubles_raw_purchase(self):
        # 10 cases at u = 2 need 20 raw: 2*20 + (3 + 1 + 4)*10
        plan, cost = exact_optimum(chain(utilization=2.0, supplier_capacity=[40.0], plant_capacity=[40.0]))
        assert cost == 120.0
        assert plan.raw_flow[0, 0] == 20.0
        assert plan.plant_dc_flow[0, 0] == 10.0

    def test_raw_comes_from_the_cheapest_suppliers_first(self):
        # 10 cases need 10 raw: the supplier at 1 has 6, the one at 2 the other 4, the one at 3 none
        inst = dataclasses.replace(
            single_chain(),
            num_suppliers=3,
            supplier_capacity=[20.0, 6.0, 20.0],
            raw_unit_cost=[3.0, 1.0, 2.0],
        )
        plan, _ = exact_optimum(inst)
        assert plan.raw_flow.tolist() == [[0.0], [6.0], [4.0]]

    def test_routes_through_cheap_plant(self):
        inst = NetworkInstance(
            num_suppliers=1,
            num_plants=2,
            num_dcs=1,
            num_retailers=1,
            supplier_capacity=[20],
            plant_capacity=[10, 10],
            dc_capacity=[10],
            demand=[4],
            raw_unit_cost=[1],
            holding_unit_cost=[1],
            plant_dc_unit_cost=[[1], [5]],
            dc_retailer_unit_cost=[[1]],
            utilization=1.0,
        )
        plan, cost = exact_optimum(inst)
        assert plan.plant_dc_flow.tolist() == [[4.0], [0.0]]
        assert cost == 4 * (1 + 2 + 1)

    def test_a_full_plant_passes_the_rest_to_the_next_route(self):
        # plant 0's route costs 2, plant 1's 6; plant 0 makes at most 3 of the 5 cases
        inst = NetworkInstance(
            num_suppliers=1,
            num_plants=2,
            num_dcs=1,
            num_retailers=1,
            supplier_capacity=[20],
            plant_capacity=[3, 10],
            dc_capacity=[10],
            demand=[5],
            raw_unit_cost=[1],
            holding_unit_cost=[1],
            plant_dc_unit_cost=[[1], [5]],
            dc_retailer_unit_cost=[[1]],
            utilization=1.0,
        )
        plan, cost = exact_optimum(inst)
        assert plan.plant_dc_flow.tolist() == [[3.0], [2.0]]
        assert plan.raw_flow.tolist() == [[3.0, 2.0]]
        assert cost == 5 * 1 + 3 * 2 + 2 * 6 + 5 * 1

    def test_a_cost_tie_goes_to_the_first_cheapest_route_and_dc(self):
        # both DCs cost 2 per case to fill and 3 per case to deliver from, so
        # any split of the 2 cases is optimal; the aggregate greedy takes DC 0
        inst = NetworkInstance(
            num_suppliers=1,
            num_plants=1,
            num_dcs=2,
            num_retailers=1,
            supplier_capacity=[4],
            plant_capacity=[4],
            dc_capacity=[2, 2],
            demand=[2],
            raw_unit_cost=[1],
            holding_unit_cost=[1, 0],
            plant_dc_unit_cost=[[1, 2]],
            dc_retailer_unit_cost=[[3], [3]],
            utilization=1.0,
        )
        plan, cost = exact_optimum(inst)
        assert cost == 2 * (1 + 2 + 3)
        assert plan.plant_dc_flow.tolist() == [[2.0, 0.0]]
        assert plan.dc_retailer_flow.tolist() == [[2.0], [0.0]]

    def test_strict_dc_capacity_forces_a_split(self):
        # DC 0 is cheaper on both legs but holds 3 of the 4 cases demanded:
        # in aggregate mode it takes all 4, in strict mode one goes via DC 1
        inst = NetworkInstance(
            num_suppliers=1,
            num_plants=1,
            num_dcs=2,
            num_retailers=1,
            supplier_capacity=[8],
            plant_capacity=[8],
            dc_capacity=[3, 3],
            demand=[4],
            raw_unit_cost=[1],
            holding_unit_cost=[1, 1],
            plant_dc_unit_cost=[[1, 2]],
            dc_retailer_unit_cost=[[1], [3]],
            utilization=1.0,
        )
        plan, cost = exact_optimum(inst)
        assert cost == 4 * 1 + 4 * (1 + 1) + 4 * 1
        assert plan.plant_dc_flow.tolist() == [[4.0, 0.0]]
        assert plan.dc_retailer_flow.tolist() == [[4.0], [0.0]]

        plan, cost = exact_optimum(dataclasses.replace(inst, strict_per_dc=True))
        assert cost == 4 * 1 + 3 * (1 + 1) + 1 * (2 + 1) + 3 * 1 + 1 * 3
        assert plan.raw_flow.tolist() == [[4.0]]
        assert plan.plant_dc_flow.tolist() == [[3.0, 1.0]]
        assert plan.dc_retailer_flow.tolist() == [[3.0], [1.0]]

    @pytest.mark.parametrize("strict", [False, True])
    def test_optimum_is_feasible(self, strict):
        rng = np.random.default_rng(31)
        for _ in range(5):
            inst = dataclasses.replace(tiny_oracle_instance(rng), strict_per_dc=strict)
            plan, cost = exact_optimum(inst)
            assert evaluate_constraints(inst, plan).total_violation == 0.0
            assert evaluate_cost(inst, plan).total == cost

    @pytest.mark.parametrize("strict", [False, True])
    def test_cost_monotone_in_unit_costs(self, strict):
        inst = dataclasses.replace(tiny_oracle_instance(np.random.default_rng(55)), strict_per_dc=strict)
        _, base = exact_optimum(inst)
        for name in ("raw_unit_cost", "holding_unit_cost", "plant_dc_unit_cost", "dc_retailer_unit_cost"):
            _, raised = exact_optimum(dataclasses.replace(inst, **{name: getattr(inst, name) + 2.0}))
            assert raised >= base


class TestLowerBound:
    def test_tight_on_single_chain(self):
        assert lower_bound(single_chain()) == pytest.approx(100.0)

    def test_zero_demand(self):
        assert lower_bound(single_chain(d=0.0)) == 0.0

    @given(st.integers(0, 10**9), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_sandwich_below_the_exact_optimum(self, seed, strict):
        rng = np.random.default_rng(seed)
        inst = dataclasses.replace(tiny_oracle_instance(rng), strict_per_dc=strict)
        _, cost = exact_optimum(inst)
        assert lower_bound(inst) <= cost + 1e-9
