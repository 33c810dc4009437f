import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdnet import oracle
from pdnet.network import FLOW_AXES, FlowPlan, NetworkInstance, evaluate_constraints, evaluate_cost
from pdnet.oracle import (
    NoFeasibleLatticePointError,
    OracleError,
    SearchSpaceTooLargeError,
    _variable_boxes,
    _variable_costs,
    brute_force_optimum,
    lower_bound,
)

from conftest import criterion_4_instances, single_chain, tiny_oracle_instance


def reference_violations(instance, x, grid_step):
    """Total violation per lattice point, each row judged on its own; demand equality at grid_step/2."""
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
    v += np.where(mism > grid_step / 2.0 + tol, mism, 0.0).sum(axis=1)
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
    uppers = _variable_boxes(instance)
    levels = (1 + np.ceil(uppers / grid_step)).astype(np.int64)
    strides = np.ones(uppers.size, dtype=np.int64)
    for v in range(uppers.size - 2, -1, -1):
        strides[v] = strides[v + 1] * levels[v + 1]
    idx = np.arange(int(np.prod(levels)), dtype=np.int64)
    x = ((idx[:, None] // strides[None, :]) % levels[None, :]).astype(np.float64)
    return np.minimum(x * grid_step, uppers[None, :])


def reference_brute_force(instance, grid_step):
    """Row-by-row enumeration of the whole lattice: (feasible, x or None, cost, smallest violation)."""
    x = reference_lattice(instance, grid_step)
    viol = reference_violations(instance, x, grid_step)
    feas = np.flatnonzero(viol == 0.0)
    if not feas.size:
        return False, None, None, float(viol.min())
    costs = x[feas] @ reference_prices(instance)
    a = int(np.argmin(costs))  # first occurrence: lexicographically smallest
    return True, x[feas[a]], float(costs[a]), 0.0


def flat(plan):
    return np.concatenate([getattr(plan, name).ravel() for name in FLOW_AXES])


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
        if np.prod(1 + np.ceil(_variable_boxes(instance) / grid_step)) <= max_points:
            return instance


def assert_matches_reference(inst, grid_step, exact):
    """Same feasibility verdict as the reference; on exact data the same plan
    and cost, elsewhere cost within 1e-12 and the same plan unless another
    plan ties within that; the same smallest violation when nothing is feasible."""
    feasible, x_ref, cost_ref, min_violation = reference_brute_force(inst, grid_step)
    if not feasible:
        with pytest.raises(NoFeasibleLatticePointError) as exc:
            brute_force_optimum(inst, grid_step)
        assert exc.value.min_violation == pytest.approx(min_violation, rel=1e-12)
        return
    plan, cost = brute_force_optimum(inst, grid_step)
    x = flat(plan)
    if exact:
        assert cost == cost_ref
        assert np.array_equal(x, x_ref)
        return
    assert cost == pytest.approx(cost_ref, rel=1e-12)
    if not np.array_equal(x, x_ref):
        assert reference_violations(inst, x[None, :], grid_step)[0] == 0.0
        assert x @ reference_prices(inst) == pytest.approx(cost_ref, rel=1e-12)


class TestAgainstTheRowByRowReference:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1.0, 0.5]),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_verdict_plan_cost_and_smallest_violation(self, seed, grid_step, integer, strict):
        inst = small_lattice_instance(np.random.default_rng(seed), grid_step, integer, strict)
        assert_matches_reference(inst, grid_step, exact=integer)

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_chunks_smaller_than_a_block_give_the_same_answer(self, monkeypatch, chunk):
        # many block chunks and pair sub-blocks: ties resolve across them
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        for seed in range(24):
            rng = np.random.default_rng(seed)
            strict = bool(seed % 2)
            inst = small_lattice_instance(rng, 1.0, integer=True, strict=strict, max_points=400)
            assert_matches_reference(inst, 1.0, exact=True)

    @pytest.mark.parametrize("chunk", [3, 5, 6, oracle._CHUNK])
    def test_a_tie_across_delivery_chunks_goes_to_the_smaller_plan(self, monkeypatch, chunk):
        # two plans cost 14: [r | p | t] = [1 1 | 0 1 1 1 | 1 2] and the larger
        # [1 1 | 0 2 0 1 | 0 3], whose delivery point comes first; at chunks of
        # 3, 5 or 6 points the two lie in different production chunks
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        inst = NetworkInstance(
            num_suppliers=1,
            num_plants=2,
            num_dcs=2,
            num_retailers=1,
            supplier_capacity=[6],
            plant_capacity=[4, 1],
            dc_capacity=[4, 4],
            demand=[3],
            raw_unit_cost=[1],
            holding_unit_cost=[1, 1],
            plant_dc_unit_cost=[[2, 1], [2, 1]],
            dc_retailer_unit_cost=[[1], [2]],
            utilization=0.5,
            strict_per_dc=True,
        )
        plan, cost = brute_force_optimum(inst, grid_step=1.0)
        assert cost == 14.0
        assert plan.raw_flow.tolist() == [[1.0, 1.0]]
        assert plan.plant_dc_flow.tolist() == [[0.0, 1.0], [1.0, 1.0]]
        assert plan.dc_retailer_flow.tolist() == [[1.0], [2.0]]

    @pytest.mark.parametrize("chunk", [3, 5, 6, oracle._CHUNK])
    def test_a_tie_that_differs_first_in_raw_goes_to_the_smaller_plan(self, monkeypatch, chunk):
        # raw is free, so two plans cost 1: [r | p | t] = [1 0 | .5 .5 0 0 | 1 0]
        # and the larger [1 1 | 0 .5 0 .5 | 1 0]; at chunks of 3 points the
        # larger one lies in the same raw chunk but an earlier production chunk
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        inst = NetworkInstance(
            num_suppliers=1,
            num_plants=2,
            num_dcs=2,
            num_retailers=1,
            supplier_capacity=[2],
            plant_capacity=[1, 1],
            dc_capacity=[1, 1],
            demand=[1],
            raw_unit_cost=[0],
            holding_unit_cost=[1, 0],
            plant_dc_unit_cost=[[0, 1], [1, 1]],
            dc_retailer_unit_cost=[[0], [1]],
            utilization=1.0,
        )
        plan, cost = brute_force_optimum(inst, grid_step=1.0)
        assert cost == 1.0
        assert plan.raw_flow.tolist() == [[1.0, 0.0]]
        assert plan.plant_dc_flow.tolist() == [[0.5, 0.5], [0.0, 0.0]]
        assert plan.dc_retailer_flow.tolist() == [[1.0], [0.0]]

    @pytest.mark.parametrize("chunk", [3, 5, 6, oracle._CHUNK])
    def test_a_tie_that_differs_first_in_production_goes_to_the_smaller_plan(self, monkeypatch, chunk):
        # both DCs cost 2 per case to fill and 1 per case to deliver from, so
        # every split of the 2 cases costs 8 with the same raw purchase:
        # [r | p | t] = [2 | 0 2 | 0 2] is the smallest and [2 | 2 0 | 2 0]
        # the largest; at chunks of 3, 5 or 6 points they lie in different
        # production chunks, at the default size in one
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        inst = NetworkInstance(
            num_suppliers=1,
            num_plants=1,
            num_dcs=2,
            num_retailers=1,
            supplier_capacity=[2],
            plant_capacity=[4],
            dc_capacity=[2, 2],
            demand=[2],
            raw_unit_cost=[1],
            holding_unit_cost=[1, 0],
            plant_dc_unit_cost=[[1, 2]],
            dc_retailer_unit_cost=[[1], [1]],
            utilization=1.0,
            strict_per_dc=True,
        )
        plan, cost = brute_force_optimum(inst, grid_step=1.0)
        assert cost == 8.0
        assert plan.raw_flow.tolist() == [[2.0]]
        assert plan.plant_dc_flow.tolist() == [[0.0, 2.0]]
        assert plan.dc_retailer_flow.tolist() == [[0.0], [2.0]]

    @pytest.mark.parametrize("strict", [False, True])
    def test_criterion_4_instances(self, strict):
        rng = np.random.default_rng(20260823)
        for _ in range(20):
            inst = dataclasses.replace(tiny_oracle_instance(rng), strict_per_dc=strict)
            if np.prod(1 + np.ceil(_variable_boxes(inst))) > 300_000:
                continue  # the reference takes about a second on the two 2e6-point lattices
            assert_matches_reference(inst, 1.0, exact=True)

    @pytest.mark.parametrize(
        "index, strict, cost, plan",
        [
            (12, False, 40.0, ([[1, 4]], [[1, 0], [0, 4]], [[2, 0], [0, 3]])),
            (12, True, 41.0, ([[2, 3]], [[2, 0], [0, 3]], [[2, 0], [0, 3]])),
            (17, False, 62.0, ([[3, 2]], [[3, 0], [0, 2]], [[2, 0], [0, 3]])),
            (17, True, 62.0, ([[3, 2]], [[3, 0], [0, 2]], [[2, 1], [0, 2]])),
        ],
    )
    def test_the_two_criterion_4_lattices_the_reference_skips(self, index, strict, cost, plan):
        # instances 12 and 17 (2,073,600 and 1,806,336 points): the row-by-row
        # reference's plans and costs, written out because it takes about a
        # second on each
        inst = dataclasses.replace(criterion_4_instances()[index], strict_per_dc=strict)
        got, got_cost = brute_force_optimum(inst, grid_step=1.0)
        assert got_cost == cost
        assert tuple(getattr(got, name).tolist() for name in FLOW_AXES) == plan


class TestBlocksAndPrices:
    @pytest.mark.parametrize("grid_step", [1.0, 0.5])
    @pytest.mark.parametrize("chunk", [1, 7, oracle._CHUNK])
    def test_each_block_is_its_own_lattice_in_index_order(self, monkeypatch, chunk, grid_step):
        # chunks of 1 and 7 flat indices end inside a variable's run of levels
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        checks = (oracle._raw_check, oracle._production_check, oracle._delivery_check)
        for seed in range(6):
            inst = small_lattice_instance(np.random.default_rng(seed), grid_step, False, bool(seed % 2), max_points=400)
            s, k, j, i = inst.counts
            uppers = _variable_boxes(inst)
            bounds = (0, s * k, s * k + k * j, uppers.size)
            for lo, hi, check in zip(bounds, bounds[1:], checks):
                values = [
                    [min(n * grid_step, up) for n in range(1 + math.ceil(up / grid_step))] for up in uppers[lo:hi]
                ]
                levels = [len(v) for v in values]
                rows = list(oracle._block_rows(inst, levels, uppers[lo:hi, None], grid_step, check))
                assert all(0 < r.points.shape[0] <= chunk for r in rows)
                assert np.concatenate([r.points for r in rows]).tolist() == list(map(list, itertools.product(*values)))

    def test_variable_costs_price_a_plan_as_evaluate_cost_does(self):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            inst = small_lattice_instance(rng, 1.0, False, bool(seed % 2))
            s, k, j, i = inst.counts
            x = rng.uniform(0.0, 1.0, _variable_boxes(inst).size) * _variable_boxes(inst)
            r, p, t = np.split(x, [s * k, s * k + k * j])
            plan = FlowPlan(r.reshape(s, k), p.reshape(k, j), t.reshape(j, i))
            cost = inst.derived(_variable_costs)
            assert cost.shape == x.shape and not cost.flags.writeable
            assert cost is inst.derived(_variable_costs)
            assert x @ cost == pytest.approx(evaluate_cost(inst, plan).total, rel=1e-12)
            np.testing.assert_array_equal(cost, reference_prices(inst))


class TestBruteForce:
    def test_worked_example(self):
        plan, cost = brute_force_optimum(single_chain(), grid_step=1.0)
        assert cost == pytest.approx(100.0)
        assert plan.raw_flow[0, 0] == 10.0
        assert plan.plant_dc_flow[0, 0] == 10.0
        assert plan.dc_retailer_flow[0, 0] == 10.0

    def test_zero_demand(self):
        plan, cost = brute_force_optimum(single_chain(d=0.0), grid_step=1.0)
        assert cost == 0.0
        assert plan.raw_flow.sum() == 0.0
        assert plan.plant_dc_flow.sum() == 0.0
        assert plan.dc_retailer_flow.sum() == 0.0

    def test_utilization_doubles_raw_purchase(self):
        # 10 cases at u = 2 need 20 raw: 2*20 + (3 + 1 + 4)*10
        plan, cost = brute_force_optimum(single_chain(d=10, u=2.0, cap=40.0), grid_step=1.0)
        assert cost == pytest.approx(120.0)
        assert plan.raw_flow[0, 0] == 20.0
        assert plan.plant_dc_flow[0, 0] == 10.0

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
        plan, cost = brute_force_optimum(inst, grid_step=1.0)
        assert plan.plant_dc_flow[1, 0] == 0.0
        assert plan.plant_dc_flow[0, 0] == 4.0

    def test_cost_tie_goes_to_the_lexicographically_smallest_plan(self):
        # both DCs cost 2 per case to fill and 3 per case to deliver from, so
        # any split of the 2 cases is optimal; variables are ordered
        # [r00 | p00 p01 | t00 t10] and the smallest such vector wins
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
        plan, cost = brute_force_optimum(inst, grid_step=1.0)
        assert cost == 2 * (1 + 2 + 3)
        assert plan.raw_flow.tolist() == [[2.0]]
        assert plan.plant_dc_flow.tolist() == [[0.0, 2.0]]
        assert plan.dc_retailer_flow.tolist() == [[0.0], [2.0]]

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
        plan, cost = brute_force_optimum(inst, grid_step=1.0)
        assert cost == 4 * 1 + 4 * (1 + 1) + 4 * 1
        assert plan.plant_dc_flow.tolist() == [[4.0, 0.0]]
        assert plan.dc_retailer_flow.tolist() == [[4.0], [0.0]]

        plan, cost = brute_force_optimum(dataclasses.replace(inst, strict_per_dc=True), grid_step=1.0)
        assert cost == 4 * 1 + 3 * (1 + 1) + 1 * (2 + 1) + 3 * 1 + 1 * 3
        assert plan.raw_flow.tolist() == [[4.0]]
        assert plan.plant_dc_flow.tolist() == [[3.0, 1.0]]
        assert plan.dc_retailer_flow.tolist() == [[3.0], [1.0]]

    def test_optimum_is_feasible(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            inst = tiny_oracle_instance(rng)
            plan, cost = brute_force_optimum(inst, grid_step=1.0)
            report = evaluate_constraints(inst, plan)
            assert report.total_violation == 0.0
            assert evaluate_cost(inst, plan).total == pytest.approx(cost)

    def test_refuses_large_search_space(self):
        inst = NetworkInstance(
            num_suppliers=3,
            num_plants=3,
            num_dcs=3,
            num_retailers=3,
            supplier_capacity=[100] * 3,
            plant_capacity=[100] * 3,
            dc_capacity=[100] * 3,
            demand=[50] * 3,
            raw_unit_cost=[1] * 3,
            holding_unit_cost=[1] * 3,
            plant_dc_unit_cost=[[1] * 3] * 3,
            dc_retailer_unit_cost=[[1] * 3] * 3,
            utilization=1.0,
        )
        with pytest.raises(SearchSpaceTooLargeError) as exc:
            brute_force_optimum(inst, grid_step=1.0)
        assert exc.value.size > 10**8

    def test_no_feasible_point_reports_min_violation(self):
        # the single chain's capacities of 20 fall short of a demand of 30
        inst = single_chain(d=30.0, cap=20.0)
        with pytest.raises(NoFeasibleLatticePointError) as exc:
            brute_force_optimum(inst, grid_step=1.0)
        assert isinstance(exc.value, OracleError)
        assert exc.value.min_violation > 0

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            brute_force_optimum(single_chain(), grid_step=0.0)

    def test_grid_refinement_never_raises_optimum(self):
        rng = np.random.default_rng(97)
        for _ in range(4):
            inst = tiny_oracle_instance(rng)
            _, coarse = brute_force_optimum(inst, grid_step=1.0)
            _, fine = brute_force_optimum(inst, grid_step=0.5)
            assert fine <= coarse + 1e-9

    def test_cost_monotone_in_unit_costs(self):
        rng = np.random.default_rng(55)
        inst = tiny_oracle_instance(rng)
        _, base = brute_force_optimum(inst, grid_step=1.0)
        fields = {
            f: getattr(inst, f)
            for f in (
                "num_suppliers", "num_plants", "num_dcs", "num_retailers",
                "supplier_capacity", "plant_capacity", "dc_capacity", "demand",
                "raw_unit_cost", "holding_unit_cost", "plant_dc_unit_cost",
                "dc_retailer_unit_cost", "utilization",
            )
        }
        for name in ("raw_unit_cost", "holding_unit_cost", "plant_dc_unit_cost", "dc_retailer_unit_cost"):
            bumped = dict(fields)
            bumped[name] = np.asarray(fields[name]) + 2.0
            _, raised = brute_force_optimum(NetworkInstance(**bumped), grid_step=1.0)
            assert raised >= base - 1e-9


class TestLowerBound:
    def test_tight_on_single_chain(self):
        assert lower_bound(single_chain()) == pytest.approx(100.0)

    def test_zero_demand(self):
        assert lower_bound(single_chain(d=0.0)) == 0.0

    @given(st.integers(0, 10**9))
    @settings(max_examples=100, deadline=None)
    def test_sandwich_below_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        inst = tiny_oracle_instance(rng)
        _, cost = brute_force_optimum(inst, grid_step=1.0)
        assert lower_bound(inst) <= cost + 1e-9
