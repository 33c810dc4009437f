from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdnet import network
from pdnet.network import (
    ARRAY_AXES,
    COUNT_FIELDS,
    DEFAULT_TOLERANCE,
    FLOW_AXES,
    DimensionMismatchError,
    FlowPlan,
    NetworkInstance,
    batch_evaluate,
    evaluate_constraints,
    evaluate_cost,
    validate_instance,
)
from pdnet.nsga2 import decode_batch
from pdnet.scenarios import default_instance

from conftest import random_instance, random_plan, single_chain, tiny_oracle_instance


def chain_plan(r=10.0, p=10.0, t=10.0):
    return FlowPlan([[r]], [[p]], [[t]])


def combine(*terms):
    """The plan sum of alpha * plan over the (alpha, plan) terms."""
    return FlowPlan(*(sum(alpha * getattr(plan, b) for alpha, plan in terms) for b in FLOW_AXES))


class TestValidate:
    def test_well_formed_chain_is_clean(self):
        assert validate_instance(single_chain()) == []

    def test_negative_demand_names_field(self):
        inst = single_chain(d=-5.0)
        assert validate_instance(inst) == ["demand contains negative entries"]

    def test_dimension_breach_reported(self):
        inst = NetworkInstance(
            num_suppliers=1,
            num_plants=2,
            num_dcs=4,
            num_retailers=1,
            supplier_capacity=[10],
            plant_capacity=[10, 10],
            dc_capacity=[10, 10, 10, 10],
            demand=[5],
            raw_unit_cost=[1],
            holding_unit_cost=[1, 1, 1, 1],
            plant_dc_unit_cost=[[1, 1, 1], [1, 1, 1]],  # 2x3, should be 2x4
            dc_retailer_unit_cost=[[1], [1], [1], [1]],
            utilization=1.0,
        )
        assert any("plant_dc_unit_cost" in issue and "shape" in issue for issue in validate_instance(inst))

    def test_zero_utilization_flagged(self):
        assert any("utilization" in issue for issue in validate_instance(single_chain(u=0.0)))

    def test_never_raises_on_garbage(self):
        inst = single_chain(d=-1, c_s=-2)
        validate_instance(inst)  # report-style, must not abort

    @pytest.mark.parametrize("name", COUNT_FIELDS)
    def test_a_boolean_count_is_named(self, name):
        # True == 1, so arrays of length 1 on its axes fit the shapes it gives
        inst = single_chain()
        assert validate_instance(replace(inst, **{name: True})) == [
            f"{name} must be an integer >= 1, got True"
        ]

    def test_a_rejected_count_skips_the_arrays_on_its_axis(self):
        inst = replace(default_instance("baseline"), num_suppliers=True)
        assert validate_instance(inst) == ["num_suppliers must be an integer >= 1, got True"]
        # the arrays on the other axes are still checked
        bad = replace(inst, demand=-inst.demand)
        assert validate_instance(bad) == [
            "num_suppliers must be an integer >= 1, got True",
            "demand contains negative entries",
        ]


def bumped(a):
    """A copy of array ``a`` with its last cell one larger."""
    a = a.copy()
    a.flat[-1] += 1.0
    return a


class TestEquality:
    def instance(self):
        return random_instance(np.random.default_rng(5), s=2, k=3, j=2, i=4)

    @pytest.mark.parametrize("name", COUNT_FIELDS + tuple(ARRAY_AXES) + ("utilization", "strict_per_dc"))
    def test_each_count_array_cell_and_setting_tells_instances_apart(self, name):
        inst = self.instance()
        value = getattr(inst, name)
        if name in ARRAY_AXES:
            value = bumped(value)
        elif name == "strict_per_dc":
            value = not value
        else:
            value = value + 1
        changed = replace(inst, **{name: value})
        assert inst == replace(inst)
        assert inst != changed and changed != inst

    def test_a_filled_derived_cache_does_not_tell_instances_apart(self):
        inst, fresh = self.instance(), self.instance()
        evaluate_constraints(inst, random_plan(np.random.default_rng(6), inst))
        assert inst._derived and not fresh._derived
        assert inst == fresh and fresh == inst

    @pytest.mark.parametrize("name", tuple(FLOW_AXES))
    def test_each_flow_cell_tells_plans_apart(self, name):
        plan = random_plan(np.random.default_rng(6), self.instance())
        assert plan == replace(plan)
        changed = replace(plan, **{name: bumped(getattr(plan, name))})
        assert plan != changed and changed != plan

    def test_other_types_compare_unequal(self):
        inst = self.instance()
        plan = random_plan(np.random.default_rng(6), inst)
        for a, b in ((inst, plan), (plan, inst), (inst, None), (plan, "plan")):
            assert a.__eq__(b) is NotImplemented
            assert a != b


def test_the_axes_tables_name_every_array_field_in_order():
    """A new array field must be in its table, or it skips coercion, validation, plan checks and the document."""
    for cls, axes in ((NetworkInstance, ARRAY_AXES), (FlowPlan, FLOW_AXES)):
        arrays = [f.name for f in fields(cls) if f.type in ("np.ndarray", np.ndarray)]
        assert arrays == list(axes)
        assert all(set(letters) <= set("skji") for letters in axes.values())


class TestCost:
    def test_zero_plan(self):
        b = evaluate_cost(single_chain(), chain_plan(0, 0, 0))
        assert b.total == 0.0
        assert (b.raw_cost, b.plant_to_dc_cost, b.holding_cost, b.dc_to_retailer_cost) == (0, 0, 0, 0)

    def test_worked_chain(self):
        # c_s=2, c_kj=3, h=1, r_ji=4, flows all 10 -> 20+30+10+40
        b = evaluate_cost(single_chain(), chain_plan())
        assert b.raw_cost == 20
        assert b.plant_to_dc_cost == 30
        assert b.holding_cost == 10
        assert b.dc_to_retailer_cost == 40
        assert b.total == 100

    def test_two_supplier_chain(self):
        inst = NetworkInstance(
            num_suppliers=2,
            num_plants=1,
            num_dcs=1,
            num_retailers=1,
            supplier_capacity=[20, 20],
            plant_capacity=[20],
            dc_capacity=[20],
            demand=[10],
            raw_unit_cost=[1, 2],
            holding_unit_cost=[1],
            plant_dc_unit_cost=[[2]],
            dc_retailer_unit_cost=[[3]],
            utilization=1.0,
        )
        plan = FlowPlan([[5], [5]], [[10]], [[10]])
        b = evaluate_cost(inst, plan)
        assert (b.raw_cost, b.plant_to_dc_cost, b.holding_cost, b.dc_to_retailer_cost) == (15, 20, 10, 30)
        assert b.total == 75

    def test_holding_is_charged_on_arrivals(self):
        # 10 cases arrive at DC 0 (h = 1) and 10 leave DC 1 (h = 5): feasible in aggregate mode
        inst = NetworkInstance(
            num_suppliers=1,
            num_plants=1,
            num_dcs=2,
            num_retailers=1,
            supplier_capacity=[20],
            plant_capacity=[20],
            dc_capacity=[20, 20],
            demand=[10],
            raw_unit_cost=[0],
            holding_unit_cost=[1, 5],
            plant_dc_unit_cost=[[0, 0]],
            dc_retailer_unit_cost=[[0], [0]],
            utilization=1.0,
        )
        plan = FlowPlan([[10]], [[10, 0]], [[0], [10]])
        assert evaluate_constraints(inst, plan).total_violation == 0.0
        assert evaluate_cost(inst, plan).holding_cost == 10

    def test_dimension_mismatch_names_matrix(self):
        inst = single_chain()
        with pytest.raises(DimensionMismatchError, match="plant_dc_flow"):
            evaluate_cost(inst, FlowPlan([[1.0]], [[1.0, 2.0]], [[1.0]]))


class TestConstraints:
    def test_storage_shortfall(self):
        inst = NetworkInstance(
            num_suppliers=1,
            num_plants=1,
            num_dcs=1,
            num_retailers=1,
            supplier_capacity=[20],
            plant_capacity=[20],
            dc_capacity=[10],
            demand=[12],
            raw_unit_cost=[2],
            holding_unit_cost=[1],
            plant_dc_unit_cost=[[3]],
            dc_retailer_unit_cost=[[4]],
            utilization=1.0,
        )
        rep = evaluate_constraints(inst, chain_plan(12, 12, 12))
        assert rep.residuals["dc_storage"] == pytest.approx([-2])
        assert rep.total_violation >= 2

    def test_feasible_chain(self):
        rep = evaluate_constraints(single_chain(), chain_plan())
        assert rep.residuals["dc_storage"] == pytest.approx([10])
        assert rep.residuals["production_vs_shipment"] == pytest.approx([0])
        assert rep.residuals["demand_mismatch"] == pytest.approx([0])
        assert rep.total_violation == 0

    def test_raw_shortfall_with_utilization(self):
        # u=2, production 10 needs 20 raw; only 15 supplied -> violation 5
        inst = single_chain(d=10, u=2.0, cap=40.0)
        rep = evaluate_constraints(inst, chain_plan(r=15, p=10, t=10))
        assert rep.residuals["raw_per_plant"] == pytest.approx([-5])
        assert rep.total_violation == pytest.approx(5)

    def test_mismatch_within_tolerance_is_feasible(self):
        inst = single_chain()
        rep = evaluate_constraints(inst, chain_plan(10, 10, 10 + 1e-12), tolerance=1e-9)
        assert abs(rep.residuals["demand_mismatch"][0]) > 0
        assert rep.total_violation == 0

    def test_strict_per_dc_mode(self):
        inst = NetworkInstance(
            num_suppliers=1,
            num_plants=1,
            num_dcs=2,
            num_retailers=1,
            supplier_capacity=[100],
            plant_capacity=[100],
            dc_capacity=[10, 10],
            demand=[12],
            raw_unit_cost=[1],
            holding_unit_cost=[1, 1],
            plant_dc_unit_cost=[[1, 1]],
            dc_retailer_unit_cost=[[1], [1]],
            utilization=1.0,
            strict_per_dc=True,
        )
        # all 12 cases pile into DC 1: fine in aggregate, breach per-DC
        plan = FlowPlan([[12]], [[12, 0]], [[12], [0]])
        rep = evaluate_constraints(inst, plan)
        assert rep.residuals["dc_capacity"] == pytest.approx([-2, 10])
        assert rep.total_violation > 0
        loose = NetworkInstance(
            **{
                **{f: getattr(inst, f) for f in (
                    "num_suppliers", "num_plants", "num_dcs", "num_retailers",
                    "supplier_capacity", "plant_capacity", "dc_capacity", "demand",
                    "raw_unit_cost", "holding_unit_cost", "plant_dc_unit_cost",
                    "dc_retailer_unit_cost", "utilization",
                )},
                "strict_per_dc": False,
            }
        )
        rep2 = evaluate_constraints(loose, plan)
        assert "dc_capacity" not in rep2.residuals and "dc_throughput" not in rep2.residuals
        assert rep2.total_violation == 0


class TestProperties:
    @given(st.integers(0, 10**9), st.floats(0.0, 7.5))
    @settings(max_examples=60, deadline=None)
    def test_cost_linearity(self, seed, alpha):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng)
        plan = random_plan(rng, inst)
        base = evaluate_cost(inst, plan).total
        scaled = evaluate_cost(inst, combine((alpha, plan))).total
        assert scaled == pytest.approx(alpha * base, rel=1e-12, abs=1e-9)

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_cost_additivity(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng)
        a, b = random_plan(rng, inst), random_plan(rng, inst)
        total = evaluate_cost(inst, combine((1.0, a), (1.0, b))).total
        assert total == pytest.approx(
            evaluate_cost(inst, a).total + evaluate_cost(inst, b).total, rel=1e-12
        )

    @given(st.integers(0, 10**9), st.floats(0.01, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_cost_monotone_in_unit_costs(self, seed, bump):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng)
        plan = random_plan(rng, inst)
        base = evaluate_cost(inst, plan).total
        for name in ("raw_unit_cost", "holding_unit_cost", "plant_dc_unit_cost", "dc_retailer_unit_cost"):
            arr = np.array(getattr(inst, name), copy=True)
            idx = tuple(rng.integers(0, dim) for dim in arr.shape)
            arr[idx] += bump
            fields = {
                f: getattr(inst, f)
                for f in (
                    "num_suppliers", "num_plants", "num_dcs", "num_retailers",
                    "supplier_capacity", "plant_capacity", "dc_capacity", "demand",
                    "raw_unit_cost", "holding_unit_cost", "plant_dc_unit_cost",
                    "dc_retailer_unit_cost", "utilization",
                )
            }
            fields[name] = arr
            assert evaluate_cost(NetworkInstance(**fields), plan).total >= base - 1e-12

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_residuals_affine_in_plan(self, seed):
        rng = np.random.default_rng(seed)
        aggregate = random_instance(rng)
        plan = random_plan(rng, aggregate)
        for inst in (aggregate, replace(aggregate, strict_per_dc=True)):
            r1 = evaluate_constraints(inst, plan).residuals
            r2 = evaluate_constraints(inst, combine((2.0, plan))).residuals
            zero = evaluate_constraints(inst, combine((0.0, plan))).residuals
            assert r1.keys() == r2.keys() == zero.keys() == inst.derived(network._Layout).columns.keys()
            # residual(2x) - residual(0) == 2 * (residual(x) - residual(0)), in every family
            for name in r1:
                assert np.allclose(r2[name] - zero[name], 2.0 * (r1[name] - zero[name]), rtol=1e-9, atol=1e-9)

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_evaluation_is_pure(self, seed):
        rng = np.random.default_rng(seed)
        aggregate = random_instance(rng)
        plan = random_plan(rng, aggregate)
        for inst in (aggregate, replace(aggregate, strict_per_dc=True)):
            c1, c2 = evaluate_cost(inst, plan), evaluate_cost(inst, plan)
            assert c1 == c2
            v1 = evaluate_constraints(inst, plan)
            v2 = evaluate_constraints(inst, plan)
            assert v1.total_violation == v2.total_violation
            assert v1.residuals.keys() == v2.residuals.keys() == inst.derived(network._Layout).columns.keys()
            for name in v1.residuals:
                assert np.array_equal(v1.residuals[name], v2.residuals[name])

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_total_is_exact_sum_of_terms(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng)
        plan = random_plan(rng, inst)
        b = evaluate_cost(inst, plan)
        assert b.total == b.raw_cost + b.plant_to_dc_cost + b.holding_cost + b.dc_to_retailer_cost

    def test_pricing_one_plan_builds_no_residuals(self, monkeypatch):
        rng = np.random.default_rng(8)
        inst = random_instance(rng)
        plan = random_plan(rng, inst)
        total = batch_evaluate(inst, *(getattr(plan, name)[None] for name in FLOW_AXES))[0][0]
        monkeypatch.setattr(network, "_evaluate", lambda *args: pytest.fail("evaluate_cost ran the residuals"))
        assert evaluate_cost(inst, plan).total == total


def reference_violation(instance, plan, tolerance):
    """Every constraint checked on its own, one family after another."""
    r, p, t = plan.raw_flow, plan.plant_dc_flow, plan.dc_retailer_flow
    s, k, j, i = instance.counts
    u = instance.utilization

    def breach(residual, scale):
        return -residual if residual < -tolerance * max(1.0, abs(scale)) else 0.0

    total = breach(instance.dc_capacity.sum() - instance.demand.sum(), instance.demand.sum())
    total += breach(p.sum() - t.sum(), t.sum())
    for ii in range(i):
        mismatch = t[:, ii].sum() - instance.demand[ii]
        if abs(mismatch) > tolerance * max(1.0, instance.demand[ii]):
            total += abs(mismatch)
    for kk in range(k):
        need = u * p[kk].sum()
        total += breach(r[:, kk].sum() - need, need)
        total += breach(instance.plant_capacity[kk] - need, instance.plant_capacity[kk])
    for ss in range(s):
        total += breach(instance.supplier_capacity[ss] - r[ss].sum(), instance.supplier_capacity[ss])
    if instance.strict_per_dc:
        for jj in range(j):
            arrivals = p[:, jj].sum()
            total += breach(instance.dc_capacity[jj] - arrivals, instance.dc_capacity[jj])
            total += breach(arrivals - t[jj].sum(), arrivals)
    return total


def reference_cost(instance, plan):
    r, p, t = plan.raw_flow, plan.plant_dc_flow, plan.dc_retailer_flow
    return float(
        (instance.raw_unit_cost[:, None] * r).sum()
        + ((instance.plant_dc_unit_cost + instance.holding_unit_cost[None, :]) * p).sum()
        + (instance.dc_retailer_unit_cost * t).sum()
    )


def tight_plans(instance, rng, rows=6):
    """Decoded plans: every residual within rounding of zero on tiny instances."""
    genes = rng.random((rows, instance.num_genes))
    r, p, t = decode_batch(genes, instance)
    return [FlowPlan(r[q], p[q], t[q]) for q in range(rows)]


# fractions of a breach threshold just inside and just outside it; irrational, so
# that a move in one family does not land another family's residual on its own
# threshold (integer instances have thresholds in small integer ratios)
INSIDE, OUTSIDE = 0.5 ** 0.5, 3.0 ** 0.5


def threshold_plans(instance, plan, tolerance):
    """(plan, outside) pairs: copies of ``plan`` with one residual per family moved
    just inside or just outside its breach threshold."""
    r, p, t = (np.array(a) for a in (plan.raw_flow, plan.plant_dc_flow, plan.dc_retailer_flow))
    k0, j0 = np.unravel_index(np.argmax(p), p.shape)
    s0 = int(np.argmax(r[:, k0]))
    i0 = int(np.argmax(t[j0]))

    def threshold(scale):
        return tolerance * max(1.0, abs(scale))

    out = []
    for f in (INSIDE, OUTSIDE):
        for sign in (-1.0, 1.0):  # retailer i0 short of its demand, then oversupplied
            moved = t.copy()
            moved[j0, i0] += sign * f * threshold(instance.demand[i0])
            out.append((FlowPlan(r, p, moved), f > 1))
        moved = p.copy()  # production below shipments (and, strict, DC j0 ships more than arrives)
        moved[k0, j0] -= f * threshold(t.sum())
        out.append((FlowPlan(r, moved, t), f > 1))
        moved = r.copy()  # plant k0 short of raw material
        moved[s0, k0] -= f * threshold(instance.utilization * p[k0].sum())
        out.append((FlowPlan(moved, p, t), f > 1))
        if instance.strict_per_dc:
            moved = p.copy()  # DC j0 ships more than arrives, production short by less than its threshold
            moved[k0, j0] -= f * threshold(p[:, j0].sum())
            out.append((FlowPlan(r, moved, t), f > 1))
    return out


def threshold_instances(instance, plan, tolerance):
    """(instance, outside) pairs: ``instance`` with one capacity per family squeezed to
    ``plan``'s load less a fraction of its breach threshold, inside or outside it."""
    need = instance.utilization * plan.plant_dc_flow.sum(axis=1)
    bought = plan.raw_flow.sum(axis=1)
    arrivals = plan.plant_dc_flow.sum(axis=0)

    def squeezed(capacity, at, load, f):
        capacity = np.array(capacity)
        capacity[at] = load - f * tolerance * max(1.0, load)
        return capacity

    out = []
    for f in (INSIDE, OUTSIDE):
        k0, s0, j0 = int(np.argmax(need)), int(np.argmax(bought)), int(np.argmax(arrivals))
        out.append((replace(instance, plant_capacity=squeezed(instance.plant_capacity, k0, need[k0], f)), f > 1))
        out.append((replace(instance, supplier_capacity=squeezed(instance.supplier_capacity, s0, bought[s0], f)), f > 1))
        if instance.strict_per_dc:
            out.append((replace(instance, dc_capacity=squeezed(instance.dc_capacity, j0, arrivals[j0], f)), f > 1))
        else:  # storage in total; per DC it would also overload one of them
            total = instance.demand.sum()
            storage = instance.dc_capacity * ((total - f * tolerance * max(1.0, total)) / instance.dc_capacity.sum())
            out.append((replace(instance, dc_capacity=storage), f > 1))
    return out


class TestBatchInvariance:
    """A plan's cost and violation do not depend on the batch it is evaluated in, nor on the API."""

    def check(self, instance, plans, tolerance):
        """The plans' violations at ``tolerance``, from ``evaluate_constraints``.

        The batch path always judges at the default tolerance, so it is
        compared with the report and the reference at that tolerance.
        """
        r = np.stack([plan.raw_flow for plan in plans])
        p = np.stack([plan.plant_dc_flow for plan in plans])
        t = np.stack([plan.dc_retailer_flow for plan in plans])
        cost, violation = batch_evaluate(instance, r, p, t)
        back_cost, back_violation = batch_evaluate(instance, r[::-1], p[::-1], t[::-1])
        assert np.array_equal(back_cost[::-1], cost) and np.array_equal(back_violation[::-1], violation)
        t_by_retailer = np.ascontiguousarray(t.transpose(0, 2, 1)).transpose(0, 2, 1)  # same values, other layout
        other_cost, other_violation = batch_evaluate(instance, r, p, t_by_retailer)
        assert np.array_equal(other_cost, cost) and np.array_equal(other_violation, violation)
        at_tolerance = np.empty(len(plans))
        for q, plan in enumerate(plans):
            one_cost, one_violation = batch_evaluate(instance, r[q : q + 1], p[q : q + 1], t[q : q + 1])
            assert one_cost[0] == cost[q]
            assert evaluate_cost(instance, plan).total == cost[q]  # one price per plan
            assert one_violation[0] == violation[q]
            assert evaluate_constraints(instance, plan).total_violation == violation[q]
            at_tolerance[q] = evaluate_constraints(instance, plan, tolerance).total_violation
            # a threshold decided the other way would differ by at least half a threshold, ~1e-9
            for got, tol in ((violation[q], DEFAULT_TOLERANCE), (at_tolerance[q], tolerance)):
                assert got == pytest.approx(reference_violation(instance, plan, tol), rel=1e-12, abs=1e-11)
            assert cost[q] == pytest.approx(reference_cost(instance, plan), rel=1e-12, abs=1e-12)
        return at_tolerance

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_batch_alone_and_report_agree_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        aggregate = tiny_oracle_instance(rng)
        for instance in (aggregate, replace(aggregate, strict_per_dc=True)):
            tolerance = DEFAULT_TOLERANCE
            tight = tight_plans(instance, rng)
            assert np.all(self.check(instance, tight, tolerance) == 0.0)
            moved = threshold_plans(instance, tight[0], tolerance)
            wild = [random_plan(rng, instance) for _ in range(3)]
            violation = self.check(instance, tight + [plan for plan, _ in moved] + wild, tolerance)
            outside = np.array([o for _, o in moved])
            assert np.all(violation[len(tight) : len(tight) + len(moved)][outside] > 0.0)
            for squeezed, out in threshold_instances(instance, tight[0], tolerance):
                violation = self.check(squeezed, tight + wild, tolerance)
                assert (violation[0] > 0.0) == out

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_random_instances_and_tolerances(self, seed):
        rng = np.random.default_rng(seed)
        aggregate = random_instance(rng, i=int(rng.integers(1, 12)))
        tolerance = float(10.0 ** rng.uniform(-12, -3))
        for instance in (aggregate, replace(aggregate, strict_per_dc=True)):
            plans = tight_plans(instance, rng) + [random_plan(rng, instance) for _ in range(4)]
            self.check(instance, plans, tolerance)
