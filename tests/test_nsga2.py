import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from pdnet import nsga2
from pdnet.network import DimensionMismatchError, FlowPlan, NetworkInstance, batch_evaluate, evaluate_constraints
from pdnet.nsga2 import (
    SolverConfig,
    decode,
    decode_batch,
    init_population,
    select_next_generation,
    solve,
)
from pdnet.nsga2 import (
    Population,
    _crowding,
    _delivery_shares,
    _front_ranks,
    _make_offspring,
    _mutation_sites,
    _rank_and_crowd,
    _tournament_indices,
)
from pdnet.oracle import exact_optimum, lower_bound
from pdnet.scenarios import default_instance

from conftest import criterion_4_instances, family_lp, random_instance, single_chain, tiny_oracle_instance


def alloc_instance():
    """1x1x2x1 instance: one retailer with demand 12 split across two DCs."""
    return NetworkInstance(
        num_suppliers=1,
        num_plants=1,
        num_dcs=2,
        num_retailers=1,
        supplier_capacity=[40],
        plant_capacity=[40],
        dc_capacity=[20, 20],
        demand=[12],
        raw_unit_cost=[1],
        holding_unit_cost=[1, 1],
        plant_dc_unit_cost=[[1, 1]],
        dc_retailer_unit_cost=[[1], [1]],
        utilization=1.0,
    )


class TestDecode:
    def test_allocation_weights(self):
        # genes: the retailer's allocation weights on the two DCs; the highest one takes the whole demand
        for inst in (alloc_instance(), dataclasses.replace(alloc_instance(), strict_per_dc=True)):
            for genes, flow in (([0.2, 0.6], [0.0, 12.0]), ([0.6, 0.2], [12.0, 0.0]), ([0.0, 1e-300], [0.0, 12.0])):
                assert np.array_equal(decode(np.array(genes), inst).dc_retailer_flow[:, 0], flow)

    def test_a_tie_all_zeros_included_goes_to_the_first_dc(self):
        for inst in (alloc_instance(), dataclasses.replace(alloc_instance(), strict_per_dc=True)):
            for genes in ([0.0, 0.0], [0.4, 0.4], [1.0, 1.0]):
                assert np.array_equal(decode(np.array(genes), inst).dc_retailer_flow[:, 0], [12.0, 0.0])

    def test_strict_production_fills_each_dcs_arcs_cheapest_route_first_up_to_their_box(self):
        # arc boxes D_k/(u*J) = (300, 1000); routes c_kj + h_j are (2, 6) from plant 0 and (3, 4) from plant 1
        inst = NetworkInstance(
            num_suppliers=1,
            num_plants=2,
            num_dcs=2,
            num_retailers=2,
            supplier_capacity=[5000],
            plant_capacity=[1200, 4000],
            dc_capacity=[4000, 4000],
            demand=[700, 300],
            raw_unit_cost=[1],
            holding_unit_cost=[1, 1],
            plant_dc_unit_cost=[[1, 5], [2, 3]],
            dc_retailer_unit_cost=[[1, 1], [1, 1]],
            utilization=2.0,
            strict_per_dc=True,
        )
        # DC 0 ships 700: 300 from plant 0, its box, and 400 from plant 1; DC 1 ships 300, all from plant 1
        plan = decode(np.array([0.7, 0.3, 0.3, 0.7]), inst)
        assert np.array_equal(plan.dc_retailer_flow, [[700.0, 0.0], [0.0, 300.0]])
        assert np.array_equal(plan.plant_dc_flow, [[300.0, 0.0], [400.0, 300.0]])
        assert np.array_equal(plan.raw_flow, [[600.0, 1400.0]])  # u x each plant's production
        assert evaluate_constraints(inst, plan, tolerance=0.0).total_violation == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            decode(np.zeros(3), alloc_instance())

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_every_gene_is_read(self, seed):
        # with two or more DCs and positive demand, raising gene (i, j) above retailer i's other
        # weights moves retailer i whole to DC j, and lowering it below them moves retailer i whole
        # off DC j; no other retailer moves.  The strict copy's DCs and arcs each hold the total
        # demand, so no DC overflows.  In aggregate mode production is one plan per instance
        rng = np.random.default_rng(seed)
        aggregate = random_instance(rng, j=int(rng.integers(2, 4)))
        _, k, j, i = aggregate.counts
        assert aggregate.num_genes == j * i
        assert np.all(aggregate.demand > 0) and np.all(aggregate.plant_capacity > 0)
        total = aggregate.demand.sum()
        strict = dataclasses.replace(
            aggregate,
            dc_capacity=np.full(j, 2.0 * total),
            plant_capacity=np.full(k, 2.0 * total * aggregate.utilization * j),
            strict_per_dc=True,
        )
        genes = rng.uniform(0.05, 0.95, aggregate.num_genes)
        for inst in (aggregate, strict):
            plan = decode(genes, inst)
            for g in range(inst.num_genes):
                retailer, dc = divmod(g, j)
                for value in (1.0, 0.0):
                    changed = genes.copy()
                    changed[g] = value
                    other = decode(changed, inst)
                    served = other.dc_retailer_flow[:, retailer]
                    assert np.count_nonzero(served) == 1 and served.sum() == inst.demand[retailer]
                    assert (served[dc] > 0) == (value == 1.0), f"gene {g} is not read"
                    rest = np.arange(i) != retailer
                    assert np.array_equal(other.dc_retailer_flow[:, rest], plan.dc_retailer_flow[:, rest])
                    if not inst.strict_per_dc:
                        assert np.array_equal(other.raw_flow, plan.raw_flow)
                        assert np.array_equal(other.plant_dc_flow, plan.plant_dc_flow)

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_decode_meets_demand_exactly(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng)
        plan = decode(rng.random(inst.num_genes), inst)
        shipped = plan.dc_retailer_flow.sum(axis=0)
        assert np.all(np.abs(shipped - inst.demand) <= 1e-9 * np.maximum(1.0, inst.demand))


def production_total(p):
    """Total production of a plan's plant-DC flows (K, J), added as ``network`` adds DC arrivals."""
    return np.einsum("nkj->nj", p[None]).sum(axis=1)[0]


def cheapest_production(inst):
    """The aggregate-mode production every plan of ``inst`` decodes to."""
    return decode(np.zeros(inst.num_genes), inst).plant_dc_flow


class TestCheapestProduction:
    @given(st.integers(0, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_it_makes_at_least_the_total_demand_whenever_the_plants_can(self, seed):
        # exactly, not within the production-vs-shipment tolerance, and at most a few ulps more
        inst = random_instance(np.random.default_rng(seed))
        p = cheapest_production(inst)
        room, need = inst.plant_capacity / inst.utilization, inst.demand.sum()
        assert np.all(p >= 0.0) and np.all(np.count_nonzero(p, axis=1) <= 1) and np.all(p.sum(axis=1) <= room)
        if room.sum() >= need:
            assert need <= production_total(p) <= need + 8 * np.spacing(need)
        else:
            assert np.array_equal(p.sum(axis=1), room)

    def test_a_plain_fill_falls_short_of_the_demand_on_some_random_instances(self):
        # the rounding the fill corrects occurs on the instances the test above draws
        short = 0
        for seed in range(2000):
            inst = random_instance(np.random.default_rng(seed))
            route = (inst.plant_dc_unit_cost + inst.holding_unit_cost[None, :]).min(axis=1)
            room = (inst.plant_capacity / inst.utilization)[np.argsort(route, kind="stable")]
            need = inst.demand.sum()
            short += room.sum() >= need and nsga2._greedy_fill(room, need).sum() < need
        assert short >= 20

    @given(st.integers(0, 10**9))
    @settings(max_examples=100, deadline=None)
    def test_its_route_cost_is_the_linear_programs_optimum(self, seed):
        # min sum (c_kj + h_j) p_kj  s.t.  sum_j p_kj <= D_k/u,  sum p = total demand,  p >= 0
        inst = random_instance(np.random.default_rng(seed))
        _, k, j, _ = inst.counts
        route = (inst.plant_dc_unit_cost + inst.holding_unit_cost[None, :]).ravel()
        room, need = inst.plant_capacity / inst.utilization, inst.demand.sum()
        lp = linprog(
            route, A_ub=np.kron(np.eye(k), np.ones(j)), b_ub=room, A_eq=np.ones((1, k * j)), b_eq=[need], method="highs"
        )
        if room.sum() < need:
            assert lp.status == 2  # infeasible
        else:
            assert lp.status == 0
            assert route @ cheapest_production(inst).ravel() == pytest.approx(lp.fun, rel=1e-9, abs=1e-9)

    @given(st.integers(0, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_strict_production_covers_each_dcs_shipments_whenever_its_boxes_can(self, seed):
        # exactly, per DC and in total, and at most a few ulps of the total more
        inst = dataclasses.replace(random_instance(np.random.default_rng(seed)), strict_per_dc=True)
        _, k, j, _ = inst.counts
        box = inst.plant_capacity / (inst.utilization * j)
        # what each DC's arcs carry when full, added as ``network`` adds arrivals
        reach = np.einsum("nkj->nj", np.ascontiguousarray(np.broadcast_to(box[None, :, None], (1, k, j))))
        r, p, t = decoded(inst, seed)
        shipped = np.einsum("nji->nj", t)  # as ``network`` adds each DC's shipments
        arrivals = np.einsum("nkj->nj", p)
        fits = shipped <= reach
        spare = (arrivals - shipped)[fits]
        assert np.all(spare >= 0.0) and np.all(spare <= 4 * np.spacing(shipped.sum(axis=1, keepdims=True)))
        assert np.all(arrivals[shipped == 0.0] == 0.0)
        assert np.all(p.transpose(0, 2, 1)[~fits] == box)  # a DC that ships more than its arcs hold gets them full
        for row in np.flatnonzero(fits.all(axis=1)):
            residuals = evaluate_constraints(inst, FlowPlan(r[row], p[row], t[row]), tolerance=0.0).residuals
            assert residuals["production_vs_shipment"].min() >= 0.0
            assert residuals["dc_throughput"].min() >= 0.0

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_strict_route_cost_is_the_per_dc_linear_programs_optimum(self, seed):
        # min sum (c_kj + h_j) p_kj  s.t.  sum_k p_kj = min(shipments of DC j, what its arcs hold),
        #                                 0 <= p_kj <= D_k/(u*J)
        inst = dataclasses.replace(random_instance(np.random.default_rng(seed)), strict_per_dc=True)
        _, k, j, _ = inst.counts
        route = (inst.plant_dc_unit_cost + inst.holding_unit_cost[None, :]).ravel()
        box = inst.plant_capacity / (inst.utilization * j)
        bounds = [(0.0, b) for b in np.repeat(box, j)]
        _, p, t = decoded(inst, seed, rows=8)
        for row in range(p.shape[0]):
            carried = np.minimum(t[row].sum(axis=1), box.sum())
            lp = linprog(route, A_eq=np.kron(np.ones(k), np.eye(j)), b_eq=carried, bounds=bounds, method="highs")
            assert lp.status == 0
            assert route @ p[row].ravel() == pytest.approx(lp.fun, rel=1e-9, abs=1e-9)


def both_modes(seed):
    """A random instance in aggregate mode and the same one in strict per-DC mode."""
    inst = random_instance(np.random.default_rng(seed))
    return inst, dataclasses.replace(inst, strict_per_dc=True)


def decoded(inst, seed, rows=16):
    """The flows r, p, t that ``rows`` uniform random gene rows decode to, each row as it decodes alone."""
    genes = np.random.default_rng(seed + 1).random((rows, inst.num_genes))
    r, p, t = decode_batch(genes, inst)
    for row in range(rows):
        assert decode(genes[row], inst) == FlowPlan(r[row], p[row], t[row])
    return r, p, t


def sequential_delivery(w, instance):
    """Reference strict-mode delivery: each overloaded row filled retailer by retailer."""
    n, i, j = w.shape
    shares = np.eye(j)[w.argmax(axis=2)]
    box = instance.plant_capacity / (instance.utilization * j)
    capacity = np.minimum(instance.dc_capacity, box.sum() * (1.0 - 8.0 * np.finfo(np.float64).eps))
    over = np.flatnonzero((np.einsum("nij,i->nj", shares, instance.demand) > capacity).any(axis=1))
    for row in over:
        room = capacity.copy()
        for r, d in enumerate(instance.demand):
            order = np.argsort(-w[row, r], kind="stable")  # DCs in weight order
            shares[row, r] = 0.0
            if d <= 0:
                shares[row, r, order[0]] = 1.0
                continue
            left = room[order]
            take = np.minimum(left, np.maximum(d - (np.cumsum(left) - left), 0.0))
            take[0] += max(d - take.sum(), 0.0)  # every DC full: the rest on the favourite
            room[order] = np.maximum(left - take, 0.0)
            shares[row, r, order] = take / d
    return shares


def overloaded_population(rng, rows=30):
    """A strict instance whose DCs hold about the total demand, and weights with ties and zeros.

    About half the draws are integer-valued, so that demands meet the room left exactly.
    """
    s, k, j, i = (int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(2, 10)), int(rng.integers(2, 25)))
    integer = rng.random() < 0.5
    demand = rng.integers(0, 6, i).astype(float) if integer else rng.uniform(0, 10, i) * (rng.random(i) > 0.1)
    dc_capacity = demand.sum() / j * rng.uniform(0.6, 1.4, j)
    inst = NetworkInstance(
        num_suppliers=s,
        num_plants=k,
        num_dcs=j,
        num_retailers=i,
        supplier_capacity=rng.uniform(50, 100, s),
        plant_capacity=rng.uniform(50, 100, k) * j,
        dc_capacity=np.round(dc_capacity) if integer else dc_capacity,
        demand=demand,
        raw_unit_cost=rng.uniform(0.1, 10, s),
        holding_unit_cost=rng.uniform(0.1, 10, j),
        plant_dc_unit_cost=rng.uniform(0.1, 10, (k, j)),
        dc_retailer_unit_cost=rng.uniform(0.1, 10, (j, i)),
        utilization=1.0,
        strict_per_dc=True,
    )
    w = np.round(rng.random((rows, i, j)), 1)  # ties between DCs and all-zero weights occur
    return inst, w


class TestDelivery:
    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_production_equals_shipments_where_the_boxes_allow(self, seed):
        for inst in both_modes(seed):
            _, p, t = decoded(inst, seed)
            box = inst.plant_capacity / (inst.utilization * inst.num_dcs)
            if inst.strict_per_dc:
                produced, shipped = p.sum(axis=1), t.sum(axis=2)  # per DC
                reachable = np.full_like(shipped, box.sum())
                at_box = np.all(np.isclose(p, box[None, :, None], rtol=1e-12, atol=0), axis=1)
            else:  # the plants' cheapest production, each plant at most D_k/u
                produced, shipped = p.sum(axis=(1, 2)), t.sum(axis=(1, 2))
                reachable = np.full_like(shipped, box.sum() * inst.num_dcs)
                at_box = np.all(np.isclose(p.sum(axis=2), box[None, :] * inst.num_dcs, rtol=1e-12, atol=0), axis=1)
                assert np.all(np.count_nonzero(p, axis=2) <= 1)  # one arc per plant
            fits = shipped <= reachable
            assert np.allclose(produced[fits], shipped[fits], rtol=1e-12, atol=1e-12)
            assert np.all(at_box[~fits])

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_raw_is_utilization_times_production_from_the_cheapest_suppliers(self, seed):
        for inst in both_modes(seed):
            r, p, _ = decoded(inst, seed)
            need = inst.utilization * p.sum(axis=2)  # (n, K)
            bought = r.sum(axis=2)  # (n, S)
            assert np.all(r >= 0.0)
            assert np.all(bought <= inst.supplier_capacity[None, :] * (1 + 1e-12))
            covered = need.sum(axis=1) <= inst.supplier_capacity.sum()
            assert np.allclose(r.sum(axis=1)[covered], need[covered], rtol=1e-12, atol=1e-12)
            ranked = np.argsort(inst.raw_unit_cost, kind="stable")
            for row in range(r.shape[0]):
                used = bought[row][ranked]
                cap = inst.supplier_capacity[ranked]
                last = np.flatnonzero(used > 0.0)
                if last.size:  # every supplier cheaper than the dearest one used is sold out
                    assert np.allclose(used[: last.max()], cap[: last.max()], rtol=1e-12, atol=0)

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_a_dc_filled_to_what_its_arcs_carry_ships_no_more_than_they_carry(self, seed):
        # every DC stores more than its arcs carry and the demand nearly fills the arcs, so decoding
        # fills DCs to their arcs; at tolerance 0 the full arcs still cover each DC's shipments
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, j=int(rng.integers(2, 4)))
        j = inst.num_dcs
        reach = (inst.plant_capacity / (inst.utilization * j)).sum()
        demand = inst.demand / inst.demand.sum() * reach * j * rng.uniform(0.9, 0.999)
        inst = dataclasses.replace(
            inst, dc_capacity=reach * rng.uniform(1.0, 2.0, j), demand=demand, strict_per_dc=True
        )
        r, p, t = decoded(inst, seed)
        for row in range(r.shape[0]):
            residuals = evaluate_constraints(inst, FlowPlan(r[row], p[row], t[row]), tolerance=0.0).residuals
            assert residuals["production_vs_shipment"].min() >= 0.0
            assert residuals["dc_throughput"].min() >= 0.0

    def test_a_retailer_that_finds_every_dc_full_keeps_its_share_at_most_one(self):
        # one DC holding less than the demand: the second retailer spills its room + (demand - room)
        # back onto that DC, which rounds to 1.0000000000000002 of its demand here
        inst = dataclasses.replace(random_instance(np.random.default_rng(339508)), strict_per_dc=True)
        assert inst.counts == (2, 1, 1, 2) and inst.dc_capacity[0] < inst.demand.sum()
        genes = np.random.default_rng(339509).random((16, inst.num_genes))
        assert np.all(_delivery_shares(genes.reshape(16, 2, 1), inst)[:, 1] > 1.0)
        # the decoded plan is clipped to a share of 1: the whole demand on the one DC, and no more
        _, _, t = decode_batch(genes, inst)
        assert np.array_equal(t, np.broadcast_to(inst.demand, (16, 1, 2)))

    def test_strict_mode_fills_dcs_in_weight_order_up_to_their_room(self):
        inst = NetworkInstance(
            num_suppliers=1,
            num_plants=1,
            num_dcs=2,
            num_retailers=2,
            supplier_capacity=[100],
            plant_capacity=[100],
            dc_capacity=[10, 10],
            demand=[8, 6],
            raw_unit_cost=[1],
            holding_unit_cost=[1, 1],
            plant_dc_unit_cost=[[1, 1]],
            dc_retailer_unit_cost=[[1, 1], [1, 1]],
            utilization=1.0,
            strict_per_dc=True,
        )
        # both retailers prefer DC 1, which holds 10: the second one spills 4 onto DC 2
        genes = np.array([[0.9, 0.1, 0.8, 0.3]])
        plan = decode(genes[0], inst)
        assert plan.dc_retailer_flow == pytest.approx(np.array([[8.0, 2.0], [0.0, 4.0]]))
        assert plan.plant_dc_flow == pytest.approx(np.array([[10.0, 4.0]]))
        assert evaluate_constraints(inst, plan, tolerance=0.0).total_violation == 0.0

        # a third retailer, favouring DC 2, takes its last 6 units of room
        # and puts the 3 units left over on DC 2 as well
        inst = dataclasses.replace(
            inst, num_retailers=3, demand=[8, 6, 9], dc_retailer_unit_cost=[[1, 1, 1], [1, 1, 1]]
        )
        genes = np.array([[0.9, 0.1, 0.8, 0.3, 0.2, 0.7]])
        plan = decode(genes[0], inst)
        assert plan.dc_retailer_flow == pytest.approx(np.array([[8.0, 2.0, 0.0], [0.0, 4.0, 9.0]]))
        assert plan.plant_dc_flow == pytest.approx(np.array([[10.0, 13.0]]))

    @given(st.integers(0, 10**9))
    @settings(max_examples=100, deadline=None)
    def test_strict_delivery_equals_the_per_retailer_fill(self, seed):
        rng = np.random.default_rng(seed)
        inst, w = overloaded_population(rng)
        assert np.array_equal(_delivery_shares(w, inst), sequential_delivery(w, inst))

    def test_the_strict_test_populations_overload(self):
        refilled = 0
        for seed in range(20):
            inst, w = overloaded_population(np.random.default_rng(seed))
            refilled += not np.array_equal(sequential_delivery(w, inst), np.eye(inst.num_dcs)[w.argmax(axis=2)])
        assert refilled >= 15

    @given(st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_decoded_tiny_plans_do_not_lean_on_the_default_tolerance(self, seed):
        # the tiny instances admit every decoded plan in both modes, and the
        # plans stay feasible at a tolerance 1000 times tighter than the
        # default 1e-9: what is left is rounding, not a shortfall
        rng = np.random.default_rng(seed)
        aggregate = tiny_oracle_instance(rng)
        for inst in (aggregate, dataclasses.replace(aggregate, strict_per_dc=True)):
            r, p, t = decoded(inst, seed)
            for row in range(r.shape[0]):
                plan = FlowPlan(r[row], p[row], t[row])
                assert evaluate_constraints(inst, plan, tolerance=1e-12).total_violation == 0.0


class TestInit:
    def test_deterministic_per_seed(self):
        inst = single_chain()
        cfg = SolverConfig()
        a = init_population(inst, cfg, np.random.default_rng(42))
        b = init_population(inst, cfg, np.random.default_rng(42))
        assert np.array_equal(a.genes, b.genes)
        assert np.array_equal(a.cost, b.cost)

    def test_size_and_gene_range(self):
        pop = init_population(single_chain(), SolverConfig(), np.random.default_rng(0))
        assert len(pop) == 50
        assert np.all((pop.genes >= 0.0) & (pop.genes <= 1.0))

    def test_uniform_sampler_mean(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng, s=3, k=3, j=3, i=3)  # 9 genes
        genes = np.vstack(
            [init_population(inst, SolverConfig(), np.random.default_rng(s)).genes for s in range(23)]
        )
        assert genes.size >= 10_000
        assert 0.48 <= genes.mean() <= 0.52


class TestVariation:
    def test_identical_parents_give_identical_children(self):
        rng = np.random.default_rng(1)
        parents = np.repeat(rng.random((5, 10)), 2, axis=0)  # each pair is one parent twice
        children = _make_offspring(parents, SolverConfig(crossover_prob=1.0, mutation_prob=0.0), rng)
        assert np.allclose(children, parents)

    def test_sbx_preserves_parent_mean(self):
        rng = np.random.default_rng(3)
        parents = np.array([[0.2], [0.8]]).repeat(10_000, axis=1)
        children = _make_offspring(parents, SolverConfig(crossover_prob=1.0, mutation_prob=0.0), rng)
        pair_means = children.mean(axis=0)
        assert abs(pair_means.mean() - 0.5) < 0.02

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_gene_closure(self, seed):
        rng = np.random.default_rng(seed)
        genes = rng.random((4, 12))
        cfg = SolverConfig(crossover_prob=1.0, mutation_prob=0.5)
        for _ in range(3):
            genes = _make_offspring(genes, cfg, rng)
        assert np.all((genes >= 0.0) & (genes <= 1.0))

    def test_offspring_mutation_rate_is_binomial(self):
        # 10^6 genes at p_m 0.001: 1000 hits expected, standard deviation 31.6
        parents = np.full((1000, 1000), 0.5)
        cfg = SolverConfig(crossover_prob=0.0, mutation_prob=0.001)
        children = _make_offspring(parents, cfg, np.random.default_rng(5))
        hits = int(np.count_nonzero(children != parents))
        assert 800 <= hits <= 1200

    def test_no_variation_leaves_every_gene_and_full_mutation_changes_every_gene(self):
        rng = np.random.default_rng(8)
        parents = rng.uniform(0.01, 0.99, (20, 30))
        same = _make_offspring(parents, SolverConfig(crossover_prob=0.0, mutation_prob=0.0), rng)
        assert np.array_equal(same, parents)
        changed = _make_offspring(parents, SolverConfig(crossover_prob=0.0, mutation_prob=1.0), rng)
        assert np.all(changed != parents)

    def test_mutation_sites_are_independent_per_gene(self):
        rng = np.random.default_rng(12)
        hit = np.zeros((20_000, 10), dtype=bool)
        for row in hit:
            row[_mutation_sites(10, 0.3, rng)] = True
        # per gene 0.3 +- 0.0032, both of two neighbours 0.09 +- 0.002, each a 5-sigma bound
        assert np.all(np.abs(hit.mean(axis=0) - 0.3) < 0.017)
        assert np.all(np.abs((hit[:, 1:] & hit[:, :-1]).mean(axis=0) - 0.09) < 0.011)
        assert abs(hit.sum(axis=1).var() - 10 * 0.3 * 0.7) < 0.1

    def test_mutation_sites_draw_more_gaps_until_past_the_end(self):
        class ShortGaps:  # every gap 1: the first batch of gaps ends short of the end
            def geometric(self, p, size):
                return np.ones(size, dtype=np.int64)

        assert np.array_equal(_mutation_sites(1000, 0.001, ShortGaps()), np.arange(1000))
        assert _mutation_sites(1000, 0.0, ShortGaps()).size == 0

    @pytest.mark.parametrize("scenario, at_least", [("baseline", 2500), ("network_expansion", 5000)])
    def test_variation_moves_retailers(self, scenario, at_least):
        # 200 rounds of 50 children bred at the pinned settings from uniform random parents: a child
        # moves a retailer when it changes which of the retailer's weights is highest
        inst = default_instance(scenario)
        assert not inst.strict_per_dc
        j = inst.num_dcs

        def assignment(genes):
            _, _, t = decode_batch(genes, inst)
            dc = t.argmax(axis=1)  # (n, I)
            assert np.array_equal(t, np.eye(j)[dc].transpose(0, 2, 1) * inst.demand)  # each retailer whole at one DC
            return dc

        rng = np.random.default_rng(0)
        moved = 0
        for _ in range(200):
            parents = rng.random((50, inst.num_genes))
            children = _make_offspring(parents, SolverConfig(), rng)
            moved += np.count_nonzero((assignment(children) != assignment(parents)).any(axis=1))
        assert moved >= at_least

    def test_children_differ_from_parents_when_sbx_fires(self):
        rng = np.random.default_rng(9)
        parents = rng.random((10, 6))
        children = _make_offspring(parents, SolverConfig(crossover_prob=1.0), rng)
        assert children.shape == parents.shape
        assert not np.array_equal(children, parents)


def brute_fronts(objs):
    """Reference front partition by repeated scans of an explicit domination test."""
    objs = np.asarray(objs, dtype=float)
    n = len(objs)
    remaining = set(range(n))
    fronts = []
    while remaining:
        front = []
        for a in remaining:
            dominated = any(
                np.all(objs[b] <= objs[a]) and np.any(objs[b] < objs[a])
                for b in remaining
                if b != a
            )
            if not dominated:
                front.append(a)
        fronts.append(sorted(front))
        remaining -= set(front)
    return fronts


def fronts_of(objs):
    """Pareto fronts of (cost, violation) points as index lists, from the ranks ``_front_ranks`` gives."""
    objs = np.asarray(objs, dtype=float)
    ranks = _front_ranks(objs[:, 0], objs[:, 1])
    return [np.flatnonzero(ranks == r).tolist() for r in range(ranks.max() + 1)]


def front_crowding(objs):
    """``_crowding`` of points that all lie on one front."""
    objs = np.asarray(objs, dtype=float)
    return _crowding(np.zeros(objs.shape[0], dtype=np.int64), objs.T)


class TestSorting:
    def test_strict_domination(self):
        assert fronts_of([(1, 1), (2, 2)]) == [[0], [1]]

    def test_mutually_non_dominated(self):
        assert fronts_of([(1, 2), (2, 1)]) == [[0, 1]]

    def test_four_point_example(self):
        assert fronts_of([(1, 3), (2, 2), (3, 1), (3, 3)]) == [[0, 1, 2], [3]]

    @given(st.integers(0, 10**9))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        objs = rng.integers(0, 6, size=(int(rng.integers(1, 33)), 2)).astype(float)
        assert fronts_of(objs) == brute_fronts(objs)

    @given(st.integers(0, 10**9))
    @settings(max_examples=80, deadline=None)
    def test_fronts_partition_population(self, seed):
        # every point gets a front, and no front index between 0 and the largest is skipped
        rng = np.random.default_rng(seed)
        objs = rng.random((int(rng.integers(1, 40)), 2))
        fronts = fronts_of(objs)
        assert all(fronts)
        assert sorted(idx for f in fronts for idx in f) == list(range(len(objs)))


class TestCrowding:
    def test_two_point_front(self):
        assert np.all(np.isinf(front_crowding([(1, 2), (2, 1)])))

    def test_three_point_front(self):
        d = front_crowding([(1, 3), (2, 2), (3, 1)])
        assert np.isinf(d[0]) and np.isinf(d[2])
        assert d[1] == pytest.approx(2.0)

    def test_no_points(self):
        assert front_crowding(np.zeros((0, 2))).shape == (0,)

    def test_identical_points(self):
        d = front_crowding([(1, 1)] * 5)
        assert np.count_nonzero(np.isinf(d)) >= 2
        assert np.all(d[np.isfinite(d)] == 0.0)

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_extremes_are_infinite(self, seed):
        rng = np.random.default_rng(seed)
        objs = rng.random((int(rng.integers(3, 20)), 2))
        d = front_crowding(objs)
        for m in range(2):
            assert np.isinf(d[np.argmin(objs[:, m])])
            assert np.isinf(d[np.argmax(objs[:, m])])


def pop_from(genes, cost, violation):
    return Population(
        genes=np.asarray(genes, dtype=float),
        cost=np.asarray(cost, dtype=float),
        violation=np.asarray(violation, dtype=float),
    )


class TestSelection:
    def test_dominated_offspring_are_discarded(self):
        cfg = SolverConfig(population_size=4)
        parents = pop_from(np.eye(4), [1, 2, 3, 4], [0, 0, 0, 0])
        offspring = pop_from(np.eye(4) * 2, [5, 6, 7, 8], [1, 1, 1, 1])
        nxt = select_next_generation(parents, offspring, cfg)
        assert sorted(nxt.cost.tolist()) == [1, 2, 3, 4]

    def test_dominating_offspring_survives(self):
        cfg = SolverConfig(population_size=4)
        parents = pop_from(np.eye(4), [10, 11, 12, 13], [1, 1, 1, 1])
        offspring = pop_from(np.eye(4) * 2, [1, 20, 21, 22], [0, 2, 2, 2])
        nxt = select_next_generation(parents, offspring, cfg)
        assert 1.0 in nxt.cost

    def test_full_front_zero_fills_generation(self):
        cfg = SolverConfig(population_size=4)
        # four mutually non-dominated points plus four dominated ones
        parents = pop_from(np.eye(4), [1, 2, 3, 4], [4, 3, 2, 1])
        offspring = pop_from(np.eye(4) * 2, [10, 10, 10, 10], [10, 10, 10, 10])
        nxt = select_next_generation(parents, offspring, cfg)
        assert sorted(nxt.cost.tolist()) == [1, 2, 3, 4]

    def test_size_mismatch_rejected(self):
        cfg = SolverConfig(population_size=4)
        parents = pop_from(np.eye(4), [1, 2, 3, 4], [0] * 4)
        with pytest.raises(ValueError):
            select_next_generation(parents, pop_from(np.eye(3), [1, 2, 3], [0] * 3), cfg)


def matrix_rank_and_crowd(cost, violation):
    """Reference ranking: explicit O(N^2) domination matrix, then a crowding loop per front."""
    objs = np.stack([cost, violation], axis=1)
    n = objs.shape[0]
    dom = (objs[:, None, :] <= objs[None, :, :]).all(axis=2) & (objs[:, None, :] < objs[None, :, :]).any(axis=2)
    count = dom.sum(axis=0)
    ranks = np.full(n, -1)
    r = 0
    current = np.flatnonzero(count == 0)
    while current.size:
        ranks[current] = r
        count = count - dom[current].sum(axis=0)
        count[current] = -1
        current = np.flatnonzero(count == 0)
        r += 1
    crowd = np.zeros(n)
    for front_rank in range(r):
        front = np.flatnonzero(ranks == front_rank)
        d = np.zeros(front.size)
        if front.size <= 2:
            d[:] = np.inf
        for m in range(2):
            if front.size <= 2:
                break
            col = objs[front, m]
            order = np.argsort(col, kind="stable")
            d[order[0]] = d[order[-1]] = np.inf
            span = col[order[-1]] - col[order[0]]
            if span > 0:
                d[order[1:-1]] += (col[order[2:]] - col[order[:-2]]) / span
        crowd[front] = d
    order = np.lexsort((np.arange(n), -crowd, ranks))
    return ranks, crowd, order


def keyed_rank_and_crowd(cost, violation):
    """Reference ranking that breaks every tie by an explicit index key and finds each front's
    first and last sorted places from where the front changes, per objective."""
    ranks = _front_ranks(cost, violation)
    n = ranks.size
    index = np.arange(n)
    crowd = np.zeros(n)
    for col in (cost, violation):
        order = np.lexsort((index, col, ranks))
        front, value = ranks[order], col[order]
        edge = np.flatnonzero(front[1:] != front[:-1])
        first = np.concatenate(([0], edge + 1))
        last = np.concatenate((edge, [n - 1]))
        span = (value[last] - value[first])[front]
        gap = np.zeros(n)
        gap[1:-1] = value[2:] - value[:-2]
        crowd[order] += np.where(span > 0, gap / np.where(span > 0, span, 1.0), 0.0)
        crowd[order[first]] = np.inf
        crowd[order[last]] = np.inf
    return ranks, crowd, np.lexsort((index, -crowd, ranks))


class TestRankAndCrowd:
    @given(st.integers(0, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_survivor_order_matches_explicit_index_keys_on_duplicates_and_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 101))
        # a few distinct points, each repeated, on a coarse grid: duplicates, equal crowding and equal values
        distinct = rng.integers(0, int(rng.integers(1, 6)), size=(int(rng.integers(1, 9)), 2)).astype(float)
        distinct[rng.random(len(distinct)) < 0.5, 1] = 0.0
        cost, violation = distinct[rng.integers(0, len(distinct), n)].T
        for got, want in zip(_rank_and_crowd(cost, violation), keyed_rank_and_crowd(cost, violation)):
            assert np.array_equal(got, want)

    @given(st.integers(0, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_matrix_reference_on_tie_heavy_cases(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 101))
        levels = int(rng.integers(1, 8))
        cost = rng.integers(0, levels, n).astype(float)
        violation = rng.integers(0, levels, n).astype(float)
        violation[rng.random(n) < rng.random()] = 0.0
        for got, want in zip(_rank_and_crowd(cost, violation), matrix_rank_and_crowd(cost, violation)):
            assert np.array_equal(got, want)

    def test_survivors_carry_their_union_ranks(self):
        cfg = SolverConfig(population_size=4)
        parents = pop_from(np.eye(4), [1, 2, 3, 4], [4, 3, 2, 1])
        offspring = pop_from(np.eye(4) * 2, [2, 3, 10, 10], [4, 3, 10, 10])
        nxt = select_next_generation(parents, offspring, cfg)
        ranks, _, order = _rank_and_crowd(
            np.concatenate([parents.cost, offspring.cost]), np.concatenate([parents.violation, offspring.violation])
        )
        keep = order[:4]
        assert np.array_equal(nxt.rank, ranks[keep])


def rank_crowd_tournament(ranks, crowd, rng, n_select):
    """Reference tournament: rank asc, then crowding desc, then the lower index."""
    cand = rng.integers(0, ranks.size, size=(n_select, 2))
    a, b = cand[:, 0], cand[:, 1]
    a_wins = (
        (ranks[a] < ranks[b])
        | ((ranks[a] == ranks[b]) & (crowd[a] > crowd[b]))
        | ((ranks[a] == ranks[b]) & (crowd[a] == crowd[b]) & (a <= b))
    )
    return np.where(a_wins, a, b)


class TestTournament:
    @given(st.integers(0, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_earlier_in_survival_order_is_the_rank_crowd_rule(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 61))
        levels = int(rng.integers(1, 6))
        cost = rng.integers(0, levels, n).astype(float)
        violation = rng.integers(0, levels, n).astype(float)
        ranks, crowd, order = _rank_and_crowd(cost, violation)
        # a population is stored in survival order: member m is the m-th of that order
        got = _tournament_indices(n, np.random.default_rng(seed), 3 * n)
        want = rank_crowd_tournament(ranks[order], crowd[order], np.random.default_rng(seed), 3 * n)
        assert np.array_equal(got, want)

    def test_solve_passes_each_members_place_in_survival_order(self, monkeypatch):
        initial, survivals, tournaments = [], [], []
        init_population, select, tournament = (
            nsga2.init_population, nsga2.select_next_generation, nsga2._tournament_indices
        )

        def recording_init(*args):
            initial.append(init_population(*args))
            return initial[-1]

        def recording_select(parents, offspring, config):
            survivals.append((parents, offspring, select(parents, offspring, config)))
            return survivals[-1][-1]

        def recording_tournament(n, rng, n_select):
            tournaments.append(n)
            return tournament(n, rng, n_select)

        monkeypatch.setattr(nsga2, "init_population", recording_init)
        monkeypatch.setattr(nsga2, "select_next_generation", recording_select)
        monkeypatch.setattr(nsga2, "_tournament_indices", recording_tournament)
        cfg = SolverConfig(population_size=20, max_generations=4, seed=3)
        # 3^8 assignments for 20 rows: the initial population holds no duplicate points to reorder
        solve(random_instance(np.random.default_rng(3), s=2, k=2, j=3, i=8), cfg)
        # the tournament draws from the initial population, then from each generation's survivors
        assert tournaments == [20] * 4 and len(survivals) == 4
        drawn = [initial[0]] + [nxt for _, _, nxt in survivals[:-1]]
        assert all(parents is pop for (parents, _, _), pop in zip(survivals, drawn))
        ranks, _, order = _rank_and_crowd(initial[0].cost, initial[0].violation)
        assert np.array_equal(order, np.arange(20)) and np.array_equal(initial[0].rank, ranks)
        for parents, offspring, nxt in survivals:
            cost = np.concatenate([parents.cost, offspring.cost])
            violation = np.concatenate([parents.violation, offspring.violation])
            genes = np.vstack([parents.genes, offspring.genes])
            _, _, order = _rank_and_crowd(cost, violation)
            assert np.array_equal(nxt.genes, genes[order[:20]]) and np.array_equal(nxt.cost, cost[order[:20]])


class TestSolve:
    def test_zero_demand_zero_cost(self):
        # with zero demand the decode forces t = 0; zero unit costs make every
        # feasible point cost 0, so the first feasible individual settles it
        inst = single_chain(d=0.0, c_s=0.0, c_kj=0.0, h_j=0.0, r_ji=0.0)
        res = solve(inst, SolverConfig(max_generations=5))
        assert res.best_feasible is not None
        assert res.best_feasible[1].total == 0.0

    def test_determinism(self):
        inst = single_chain()
        cfg = SolverConfig(seed=3, max_generations=40)
        a, b = solve(inst, cfg), solve(inst, cfg)
        assert a.best_feasible[1].total == b.best_feasible[1].total
        assert [r.mean_cost for r in a.trace] == [r.mean_cost for r in b.trace]
        assert a.generations_run == b.generations_run

    def test_trace_best_cost_non_increasing(self):
        # a window as long as the budget keeps the run from stopping at the bound at once
        res = solve(single_chain(), SolverConfig(seed=11, max_generations=60, stall_generations=60))
        best = [r.best_feasible_cost for r in res.trace if r.best_feasible_cost is not None]
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))

    def test_the_best_price_never_rises(self):
        # the batch price and evaluate_cost once differed in the last bits, and this
        # run then traced a best that rose at generation 91
        rng = np.random.default_rng(5)
        for _ in range(13):
            inst = random_instance(rng)
        assert inst.counts == (1, 1, 3, 2) and not inst.strict_per_dc
        res = solve(inst, SolverConfig(seed=12, max_generations=150, stall_generations=150))
        best = [r.best_feasible_cost for r in res.trace if r.best_feasible_cost is not None]
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
        assert res.best_feasible[1].total == min(best)

    def test_trace_length_matches_generations(self):
        res = solve(single_chain(), SolverConfig(seed=2, max_generations=30, stall_generations=10**6))
        assert res.generations_run == 30
        assert len(res.trace) == 30
        assert res.terminated_by == "max-generations"

    def test_stall_termination(self):
        # criterion-4 instance 5 in strict per-DC mode: its optimum 37 lies above its bound 29, so the window ends the run
        inst = dataclasses.replace(criterion_4_instances(6)[5], strict_per_dc=True)
        res = solve(inst, SolverConfig(seed=2, max_generations=500, stall_generations=20))
        assert res.terminated_by == "stall"
        assert res.generations_run < 500
        assert res.best_feasible[1].total > lower_bound(inst)

    @pytest.mark.parametrize("index", range(6))
    def test_stop_at_the_lower_bound_returns_the_full_runs_best(self, index, monkeypatch):
        # every criterion-4 instance reaches its bound in aggregate mode; instance 5 in strict per-DC mode does not
        inst = criterion_4_instances(index + 1)[index]
        if index == 5:
            inst = dataclasses.replace(inst, strict_per_dc=True)
        bound = lower_bound(inst)
        configs = [SolverConfig(seed=seed, max_generations=300) for seed in range(3)]
        stopped = [solve(inst, cfg) for cfg in configs]
        monkeypatch.setattr(nsga2, "lower_bound", lambda instance: -np.inf)
        full = [solve(inst, cfg) for cfg in configs]
        for a, b, cfg in zip(stopped, full, configs):
            initial = init_population(inst, cfg, np.random.default_rng(cfg.seed))  # generation 0
            traced = [(0, c) for c in initial.cost[initial.violation == 0.0]]
            traced += [(r.generation, r.best_feasible_cost) for r in b.trace if r.best_feasible_cost is not None]
            at_bound = [g for g, best in traced if best <= bound]
            if index == 5:
                assert not at_bound  # the optimum stays above the bound: no early stop
            assert a.generations_run == (at_bound[0] if at_bound else b.generations_run)
            assert a.trace == b.trace[: a.generations_run]
            assert a.best_feasible == b.best_feasible  # FlowPlan compares with array_equal
            assert a.terminated_by == b.terminated_by == "stall"
        assert any(a.generations_run < b.generations_run for a, b in zip(stopped, full)) == (index != 5)

    def test_a_solve_at_the_bound_in_generation_0_returns_its_initial_populations_best(self):
        # criterion-4 instance 0's initial population at seed 0 already holds a plan at the bound
        inst = criterion_4_instances(1)[0]
        cfg = SolverConfig(seed=0, max_generations=300)
        res = solve(inst, cfg)
        assert (res.generations_run, res.terminated_by, res.trace) == (0, "stall", [])
        plan, breakdown = res.best_feasible
        assert evaluate_constraints(inst, plan).total_violation == 0.0
        assert breakdown.total == lower_bound(inst)
        initial = init_population(inst, cfg, np.random.default_rng(cfg.seed))
        front = initial.rank == 0
        for name in ("genes", "cost", "violation", "rank"):
            assert np.array_equal(getattr(res.final_front, name), getattr(initial, name)[front])

    def test_criterion_4_solves_reach_the_optimum_and_stop_in_generation_zero(self):
        # every criterion-4 optimum is its lower bound, and every initial population already
        # holds a plan at the bound, so every solve stops in generation 0 at the optimum.
        instances = criterion_4_instances(20)
        for index, inst in enumerate(instances):
            bound = lower_bound(inst)
            assert exact_optimum(inst)[1] == bound
            for seed in range(10):
                cfg = SolverConfig(seed=seed, max_generations=300)
                res = solve(inst, cfg)
                initial = init_population(inst, cfg, np.random.default_rng(seed))
                assert initial.cost[initial.violation == 0.0].min() == bound
                assert res.best_feasible[1].total == bound
                assert (res.terminated_by, res.generations_run, res.trace) == ("stall", 0, [])
        # the optimum with each plant-DC arc boxed at D_k/(u*J), the strict decoder's box, is dearer on three
        for index, optimum, boxed in ((5, 29.0, 31.0), (12, 39.0, 40.0), (17, 58.0, 62.0)):
            inst = instances[index]
            box = np.repeat(inst.plant_capacity / (inst.utilization * inst.num_dcs), inst.num_dcs)
            assert lower_bound(inst) == optimum
            assert family_lp(inst, arc_box=box) == pytest.approx(boxed, abs=1e-9)

    def test_no_strict_criterion_4_solve_prices_below_the_lower_bound(self):
        # strict per-DC mode only adds constraints, so the bound holds there too; production
        # a few ulps short of the shipments once priced instance 0 at 16.999999999999996 < 17
        for inst in criterion_4_instances(20):
            inst = dataclasses.replace(inst, strict_per_dc=True)
            bound = lower_bound(inst)
            for seed in range(10):
                assert solve(inst, SolverConfig(seed=seed, max_generations=300)).best_feasible[1].total >= bound

    def test_no_stop_at_the_bound_when_the_window_does_not_fit(self, monkeypatch):
        inst = criterion_4_instances(1)[0]
        cfg = SolverConfig(seed=1, max_generations=40, stall_generations=40)
        a = solve(inst, cfg)
        calls = []
        monkeypatch.setattr(nsga2, "lower_bound", lambda instance: calls.append(instance) or -np.inf)
        b = solve(inst, cfg)
        assert not calls  # a run that cannot stop early does not compute the bound
        assert a.trace == b.trace and a.generations_run == 40
        assert np.array_equal(a.final_front.genes, b.final_front.genes)

    def test_best_feasible_passes_constraint_check(self):
        rng = np.random.default_rng(77)
        inst = tiny_oracle_instance(rng)
        # a window as long as the budget keeps the run from stopping at the bound at once
        res = solve(inst, SolverConfig(seed=1, max_generations=80, stall_generations=80))
        assert res.generations_run == 80
        assert res.best_feasible is not None
        plan, breakdown = res.best_feasible
        report = evaluate_constraints(inst, plan)
        assert report.total_violation == 0.0
        assert breakdown.total == res.trace[-1].best_feasible_cost
        assert breakdown.total >= lower_bound(inst) - 1e-9

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("scenario", ["baseline", "dc_expansion", "network_expansion"])
    def test_traced_best_cost_is_the_reported_price(self, scenario, seed):
        res = solve(default_instance(scenario), SolverConfig(seed=seed, max_generations=300))
        assert res.trace[-1].best_feasible_cost == res.best_feasible[1].total

    def test_final_front_mutually_non_dominated(self):
        res = solve(single_chain(), SolverConfig(seed=5, max_generations=40))
        objs = list(zip(res.final_front.cost, res.final_front.violation))
        for a in range(len(objs)):
            for b in range(len(objs)):
                if a == b:
                    continue
                dominates = all(x <= y for x, y in zip(objs[a], objs[b])) and any(
                    x < y for x, y in zip(objs[a], objs[b])
                )
                assert not dominates

    def test_a_solve_decodes_and_prices_its_best_plan_once(self, monkeypatch):
        calls = {"decode": 0, "evaluate_cost": 0}

        def counted(name, inner):
            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(nsga2, name, counted(name, getattr(nsga2, name)))
        improved_twice = 0
        # criterion-4 runs stop at the bound in generation 0; strict per-DC scenario runs improve on their first plan
        runs = [(inst, seed) for inst in criterion_4_instances(20) for seed in range(2)]
        scenarios = ("baseline", "dc_expansion", "network_expansion")
        runs += [(dataclasses.replace(default_instance(s), strict_per_dc=True), seed) for s in scenarios for seed in range(3)]
        runs.append((single_chain(d=30.0, cap=20.0), 0))  # never feasible
        for inst, seed in runs:
            calls.update(decode=0, evaluate_cost=0)
            res = solve(inst, SolverConfig(seed=seed, max_generations=300))
            improved_twice += len({r.best_feasible_cost for r in res.trace} - {None}) >= 2
            once = int(res.best_feasible is not None)
            assert calls == {"decode": once, "evaluate_cost": once}
        assert res.best_feasible is None and improved_twice >= 5

    def test_the_initial_population_counts_for_the_best_plan(self, monkeypatch):
        inst = criterion_4_instances(1)[0]
        cfg = SolverConfig(seed=0, max_generations=3, stall_generations=3)
        pop = init_population(inst, cfg, np.random.default_rng(cfg.seed))
        feasible = pop.violation == 0.0
        assert feasible.any()
        # offspring priced as infeasible, so only the initial population has a best plan
        evaluate, priced = nsga2.batch_evaluate, []

        def offspring_infeasible(instance, *flows):
            cost, violation = evaluate(instance, *flows)
            priced.append(len(cost))
            return cost, violation + (len(priced) > 1)  # the first call prices the initial population

        monkeypatch.setattr(nsga2, "batch_evaluate", offspring_infeasible)
        res = solve(inst, cfg)
        assert priced == [50] * 4
        assert [r.best_feasible_cost for r in res.trace] == [pop.cost[feasible].min()] * 3
        assert res.best_feasible[1].total == pop.cost[feasible].min()

    def test_final_front_rows_are_their_genes_evaluated(self):
        strict = dataclasses.replace(random_instance(np.random.default_rng(4), s=2, k=3, j=3, i=6), strict_per_dc=True)
        sizes = []
        for inst, generations in [(strict, 30)] + [(inst, 300) for inst in criterion_4_instances(20)]:
            front = solve(inst, SolverConfig(seed=4, max_generations=generations)).final_front
            sizes.append(len(front))
            cost, violation = batch_evaluate(inst, *decode_batch(front.genes, inst))
            assert np.array_equal(cost, front.cost) and np.array_equal(violation, front.violation)
            assert np.array_equal(front.rank, np.zeros(len(front)))
        assert sizes[0] > 1 and max(sizes) == 50

    def test_infeasible_instance_reports_no_best(self):
        # demand exceeds what the DC can store: never feasible
        inst = single_chain(d=30.0, cap=20.0)
        res = solve(inst, SolverConfig(seed=0, max_generations=20))
        assert res.best_feasible is None
        assert res.final_front.violation.min() > 0


class TestConfig:
    def test_odd_population_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(population_size=7)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("crossover_prob", 1.5, "must lie in"),
            ("mutation_prob", -0.1, "must lie in"),
            ("crossover_prob", True, "must be a number, got True"),
            ("mutation_prob", False, "must be a number, got False"),
            ("mutation_prob", "0.1", "must be a number, got '0.1'"),
            ("crossover_prob", None, "must be a number, got None"),
        ],
    )
    def test_probability_bounds(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{field} {message}"):
            SolverConfig(**{field: value})

    def test_numeric_probabilities_accepted(self):
        cfg = SolverConfig(crossover_prob=1, mutation_prob=np.float32(0.5))
        assert (cfg.crossover_prob, cfg.mutation_prob) == (1, 0.5)

    @pytest.mark.parametrize("stall", [0, -5])
    def test_stall_window_below_one_rejected_by_name(self, stall):
        with pytest.raises(ValueError, match="stall_generations"):
            SolverConfig(stall_generations=stall)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("population_size", 10.0),
            ("max_generations", 2.5),
            ("max_generations", True),
            ("stall_generations", 1.5),
            ("seed", 1.5),
            ("seed", False),
        ],
    )
    def test_non_integer_setting_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            SolverConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        assert SolverConfig(seed=np.int64(3), max_generations=np.int32(5)).seed == 3

    def test_defaults_match_reported_configuration(self):
        cfg = SolverConfig()
        assert cfg.population_size == 50
        assert cfg.crossover_prob == 0.6
        assert cfg.mutation_prob == 0.001
