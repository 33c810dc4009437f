"""Exact optimum of the four-echelon model at any size, and a lower bound.

``exact_optimum`` is the reference the evolutionary engine is checked
against, so it shares no search or decoding with it (``nsga2`` imports this
module, not the other way round).  Every unit cost is nonnegative, so at an
optimum production equals the shipments and raw purchase is u x the demand,
bought from the cheapest suppliers first: raw cost depends on the supplier
alone, and any supplier may feed any plant.  What is left is a flow of cases.
In aggregate mode production-vs-shipment is network-wide, so the flow runs
through one hub: plants in order of their cheapest route min_j(c_kj + h_j),
each up to D_k/u, and each retailer whole from its cheapest DC.  In strict
per-DC mode it is a transshipment LP over the K*J + J*I plant-DC and
DC-retailer arcs, which HiGHS solves exactly (Huangfu & Hall, Math. Prog.
Comp. 10, 2018).  The arcs are complete and unbounded, so either flow exists
exactly when supplier capacity, plant capacity and DC storage each carry the
demand in total.

``lower_bound`` is the cheapest-path relaxation that ignores capacities.
"""

from __future__ import annotations

import numpy as np

from .network import FlowPlan, NetworkInstance, evaluate_cost


class OracleError(Exception):
    """The instance has no feasible plan; the message names the check that fails."""


def _check_totals(instance: NetworkInstance):
    """Raise OracleError naming the first total that cannot carry the demand."""
    u, demand = instance.utilization, instance.demand.sum()
    for name, have, need in (
        ("supplier capacity", instance.supplier_capacity.sum(), u * demand),
        ("plant capacity", instance.plant_capacity.sum() / u, demand),
        ("DC storage", instance.dc_capacity.sum(), demand),
    ):
        if have < need:
            raise OracleError(f"{name} {have:.6g} falls short of the {need:.6g} the demand needs")


def _in_order(supply: np.ndarray, need: np.ndarray) -> np.ndarray:
    """Flows (len(supply), len(need)): the slots of ``need`` filled in order from
    the slots of ``supply`` in order, each taking the overlap of their running
    totals (the north-west corner rule)."""
    s_end, n_end = (np.concatenate([[0.0], np.cumsum(a)]) for a in (supply, need))
    overlap = np.minimum(s_end[1:, None], n_end[None, 1:]) - np.maximum(s_end[:-1, None], n_end[None, :-1])
    return np.maximum(overlap, 0.0)


def _aggregate_flows(instance: NetworkInstance):
    """Plant-DC (K, J) and DC-retailer (J, I) flows of the hub's greedy; the first cheapest arc on a tie."""
    _, k, j, i = instance.counts
    route = instance.plant_dc_unit_cost + instance.holding_unit_cost[None, :]
    arc = route.argmin(axis=1)
    plants = np.argsort(route[np.arange(k), arc], kind="stable")
    p = np.zeros((k, j))
    room = instance.plant_capacity[plants] / instance.utilization
    p[plants, arc[plants]] = _in_order(room, instance.demand.sum()[None])[:, 0]
    t = np.zeros((j, i))
    t[instance.dc_retailer_unit_cost.argmin(axis=0), np.arange(i)] = instance.demand
    return p, t


def _strict_flows(instance: NetworkInstance):
    """Plant-DC (K, J) and DC-retailer (J, I) flows of the transshipment LP.

    Columns are the arcs [p | t], row-major; rows are plant capacity
    sum_j p_kj <= D_k/u, DC capacity sum_k p_kj <= H_j, DC balance (arrivals
    = shipments) and demand sum_j t_ji = d_i.  scipy is imported here only, so
    that importing pdnet does not pay for it.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    _, k, j, i = instance.counts
    eye, ones = sparse.identity, (lambda n: np.ones((1, n)))
    arrivals = sparse.kron(ones(k), eye(j))  # (J, K*J)
    res = linprog(
        np.concatenate([(instance.plant_dc_unit_cost + instance.holding_unit_cost).ravel(),
                        instance.dc_retailer_unit_cost.ravel()]),
        A_ub=sparse.bmat([[sparse.kron(eye(k), ones(j)), sparse.csr_matrix((k, j * i))], [arrivals, None]]),
        b_ub=np.concatenate([instance.plant_capacity / instance.utilization, instance.dc_capacity]),
        A_eq=sparse.bmat([[arrivals, -sparse.kron(eye(j), ones(i))], [None, sparse.kron(ones(j), eye(i))]]),
        b_eq=np.concatenate([np.zeros(j), instance.demand]),
        method="highs",
    )
    if not res.success:
        raise OracleError(f"per-DC flow: {res.message}")
    x = np.maximum(res.x, 0.0)
    return x[: k * j].reshape(k, j), x[k * j :].reshape(j, i)


def _covered(x: np.ndarray, gap, whole=False) -> np.ndarray:
    """``x`` raised in place until ``gap(x)``, what each line (column, or all of
    ``x`` when ``whole``) falls short of a need as ``network`` adds it, is
    nowhere positive: the largest entry of a short line rises as
    ``nsga2._Codec.fill`` raises its targets.  So rounding never prices a plan
    a few ulps below the optimum by leaving a row that covers a need short."""
    lines = x.reshape(-1, 1) if whole else x  # a view of x
    cols = np.arange(lines.shape[1])
    while (g := np.atleast_1d(gap(x))).max() > 0:
        top = lines.argmax(axis=0)
        v = lines[top, cols]
        lines[top, cols] = np.where(g > 0, np.maximum(v + g, np.nextafter(v, np.inf)), v)
    return x


def exact_optimum(instance: NetworkInstance):
    """The model's cheapest feasible plan and its price, ``evaluate_cost``'s total: (FlowPlan, float).

    Raises OracleError, naming the check that fails, when no plan is feasible.
    Rounding never leaves a cover row short (demand, production per DC and in
    all, raw per plant); it may leave a capacity or oversupply row a few ulps
    over, inside the 1e-9 tolerance.
    """
    _check_totals(instance)
    p, t = (_strict_flows if instance.strict_per_dc else _aggregate_flows)(instance)
    if instance.strict_per_dc:  # the aggregate greedy meets each demand exactly
        _covered(t, lambda t: instance.demand - np.einsum("ji->i", t))
        _covered(p, lambda p: np.einsum("ji->j", t) - np.einsum("kj->j", p))
    shipped = np.einsum("ji->i", t).sum()
    _covered(p, lambda p: shipped - np.einsum("kj->j", p).sum(), whole=True)
    need = instance.utilization * np.einsum("kj->k", p)
    suppliers = np.argsort(instance.raw_unit_cost, kind="stable")
    r = np.empty((instance.num_suppliers, instance.num_plants))
    r[suppliers] = _in_order(instance.supplier_capacity[suppliers], need)
    plan = FlowPlan(_covered(r, lambda r: need - np.einsum("sk->k", r)), p, t)
    return plan, evaluate_cost(instance, plan).total


def brute_force_optimum(instance: NetworkInstance, grid_step: float = 1.0):
    """``exact_optimum(instance)``, not a lattice search; it exists only for perfbench's
    ``tiny-oracle`` call by this name, until the benchmark moves (ROADMAP item 7)."""
    return exact_optimum(instance)


def lower_bound(instance: NetworkInstance) -> float:
    """Cheapest-path relaxation ignoring capacities; never above any feasible cost.

    Every case demanded must be bought as raw material, produced and delivered
    somewhere, so cost is at least demand times the cheapest supplier, the
    cheapest production route and the cheapest delivery leg.  The three stages
    are bounded independently: the production-vs-shipment constraint is
    network-aggregate, so the DC a case is held at need not be the DC it ships
    from, and coupling the stages through a shared DC would overshoot.
    """
    u = instance.utilization
    cheapest_raw = u * float(instance.raw_unit_cost.min())
    cheapest_route = float((instance.plant_dc_unit_cost + instance.holding_unit_cost[None, :]).min())
    per_retailer_delivery = instance.dc_retailer_unit_cost.min(axis=0)  # (I,)
    return float(
        np.sum(instance.demand * (cheapest_raw + cheapest_route + per_retailer_delivery))
    )
