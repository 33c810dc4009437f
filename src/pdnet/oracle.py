"""Exact optimum of the four-echelon model at any size, and the lower bound it gives.

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
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .network import FlowPlan, NetworkInstance, evaluate_cost

# How far apart, relative, one plan's decoded and oracle prices may round (2.6e-16 at most on 3,000 instances)
ROUNDING = 4 * float(np.finfo(np.float64).eps)


class OracleError(Exception):
    """The instance has no feasible plan; the message names the check that fails."""


def _check_totals(instance: NetworkInstance):
    """Raise OracleError naming the first total that cannot carry the demand.

    A total falls short when it is below its need by more than ROUNDING of it:
    demand [0.1, 0.2] sums to 0.30000000000000004, which storage 0.3 carries.
    The message gives each total as its shortest round-trip text, so a total
    a hair short reads apart from its need.
    """
    u, demand = instance.utilization, instance.demand.sum()
    for name, have, need in (
        ("supplier capacity", instance.supplier_capacity.sum(), u * demand),
        ("plant capacity", instance.plant_capacity.sum() / u, demand),
        ("DC storage", instance.dc_capacity.sum(), demand),
    ):
        if have < need * (1.0 - ROUNDING):
            have, need = (repr(float(x)).removesuffix(".0") for x in (have, need))
            raise OracleError(f"{name} {have} falls short of the {need} the demand needs")


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
    """The aggregate-mode optimum's price less ROUNDING of it.

    Raises OracleError, as ``exact_optimum`` does, when no plan is feasible.  Strict mode
    only adds constraints, so no plan of either mode prices below it, rounding included.
    """
    return exact_optimum(dataclasses.replace(instance, strict_per_dc=False))[1] * (1.0 - ROUNDING)
