"""Independent ground-truth solvers for tiny instances.

``brute_force_optimum`` enumerates a flow lattice over per-variable boxes,
raw flow at C_s/K and plant-DC flow at D_k/(u*J), and keeps the cheapest
feasible point; it is the reference the evolutionary engine is validated
against and shares no evaluation code with it.  It gives the optimum inside
those boxes.  The GA decoder keeps the plant-DC box but buys raw material
without the raw box, so the GA may beat it.  ``single_chain_optimum`` is the closed form on the
1x1x1x1 topology and ``lower_bound`` the cheapest-path relaxation that
ignores capacities.
"""

from __future__ import annotations

import math

import numpy as np

from .network import FlowPlan, NetworkInstance

MAX_LATTICE_POINTS = 10**8
_CHUNK = 200_000


class OracleError(Exception):
    pass


class SearchSpaceTooLargeError(OracleError):
    def __init__(self, size):
        self.size = size
        super().__init__(f"lattice has {size:.3e} points, above the {MAX_LATTICE_POINTS:.0e} limit")


class NoFeasibleLatticePointError(OracleError):
    def __init__(self, min_violation):
        self.min_violation = min_violation
        super().__init__(f"no feasible lattice point; minimal violation found: {min_violation}")


class TopologyError(OracleError):
    pass


def _variable_boxes(instance: NetworkInstance):
    """Upper bounds per flow variable in order [r (S,K) | p (K,J) | t (J,I)], row-major."""
    s, k, j, i = instance.counts
    r_up = np.repeat(instance.supplier_capacity / k, k)
    p_up = np.repeat(instance.plant_capacity / (instance.utilization * j), j)
    t_up = np.tile(instance.demand, j)
    return np.concatenate([r_up, p_up, t_up])


def _cost_vector(instance: NetworkInstance):
    s, k, j, i = instance.counts
    r_c = np.repeat(instance.raw_unit_cost, k)
    p_c = (instance.plant_dc_unit_cost + instance.holding_unit_cost[None, :]).ravel()
    t_c = instance.dc_retailer_unit_cost.ravel()
    return np.concatenate([r_c, p_c, t_c])


def _violations(instance: NetworkInstance, x, grid_step):
    """Total violation per lattice point; demand equality judged at grid_step/2."""
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


def brute_force_optimum(instance: NetworkInstance, grid_step: float = 1.0):
    """Cheapest feasible point of the flow lattice: (FlowPlan, cost).

    Enumerates every combination of lattice levels per variable (value i *
    grid_step clipped at the box bound) in lexicographic order, so cost ties
    resolve to the lexicographically smallest plan.
    """
    if not 0.0 < grid_step < np.inf:
        raise ValueError("grid_step must be positive and finite")
    s, k, j, i = instance.counts
    uppers = _variable_boxes(instance)
    levels = (1 + np.ceil(uppers / grid_step)).astype(np.int64)
    total = float(np.prod(levels.astype(np.float64)))
    if total > MAX_LATTICE_POINTS:
        raise SearchSpaceTooLargeError(total)
    total = int(round(total))

    nvar = uppers.size
    # strides with variable 0 most significant: linear order == lexicographic
    strides = np.ones(nvar, dtype=np.int64)
    for v in range(nvar - 2, -1, -1):
        strides[v] = strides[v + 1] * levels[v + 1]

    coeff = _cost_vector(instance)
    best_cost = np.inf
    best_x = None
    min_violation = np.inf

    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        x = ((idx[:, None] // strides[None, :]) % levels[None, :]).astype(np.float64)
        x *= grid_step
        np.minimum(x, uppers[None, :], out=x)
        viol = _violations(instance, x, grid_step)
        chunk_min_viol = viol.min()
        if chunk_min_viol < min_violation:
            min_violation = chunk_min_viol
        feas = viol == 0.0
        if not feas.any():
            continue
        costs = x[feas] @ coeff
        a = int(np.argmin(costs))  # first occurrence: lexicographically smallest
        if costs[a] < best_cost:
            best_cost = float(costs[a])
            best_x = x[feas][a].copy()

    if best_x is None:
        raise NoFeasibleLatticePointError(min_violation)
    plan = FlowPlan(
        best_x[: s * k].reshape(s, k),
        best_x[s * k : s * k + k * j].reshape(k, j),
        best_x[s * k + k * j :].reshape(j, i),
    )
    return plan, best_cost


def single_chain_optimum(instance: NetworkInstance) -> float:
    """Closed-form optimum d*(u*c_s + c_kj + h_j + r_ji) on the 1x1x1x1 topology."""
    if instance.counts != (1, 1, 1, 1):
        raise TopologyError(f"single-chain oracle needs counts (1,1,1,1), got {instance.counts}")
    d = float(instance.demand[0])
    u = instance.utilization
    if d > instance.dc_capacity[0] or u * d > instance.plant_capacity[0] or u * d > instance.supplier_capacity[0]:
        raise OracleError("capacities do not admit the demand on the single chain")
    return d * (
        u * float(instance.raw_unit_cost[0])
        + float(instance.plant_dc_unit_cost[0, 0])
        + float(instance.holding_unit_cost[0])
        + float(instance.dc_retailer_unit_cost[0, 0])
    )


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
