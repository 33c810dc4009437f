"""Independent ground-truth solvers for tiny instances.

``brute_force_optimum`` searches a flow lattice over per-variable boxes, raw
flow at C_s/K and plant-DC flow at D_k/(u*J), and keeps the cheapest feasible
point; it is the reference the evolutionary engine is validated against and
shares no constraint check with it, only the model's unit-cost vector
(``network.unit_costs``).  It gives the optimum inside those boxes.
The GA has no raw genes: its decoder keeps the plant-DC box but buys raw
material without the raw box, so the GA may beat it.

The search is exhaustive but factorised.  Every check on a plan reads either
the raw and production flows (r, p) or the delivery flows (t), except one:
shipments within production, network-wide and, in strict mode, per DC.  So
the (r, p) lattice and the t lattice are enumerated and checked apart, and
only the points that pass their own checks are paired, through that one
check; the cost of a pair is the sum of its two parts.  A lattice of 2e6
points takes a few milliseconds instead of a second.

``lower_bound`` is the cheapest-path relaxation that ignores capacities.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from .network import FlowPlan, NetworkInstance, unit_costs

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


def _variable_boxes(instance: NetworkInstance):
    """Upper bounds per flow variable in order [r (S,K) | p (K,J) | t (J,I)], row-major."""
    s, k, j, i = instance.counts
    r_up = np.repeat(instance.supplier_capacity / k, k)
    p_up = np.repeat(instance.plant_capacity / (instance.utilization * j), j)
    t_up = np.tile(instance.demand, j)
    return np.concatenate([r_up, p_up, t_up])


def _outer_violation(instance, x, grid_step):
    """Violation of the checks on r and p alone: raw per plant, plant and
    supplier capacity, and DC capacity in strict mode."""
    s, k, j, i = instance.counts
    n = x.shape[0]
    r = x[:, : s * k].reshape(n, s, k)
    p = x[:, s * k :].reshape(n, k, j)
    u = instance.utilization
    tol = 1e-9
    used = u * p.sum(axis=2)
    breach = [
        used - r.sum(axis=1) - tol * np.maximum(1.0, used),
        used - instance.plant_capacity - tol * np.maximum(1.0, instance.plant_capacity),
        r.sum(axis=2) - instance.supplier_capacity - tol * np.maximum(1.0, instance.supplier_capacity),
    ]
    if instance.strict_per_dc:
        breach.append(p.sum(axis=1) - instance.dc_capacity)
    return np.maximum(0.0, np.concatenate(breach, axis=1)).sum(axis=1)


def _production(instance, x):
    s, k, j, i = instance.counts
    p = x[:, s * k :].reshape(x.shape[0], k, j)
    return p.sum(axis=(1, 2)), p.sum(axis=1) if instance.strict_per_dc else None


def _delivery_violation(instance, x, grid_step):
    """Demand mismatch, judged at grid_step/2."""
    s, k, j, i = instance.counts
    mism = np.abs(x.reshape(x.shape[0], j, i).sum(axis=1) - instance.demand)
    return np.where(mism > grid_step / 2.0 + 1e-9, mism, 0.0).sum(axis=1)


def _shipments(instance, x):
    s, k, j, i = instance.counts
    t = x.reshape(x.shape[0], j, i)
    return t.sum(axis=(1, 2)), t.sum(axis=2) if instance.strict_per_dc else None


class _Block(NamedTuple):
    """One block of the flow vector, its lattice, and the checks that read it alone."""

    uppers: np.ndarray  # box bound per variable
    levels: np.ndarray  # lattice levels per variable
    strides: np.ndarray  # place value of each variable's level in the block's point index
    unit_cost: np.ndarray
    violation: Callable  # (instance, points, grid_step) -> violation of the block's own checks
    coupling_side: Callable  # (instance, points) -> (network total, per DC in strict mode)


class _Rows(NamedTuple):
    """Block points with their weight and their side of the coupling check."""

    points: np.ndarray
    weight: np.ndarray  # cost of a point that passes its block's checks, else its violation
    total: np.ndarray  # produced (outer block) or shipped (inner block), network-wide
    per_dc: Optional[np.ndarray]  # the same per DC, in strict mode


def _block_chunks(instance, block, grid_step, survivors_only):
    """One block's lattice in index order, as _Rows of at most _CHUNK points.

    With ``survivors_only`` only the points that pass the block's own checks,
    weighted by cost; otherwise every point, weighted by the violation of
    those checks.
    """
    size = int(block.strides[0] * block.levels[0])
    for start in range(0, size, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, size), dtype=np.int64)
        x = ((idx[:, None] // block.strides) % block.levels).astype(np.float64)
        x *= grid_step
        np.minimum(x, block.uppers, out=x)
        w = block.violation(instance, x, grid_step)
        if survivors_only:
            x = x.compress(w == 0.0, axis=0)
            if not x.shape[0]:
                continue
            w = x @ block.unit_cost
        yield _Rows(x, w, *block.coupling_side(instance, x))


def _pairs(instance, outer, inner, grid_step, survivors_only):
    """Sub-blocks of at most _CHUNK (outer, inner) pairs, outer-major:
    (outer _Rows, inner _Rows, violation of the coupling check per pair).

    The coupling check is shipped within produced, and in strict mode also
    shipped within arrivals at each DC.
    """
    for o in _block_chunks(instance, outer, grid_step, survivors_only):
        for d in _block_chunks(instance, inner, grid_step, survivors_only):
            step = max(1, _CHUNK // d.points.shape[0])
            for a in range(0, o.points.shape[0], step):
                sub = o
                if step < o.points.shape[0]:
                    sub = _Rows._make(None if col is None else col[a : a + step] for col in o)
                over = np.maximum(0.0, d.total - sub.total[:, None])
                if instance.strict_per_dc:
                    over += np.maximum(0.0, d.per_dc - sub.per_dc[:, None, :]).sum(axis=2)
                yield sub, d, over


def brute_force_optimum(instance: NetworkInstance, grid_step: float = 1.0):
    """Cheapest feasible point of the flow lattice: (FlowPlan, cost).

    Covers every combination of lattice levels per variable (value i *
    grid_step clipped at the box bound).  Cost ties resolve to the
    lexicographically smallest plan.

    The flow vector [r | p | t] splits into an outer block (r, p) and an
    inner block (t), each enumerated in lexicographic order, so the order of
    (outer index, inner index) is the order of plans.  Only pairs of points
    that pass their own block's checks are priced.  The smallest violation,
    reported when nothing is feasible, is taken over all pairs.
    """
    if not 0.0 < grid_step < np.inf:
        raise ValueError("grid_step must be positive and finite")
    s, k, j, i = instance.counts
    uppers = _variable_boxes(instance)
    levels = (1 + np.ceil(uppers / grid_step)).astype(np.int64)
    total = float(np.prod(levels.astype(np.float64)))
    if total > MAX_LATTICE_POINTS:
        raise SearchSpaceTooLargeError(total)

    # variable 0 is the most significant digit: index order == lexicographic order
    strides = np.multiply.accumulate(levels[::-1])[::-1] // levels
    split = s * k + k * j
    coeff = unit_costs(instance)
    outer = _Block(
        uppers[:split], levels[:split], strides[:split] // strides[split - 1], coeff[:split],
        _outer_violation, _production,
    )
    inner = _Block(uppers[split:], levels[split:], strides[split:], coeff[split:], _delivery_violation, _shipments)
    storage = max(0.0, instance.demand.sum() - instance.dc_capacity.sum())  # no point meets it if > 0

    best_cost, x_o, x_d = np.inf, None, None
    pairs = _pairs(instance, outer, inner, grid_step, survivors_only=True) if storage == 0.0 else ()
    for o, d, over in pairs:
        cost = o.weight[:, None] + d.weight
        cost[over > 0.0] = np.inf
        a_o, a_d = divmod(int(cost.argmin()), cost.shape[1])  # first minimum: smallest outer, then inner
        c = float(cost[a_o, a_d])
        # a tie with an earlier sub-block goes to the smaller plan
        if c < best_cost or (
            c == best_cost < np.inf
            and (o.points[a_o].tolist(), d.points[a_d].tolist()) < (x_o.tolist(), x_d.tolist())
        ):
            best_cost, x_o, x_d = c, o.points[a_o], d.points[a_d]

    if x_o is None:
        min_violation = storage + min(
            float((o.weight[:, None] + d.weight + over).min())
            for o, d, over in _pairs(instance, outer, inner, grid_step, survivors_only=False)
        )
        raise NoFeasibleLatticePointError(min_violation)
    plan = FlowPlan(x_o[: s * k].reshape(s, k), x_o[s * k :].reshape(k, j), x_d.reshape(j, i))
    return plan, best_cost


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
