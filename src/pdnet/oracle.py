"""Independent ground-truth solvers for tiny instances.

``brute_force_optimum`` searches a flow lattice over per-variable boxes, raw
flow at C_s/K and plant-DC flow at D_k/(u*J), and keeps the cheapest feasible
point; it is the reference the evolutionary engine is validated against and
shares no constraint check or pricing with it: it prices a point with its
own unit cost per flow variable.  It gives the optimum inside those boxes.
The GA has no raw or production genes; it buys raw material without the raw
box.  In aggregate mode it has no plant-DC box either: its production fills
each plant up to D_k/u on the plant's cheapest route, so it beats brute
force where the box binds (criterion-4 instances 5, 12 and 17 cost 29, 39
and 58, brute force gives 31, 40 and 62).  In strict per-DC mode it keeps
the box.

The search is exhaustive but factorised into three blocks of the flow
vector: raw (r), production (p) and delivery (t).  Every check on a plan
reads one block, except two: raw per plant reads r and p, and shipments
within production (network-wide and, in strict mode, per DC) reads p and t.
So each block's lattice is enumerated and checked apart, and two pairings
join them through those two checks: raw with production points, which gives
the outer (r, p) points that pass every check on them, and those with the
delivery points that pass theirs.  A lattice of 2e6 points takes about a
millisecond instead of a second.

``lower_bound`` is the cheapest-path relaxation that ignores capacities.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from .network import FlowPlan, NetworkInstance

MAX_LATTICE_POINTS = 10**8
_CHUNK = 200_000
_TOL = 1e-9


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
    r_up = (instance.supplier_capacity / k).repeat(k)
    p_up = (instance.plant_capacity / (instance.utilization * j)).repeat(j)
    return np.concatenate([r_up, p_up] + [instance.demand] * j)


def _variable_costs(instance: NetworkInstance):
    """Unit cost per flow variable, in ``_variable_boxes``' order; read-only,
    as it is kept with the instance."""
    k = instance.num_plants
    route = instance.plant_dc_unit_cost + instance.holding_unit_cost[None, :]
    cost = np.concatenate([instance.raw_unit_cost.repeat(k), route.ravel(), instance.dc_retailer_unit_cost.ravel()])
    cost.setflags(write=False)
    return cost


# Each check takes a block's points as a (variables, points) array, so that
# the sums over a block's variables run along the long axis, and returns the
# breach of the block's own checks per check and point (a point passes where
# every breach is <= 0) and the point's side of the next pairing.

def _raw_check(instance, x, grid_step):
    """Raw points: supplier capacity per supplier; side: raw per plant."""
    s, k, j, i = instance.counts
    r = x.reshape(s, k, -1)
    cap = instance.supplier_capacity[:, None]
    return r.sum(axis=1) - cap - _TOL * np.maximum(1.0, cap), (r.sum(axis=0),)


def _production_check(instance, x, grid_step):
    """Production points: plant capacity per plant and, in strict mode, DC
    capacity per DC; side: production in all and, in strict mode, per DC,
    then raw needed per plant and its tolerance."""
    s, k, j, i = instance.counts
    p = x.reshape(k, j, -1)
    used = instance.utilization * p.sum(axis=1)
    cap = instance.plant_capacity[:, None]
    breach = used - cap - _TOL * np.maximum(1.0, cap)
    per_dc = None
    if instance.strict_per_dc:
        per_dc = p.sum(axis=0)
        breach = np.concatenate([breach, per_dc - instance.dc_capacity[:, None]])
    return breach, (x.sum(axis=0), per_dc, used, _TOL * np.maximum(1.0, used))


def _delivery_check(instance, x, grid_step):
    """Delivery points: demand mismatch per retailer, judged at grid_step/2;
    side: shipments in all and, in strict mode, per DC."""
    s, k, j, i = instance.counts
    t = x.reshape(j, i, -1)
    mism = np.abs(t.sum(axis=0) - instance.demand[:, None])
    per_dc = t.sum(axis=1) if instance.strict_per_dc else None
    return np.where(mism > grid_step / 2.0 + _TOL, mism, 0.0), (x.sum(axis=0), per_dc)


class _Rows(NamedTuple):
    """Points of a block, or pairs of them.  ``points`` holds one point per
    row; ``weight`` and ``side`` hold one point per column."""

    points: Optional[np.ndarray]  # None for pairs on the infeasible path, which are never returned
    weight: np.ndarray  # cost of a point that passes its checks, else their breach or violation
    side: tuple  # the point's side of the next pairing


def _block_rows(instance, levels, uppers, grid_step, check):
    """One block's lattice in index order, as _Rows weighted by the breaches
    of ``check``.  A chunk is a run of at most _CHUNK flat indices, unravelled
    into levels, then scaled to flows and clipped at the box bounds."""
    total = math.prod(levels)
    for a in range(0, total, _CHUNK):
        x = np.array(np.unravel_index(np.arange(a, min(a + _CHUNK, total)), levels), dtype=np.float64)
        if grid_step != 1.0:  # at grid 1 a level is its flow
            x *= grid_step
        np.minimum(x, uppers, out=x)
        yield _Rows(x.T, *check(instance, x, grid_step))


def _priced_survivors(rows, unit_cost):
    """The points that pass their block's own checks, weighted by cost."""
    for d in rows:
        keep = (d.weight <= 0.0).all(axis=0)
        x = d.points.compress(keep, axis=0)
        if x.shape[0]:
            yield _Rows(x, x @ unit_cost, _each(d.side, lambda a: a.compress(keep, axis=-1)))


def _each(side, f):
    """``f`` of each array of a side; None, a side absent in aggregate mode, stays."""
    return tuple(None if a is None else f(a) for a in side)


def _pairs(outer, inner, coupling):
    """Sub-blocks of at most _CHUNK (outer, inner) pairs, outer-major:
    (outer _Rows, inner _Rows, coupling(outer, inner)), the last giving the
    coupling check per pair.  ``inner`` is called once per outer chunk for a
    fresh pass over the inner rows."""
    for o in outer:
        n = o.weight.shape[-1]
        for d in inner():
            step = max(1, _CHUNK // d.weight.shape[-1])
            for a in range(0, n, step):
                sub = o
                if step < n:
                    sub = _Rows(
                        None if o.points is None else o.points[a : a + step],
                        o.weight[..., a : a + step],
                        _each(o.side, lambda c: c[..., a : a + step]),
                    )
                yield sub, d, coupling(sub, d)


def _outer_breach(r, p):
    """Breach of every check on r and p, as (check, raw point, production
    point): raw per plant, plant capacity, supplier capacity and, in strict
    mode, DC capacity, the order in which a point's violation sums them."""
    used, tol_used = p.side[2][:, None, :], p.side[3][:, None, :]
    k, s = used.shape[0], r.weight.shape[0]
    breach = np.empty((k + s + p.weight.shape[0], r.weight.shape[1], p.weight.shape[1]))
    np.subtract(used, r.side[0][:, :, None], out=breach[:k])
    breach[:k] -= tol_used
    breach[k : 2 * k] = p.weight[:k, None, :]
    breach[2 * k : 2 * k + s] = r.weight[:, :, None]
    if p.weight.shape[0] > k:
        breach[2 * k + s :] = p.weight[k:, None, :]
    return breach


def _outer_rows(raw, production, unit_cost):
    """The outer (r, p) points, raw and production rows paired r-major, as
    _Rows in index order within each chunk.  Given ``unit_cost``, only the
    pairs that pass every check on r and p, weighted by cost; without it,
    every pair, weighted by the violation of those checks.  Chunks follow the
    pairing's sub-blocks, so they need not come in index order."""
    for r, p, breach in _pairs(raw, production, _outer_breach):
        side = p.side[:2]  # production in all and per DC
        if unit_cost is not None:
            a, b = (breach <= 0.0).all(axis=0).nonzero()
            if a.size:
                x = np.concatenate([r.points[a], p.points[b]], axis=1)
                yield _Rows(x, x @ unit_cost, _each(side, lambda c: c.take(b, axis=-1)))
            continue
        np.maximum(breach, 0.0, out=breach)
        weight = np.ascontiguousarray(breach.transpose(1, 2, 0)).sum(axis=2).ravel()
        yield _Rows(None, weight, _each(side, lambda c: np.tile(c, breach.shape[1])))


def _shipped_within_produced(o, d):
    """Violation of shipped <= produced, network-wide and, in strict mode,
    per DC, as (delivery point, outer point): the long axis runs inner."""
    over = d.side[0][:, None] - o.side[0]
    np.maximum(over, 0.0, out=over)
    if o.side[1] is not None:
        per_dc = d.side[1][:, :, None] - o.side[1][:, None, :]
        over += np.maximum(per_dc, 0.0, out=per_dc).sum(axis=0)
    return over


def brute_force_optimum(instance: NetworkInstance, grid_step: float = 1.0):
    """Cheapest feasible point of the flow lattice: (FlowPlan, cost).

    Covers every combination of lattice levels per variable (value i *
    grid_step clipped at the box bound).  Cost ties resolve to the
    lexicographically smallest plan.

    The flow vector [r | p | t] splits into three blocks, raw (r),
    production (p) and delivery (t), each enumerated in lexicographic order
    and checked apart.  Two pairings join them: raw with production points,
    r-major, through raw per plant, which gives the outer (r, p) points, and
    those with delivery points through shipped within produced.  Within a
    sub-block of pairs the order of (outer index, delivery index) is the
    order of plans; a cost tie across sub-blocks is settled by comparing the
    plans.  Only outer points that pass every check on r and p, and delivery
    points that pass theirs, are priced.  The smallest violation, reported
    when nothing is feasible, is taken over all pairs.
    """
    if not 0.0 < grid_step < np.inf:
        raise ValueError("grid_step must be positive and finite")
    s, k, j, i = instance.counts
    uppers = _variable_boxes(instance)
    levels = (1 + np.ceil(uppers / grid_step)).tolist()
    total = math.prod(levels)
    if total > MAX_LATTICE_POINTS:
        raise SearchSpaceTooLargeError(total)
    levels = list(map(int, levels))
    uppers = uppers[:, None]
    unit = instance.derived(_variable_costs)
    split = s * k + k * j
    raw, production, delivery = (
        partial(_block_rows, instance, levels[lo:hi], uppers[lo:hi], grid_step, check)
        for lo, hi, check in ((0, s * k, _raw_check), (s * k, split, _production_check), (split, None, _delivery_check))
    )

    storage = max(0.0, instance.demand.sum() - instance.dc_capacity.sum())  # no point meets it if > 0
    best_cost, x_o, x_d = np.inf, None, None
    pairs = _pairs(
        _outer_rows(raw(), production, unit[:split]),
        lambda: _priced_survivors(delivery(), unit[split:]),
        _shipped_within_produced,
    )
    for o, d, over in pairs if storage == 0.0 else ():
        cost = d.weight[:, None] + o.weight  # (delivery point, outer point)
        np.copyto(cost, np.inf, where=over > 0.0)
        a_o, a_d = divmod(int(cost.T.argmin()), cost.shape[0])  # first minimum: smallest outer, then delivery
        c = float(cost[a_d, a_o])
        # a tie with an earlier sub-block goes to the smaller plan
        if c < best_cost or (
            c == best_cost < np.inf
            and (o.points[a_o].tolist(), d.points[a_d].tolist()) < (x_o.tolist(), x_d.tolist())
        ):
            best_cost, x_o, x_d = c, o.points[a_o], d.points[a_d]

    if x_o is None:
        pairs = _pairs(_outer_rows(raw(), production, None), delivery, _shipped_within_produced)
        min_violation = storage + min(
            float((d.weight.sum(axis=0)[:, None] + o.weight + over).min()) for o, d, over in pairs
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
