"""Four-echelon production-distribution network: data model and evaluation.

Echelons are suppliers -> plants -> distribution centers (DCs) -> retailers.
A :class:`NetworkInstance` holds capacities, demands and unit costs; a
:class:`FlowPlan` holds the three flow matrices (raw material, plant-to-DC,
DC-to-retailer).  ``ARRAY_AXES`` and ``FLOW_AXES`` name these arrays and
their shapes once; coercion, validation, plan checks and the instance
document read them, and equality compares every field, arrays cell by cell.

Evaluation is pure, and one core prices and checks every plan: it takes each
block sum once, computes the four linear cost terms from them, and stacks
every signed residual (positive = slack, negative = breach) into one matrix,
one column per constraint, beside its tolerance scale; the breach rule runs
on all of them in one pass; ``evaluate_cost`` runs only the pricing part.  A
plan has one price, the sum of its four terms added left to right, whether
the solver prices it in a batch or ``evaluate_cost`` prices it alone.  Every
sum is an einsum, whose result for a row depends on that row alone (a BLAS
matrix product does not promise that), so a plan gives the same bits in any
batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

DEFAULT_TOLERANCE = 1e-9


class DimensionMismatchError(ValueError):
    """A flow matrix or cost matrix does not match the instance counts."""


def _as_array(x):
    """Read-only float64 array; a wrong shape is left to ``validate_instance`` to report."""
    a = np.asarray(x, dtype=np.float64)
    a.setflags(write=False)
    return a


# The counts of the four echelons, in the order of the axis letters s, k, j, i.
COUNT_FIELDS = ("num_suppliers", "num_plants", "num_dcs", "num_retailers")

# Every array of the model and its axes, in the letters of ``counts``: s
# suppliers, k plants, j DCs, i retailers.  The order is the order of the
# dataclass fields and of the instance document.
ARRAY_AXES = {
    "supplier_capacity": "s",
    "plant_capacity": "k",
    "dc_capacity": "j",
    "demand": "i",
    "raw_unit_cost": "s",
    "holding_unit_cost": "j",
    "plant_dc_unit_cost": "kj",
    "dc_retailer_unit_cost": "ji",
}
FLOW_AXES = {"raw_flow": "sk", "plant_dc_flow": "kj", "dc_retailer_flow": "ji"}


def _shapes(axes, counts):
    """Name -> the shape ``counts`` gives each array of an axes table."""
    size = dict(zip("skji", counts))
    return {name: tuple(size[a] for a in letters) for name, letters in axes.items()}


def _same_fields(a, b):
    """Dataclass equality with arrays: every ``compare=True`` field equal, arrays cell by cell."""
    if not isinstance(b, type(a)):
        return NotImplemented
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a) if f.compare)


@dataclass(frozen=True)
class NetworkInstance:
    """One problem: counts, capacities, demands, unit costs, utilization.

    ``utilization`` is the raw-material quantity consumed per case produced.
    ``strict_per_dc`` switches the DC storage/throughput checks from
    network-aggregate inequalities to per-DC ones.
    """

    num_suppliers: int
    num_plants: int
    num_dcs: int
    num_retailers: int
    supplier_capacity: np.ndarray
    plant_capacity: np.ndarray
    dc_capacity: np.ndarray
    demand: np.ndarray
    raw_unit_cost: np.ndarray
    holding_unit_cost: np.ndarray
    plant_dc_unit_cost: np.ndarray
    dc_retailer_unit_cost: np.ndarray
    utilization: float
    strict_per_dc: bool = False
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ARRAY_AXES:
            object.__setattr__(self, name, _as_array(getattr(self, name)))
        object.__setattr__(self, "utilization", float(self.utilization))

    def derived(self, build):
        """``build(self)``, computed on the first call and kept with the instance.

        An instance never changes, so neither does anything computed from it:
        evaluation and decoding keep their per-instance constants here instead
        of recomputing them on every call.
        """
        try:
            return self._derived[build]
        except KeyError:
            value = self._derived[build] = build(self)
            return value

    __eq__ = _same_fields

    counts = property(attrgetter(*COUNT_FIELDS), doc="(S, K, J, I), the ``COUNT_FIELDS``.")

    @property
    def num_genes(self):
        """Chromosome length: one allocation weight per DC-retailer pair."""
        _, _, j, i = self.counts
        return j * i


@dataclass(frozen=True)
class FlowPlan:
    """Decision variables: raw S x K, plant-DC K x J, DC-retailer J x I."""

    raw_flow: np.ndarray
    plant_dc_flow: np.ndarray
    dc_retailer_flow: np.ndarray

    def __post_init__(self):
        for name in FLOW_AXES:
            object.__setattr__(self, name, _as_array(getattr(self, name)))

    __eq__ = _same_fields


@dataclass(frozen=True)
class CostBreakdown:
    raw_cost: float
    plant_to_dc_cost: float
    holding_cost: float
    dc_to_retailer_cost: float
    total: float


@dataclass(frozen=True)
class ConstraintReport:
    """One plan's signed residuals (positive = slack, negative = breach) and its total violation."""

    residuals: dict  # family of ``_Layout.columns`` -> its residuals; the per-DC families only in strict mode
    total_violation: float


@np.errstate(over="ignore")  # a total past the float range is reported, not warned about
def validate_instance(instance: NetworkInstance) -> list:
    """Every invariant breach, each naming its field; an empty list means the instance is usable."""
    issues = []
    counts = instance.counts
    rejected = set()  # axis letters whose count is rejected: the arrays on them are not checked
    for axis, name, n in zip("skji", COUNT_FIELDS, counts):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            issues.append(f"{name} must be an integer >= 1, got {n!r}")
            rejected.add(axis)
    for name, shape in _shapes(ARRAY_AXES, counts).items():
        if rejected.intersection(ARRAY_AXES[name]):
            continue
        arr = getattr(instance, name)
        if arr.shape != shape:
            issues.append(f"{name} has shape {arr.shape}, expected {shape}")
            continue
        if arr.size and np.min(arr) < 0:
            issues.append(f"{name} contains negative entries")
        if not np.isfinite(arr.sum()):  # with finite cells >= 0, every partial sum stays finite too
            finite = np.all(np.isfinite(arr))
            issues.append(f"{name} sums past the float range" if finite else f"{name} contains non-finite entries")
    if not instance.utilization > 0:
        issues.append(f"utilization must be > 0, got {instance.utilization}")
    elif not np.isfinite(instance.utilization):
        issues.append("utilization must be finite")
    if issues:
        return issues
    # No flow total of a decoded plan passes this volume: shipments carry the
    # demand, production at most D_k/u per plant, raw u x production.  A
    # price adds four terms, each at most its largest unit cost x the volume.
    u = instance.utilization
    volume = max(1.0, instance.demand.sum(), (instance.plant_capacity / u).sum()) * max(1.0, u)
    for name in ARRAY_AXES:
        top = getattr(instance, name).max(initial=0.0)
        if name.endswith("_unit_cost") and top > 0 and not np.isfinite(4.0 * top * volume):
            issues.append(f"{name} prices a plan past the float range")
    return issues


def _stacked(instance: NetworkInstance, plan: FlowPlan):
    """The plan's flows, checked against the instance, C-ordered on a leading axis of one."""
    for name, shape in _shapes(FLOW_AXES, instance.counts).items():
        arr = getattr(plan, name)
        if arr.shape != shape:
            raise DimensionMismatchError(
                f"{name} has shape {arr.shape}, expected {shape} for this instance"
            )
    return _c_order(plan.raw_flow[None], plan.plant_dc_flow[None], plan.dc_retailer_flow[None])


# ---------------------------------------------------------------------------
# The evaluation core.  The scalar API runs it on a leading axis of one, so
# single-plan and population evaluation share one code path exactly.
# ---------------------------------------------------------------------------

class _Layout:
    """Per-instance constants of batched evaluation.

    Every constraint is one column of a stacked residual matrix, grouped by
    family.  Each column is a breach when its residual falls below
    ``-tolerance * max(1, |scale|)``; the demand equality is two such
    columns, shortfall (shipped minus demand) and oversupply (the negation).
    ``scale`` holds the scales that do not depend on the plan; the columns
    whose scale does (shipments, u x production, DC arrivals) read 0 here.
    """

    def __init__(self, instance: NetworkInstance):
        s, k, j, i = instance.counts
        demand = instance.demand
        families = [  # (name, scale of each column)
            ("dc_storage", [demand.sum()]),
            ("production_vs_shipment", [0.0]),  # scaled by the shipments
            ("demand_mismatch", demand),
            ("demand_oversupply", demand),
            ("raw_per_plant", np.zeros(k)),  # scaled by u x the plant's production
            ("plant_capacity", instance.plant_capacity),
            ("supplier_capacity", instance.supplier_capacity),
        ]
        if instance.strict_per_dc:
            families += [("dc_capacity", instance.dc_capacity), ("dc_throughput", np.zeros(j))]  # by the arrivals
        ends = np.cumsum([len(scale) for _, scale in families])
        self.columns = {name: slice(end - len(scale), end) for (name, scale), end in zip(families, ends)}
        self.width = int(ends[-1])
        self.scale = np.concatenate([scale for _, scale in families])
        self.storage_slack = instance.dc_capacity.sum() - demand.sum()
        self.scale.setflags(write=False)


def _c_order(r, p, t):
    """The flows as C-ordered float arrays, so that every sum below adds in the
    same order whatever the layout of the input and whichever batch holds a plan."""
    return [np.ascontiguousarray(a, dtype=np.float64) for a in (r, p, t)]


def _priced(instance: NetworkInstance, r, p, t):
    """Purchases (n, S), DC arrivals (n, J) and the raw, plant->DC, holding and DC->retailer costs (n,)."""
    n = r.shape[0]
    bought = np.einsum("nsk->ns", r)
    arrivals = np.einsum("nkj->nj", p)
    terms = (
        np.einsum("ns,s->n", bought, instance.raw_unit_cost),
        np.einsum("nl,l->n", p.reshape(n, -1), instance.plant_dc_unit_cost.ravel()),
        np.einsum("nj,j->n", arrivals, instance.holding_unit_cost),
        np.einsum("nl,l->n", t.reshape(n, -1), instance.dc_retailer_unit_cost.ravel()),
    )
    return bought, arrivals, terms


def _evaluate(instance: NetworkInstance, r, p, t):
    """Cost terms (4 arrays (n,)), signed residuals (n, F) and their scales (n, F) of C-ordered stacked flows."""
    layout = instance.derived(_Layout)
    col = layout.columns
    n = r.shape[0]
    bought, arrivals, terms = _priced(instance, r, p, t)
    need = instance.utilization * np.einsum("nkj->nk", p)  # raw each plant needs: u x its production
    delivered = np.einsum("nji->ni", t)
    shipped = delivered.sum(axis=1)
    res = np.empty((n, layout.width))
    res[:, col["dc_storage"]] = layout.storage_slack
    res[:, col["production_vs_shipment"]] = (arrivals.sum(axis=1) - shipped)[:, None]
    res[:, col["demand_mismatch"]] = delivered - instance.demand
    res[:, col["demand_oversupply"]] = instance.demand - delivered
    res[:, col["raw_per_plant"]] = np.einsum("nsk->nk", r) - need
    res[:, col["plant_capacity"]] = instance.plant_capacity - need
    res[:, col["supplier_capacity"]] = instance.supplier_capacity - bought
    scale = np.empty_like(res)
    scale[:] = layout.scale
    scale[:, col["production_vs_shipment"]] = shipped[:, None]
    scale[:, col["raw_per_plant"]] = need
    if instance.strict_per_dc:
        res[:, col["dc_capacity"]] = instance.dc_capacity - arrivals
        res[:, col["dc_throughput"]] = arrivals - np.einsum("nji->nj", t)
        scale[:, col["dc_throughput"]] = arrivals
    return terms, res, scale


def _violation(res, scale, tolerance):
    """Total breach per row: the magnitude of every residual below -tolerance * max(1, |scale|)."""
    breach = -res
    return np.where(breach > tolerance * np.maximum(1.0, np.abs(scale)), breach, 0.0).sum(axis=1)


def batch_evaluate(instance: NetworkInstance, r, p, t):
    """(cost totals, total violations at DEFAULT_TOLERANCE) for stacked flows; the GA hot path.

    A total is the sum of the plan's four cost terms, added left to right, so
    it is ``evaluate_cost``'s total to the bit.  Each row's results depend
    only on that row: evaluating a plan alone, in any batch, or through
    ``evaluate_constraints`` gives the same bits.
    """
    (raw, plant_dc, holding, dc_retailer), res, scale = _evaluate(instance, *_c_order(r, p, t))
    return raw + plant_dc + holding + dc_retailer, _violation(res, scale, DEFAULT_TOLERANCE)


# ---------------------------------------------------------------------------
# Scalar API
# ---------------------------------------------------------------------------

def evaluate_cost(instance: NetworkInstance, plan: FlowPlan) -> CostBreakdown:
    """Total cost: raw purchase+transport, plant->DC transport, DC holding, DC->retailer transport."""
    _, _, terms = _priced(instance, *_stacked(instance, plan))
    raw, plant_dc, holding, dc_retailer = (float(term[0]) for term in terms)
    return CostBreakdown(raw, plant_dc, holding, dc_retailer, total=raw + plant_dc + holding + dc_retailer)


def evaluate_constraints(
    instance: NetworkInstance, plan: FlowPlan, tolerance: float = DEFAULT_TOLERANCE
) -> ConstraintReport:
    """Signed residuals of every constraint, by family, and the plan's total violation at ``tolerance``."""
    flows = _stacked(instance, plan)
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    _, res, scale = _evaluate(instance, *flows)
    residuals = {name: res[0, cols] for name, cols in instance.derived(_Layout).columns.items()}
    return ConstraintReport(residuals, float(_violation(res, scale, tolerance)[0]))
