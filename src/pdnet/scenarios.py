"""Scenario laboratory: capacity configurations, schedule audits, comparisons.

Three scenarios are bundled: the current four-plant/four-DC network
(``baseline``), the same network with DC storage raised to 15,000 cases
(``dc_expansion``), and the enlarged seven-plant/eight-DC network
(``network_expansion``).  One table, ``_SCENARIOS``, holds each scenario's
plant and DC capacities, the file of its published daily production schedule
(``table1.csv`` .. ``table3.csv``, audited against those capacities) and its
reported weekly cost; ``SCENARIO_NAMES``, ``build_scenario``,
``scenario_table_name`` and ``REPORTED_WEEKLY_COST_TZS`` are read from it.

The reported weekly costs depend on unit-cost data that was never published;
they are kept as reference metadata only.  Bundled runnable instances use
synthetic demands and unit costs, sized so baseline aggregate demand is on the
same ~50,000-case scale as the baseline schedule.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .network import NetworkInstance

# name -> (plant capacities, DC capacities, schedule file, reported weekly cost in TZS)
_SCENARIOS = {
    # the current four-plant, four-DC network
    "baseline": ((12800, 12000, 25600, 12800), (12000,) * 4, "table1.csv", 43_834_900),
    # DC storage raised to 15,000 cases each
    "dc_expansion": ((12800, 12000, 25600, 12800), (15000,) * 4, "table2.csv", 43_100_800),
    # seven plants (one at 30,000 cases) and eight 15,000-case DCs; production
    # limited by capacities only, not demand
    "network_expansion": ((15000, 15000, 15000, 30000, 15000, 15000, 15000), (15000,) * 8, "table3.csv", 114_660_000),
}

SCENARIO_NAMES = tuple(_SCENARIOS)

#: Reported weekly cost per scenario, TZS.  Reference metadata only; never
#: comparable to costs computed from the synthetic instances.
REPORTED_WEEKLY_COST_TZS = {name: row[3] for name, row in _SCENARIOS.items()}

DEFAULT_UTILIZATION = 0.95


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    plant_capacities: np.ndarray
    dc_capacities: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "plant_capacities", np.asarray(self.plant_capacities, dtype=np.float64))
        object.__setattr__(self, "dc_capacities", np.asarray(self.dc_capacities, dtype=np.float64))


@dataclass(frozen=True)
class ScheduleTable:
    """DC-by-plant matrix of cases with labels, as the schedules are printed."""

    values: np.ndarray
    row_labels: tuple
    col_labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))


@dataclass(frozen=True)
class CapacityBreach:
    entity: str
    total: float
    capacity: float
    #: largest utilization factor under which the plant total still fits its
    #: capacity (capacity/total); None for DC rows, where no factor applies
    max_utilization: Optional[float]


@dataclass(frozen=True)
class ScheduleAudit:
    plant_totals: np.ndarray
    dc_totals: np.ndarray
    grand_total_rows: float
    grand_total_cols: float
    breaches: tuple


@dataclass(frozen=True)
class ComparisonReport:
    old_total: float
    new_total: float
    #: (new - old) / new, percent; None when new total is zero
    pct_change_new_basis: Optional[float]
    #: (new - old) / old, percent; None when old total is zero
    pct_change_old_basis: Optional[float]


class UnknownScenarioError(ValueError):
    pass


def build_scenario(name: str) -> ScenarioSpec:
    """Capacity data for one of the bundled scenarios."""
    if name not in _SCENARIOS:
        raise UnknownScenarioError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    plants, dcs, _, _ = _SCENARIOS[name]
    return ScenarioSpec(name, plant_capacities=plants, dc_capacities=dcs)


def _synthetic_costs(num_suppliers, num_plants, num_dcs, num_retailers):
    """Deterministic synthetic unit costs (currency/case); documented defaults."""
    raw = np.array([55.0, 60.0, 52.0, 58.0, 65.0])[:num_suppliers]
    holding = np.array([(8, 9, 8, 10, 9, 8, 10, 9)[j % 8] for j in range(num_dcs)], dtype=np.float64)
    plant_dc = np.array(
        [[18.0 + 2 * k + 3 * j for j in range(num_dcs)] for k in range(num_plants)]
    )
    dc_retailer = np.array(
        [[10.0 + ((3 * j + 7 * i) % 13) for i in range(num_retailers)] for j in range(num_dcs)]
    )
    return raw, holding, plant_dc, dc_retailer


def default_instance(name: str) -> NetworkInstance:
    """A runnable instance for the scenario, with synthetic demands and costs.

    baseline / dc_expansion: 5 suppliers, 20 retailers with demands
    2000 + 40*i (47,600 cases total, just under the 48,000-case aggregate DC
    storage of the baseline).  network_expansion has no demand side of its
    own, so demands are set to the reachable maximum: total production is
    capped by aggregate DC storage (120,000 cases), split evenly over 30
    retailers.
    """
    spec = build_scenario(name)
    k = spec.plant_capacities.size
    j = spec.dc_capacities.size
    if name in ("baseline", "dc_expansion"):
        s, i = 5, 20
        supplier_capacity = np.full(s, 12000.0)
        demand = 2000.0 + 40.0 * np.arange(i)
    else:
        s, i = 5, 30
        supplier_capacity = np.full(s, 25000.0)
        reach = min(spec.dc_capacities.sum(), spec.plant_capacities.sum() / DEFAULT_UTILIZATION)
        demand = np.full(i, reach / i)
    raw, holding, plant_dc, dc_retailer = _synthetic_costs(s, k, j, i)
    return NetworkInstance(
        num_suppliers=s,
        num_plants=k,
        num_dcs=j,
        num_retailers=i,
        supplier_capacity=supplier_capacity,
        plant_capacity=spec.plant_capacities,
        dc_capacity=spec.dc_capacities,
        demand=demand,
        raw_unit_cost=raw,
        holding_unit_cost=holding,
        plant_dc_unit_cost=plant_dc,
        dc_retailer_unit_cost=dc_retailer,
        utilization=DEFAULT_UTILIZATION,
    )


def scenario_table_name(name: str) -> str:
    """File name of the scenario's bundled schedule (``table1.csv`` .. ``table3.csv``)."""
    return _SCENARIOS[name][2]


def load_schedule_csv(text: str) -> ScheduleTable:
    """Parse a schedule CSV: first row plant labels, first column DC labels."""
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if any(cell.strip() for cell in r)]
    if len(rows) < 2 or len(rows[0]) < 2:
        raise ValueError("schedule CSV needs a header row and at least one DC row")
    col_labels = [c.strip() for c in rows[0][1:]]
    row_labels = []
    values = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(col_labels) + 1:
            raise ValueError(f"line {lineno}: expected {len(col_labels) + 1} cells, got {len(row)}")
        row_labels.append(row[0].strip())
        cells = []
        for column, (label, cell) in enumerate(zip(col_labels, row[1:]), start=2):
            where = f"line {lineno}, column {column} ({label})"
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(f"{where}: non-numeric cell {cell.strip()!r}") from None
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{where}: cell {cell.strip()!r} must be a finite number >= 0")
            cells.append(value)
        values.append(cells)
    if not math.isfinite(sum(map(sum, values))):  # cells are >= 0: no row or column total exceeds this one
        raise ValueError("row or column totals pass the float range")
    return ScheduleTable(values=np.array(values), row_labels=row_labels, col_labels=col_labels)


def load_schedule_file(path) -> ScheduleTable:
    """The schedule CSV at ``path``, read as UTF-8; see ``load_schedule_csv``."""
    with open(path, encoding="utf-8") as fh:
        return load_schedule_csv(fh.read())


def check_schedule(table: ScheduleTable, spec: ScenarioSpec, strict_per_dc: bool = False) -> ScheduleAudit:
    """Totals and capacity breaches of a production schedule against a scenario.

    Plant columns are always checked against plant capacities; a breach
    records the utilization-factor threshold capacity/total that would restore
    feasibility.  DC rows are checked against DC storage only in
    ``strict_per_dc`` mode, mirroring the per-DC constraint mode.
    """
    n_dc, n_plant = table.values.shape
    if n_plant != spec.plant_capacities.size or n_dc != spec.dc_capacities.size:
        raise ValueError(
            f"table is {n_dc} DCs x {n_plant} plants but scenario {spec.name!r} has "
            f"{spec.dc_capacities.size} DCs x {spec.plant_capacities.size} plants"
        )
    plant_totals = table.values.sum(axis=0)
    dc_totals = table.values.sum(axis=1)
    breaches = []
    for idx in range(n_plant):
        total, cap = float(plant_totals[idx]), float(spec.plant_capacities[idx])
        if total > cap:
            breaches.append(CapacityBreach(table.col_labels[idx], total, cap, cap / total))
    if strict_per_dc:
        for idx in range(n_dc):
            total, cap = float(dc_totals[idx]), float(spec.dc_capacities[idx])
            if total > cap:
                breaches.append(CapacityBreach(table.row_labels[idx], total, cap, None))
    return ScheduleAudit(
        plant_totals=plant_totals,
        dc_totals=dc_totals,
        grand_total_rows=float(dc_totals.sum()),
        grand_total_cols=float(plant_totals.sum()),
        breaches=tuple(breaches),
    )


def compare_scenarios(audit_old: ScheduleAudit, audit_new: ScheduleAudit) -> ComparisonReport:
    """Throughput change between two audited schedules, under both percent conventions.

    (new - old)/new is the convention the published 13% and 57% figures follow;
    (new - old)/old is reported alongside for transparency.
    """
    old = audit_old.grand_total_rows
    new = audit_new.grand_total_rows
    return ComparisonReport(
        old_total=old,
        new_total=new,
        pct_change_new_basis=None if new == 0 else 100.0 * (new - old) / new,
        pct_change_old_basis=None if old == 0 else 100.0 * (new - old) / old,
    )
