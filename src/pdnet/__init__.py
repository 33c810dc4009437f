"""Four-echelon production-distribution network optimization.

Suppliers feed plants, plants feed distribution centers, DCs serve retailers.
The package models the network's linear cost and capacity/demand constraints,
solves instances with a from-scratch NSGA-II engine, validates the engine
against exact oracles on tiny instances, and audits published production
schedules for three capacity scenarios.
"""

from .network import (
    ConstraintReport,
    CostBreakdown,
    DimensionMismatchError,
    FlowPlan,
    NetworkInstance,
    evaluate_constraints,
    evaluate_cost,
    validate_instance,
)
from .nsga2 import SolveResult, SolverConfig, solve
from .oracle import brute_force_optimum, lower_bound
from .scenarios import (
    ScenarioSpec,
    ScheduleAudit,
    ScheduleTable,
    build_scenario,
    check_schedule,
    compare_scenarios,
    default_instance,
)
from .serialize import (
    data_path,
    emit_trace,
    load_instance,
    load_instance_file,
    save_instance,
    save_result,
)

__all__ = [
    "ConstraintReport",
    "CostBreakdown",
    "DimensionMismatchError",
    "FlowPlan",
    "NetworkInstance",
    "ScenarioSpec",
    "ScheduleAudit",
    "ScheduleTable",
    "SolveResult",
    "SolverConfig",
    "brute_force_optimum",
    "build_scenario",
    "check_schedule",
    "compare_scenarios",
    "data_path",
    "default_instance",
    "emit_trace",
    "evaluate_constraints",
    "evaluate_cost",
    "load_instance",
    "load_instance_file",
    "lower_bound",
    "save_instance",
    "save_result",
    "solve",
    "validate_instance",
]

__version__ = "0.1.0"
