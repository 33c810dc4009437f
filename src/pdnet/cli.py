"""Command-line surface: solve, check, audit, compare, oracle, scenario.

Exit codes: 0 success, 1 infeasible, 2 input error, 141 stdout
closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys

from . import scenarios
from .network import FLOW_AXES
from .nsga2 import SolverConfig, solve
from .oracle import OracleError, exact_optimum, lower_bound
from .serialize import (
    InstanceLoadError,
    _atomic_write,
    data_path,
    dumps_canonical,
    emit_trace,
    load_instance_file,
    save_instance,
    save_result,
)

EXIT_OK = 0
EXIT_NO_RESULT = 1
EXIT_INPUT = 2
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a command killed by a closed pipe


def _file_error(path, exc) -> int:
    """Report a file that cannot be read or written under the user's path; the input-error exit code."""
    if isinstance(exc, UnicodeDecodeError):
        reason = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
    else:
        reason = exc.strerror or str(exc)
    print(f"error: {path}: {reason}", file=sys.stderr)
    return EXIT_INPUT


def _read(path, load):
    """``load(path)``; a file that cannot be read is an input error that names ``path``."""
    try:
        return load(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(_file_error(path, exc))


def _load_instance_or_fail(path):
    try:
        return _read(path, load_instance_file)
    except InstanceLoadError as exc:
        for err in exc.errors:
            print(f"error: {err}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _load_table_or_fail(path, scenario_name):
    """The scenario's capacities and the schedule at ``path``; the parser admits only bundled scenario names."""
    spec = scenarios.build_scenario(scenario_name)
    try:
        table = _read(path, scenarios.load_schedule_file)
    except ValueError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    return spec, table


def format_percent(fraction) -> str:
    """``fraction`` as a percent at two decimals; one that rounds to zero reads 0.00%, never -0.00%."""
    text = f"{fraction:.2%}"
    return "0.00%" if text == "-0.00%" else text


def cmd_solve(args) -> int:
    instance = _load_instance_or_fail(args.instance)
    try:
        config = SolverConfig(
            population_size=args.population,
            crossover_prob=args.crossover,
            mutation_prob=args.mutation,
            max_generations=args.generations,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.out and args.trace and os.path.realpath(args.out) == os.path.realpath(args.trace):
        print(f"error: --out {args.out} and --trace {args.trace} name the same file", file=sys.stderr)
        return EXIT_INPUT
    for path in filter(None, (args.out, args.trace)):
        # a missing output directory, or a path that names a directory, fails before the solve;
        # the trailing separator fails a file too
        try:
            os.stat(os.path.join(os.path.dirname(path) or os.curdir, ""))
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        except OSError as exc:
            return _file_error(path, exc)
    try:
        result = solve(instance, config)
    except OracleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_NO_RESULT
    for path, write in ((args.out, save_result), (args.trace, emit_trace)):
        if path:
            try:
                write(result, path)
            except OSError as exc:
                return _file_error(path, exc)
    print(f"generations run: {result.generations_run} (terminated by {result.terminated_by})")
    _, breakdown = result.best_feasible
    print(f"best feasible cost: {breakdown.total:.6f}")
    print(
        f"  raw {breakdown.raw_cost:.6f} | plant->dc {breakdown.plant_to_dc_cost:.6f} | "
        f"holding {breakdown.holding_cost:.6f} | dc->retailer {breakdown.dc_to_retailer_cost:.6f}"
    )
    bound = instance.derived(lower_bound)  # the bound the solve read
    if bound > 0:
        gap = f"best {format_percent((breakdown.total - bound) / bound)} above it"
    else:
        gap = "gap undefined: the bound is zero"
    print(f"lower bound: {bound:.6f} ({gap})")
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        instance = _read(args.instance, load_instance_file)
    except InstanceLoadError as exc:
        for err in exc.errors:
            print(f"invalid: {err}")
        return EXIT_INPUT
    s, k, j, i = instance.counts
    print(f"ok: {s} suppliers, {k} plants, {j} DCs, {i} retailers")
    return EXIT_OK


def cmd_audit(args) -> int:
    spec, table = _load_table_or_fail(args.table, args.scenario)
    try:
        audit = scenarios.check_schedule(table, spec, strict_per_dc=args.strict_per_dc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.json:
        print(dumps_canonical(audit), end="")
        return EXIT_OK
    print(f"scenario: {spec.name}")
    print(f"grand total: {audit.grand_total_rows:.0f} (rows) / {audit.grand_total_cols:.0f} (columns)")
    for label, total in zip(table.col_labels, audit.plant_totals):
        print(f"  {label}: {total:.0f}")
    for label, total in zip(table.row_labels, audit.dc_totals):
        print(f"  {label}: {total:.0f}")
    if not audit.breaches:
        print("no capacity breaches")
    for b in audit.breaches:
        extra = "" if b.max_utilization is None else f" (feasible up to u = {b.max_utilization:.4f})"
        print(f"breach: {b.entity} total {b.total:.0f} exceeds capacity {b.capacity:.0f}{extra}")
    return EXIT_OK


def cmd_compare(args) -> int:
    spec_a, table_a = _load_table_or_fail(args.table_a, args.scenario_a)
    spec_b, table_b = _load_table_or_fail(args.table_b, args.scenario_b)
    try:
        audit_a = scenarios.check_schedule(table_a, spec_a)
        audit_b = scenarios.check_schedule(table_b, spec_b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = scenarios.compare_scenarios(audit_a, audit_b)
    print(f"old total: {report.old_total:.0f}")
    print(f"new total: {report.new_total:.0f}")
    for basis, pct in (("new", report.pct_change_new_basis), ("old", report.pct_change_old_basis)):
        if pct is None:
            print(f"percent change ({basis} basis): undefined ({basis} total is zero)")
        else:
            print(f"percent change ({basis} basis): {pct:.2f}%")
    return EXIT_OK


def cmd_oracle(args) -> int:
    instance = _load_instance_or_fail(args.instance)
    try:
        plan, cost = exact_optimum(instance)
    except OracleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_NO_RESULT
    print(f"optimum cost: {cost:.6f}")
    for name in FLOW_AXES:
        print(f"{name}: {getattr(plan, name).tolist()}")
    return EXIT_OK


def cmd_scenario(args) -> int:
    instance = scenarios.default_instance(args.name)
    inst_path = os.path.join(args.emit, f"{args.name}.instance.json")
    table_name = scenarios.scenario_table_name(args.name)
    table_path = os.path.join(args.emit, table_name)
    table_text = data_path(table_name).read_text(encoding="utf-8")
    path = args.emit  # the path being created or written, for the error message
    try:
        os.makedirs(path, exist_ok=True)
        path = inst_path
        save_instance(instance, path)
        path = table_path
        _atomic_write(path, table_text)
    except OSError as exc:
        return _file_error(path, exc)
    print(f"wrote {inst_path}")
    print(f"wrote {table_path}")
    return EXIT_OK


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser for all six commands, built once per process.

    Building it costs about three times what check, audit or compare
    themselves do.  argparse keeps no state between parse_args calls: each
    returns a new namespace filled from the defaults.
    """
    parser = argparse.ArgumentParser(
        prog="pdnet",
        description="Four-echelon production-distribution network: NSGA-II solver, oracle and scenario audits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the NSGA-II solver on an instance file")
    p.add_argument("instance")
    defaults = SolverConfig()
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--generations", type=int, default=defaults.max_generations)
    p.add_argument("--population", type=int, default=defaults.population_size)
    p.add_argument("--crossover", type=float, default=defaults.crossover_prob)
    p.add_argument("--mutation", type=float, default=defaults.mutation_prob)
    p.add_argument("--out", default=None, help="write the result JSON here")
    p.add_argument("--trace", default=None, help="write the per-generation trace CSV here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="validate an instance file")
    p.add_argument("instance")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("audit", help="audit a schedule table against scenario capacities")
    p.add_argument("table")
    p.add_argument("--scenario", required=True, choices=scenarios.SCENARIO_NAMES)
    p.add_argument("--strict-per-dc", action="store_true", dest="strict_per_dc")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("compare", help="compare throughput of two audited schedules")
    p.add_argument("table_a")
    p.add_argument("table_b")
    p.add_argument("--scenario-a", required=True, choices=scenarios.SCENARIO_NAMES)
    p.add_argument("--scenario-b", required=True, choices=scenarios.SCENARIO_NAMES)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("oracle", help="exact optimum of an instance, at any size")
    p.add_argument("instance")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("scenario", help="emit a scenario's instance and table fixtures")
    p.add_argument("name", choices=scenarios.SCENARIO_NAMES)
    p.add_argument("--emit", required=True, help="output directory")
    p.set_defaults(func=cmd_scenario)

    return parser


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT


def entrypoint():
    """Run ``main`` on the command line; a reader that closes stdout early ends it quietly with ``EXIT_PIPE``."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, inside the handler, rather than at interpreter exit
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit cannot raise again
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
