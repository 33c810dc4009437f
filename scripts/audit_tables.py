#!/usr/bin/env python3
"""Audit the three bundled production schedules and print the comparisons.

Reproduces the structural numbers the package asserts: grand totals 50,493 /
58,558 / 117,110 cases, the capacity breaches of each schedule, and the
throughput changes between the baseline and each expansion (13.77% and 56.88%
under the (new - old)/new convention).
"""

from pdnet.scenarios import (
    SCENARIO_NAMES,
    build_scenario,
    check_schedule,
    compare_scenarios,
    load_schedule_file,
    scenario_table_name,
)
from pdnet.serialize import data_path


def main():
    audits = {}
    for scenario in SCENARIO_NAMES:
        table_name = scenario_table_name(scenario)
        spec = build_scenario(scenario)
        table = load_schedule_file(data_path(table_name))
        audit = check_schedule(table, spec, strict_per_dc=True)
        audits[scenario] = audit
        print(f"== {scenario} ({table_name}) ==")
        print(f"grand total: {audit.grand_total_rows:.0f} cases")
        for label, total, cap in zip(table.col_labels, audit.plant_totals, spec.plant_capacities):
            print(f"  {label}: {total:.0f} / capacity {cap:.0f}")
        if audit.breaches:
            for b in audit.breaches:
                extra = "" if b.max_utilization is None else f", feasible up to u = {b.max_utilization:.4f}"
                print(f"  BREACH {b.entity}: {b.total:.0f} > {b.capacity:.0f}{extra}")
        else:
            print("  no breaches")
        print()

    for new_name in ("dc_expansion", "network_expansion"):
        report = compare_scenarios(audits["baseline"], audits[new_name])
        print(
            f"baseline -> {new_name}: {report.old_total:.0f} -> {report.new_total:.0f} cases, "
            f"{report.pct_change_new_basis:.2f}% (new basis) / {report.pct_change_old_basis:.2f}% (old basis)"
        )


if __name__ == "__main__":
    main()
