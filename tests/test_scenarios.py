import numpy as np
import pytest

from pdnet.network import validate_instance
from pdnet.scenarios import (
    REPORTED_WEEKLY_COST_TZS,
    SCENARIO_NAMES,
    UnknownScenarioError,
    build_scenario,
    check_schedule,
    compare_scenarios,
    default_instance,
    load_schedule_csv,
    load_schedule_file,
    scenario_table_name,
)
from pdnet.serialize import data_path


def bundled_table(name):
    return load_schedule_file(data_path(scenario_table_name(name)))


class TestBuildScenario:
    def test_baseline_capacities(self):
        spec = build_scenario("baseline")
        assert spec.plant_capacities.tolist() == [12800, 12000, 25600, 12800]
        assert spec.dc_capacities.tolist() == [12000] * 4

    def test_dc_expansion_capacities(self):
        spec = build_scenario("dc_expansion")
        assert spec.plant_capacities.tolist() == [12800, 12000, 25600, 12800]
        assert spec.dc_capacities.tolist() == [15000] * 4

    def test_network_expansion_capacities(self):
        spec = build_scenario("network_expansion")
        assert spec.plant_capacities.tolist() == [15000, 15000, 15000, 30000, 15000, 15000, 15000]
        assert spec.dc_capacities.tolist() == [15000] * 8

    def test_unknown_name_rejected(self):
        with pytest.raises(UnknownScenarioError):
            build_scenario("mega_expansion")

    def test_reported_costs_are_metadata_only(self):
        assert set(REPORTED_WEEKLY_COST_TZS) == set(SCENARIO_NAMES)


class TestScheduleParsing:
    def test_bundled_tables_load(self):
        t1 = bundled_table("baseline")
        assert t1.values.shape == (4, 4)
        assert t1.col_labels == ("Plant 1", "Plant 2", "Plant 3", "Plant 4")
        t3 = bundled_table("network_expansion")
        assert t3.values.shape == (8, 7)

    def test_ragged_row_names_line(self):
        with pytest.raises(ValueError, match="line 3"):
            load_schedule_csv(",Plant 1\nDC 1,5\nDC 2,5,7\n")

    def test_non_numeric_cell_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            load_schedule_csv(",Plant 1\nDC 1,lots\n")

    def test_nan_cell_names_line_and_column(self):
        with pytest.raises(ValueError, match=r"line 3, column 3 \(Plant 2\): cell 'nan'"):
            load_schedule_csv(",Plant 1,Plant 2\nDC 1,5,6\nDC 2,7,nan\n")

    def test_infinite_cell_names_line_and_column(self):
        with pytest.raises(ValueError, match=r"line 2, column 2 \(Plant 1\): cell 'inf'"):
            load_schedule_csv(",Plant 1,Plant 2\nDC 1,inf,6\n")

    def test_negative_cell_names_line_and_column(self):
        with pytest.raises(ValueError, match=r"line 2, column 3 \(Plant 2\): cell '-4'"):
            load_schedule_csv(",Plant 1,Plant 2\nDC 1,5,-4\n")

    def test_header_required(self):
        with pytest.raises(ValueError):
            load_schedule_csv("\n")


class TestAudit:
    def test_baseline_grand_totals(self):
        audit = check_schedule(bundled_table("baseline"), build_scenario("baseline"))
        assert audit.grand_total_rows == 50493
        assert audit.grand_total_cols == 50493

    def test_dc_expansion_grand_totals(self):
        audit = check_schedule(bundled_table("dc_expansion"), build_scenario("dc_expansion"))
        assert audit.grand_total_rows == 58558
        assert audit.grand_total_cols == 58558

    def test_network_expansion_grand_totals(self):
        audit = check_schedule(bundled_table("network_expansion"), build_scenario("network_expansion"))
        assert audit.grand_total_rows == 117110
        assert audit.grand_total_cols == 117110

    def test_baseline_plant_breach(self):
        audit = check_schedule(bundled_table("baseline"), build_scenario("baseline"))
        assert len(audit.breaches) == 1
        breach = audit.breaches[0]
        assert breach.entity == "Plant 4"
        assert breach.total == 13093
        assert breach.capacity == 12800
        assert breach.max_utilization == pytest.approx(0.9776, abs=1e-4)

    def test_baseline_strict_dc_breaches(self):
        audit = check_schedule(bundled_table("baseline"), build_scenario("baseline"), strict_per_dc=True)
        dc_breaches = {b.entity: b.total for b in audit.breaches if b.max_utilization is None}
        assert dc_breaches == {"DC 2": 13913, "DC 3": 12371, "DC 4": 12698}

    def test_dc_expansion_breaches(self):
        audit = check_schedule(
            bundled_table("dc_expansion"), build_scenario("dc_expansion"), strict_per_dc=True
        )
        # the published schedule overloads plants 1, 2 and 4 against the
        # stated capacities (13290, 12180 and 21188 cases); all DC rows fit
        # the enlarged 15,000-case storage
        plant_breaches = {b.entity: b for b in audit.breaches if b.max_utilization is not None}
        assert set(plant_breaches) == {"Plant 1", "Plant 2", "Plant 4"}
        assert plant_breaches["Plant 4"].total == 21188
        assert plant_breaches["Plant 4"].max_utilization == pytest.approx(0.6041, abs=1e-4)
        assert not any(b.max_utilization is None for b in audit.breaches)

    def test_network_expansion_has_no_breaches(self):
        audit = check_schedule(
            bundled_table("network_expansion"), build_scenario("network_expansion"), strict_per_dc=True
        )
        assert audit.breaches == ()
        big_plant = audit.plant_totals[3]
        assert big_plant == 29827

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            check_schedule(bundled_table("baseline"), build_scenario("network_expansion"))

    def test_audit_is_idempotent(self):
        table, spec = bundled_table("baseline"), build_scenario("baseline")
        a, b = check_schedule(table, spec, strict_per_dc=True), check_schedule(table, spec, strict_per_dc=True)
        assert np.array_equal(a.plant_totals, b.plant_totals)
        assert np.array_equal(a.dc_totals, b.dc_totals)
        assert a.breaches == b.breaches


class TestCompare:
    def test_baseline_vs_dc_expansion(self):
        a = check_schedule(bundled_table("baseline"), build_scenario("baseline"))
        b = check_schedule(bundled_table("dc_expansion"), build_scenario("dc_expansion"))
        report = compare_scenarios(a, b)
        assert report.pct_change_new_basis == pytest.approx(13.77, abs=0.01)
        assert report.pct_change_old_basis == pytest.approx(15.97, abs=0.01)

    def test_baseline_vs_network_expansion(self):
        a = check_schedule(bundled_table("baseline"), build_scenario("baseline"))
        b = check_schedule(bundled_table("network_expansion"), build_scenario("network_expansion"))
        report = compare_scenarios(a, b)
        assert report.pct_change_new_basis == pytest.approx(56.88, abs=0.01)
        assert report.pct_change_old_basis == pytest.approx(131.93, abs=0.01)

    def test_identical_audits(self):
        a = check_schedule(bundled_table("baseline"), build_scenario("baseline"))
        report = compare_scenarios(a, a)
        assert report.pct_change_new_basis == 0.0
        assert report.pct_change_old_basis == 0.0

    def test_swap_negates_old_basis_consistently(self):
        a = check_schedule(bundled_table("baseline"), build_scenario("baseline"))
        b = check_schedule(bundled_table("dc_expansion"), build_scenario("dc_expansion"))
        fwd = compare_scenarios(a, b)
        rev = compare_scenarios(b, a)
        # (old-new)/old of the swap equals -(new-old)/old rescaled by the totals
        assert rev.pct_change_old_basis == pytest.approx(
            -fwd.pct_change_old_basis * fwd.old_total / fwd.new_total
        )


class TestDefaultInstances:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_instances_validate(self, name):
        inst = default_instance(name)
        assert validate_instance(inst) == []

    def test_baseline_demand_scale(self):
        inst = default_instance("baseline")
        assert inst.demand.sum() == 47600
        assert inst.demand.sum() <= inst.dc_capacity.sum()

    def test_network_expansion_demand_maxed(self):
        inst = default_instance("network_expansion")
        assert inst.demand.sum() == pytest.approx(
            min(inst.dc_capacity.sum(), inst.plant_capacity.sum() / inst.utilization)
        )

    def test_capacities_come_from_scenario(self):
        for name in SCENARIO_NAMES:
            inst = default_instance(name)
            spec = build_scenario(name)
            assert inst.plant_capacity.tolist() == spec.plant_capacities.tolist()
            assert inst.dc_capacity.tolist() == spec.dc_capacities.tolist()
