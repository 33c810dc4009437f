import argparse
import dataclasses
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdnet import cli, nsga2
from pdnet.cli import EXIT_INPUT, EXIT_NO_RESULT, EXIT_OK, main
from pdnet.network import FLOW_AXES, FlowPlan, evaluate_constraints, evaluate_cost
from pdnet.nsga2 import SolverConfig, solve
from pdnet.oracle import lower_bound
from pdnet.scenarios import SCENARIO_NAMES, default_instance
from pdnet.serialize import (
    InstanceLoadError,
    data_path,
    dumps_canonical,
    dumps_instance,
    load_instance,
    load_instance_file,
    emit_trace,
    result_document,
    save_instance,
    save_result,
    trace_csv,
)

from conftest import criterion_4_instances, random_instance, single_chain


def no_solve(*args):
    raise AssertionError("solve ran although an output path cannot be written")


class TestInstanceIO:
    def test_bundled_baseline(self):
        inst = load_instance_file(data_path("baseline.instance.json"))
        assert inst.num_plants == 4
        assert inst.num_dcs == 4
        assert inst.plant_capacity.tolist() == [12800, 12000, 25600, 12800]
        assert inst.dc_capacity.tolist() == [12000] * 4

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng)
        assert load_instance(dumps_instance(inst)) == inst

    def test_save_then_load(self, tmp_path):
        inst = single_chain()
        path = tmp_path / "chain.instance.json"
        save_instance(inst, path)
        assert load_instance_file(path) == inst

    def test_zero_utilization_rejected_by_name(self):
        text = dumps_instance(single_chain(u=0.0))
        with pytest.raises(InstanceLoadError, match="utilization"):
            load_instance(text)

    def test_malformed_json_reports_position(self):
        with pytest.raises(InstanceLoadError, match="line 2"):
            load_instance('{\n"counts": }\n')

    def test_missing_fields_collected(self):
        with pytest.raises(InstanceLoadError) as exc:
            load_instance("{}")
        assert exc.value.errors == [
            "missing or malformed 'counts' object",
            "counts.suppliers must be an integer >= 1, got null",
            "counts.plants must be an integer >= 1, got null",
            "counts.dcs must be an integer >= 1, got null",
            "counts.retailers must be an integer >= 1, got null",
            "'supplier_capacity' must be a numeric array",
            "'plant_capacity' must be a numeric array",
            "'dc_capacity' must be a numeric array",
            "'demand' must be a numeric array",
            "'raw_unit_cost' must be a numeric array",
            "'holding_unit_cost' must be a numeric array",
            "'plant_dc_unit_cost' must be a rectangular numeric matrix",
            "'dc_retailer_unit_cost' must be a rectangular numeric matrix",
            "'utilization' must be a number",
        ]

    def test_every_array_of_the_wrong_shape_is_named_with_both_shapes(self):
        doc = json.loads(dumps_instance(random_instance(np.random.default_rng(3), s=2, k=3, j=4, i=5)))
        doc["counts"] = {"suppliers": 3, "plants": 4, "dcs": 5, "retailers": 6}
        with pytest.raises(InstanceLoadError) as exc:
            load_instance(json.dumps(doc))
        assert exc.value.errors == [
            "supplier_capacity has shape (2,), expected (3,)",
            "plant_capacity has shape (3,), expected (4,)",
            "dc_capacity has shape (4,), expected (5,)",
            "demand has shape (5,), expected (6,)",
            "raw_unit_cost has shape (2,), expected (3,)",
            "holding_unit_cost has shape (4,), expected (5,)",
            "plant_dc_unit_cost has shape (3, 4), expected (4, 5)",
            "dc_retailer_unit_cost has shape (4, 5), expected (5, 6)",
        ]

    def test_one_wrong_shape_among_right_ones(self):
        doc = json.loads(data_path("baseline.instance.json").read_text(encoding="utf-8"))
        doc["plant_dc_unit_cost"] = doc["plant_dc_unit_cost"][:3]
        with pytest.raises(InstanceLoadError) as exc:
            load_instance(json.dumps(doc))
        assert exc.value.errors == ["plant_dc_unit_cost has shape (3, 4), expected (4, 4)"]

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_bundled_instance_file_is_the_document_byte_for_byte(self, name):
        text = data_path(f"{name}.instance.json").read_text(encoding="utf-8")
        assert text == dumps_instance(default_instance(name))

    def test_ragged_matrix_rejected(self):
        doc = json.loads(dumps_instance(single_chain()))
        doc["plant_dc_unit_cost"] = [[1.0], [1.0, 2.0]]
        with pytest.raises(InstanceLoadError, match="rectangular"):
            load_instance(json.dumps(doc))

    def test_boolean_demand_rejected_by_name(self):
        doc = json.loads(dumps_instance(single_chain()))
        doc["demand"] = [True]  # json.loads gives bool, which Python counts as an int
        with pytest.raises(InstanceLoadError, match="'demand'"):
            load_instance(json.dumps(doc))

    def test_boolean_count_rejected_by_name(self):
        doc = json.loads(dumps_instance(single_chain()))
        doc["counts"]["suppliers"] = True
        with pytest.raises(InstanceLoadError, match="counts.suppliers must be an integer >= 1, got true"):
            load_instance(json.dumps(doc))

    def test_boolean_utilization_rejected_by_name(self):
        doc = json.loads(dumps_instance(single_chain()))
        doc["utilization"] = True
        with pytest.raises(InstanceLoadError, match="'utilization'"):
            load_instance(json.dumps(doc))


class TestResultIO:
    def test_canonical_reserialization_is_byte_identical(self):
        res = solve(single_chain(), SolverConfig(seed=4, max_generations=30))
        text = dumps_canonical(result_document(res))
        assert dumps_canonical(json.loads(text)) == text

    def test_trace_shape_and_monotonicity(self):
        res = solve(single_chain(), SolverConfig(seed=4, max_generations=30, stall_generations=10**6))
        lines = trace_csv(res).splitlines()
        assert lines[0] == "generation,best_feasible_cost,mean_cost,min_violation,feasible_count"
        assert len(lines) == 1 + res.generations_run
        best = [float(l.split(",")[1]) for l in lines[1:] if l.split(",")[1]]
        assert all(b <= a for a, b in zip(best, best[1:]))

    def test_infeasible_run_leaves_best_column_empty(self):
        res = solve(single_chain(d=30.0, cap=20.0), SolverConfig(seed=0, max_generations=10))
        lines = trace_csv(res).splitlines()[1:]
        assert all(l.split(",")[1] == "" for l in lines)
        min_viol = [float(l.split(",")[3]) for l in lines]
        assert all(v > 0 for v in min_viol)
        doc = result_document(res)
        assert doc["best_feasible"] is None


def file_mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


class TestWrittenFileModes:
    def test_writes_honour_the_umask_and_keep_a_replaced_mode(self, tmp_path):
        old_umask = os.umask(0o022)
        try:
            inst_path = tmp_path / "i.json"
            save_instance(single_chain(), inst_path)
            res = solve(single_chain(), SolverConfig(max_generations=3))
            save_result(res, tmp_path / "r.json")
            emit_trace(res, tmp_path / "t.csv")
            emit_dir = tmp_path / "emit"
            assert main(["scenario", "baseline", "--emit", str(emit_dir)]) == EXIT_OK
            kept = tmp_path / "kept.json"
            kept.write_text("{}")
            os.chmod(kept, 0o640)
            save_instance(single_chain(), kept)
        finally:
            os.umask(old_umask)
        new = [inst_path, tmp_path / "r.json", tmp_path / "t.csv", emit_dir / "baseline.instance.json",
               emit_dir / "table1.csv"]
        assert {str(p): file_mode(p) for p in new} == {str(p): 0o644 for p in new}
        assert file_mode(kept) == 0o640
        assert load_instance_file(kept) == load_instance_file(inst_path)


# each command that reads a file, with what follows the path it reads
READERS = [
    ["check"],
    ["solve"],
    ["oracle"],
    ["audit", "--scenario", "baseline"],
    ["compare", str(data_path("table1.csv")), "--scenario-a", "baseline", "--scenario-b", "baseline"],
]


class TestCLI:
    def test_check_ok(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        save_instance(single_chain(), path)
        assert main(["check", str(path)]) == EXIT_OK
        assert "ok:" in capsys.readouterr().out

    def test_check_invalid_instance(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(dumps_instance(single_chain(d=-1.0)))
        assert main(["check", str(path)]) == EXIT_INPUT
        assert "invalid" in capsys.readouterr().out

    def test_solve_writes_result_and_trace(self, tmp_path, capsys):
        inst_path = tmp_path / "i.json"
        save_instance(single_chain(), inst_path)
        out, trace = tmp_path / "r.json", tmp_path / "t.csv"
        code = main(
            ["solve", str(inst_path), "--seed", "7", "--generations", "30",
             "--out", str(out), "--trace", str(trace)]
        )
        assert code == EXIT_OK
        assert "best feasible cost" in capsys.readouterr().out
        assert json.loads(out.read_text())["best_feasible"] is not None
        assert trace.read_text().startswith("generation,")

    def test_solve_prints_the_lower_bound_and_the_gap_to_it(self, tmp_path, capsys):
        # criterion-4 instance 5 in strict per-DC mode: bound 29, and seed 0's best costs 40
        inst_path = tmp_path / "i.json"
        save_instance(dataclasses.replace(criterion_4_instances(6)[5], strict_per_dc=True), inst_path)
        assert main(["solve", str(inst_path), "--seed", "0", "--generations", "300"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "best feasible cost: 40.000000"
        assert out[-1] == "lower bound: 29.000000 (best 37.93% above it)"

    def test_solve_that_reaches_the_bound_stops_and_says_so(self, tmp_path, capsys):
        # a single chain has one route, so every plan costs the bound 10 x (2 + 3 + 1 + 4)
        inst_path = tmp_path / "i.json"
        save_instance(single_chain(), inst_path)
        assert main(["solve", str(inst_path), "--seed", "7", "--generations", "60"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "generations run: 0 (terminated by stall)"
        assert out[-1] == "lower bound: 100.000000 (best 0.00% above it)"

    @pytest.mark.parametrize("generations, stops_at_the_bound", [(300, True), (3, False)])
    def test_solve_computes_the_bound_once(self, tmp_path, capsys, monkeypatch, generations, stops_at_the_bound):
        # criterion-4 instance 1 reaches its bound 39 in the first generation at seed 0
        calls = []
        counted = lambda instance: calls.append(instance) or lower_bound(instance)
        monkeypatch.setattr(nsga2, "lower_bound", counted)
        monkeypatch.setattr(cli, "lower_bound", counted)
        inst_path = tmp_path / "i.json"
        save_instance(criterion_4_instances(2)[1], inst_path)
        assert main(["solve", str(inst_path), "--seed", "0", "--generations", str(generations)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith("(terminated by stall)") == stops_at_the_bound
        assert out[-1].startswith("lower bound: 39.000000 (") and len(calls) == 1

    @pytest.mark.parametrize(
        "fraction, text", [(-3.6e-16, "0.00%"), (-0.0, "0.00%"), (-0.0001, "-0.01%"), (0.069, "6.90%")]
    )
    def test_a_gap_that_rounds_to_zero_prints_unsigned_and_a_real_one_keeps_its_sign(self, fraction, text):
        assert cli.format_percent(fraction) == text

    def test_solve_with_a_zero_bound_prints_no_gap(self, tmp_path, capsys):
        inst_path = tmp_path / "i.json"
        save_instance(single_chain(d=0.0), inst_path)
        assert main(["solve", str(inst_path), "--generations", "3"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == "lower bound: 0.000000 (gap undefined: the bound is zero)"

    def test_solve_is_reproducible_byte_for_byte(self, tmp_path):
        inst_path = tmp_path / "i.json"
        save_instance(single_chain(), inst_path)
        blobs = []
        for run in ("a", "b"):
            out, trace = tmp_path / f"r{run}.json", tmp_path / f"t{run}.csv"
            main(["solve", str(inst_path), "--seed", "7", "--generations", "40",
                  "--out", str(out), "--trace", str(trace)])
            blobs.append((out.read_bytes(), trace.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_solve_stopped_in_generation_0_writes_an_empty_trace_byte_for_byte(self, tmp_path):
        # criterion-4 instance 0's initial population at seed 0 already holds a plan at the bound
        inst_path = tmp_path / "i.json"
        save_instance(criterion_4_instances(1)[0], inst_path)
        blobs = []
        for run in ("a", "b"):
            out, trace = tmp_path / f"r{run}.json", tmp_path / f"t{run}.csv"
            assert main(["solve", str(inst_path), "--seed", "0", "--generations", "300",
                         "--out", str(out), "--trace", str(trace)]) == EXIT_OK
            blobs.append((out.read_bytes(), trace.read_bytes()))
        assert blobs[0] == blobs[1]
        result = json.loads(blobs[0][0])
        assert (result["generations_run"], result["terminated_by"]) == (0, "stall")
        assert result["best_feasible"] is not None
        assert blobs[0][1] == b"generation,best_feasible_cost,mean_cost,min_violation,feasible_count\n"

    def test_solve_infeasible_exits_one(self, tmp_path):
        inst_path = tmp_path / "i.json"
        save_instance(single_chain(d=30.0, cap=20.0), inst_path)
        assert main(["solve", str(inst_path), "--generations", "10"]) == EXIT_NO_RESULT

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--population", "3", "population_size"),
            ("--crossover", "1.5", "crossover_prob"),
            ("--mutation", "2", "mutation_prob"),
            ("--generations", "0", "max_generations"),
        ],
    )
    def test_solve_rejects_a_bad_setting_by_name(self, tmp_path, capsys, flag, value, field):
        inst_path = tmp_path / "i.json"
        save_instance(single_chain(), inst_path)
        assert main(["solve", str(inst_path), flag, value]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {field}")

    def test_solve_without_flags_runs_the_default_config(self, tmp_path, monkeypatch):
        configs = []

        def recording_solve(instance, config):
            configs.append(config)
            return solve(instance, config)

        monkeypatch.setattr(cli, "solve", recording_solve)
        inst_path = tmp_path / "i.json"
        save_instance(single_chain(), inst_path)
        assert main(["solve", str(inst_path)]) == EXIT_OK
        assert configs == [SolverConfig()]

    def test_oracle_tiny(self, tmp_path, capsys):
        inst_path = tmp_path / "i.json"
        save_instance(single_chain(), inst_path)
        assert main(["oracle", str(inst_path)]) == EXIT_OK
        assert "optimum cost: 100" in capsys.readouterr().out

    def test_oracle_prints_the_emitted_baseline_optimum(self, tmp_path, capsys):
        assert main(["scenario", "baseline", "--emit", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["oracle", str(tmp_path / "baseline.instance.json")]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "optimum cost: 4416602.105263"

    @pytest.mark.parametrize("strict", [False, True])
    def test_oracle_prints_a_feasible_plan_at_its_price_at_any_size(self, tmp_path, capsys, strict):
        # 3x3x3x3: a lattice of far more than 10^8 points
        inst = dataclasses.replace(random_instance(np.random.default_rng(0), s=3, k=3, j=3, i=3), strict_per_dc=strict)
        inst_path = tmp_path / "i.json"
        save_instance(inst, inst_path)
        assert main(["oracle", str(inst_path)]) == EXIT_OK
        fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        plan = FlowPlan(*(json.loads(fields[name]) for name in FLOW_AXES))
        assert evaluate_constraints(inst, plan).total_violation == 0.0
        assert float(fields["optimum cost"]) == pytest.approx(evaluate_cost(inst, plan).total, rel=1e-9)

    @pytest.mark.parametrize("strict", [False, True])
    def test_oracle_on_an_infeasible_instance_names_the_check(self, tmp_path, capsys, strict):
        inst_path = tmp_path / "i.json"
        save_instance(dataclasses.replace(single_chain(d=30.0), strict_per_dc=strict), inst_path)
        assert main(["oracle", str(inst_path)]) == EXIT_NO_RESULT
        out, err = capsys.readouterr()
        assert (out, err) == ("", "infeasible: supplier capacity 20 falls short of the 30 the demand needs\n")

    def test_audit_text_and_json(self, capsys):
        table = str(data_path("table1.csv"))
        assert main(["audit", table, "--scenario", "baseline"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "50493" in out
        assert "Plant 4" in out
        assert main(["audit", table, "--scenario", "baseline", "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["grand_total_rows"] == 50493

    def test_audit_json_is_the_whole_document_in_field_order(self, capsys):
        table = str(data_path("table1.csv"))
        assert main(["audit", table, "--scenario", "baseline", "--strict-per-dc", "--json"]) == EXIT_OK
        assert capsys.readouterr().out == (
            '{"plant_totals":[10789,10881,15730,13093],"dc_totals":[11511,13913,12371,12698],'
            '"grand_total_rows":50493,"grand_total_cols":50493,"breaches":['
            '{"entity":"Plant 4","total":13093,"capacity":12800,"max_utilization":0.977621629879},'
            '{"entity":"DC 2","total":13913,"capacity":12000,"max_utilization":null},'
            '{"entity":"DC 3","total":12371,"capacity":12000,"max_utilization":null},'
            '{"entity":"DC 4","total":12698,"capacity":12000,"max_utilization":null}]}\n'
        )

    def test_audit_dimension_mismatch(self, capsys):
        table = str(data_path("table1.csv"))
        assert main(["audit", table, "--scenario", "network_expansion"]) == EXIT_INPUT

    def test_compare_tables(self, capsys):
        code = main(
            ["compare", str(data_path("table1.csv")), str(data_path("table2.csv")),
             "--scenario-a", "baseline", "--scenario-b", "dc_expansion"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "13.77%" in out
        assert "15.97%" in out

    def test_compare_with_a_zero_total_names_the_undefined_basis(self, tmp_path, capsys):
        zero = tmp_path / "zero.csv"
        zero.write_text(",Plant 1,Plant 2,Plant 3,Plant 4\n" + "".join(f"DC {d},0,0,0,0\n" for d in range(1, 5)))
        table = str(data_path("table1.csv"))
        lines = {}
        for direction, pair in (("to zero", [table, str(zero)]), ("from zero", [str(zero), table])):
            assert main(["compare", *pair, "--scenario-a", "baseline", "--scenario-b", "baseline"]) == EXIT_OK
            lines[direction] = capsys.readouterr().out.splitlines()
        assert lines == {
            "to zero": [
                "old total: 50493",
                "new total: 0",
                "percent change (new basis): undefined (new total is zero)",
                "percent change (old basis): -100.00%",
            ],
            "from zero": [
                "old total: 0",
                "new total: 50493",
                "percent change (new basis): 100.00%",
                "percent change (old basis): undefined (old total is zero)",
            ],
        }

    def test_scenario_emit(self, tmp_path):
        assert main(["scenario", "baseline", "--emit", str(tmp_path)]) == EXIT_OK
        inst = load_instance_file(tmp_path / "baseline.instance.json")
        assert inst.plant_capacity.tolist() == [12800, 12000, 25600, 12800]
        assert (tmp_path / "table1.csv").read_text().startswith(",Plant 1")

    def test_unknown_scenario_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "mega", "--emit", "/tmp"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "field, value", [("plant_dc_unit_cost", [[10**400]]), ("utilization", 10**400)], ids=["cell", "utilization"]
    )
    @pytest.mark.parametrize("command", ["check", "solve", "oracle"])
    def test_an_integer_too_large_for_a_float_is_an_input_error_that_names_it(
        self, tmp_path, capsys, command, field, value
    ):
        doc = json.loads(dumps_instance(single_chain()))
        doc[field] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        prefix, stream = ("invalid", out) if command == "check" else ("error", err)
        assert stream == f"{prefix}: '{field}' holds an integer too large for a float\n"

    @pytest.mark.parametrize("command", ["check", "solve", "oracle"])
    def test_cells_that_sum_past_the_float_range_are_an_input_error_that_names_the_field(
        self, tmp_path, capsys, command
    ):
        # each cell is finite, but the total demand is not
        doc = json.loads(dumps_instance(default_instance("baseline")))
        doc["demand"] = [1.7e308] * len(doc["demand"])
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        prefix, stream = ("invalid", out) if command == "check" else ("error", err)
        assert stream == f"{prefix}: demand sums past the float range\n"

    @pytest.mark.parametrize("command", ["check", "solve", "oracle"])
    def test_a_unit_cost_that_prices_a_plan_past_the_float_range_is_an_input_error_that_names_it(
        self, tmp_path, capsys, command
    ):
        # each cell and the field's total are finite, but a plan shipping the demand would cost more than a float holds
        doc = json.loads(dumps_instance(default_instance("baseline")))
        doc["plant_dc_unit_cost"] = [[1e306] * len(row) for row in doc["plant_dc_unit_cost"]]
        path = tmp_path / "costly.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        prefix, stream = ("invalid", out) if command == "check" else ("error", err)
        assert stream == f"{prefix}: plant_dc_unit_cost prices a plan past the float range\n"

    def test_a_unit_cost_that_prices_every_plan_in_range_passes(self, tmp_path, capsys):
        doc = json.loads(dumps_instance(default_instance("baseline")))
        doc["plant_dc_unit_cost"] = [[1e300] * len(row) for row in doc["plant_dc_unit_cost"]]
        path = tmp_path / "costly.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("ok: ")

    @pytest.mark.parametrize(
        "cell", [lambda dc, plant: 1.7e308, lambda dc, plant: 1e308 if dc == plant else 0.0], ids=["every", "diagonal"]
    )
    @pytest.mark.parametrize("command", ["audit", "compare"])
    def test_schedule_totals_past_the_float_range_are_an_input_error_that_names_the_file(
        self, tmp_path, capsys, command, cell
    ):
        # "every": each row and column total overflows; "diagonal": each is
        # finite, but the grand total is not
        path = tmp_path / "huge.csv"
        path.write_text(
            ",Plant 1,Plant 2,Plant 3,Plant 4\n"
            + "".join(f"DC {d + 1}," + ",".join(str(cell(d, p)) for p in range(4)) + "\n" for d in range(4))
        )
        table = str(data_path("table1.csv"))
        argv = {
            "audit": ["audit", str(path), "--scenario", "baseline"],
            "compare": ["compare", table, str(path), "--scenario-a", "baseline", "--scenario-b", "baseline"],
        }[command]
        assert main(argv) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: row or column totals pass the float range\n"

    @pytest.mark.parametrize("argv", READERS, ids=lambda argv: argv[0])
    def test_a_directory_is_an_input_error_that_names_it(self, tmp_path, capsys, argv):
        assert main([argv[0], str(tmp_path), *argv[1:]]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("argv", READERS, ids=lambda argv: argv[0])
    def test_a_missing_file_is_an_input_error_that_names_it(self, tmp_path, capsys, argv):
        path = tmp_path / "nope"
        assert main([argv[0], str(path), *argv[1:]]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {path}: No such file or directory\n"

    @pytest.mark.parametrize(
        "argv", [["check"], ["solve"], ["audit", "--scenario", "baseline"]], ids=lambda argv: argv[0]
    )
    def test_a_non_utf8_file_is_an_input_error_that_names_it(self, tmp_path, capsys, argv):
        path = tmp_path / "latin1.json"
        path.write_bytes("{\"counts\": \"caf\u00e9\"}".encode("latin-1"))
        assert main([argv[0], str(path), *argv[1:]]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text")

    def test_solve_into_a_missing_directory_names_the_output_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "solve", no_solve)
        inst_path = tmp_path / "i.json"
        save_instance(single_chain(), inst_path)
        out = tmp_path / "missing" / "r.json"
        for option in ("--out", "--trace"):
            assert main(["solve", str(inst_path), "--generations", "3", option, str(out)]) == EXIT_INPUT
            assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"
        assert not (tmp_path / "missing").exists()
        # an existing --out does not let a missing --trace through
        assert main(["solve", str(inst_path), "--out", str(tmp_path / "r.json"), "--trace", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"
        assert not (tmp_path / "r.json").exists()

    def test_solve_under_a_file_names_the_output_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "solve", no_solve)
        inst_path = tmp_path / "i.json"
        save_instance(single_chain(), inst_path)
        out = inst_path / "r.json"
        assert main(["solve", str(inst_path), "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {out}: Not a directory\n"

    def test_python_dash_m_runs_a_command(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "pdnet.cli", "check", str(data_path("baseline.instance.json"))],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.startswith("ok: 5 suppliers, 4 plants, 4 DCs,")

    def test_scenario_emit_onto_a_file_names_it(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("mine")
        assert main(["scenario", "baseline", "--emit", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {path}: File exists\n"
        assert path.read_text() == "mine"


class TestSharedParser:
    def test_second_main_call_builds_no_parser(self, tmp_path, monkeypatch):
        path = tmp_path / "i.json"
        save_instance(single_chain(), path)
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._shared_parser.cache_clear()
        per_call = []
        for _ in range(2):
            before = len(built)
            assert main(["check", str(path)]) == EXIT_OK
            per_call.append(len(built) - before)
        assert per_call == [7, 0]  # the parser and its six subparsers, once

    def test_a_usage_error_leaves_the_parser_usable(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        save_instance(single_chain(), path)
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "mega", "--emit", str(tmp_path)])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["check", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("ok:")

    def test_a_parse_keeps_no_option_of_the_one_before(self):
        parser = cli._shared_parser()
        first = parser.parse_args(["solve", "x", "--seed", "5", "--generations", "3", "--out", "a"])
        assert (first.seed, first.generations, first.out) == (5, 3, "a")
        second = parser.parse_args(["solve", "x"])
        assert (second.seed, second.generations, second.out) == (0, 200, None)
