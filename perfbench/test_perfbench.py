"""Checks of the benchmark's own code.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import importlib.util
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from pdnet import network  # noqa: E402
from spans import Tracer  # noqa: E402

def _criterion_4_generator():
    spec = importlib.util.spec_from_file_location("criterion_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.tiny_oracle_instance


@pytest.mark.parametrize("master_seed", [workloads.CRITERION_4_MASTER_SEED, 0, 7])
def test_tiny_generator_draws_the_criterion_4_instances(master_seed):
    reference = _criterion_4_generator()
    ours, theirs = np.random.default_rng(master_seed), np.random.default_rng(master_seed)
    for _ in range(40):
        assert workloads.tiny_instance(ours, network) == reference(theirs)
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_the_run_reports_the_metrics_benchmark_json_names():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    as_pairs = lambda metrics: [(m["name"], m["unit"]) for m in metrics]  # noqa: E731
    assert as_pairs(spec["end_to_end"]) == list(run.END_TO_END)
    overheads = [(f"trace.overhead.{name}", "%") for name in run.OVERHEAD]
    assert as_pairs(spec["per_layer"]) == list(layers.PER_LAYER) + overheads
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_a_function_that_is_gone_is_a_missing_span_not_a_crash():
    module = types.ModuleType("pdnet.nsga2")
    module.fast_non_dominated_sort = lambda objectives: [[0]]
    tracer = Tracer()
    tracer.wrap(module, "_rank_and_crowd", "nsga2.rank")
    tracer.wrap(module, "fast_non_dominated_sort", "nsga2.sort")
    with tracer.span("nsga2.solve"):
        module.fast_non_dominated_sort([[1.0, 0.0]])
    tracer.restore()
    assert tracer.missing == ["pdnet.nsga2._rank_and_crowd"]
    values, report = layers.per_layer(tracer, workloads.Stats())
    assert values["trace.missing_spans"] == 1
    assert values["nsga2.rank.calls"] == 0
    assert values["nsga2.sort.calls"] == 1
    assert set(values) == {name for name, _ in layers.PER_LAYER}


def test_a_changed_signature_degrades_the_span_not_the_call():
    module = types.ModuleType("pdnet.nsga2")
    module.batch_evaluate = lambda inst, rows, plants, trips: (np.zeros(2), np.zeros(2))
    tracer = Tracer()
    tracer.wrap(module, "batch_evaluate", "network.batch_evaluate", layers._count_evaluations)
    cost, violation = module.batch_evaluate(None, np.zeros((2, 3)), np.zeros((2, 3)), trips=np.zeros((2, 3)))
    tracer.restore()
    assert cost.shape == violation.shape == (2,)
    assert dict(tracer.degraded) == {"network.batch_evaluate": 1}
    values, report = layers.per_layer(tracer, workloads.Stats())
    assert values["trace.degraded_spans"] == 1
    assert values["network.batch_evaluate.calls"] == 1
    assert report["degraded"] == {"network.batch_evaluate": 1}


def test_self_times_inside_solve_add_up_to_the_solve_time():
    tracer = Tracer()
    with tracer.span("nsga2.solve"):
        with tracer.span("nsga2.sort"):
            with tracer.span("nsga2.crowd"):
                sum(range(1000))
        with tracer.span("network.batch_evaluate"):
            sum(range(1000))
    with tracer.span("cli.main"):
        pass
    summary, solve_s = tracer.summary("nsga2.solve")
    assert solve_s > 0
    assert sum(s["self_in_root"] for s in summary.values()) == pytest.approx(solve_s)
    assert summary["cli.main"]["self_in_root"] == 0.0
