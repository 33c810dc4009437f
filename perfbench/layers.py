"""What the traced run wraps, and the per-layer metrics derived from its spans.

Each entry names the module whose namespace the caller looks the function up
in.  Wrapping ``pdnet.nsga2.batch_evaluate`` times the solver's evaluations
and leaves direct callers of ``pdnet.network.batch_evaluate`` alone.
"""

from __future__ import annotations

import numpy as np


def _count_evaluations(counters, a, result):
    instance, r, p, t = a["instance"], a["r"], a["p"], a["t"]
    cost, violation = result
    rows = r.shape[0]
    counters["eval_rows"] += rows
    counters["eval_row_genes"] += rows * instance.num_genes
    # computed from array sizes: the three stacked flow inputs and the two outputs
    counters["eval_bytes"] += r.nbytes + p.nbytes + t.nbytes + cost.nbytes + violation.nbytes
    counters["eval_feasible"] += int(np.count_nonzero(violation == 0.0))


def _count_lattice(counters, a, result):
    counters["lattice_points"] += a["x"].shape[0]


def _count_bytes(counters, a, result):
    counters["bytes_written"] += len(a["text"].encode("utf-8"))


# (module, attribute, span name, counter hook)
WRAPPED = (
    ("nsga2", "init_population", "nsga2.init", None),
    ("nsga2", "_rank_and_crowd", "nsga2.rank", None),
    ("nsga2", "fast_non_dominated_sort", "nsga2.sort", None),
    ("nsga2", "crowding_distance", "nsga2.crowd", None),
    ("nsga2", "_tournament_indices", "nsga2.tournament", None),
    ("nsga2", "_make_offspring", "nsga2.variation", None),
    ("nsga2", "decode_batch", "nsga2.decode", None),
    ("nsga2", "decode", "nsga2.decode_one", None),
    ("nsga2", "batch_evaluate", "network.batch_evaluate", _count_evaluations),
    ("nsga2", "select_next_generation", "nsga2.survival", None),
    ("nsga2", "evaluate_cost", "network.evaluate_cost", None),
    ("oracle", "_violations", "oracle.chunk_violations", _count_lattice),
    ("cli", "solve", "nsga2.solve", None),
    ("cli", "brute_force_optimum", "oracle.brute_force", None),
    ("cli", "load_instance_file", "serialize.load", None),
    ("cli", "save_result", "serialize.save_result", None),
    ("cli", "emit_trace", "serialize.emit_trace", None),
    ("cli", "save_instance", "serialize.save_instance", None),
    ("cli", "_atomic_write", "serialize.atomic_write", _count_bytes),
    ("cli", "dumps_canonical", "serialize.dumps_canonical", None),
    ("cli", "data_path", "serialize.data_path", None),
    ("cli", "validate_instance", "network.validate_instance", None),
    ("serialize", "_atomic_write", "serialize.atomic_write", _count_bytes),
    ("serialize", "validate_instance", "network.validate_instance", None),
    ("scenarios", "build_scenario", "scenarios.build_scenario", None),
    ("scenarios", "load_schedule_csv", "scenarios.load_schedule_csv", None),
    ("scenarios", "check_schedule", "scenarios.check_schedule", None),
    ("scenarios", "compare_scenarios", "scenarios.compare_scenarios", None),
    ("scenarios", "default_instance", "scenarios.default_instance", None),
)

# (name, unit) of every per-layer metric, in the order BENCHMARK.json lists them
PER_LAYER = (
    ("nsga2.sort.calls", "count"),
    ("nsga2.sort.us_per_call", "us"),
    ("nsga2.sort.self_share", "ratio"),
    ("nsga2.crowd.us_per_call", "us"),
    ("nsga2.rank.calls", "count"),
    ("nsga2.rank.self_us_per_call", "us"),
    ("nsga2.variation.us_per_call", "us"),
    ("nsga2.decode.us_per_call", "us"),
    ("nsga2.survival.us_per_call", "us"),
    ("nsga2.tournament.us_per_call", "us"),
    ("nsga2.loop.self_share", "ratio"),
    ("nsga2.generations", "count"),
    ("nsga2.evaluations", "count"),
    ("nsga2.feasible_eval_ratio", "ratio"),
    ("nsga2.improving_gen_ratio", "ratio"),
    ("network.batch_evaluate.calls", "count"),
    ("network.batch_evaluate.us_per_call", "us"),
    ("network.batch_evaluate.ns_per_row_gene", "ns"),
    ("network.batch_evaluate.self_share", "ratio"),
    ("network.batch_evaluate.bytes_per_call", "bytes"),
    ("oracle.lattice_points", "count"),
    ("oracle.points_per_s", "1/s"),
    ("oracle.chunk.us_per_call", "us"),
    ("serialize.load.us_per_call", "us"),
    ("serialize.save_result.us_per_call", "us"),
    ("serialize.emit_trace.us_per_call", "us"),
    ("serialize.bytes_written", "bytes"),
    ("scenarios.check_schedule.us_per_call", "us"),
    ("scenarios.default_instance.us_per_call", "us"),
    ("cli.self_share", "ratio"),
    ("trace.missing_spans", "count"),
    ("trace.degraded_spans", "count"),
)


def install(tracer, pd):
    for module, attr, name, hook in WRAPPED:
        tracer.wrap(getattr(pd, module), attr, name, hook)


def _div(a, b):
    return a / b if b else 0.0


def per_layer(tracer, stats):
    """Per-layer values by name; a layer the workload does not reach reads 0.

    Self shares are shares of the total ``solve`` time: the self shares of
    every span inside ``solve`` (``self_shares`` in the returned report) sum
    to 1, and ``nsga2.loop.self_share`` is the part no traced layer covers.
    """
    summ, solve_s = tracer.summary("nsga2.solve")
    empty = {"calls": 0, "incl": 0.0, "self": 0.0, "self_in_root": 0.0}

    def get(name):
        return summ.get(name, empty)

    def us_per_call(name):
        s = get(name)
        return 1e6 * _div(s["incl"], s["calls"])

    def share(name):
        return _div(get(name)["self_in_root"], solve_s)

    c = tracer.counters
    decode_calls, decode_s = tracer.child_calls("nsga2.decode", "nsga2.decode_one")
    oracle_s = get("oracle.brute_force")["incl"]
    main = get("cli.main")
    v = {
        "nsga2.sort.calls": get("nsga2.sort")["calls"],
        "nsga2.sort.us_per_call": us_per_call("nsga2.sort"),
        "nsga2.sort.self_share": share("nsga2.sort"),
        "nsga2.crowd.us_per_call": us_per_call("nsga2.crowd"),
        "nsga2.rank.calls": get("nsga2.rank")["calls"],
        "nsga2.rank.self_us_per_call": 1e6 * _div(get("nsga2.rank")["self"], get("nsga2.rank")["calls"]),
        "nsga2.variation.us_per_call": us_per_call("nsga2.variation"),
        "nsga2.decode.us_per_call": 1e6 * _div(decode_s, decode_calls),
        "nsga2.survival.us_per_call": us_per_call("nsga2.survival"),
        "nsga2.tournament.us_per_call": us_per_call("nsga2.tournament"),
        "nsga2.loop.self_share": share("nsga2.solve"),
        "nsga2.generations": stats.counts["generations"],
        "nsga2.evaluations": int(c["eval_rows"]),
        "nsga2.feasible_eval_ratio": _div(c["eval_feasible"], c["eval_rows"]),
        "nsga2.improving_gen_ratio": _div(stats.counts["improving_generations"], stats.counts["generations"]),
        "network.batch_evaluate.calls": get("network.batch_evaluate")["calls"],
        "network.batch_evaluate.us_per_call": us_per_call("network.batch_evaluate"),
        "network.batch_evaluate.ns_per_row_gene": 1e9 * _div(get("network.batch_evaluate")["incl"], c["eval_row_genes"]),
        "network.batch_evaluate.self_share": share("network.batch_evaluate"),
        "network.batch_evaluate.bytes_per_call": _div(c["eval_bytes"], get("network.batch_evaluate")["calls"]),
        "oracle.lattice_points": int(c["lattice_points"]),
        "oracle.points_per_s": _div(c["lattice_points"], oracle_s),
        "oracle.chunk.us_per_call": 1e6 * _div(oracle_s, get("oracle.chunk_violations")["calls"]),
        "serialize.load.us_per_call": us_per_call("serialize.load"),
        "serialize.save_result.us_per_call": us_per_call("serialize.save_result"),
        "serialize.emit_trace.us_per_call": us_per_call("serialize.emit_trace"),
        "serialize.bytes_written": int(c["bytes_written"]),
        "scenarios.check_schedule.us_per_call": us_per_call("scenarios.check_schedule"),
        "scenarios.default_instance.us_per_call": us_per_call("scenarios.default_instance"),
        "cli.self_share": _div(main["self"], main["incl"]),
        "trace.missing_spans": len(tracer.missing),
        "trace.degraded_spans": len(tracer.degraded),
    }
    report = {
        "solve_s": solve_s,
        "self_shares": {name: round(share(name), 6) for name in sorted(summ) if get(name)["self_in_root"]},
        "spans": {name: {"calls": s["calls"], "incl_s": round(s["incl"], 6), "self_s": round(s["self"], 6)} for name, s in sorted(summ.items())},
        "missing": list(tracer.missing),
        "degraded": dict(tracer.degraded),
    }
    return v, report
