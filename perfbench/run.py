#!/usr/bin/env python3
"""pdnet benchmark: one closed-loop, single-process run of one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {tiny-oracle,scenario-solve,cli-io}
        --seed N --seconds S --trace {0,1}

One caller makes each call into the program and waits for it to return; BLAS
is pinned to one thread.  With ``--trace 0`` the run measures for ``--seconds``
seconds and reports the end-to-end metrics; the set-ups it times are spread
over the measured time, between cycles, so that ``setup_s`` sees the same
machine as the cycles do.  With ``--trace 1`` it measures for
half the time untraced, replays the same cycles with spans recorded, and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The program is imported from ``src/`` of the checkout; without
it the run exits with code 2 and prints no result.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import types
from importlib import metadata
from pathlib import Path

import numpy as np

import layers
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("network", "nsga2", "oracle", "scenarios", "serialize", "cli")
SETUP_REPEATS = 30
EXIT_NO_PROGRAM = 2

# (name, unit) of every end-to-end metric the last line carries; see README.md
END_TO_END = (
    ("setup_s", "s"),
    ("latency_ms.geomean", "ms"),
)
# Metrics whose traced-vs-untraced change the traced run reports as a per-layer
# metric.  Set-up is never traced, so it has no overhead.
OVERHEAD = ("latency_ms.geomean", "gens_per_s")
# The operation classes whose median latencies ``latency_ms.geomean`` combines:
# a sample name, or a prefix ending in ":" for one class per suffix.  On
# tiny-oracle each instance is a class of its own: their oracle times range
# from 0.2 ms to 1 s, so a median pooled over instances would jump between
# them with the number of visits a run makes to each.
LATENCY_CLASSES = {
    "tiny-oracle": ("solve_ms:", "oracle_ms:"),
    "scenario-solve": ("solve_ms:",),
    "cli-io": ("cli_ms:",),
}


class ProgramMissing(Exception):
    pass


def pdnet_modules():
    return {name: mod for name, mod in sys.modules.items() if name == "pdnet" or name.startswith("pdnet.")}


def import_pdnet():
    """Import pdnet afresh from the checkout's ``src``; never from anywhere else."""
    for name in pdnet_modules():
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    try:
        pkg = importlib.import_module("pdnet")
        mods = {name: importlib.import_module(f"pdnet.{name}") for name in MODULES}
    except ImportError as exc:
        raise ProgramMissing(f"cannot import pdnet from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise ProgramMissing(f"pdnet was imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**mods)


class SetUp:
    """Timed set-ups of one workload: fresh import of ``pdnet``, input generation, warm-up.

    Each runs in a fresh directory of its own and starts from a collected
    heap.  The first set-up's workload is the one the run measures; later
    set-ups leave ``sys.modules`` holding its modules.
    """

    def __init__(self, workload_cls, seed, workdir):
        self.workload_cls, self.seed, self.workdir = workload_cls, seed, workdir
        self.times = []

    def once(self):
        workdir = self.workdir / f"setup-{len(self.times)}"
        os.makedirs(workdir)
        gc.collect()
        t0 = time.perf_counter()
        workload = self.workload_cls(import_pdnet(), self.seed, str(workdir))
        self.times.append(time.perf_counter() - t0)
        return workload

    def keep_up(self, done):
        """Time set-ups until their count keeps pace with ``done``, the share of the run measured."""
        while len(self.times) < SETUP_REPEATS and len(self.times) < SETUP_REPEATS * done:
            measured = pdnet_modules()
            self.once()
            shutil.rmtree(self.workdir / f"setup-{len(self.times) - 1}")
            for name in pdnet_modules():
                del sys.modules[name]
            sys.modules.update(measured)

    def median(self):
        return statistics.median(self.times)


def measure(workload, seconds=None, cycles=None, tracer=None, between=None):
    """Run whole cycles: a fixed number, or until the next would end past ``seconds``.

    ``between(done)`` runs after each cycle, with ``done`` the share of
    ``seconds`` measured so far; its time is not part of the measurement.
    """
    stats = workloads.Stats()
    t0 = time.perf_counter()
    paused = 0.0
    while True:
        elapsed = time.perf_counter() - t0 - paused
        if cycles is not None and stats.cycles >= cycles:
            break
        # stop where the run ends closest to `seconds`: start a cycle only if
        # at least half of a typical cycle fits before the deadline
        if cycles is None and stats.cycles and elapsed + 0.5 * elapsed / stats.cycles > seconds:
            break
        workload.cycle(stats.cycles, stats, tracer)
        stats.cycles += 1
        if between is not None:
            p0 = time.perf_counter()
            between((time.perf_counter() - t0 - paused) / seconds)
            paused += time.perf_counter() - p0
    stats.wall_s = time.perf_counter() - t0 - paused
    return stats


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def latency_geomean(workload_name, samples):
    """Geometric mean of the median latency of each operation class; (ms, samples)."""
    keys = [
        k
        for k in sorted(samples)
        for c in LATENCY_CLASSES[workload_name]
        if k == c or (c.endswith(":") and k.startswith(c))
    ]
    medians = [statistics.median(samples[k]) for k in keys if samples[k]]
    if not medians:
        return 0.0, 0
    return float(np.exp(np.mean(np.log(medians)))), sum(len(samples[k]) for k in keys)


def report(workload_name, stats, setup):
    """Every end-to-end metric that applies to the workload: {name: (value, unit, samples)}."""
    s, c = stats.samples, stats.counts
    solve_s = sum(s["solve_s"])
    latency, latency_n = latency_geomean(workload_name, s)
    r = {
        "setup_s": (setup.median(), "s", len(setup.times)),
        "latency_ms.geomean": (latency, "ms", latency_n),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "fail_rate": (stats.failed / max(1, stats.attempted), "ratio", stats.attempted),
    }
    r["gens_per_s"] = (c["generations"] / solve_s if solve_s else 0.0, "1/s", c["generations"])
    if workload_name == "cli-io":
        r["cli_ms.p50"] = (_pct(s["cli_ms"], 50), "ms", len(s["cli_ms"]))
        r["cli_ms.p90"] = (_pct(s["cli_ms"], 90), "ms", len(s["cli_ms"]))
        for key in sorted(k for k in s if k.startswith("cli_ms:")):
            r[key.replace("cli_ms:", "cli_ms.") + ".p50"] = (_pct(s[key], 50), "ms", len(s[key]))
        return r
    r["solve_ms.p50"] = (_pct(s["solve_ms"], 50), "ms", len(s["solve_ms"]))
    if workload_name == "tiny-oracle":
        r["solve_ms.p90"] = (_pct(s["solve_ms"], 90), "ms", len(s["solve_ms"]))
        r["oracle_ms.p50"] = (_pct(s["oracle_ms"], 50), "ms", len(s["oracle_ms"]))
        r["oracle_gap_pct.p50"] = (_pct(s["oracle_gap_pct"], 50), "%", len(s["oracle_gap_pct"]))
        medians = [np.median(v) for k, v in s.items() if k.startswith("gaps:")]
        within = sum(m <= 2.0 for m in medians) / max(1, len(medians))
        r["within_2pct_rate"] = (within, "ratio", len(medians))
    else:
        for key in sorted(k for k in s if k.startswith("solve_ms:")):
            label = key.split(":", 1)[1]
            r[f"solve_ms.{label}.p50"] = (_pct(s[key], 50), "ms", len(s[key]))
            r[f"feasible_rate.{label}"] = (c[f"feasible:{label}"] / c[f"solves:{label}"], "ratio", c[f"solves:{label}"])
    r["lb_gap_pct.p50"] = (_pct(s["lb_gap_pct"], 50), "%", len(s["lb_gap_pct"]))
    r["feasible_rate"] = (c["feasible"] / max(1, c["solves"]), "ratio", c["solves"])
    return r


def end_to_end(rep):
    """The metrics of BENCHMARK.json and OVERHEAD, from one workload's report."""
    return {name: rep[name][0] for name in ("setup_s", "latency_ms.geomean", "gens_per_s")}


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def environment(args):
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas_threads": {var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _change_pct(traced, untraced):
    return 100.0 * (traced / untraced - 1.0) if untraced else 0.0


def print_report(title, rep):
    print(f"== {title}")
    for name, (value, unit, n) in rep.items():
        print(f"  {name:<34} {value:>14.6g} {unit:<6} (n={n})")


def run(args, workdir):
    setup = SetUp(workloads.WORKLOADS[args.workload], args.seed, workdir)
    workload = setup.once()
    print("environment: " + json.dumps(environment(args), sort_keys=True))
    seconds = args.seconds if not args.trace else args.seconds / 2.0
    plain = measure(workload, seconds=seconds, between=setup.keep_up)
    setup.keep_up(1.0)
    rep = report(args.workload, plain, setup)
    print_report(f"{args.workload}: end-to-end, untraced, {plain.cycles} cycles in {plain.wall_s:.2f} s", rep)
    e2e = end_to_end(rep)
    attempted, failures = plain.attempted, list(plain.failures)
    if not args.trace:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    else:
        tracer = Tracer()
        layers.install(tracer, workload.pd)
        try:
            traced = measure(workload, cycles=plain.cycles, tracer=tracer)
        finally:
            tracer.restore()
        traced_rep = report(args.workload, traced, setup)
        print_report(f"{args.workload}: end-to-end, traced replay of the same {traced.cycles} cycles", traced_rep)
        traced_e2e = end_to_end(traced_rep)
        values, trace_rep = layers.per_layer(tracer, traced)
        # Overhead: relative change of each timed metric between the untraced
        # pass and its traced replay.
        trace_rep["overhead_pct"] = {
            name: _change_pct(traced_rep[name][0], value)
            for name, (value, unit, _) in rep.items()
            if unit in ("ms", "1/s") and name in traced_rep
        }
        for name in OVERHEAD:
            values[f"trace.overhead.{name}"] = _change_pct(traced_e2e[name], e2e[name])
        units = dict(layers.PER_LAYER)
        units.update({f"trace.overhead.{name}": "%" for name in OVERHEAD})
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        print("trace: " + json.dumps(trace_rep, sort_keys=True))
        if tracer.missing:
            print(f"warning: missing spans (functions no longer present): {', '.join(tracer.missing)}", file=sys.stderr)
        if tracer.degraded:
            print(f"warning: degraded spans (counter hook failed): {', '.join(sorted(tracer.degraded))}", file=sys.stderr)
        attempted += traced.attempted
        failures += traced.failures
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("report: " + json.dumps({name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in rep.items()}))
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        result = run(args, workdir)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
