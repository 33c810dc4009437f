"""Instance/result file formats: JSON instances, JSON results, CSV traces.

Instances round-trip exactly (full-precision floats).  Results are written in
a canonical form -- fixed key order, floats at 12 significant digits -- so a
loaded result re-serializes byte-identically.  All writes are whole-file
atomic (temp file + rename).
"""

from __future__ import annotations

import dataclasses
import json
import os
import stat
from importlib import resources
from typing import Union

import numpy as np

from .network import ARRAY_AXES, COUNT_FIELDS, FLOW_AXES, NetworkInstance, validate_instance
from .nsga2 import SolveResult


class InstanceLoadError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def data_path(name: str):
    """Path to a bundled fixture file (table1.csv, baseline.instance.json, ...)."""
    return resources.files("pdnet").joinpath("data", name)


def _atomic_write(path, text: str):
    """Write ``text`` to ``path`` through a temp file in its directory and a rename.

    The file ends with the mode ``open(path, "w")`` would give it: a new file
    0o666 less the umask (the kernel applies it when the temp file is
    created), a replaced file its previous mode.
    """
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    tmp = os.path.join(d, f".pdnet-tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # O_EXCL: never an existing file
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        if mode is not None:
            os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Canonical JSON (results): fixed key order by construction, %.12g floats
# ---------------------------------------------------------------------------

def _fmt(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.12g" % float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_fmt(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return _fmt(value.tolist())
    if dataclasses.is_dataclass(value):  # an object of its fields, in declaration order
        return _fmt({f.name: getattr(value, f.name) for f in dataclasses.fields(value)})
    raise TypeError(f"cannot serialize {type(value)}")


def dumps_canonical(obj) -> str:
    return _fmt(obj) + "\n"


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

_COUNT_KEYS = {name: name.removeprefix("num_") for name in COUNT_FIELDS}  # field -> key in "counts"
_ARRAY_KINDS = {1: "numeric array", 2: "rectangular numeric matrix"}  # by number of axes


def dumps_instance(instance: NetworkInstance) -> str:
    doc = {
        "counts": {key: getattr(instance, name) for name, key in _COUNT_KEYS.items()},
        **{k: getattr(instance, k).tolist() for k in ARRAY_AXES},
        "utilization": instance.utilization,
        "strict_per_dc": instance.strict_per_dc,
    }
    return json.dumps(doc, indent=2) + "\n"


def save_instance(instance: NetworkInstance, path):
    _atomic_write(path, dumps_instance(instance))


def _is_number(x) -> bool:
    """An int or float, not a bool (which Python counts as an int)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _overflows(value) -> bool:
    """Whether a number, or lists of numbers, holds an integer that a float cannot hold."""
    try:
        np.asarray(value, dtype=np.float64)
    except OverflowError:
        return True
    return False


def load_instance(text: str) -> NetworkInstance:
    """Parse and fully validate an instance document; raises InstanceLoadError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceLoadError([f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"])
    errors = []
    if not isinstance(doc, dict):
        raise InstanceLoadError(["top level must be a JSON object"])
    counts = doc.get("counts")
    if not isinstance(counts, dict):
        errors.append("missing or malformed 'counts' object")
        counts = {}
    fields = {}
    for name, key in _COUNT_KEYS.items():
        v = counts.get(key)
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            errors.append(f"counts.{key} must be an integer >= 1, got {json.dumps(v)}")
        fields[name] = v
    for key, axes in ARRAY_AXES.items():
        v = doc.get(key)
        rows = [v] if len(axes) == 1 else v  # a vector is checked as a matrix of one row
        ok = isinstance(rows, list) and rows and all(
            isinstance(row, list) and all(_is_number(x) for x in row) for row in rows
        )
        if not (ok and len({len(row) for row in rows}) == 1):
            errors.append(f"'{key}' must be a {_ARRAY_KINDS[len(axes)]}")
        fields[key] = v
    utilization = doc.get("utilization")
    if not _is_number(utilization):
        errors.append("'utilization' must be a number")
    strict = doc.get("strict_per_dc", False)
    if not isinstance(strict, bool):
        errors.append("'strict_per_dc' must be a boolean")
    if errors:
        raise InstanceLoadError(errors)

    try:
        instance = NetworkInstance(utilization=float(utilization), strict_per_dc=strict, **fields)
    except OverflowError:  # an integer too large for a float: name each field that holds one
        too_large = [key for key in (*ARRAY_AXES, "utilization") if _overflows(doc[key])]
        raise InstanceLoadError([f"'{key}' holds an integer too large for a float" for key in too_large]) from None
    issues = validate_instance(instance)
    if issues:
        raise InstanceLoadError(issues)
    return instance


def load_instance_file(path) -> NetworkInstance:
    with open(path, encoding="utf-8") as fh:
        return load_instance(fh.read())


# ---------------------------------------------------------------------------
# Results and traces
# ---------------------------------------------------------------------------

def result_document(result: SolveResult) -> dict:
    front = result.final_front
    best = None
    if result.best_feasible is not None:
        plan, breakdown = result.best_feasible
        best = {"cost_breakdown": breakdown, **{name: getattr(plan, name) for name in FLOW_AXES}}
    return {
        "best_feasible": best,
        "final_front": [dict(cost=c, violation=v) for c, v in zip(front.cost, front.violation)],
        "generations_run": result.generations_run,
        "terminated_by": result.terminated_by,
    }


def save_result(result: SolveResult, path):
    _atomic_write(path, dumps_canonical(result_document(result)))


def trace_csv(result: SolveResult) -> str:
    lines = ["generation,best_feasible_cost,mean_cost,min_violation,feasible_count"]
    for rec in result.trace:
        best = "" if rec.best_feasible_cost is None else "%.12g" % rec.best_feasible_cost
        lines.append(
            f"{rec.generation},{best},{'%.12g' % rec.mean_cost},"
            f"{'%.12g' % rec.min_violation},{rec.feasible_count}"
        )
    return "\n".join(lines) + "\n"


def emit_trace(result: SolveResult, path):
    _atomic_write(path, trace_csv(result))
