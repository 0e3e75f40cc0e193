"""CSV and JSON writers for solver output.

CSV schema: one header row, comma separated, every float printed with 17
significant digits so values round-trip exactly and repeated runs produce
byte-identical files.  Columns are t, the numerical components y1..yr,
then exact1..exactr and the error norm when an exact solution is known.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def _fmt(x) -> str:
    return format(float(x), ".17g")


def solution_table(times, values, exact=None):
    """Build (header, rows) for a solution; exact is a callable or None."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != times.size:
        raise ValueError("values must have one row per time")
    r = values.shape[1]
    header = ["t"] + [f"y{i+1}" for i in range(r)]
    if exact is not None:
        header += [f"exact{i+1}" for i in range(r)] + ["error"]
    rows = []
    for i, t in enumerate(times):
        row = [t] + list(values[i])
        if exact is not None:
            ex = np.atleast_1d(np.asarray(exact(t), dtype=float))
            row += list(ex) + [float(np.linalg.norm(values[i] - ex))]
        rows.append(row)
    return header, rows


def write_solution_csv(path, times, values, exact=None):
    """Write the solution table to path; returns the path."""
    header, rows = solution_table(times, values, exact)
    lines = [",".join(header)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")
    return Path(path)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def dumps(obj) -> str:
    """A diagnostics/summary object as deterministic JSON text.

    Non-finite floats become the strings "inf", "-inf" and "nan", so the
    text is valid JSON; a value of any type not handled here raises
    TypeError.
    """
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"


def write_json(path, obj):
    """Write ``dumps(obj)`` to path; returns the path."""
    Path(path).write_text(dumps(obj))
    return Path(path)
