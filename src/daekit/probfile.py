"""JSON problem definition files.

A file describes one problem as a JSON object.  Matrix and vector entries
are numbers or expression strings in the grammar of daekit.expr; which
variables an entry may use depends on its role:

    A        r x r matrix, entries in t
    B        r x r matrix, entries in t           (linear DAE)
    k        r x r matrix, entries in t, s        (linear IAE kernel)
    F        length-r vector, entries in t, y1..yr   (semi-nonlinear DAE)
    kappa    length-r vector, entries in t, s, y1..yr (semi-nonlinear IAE)
    f        length-r vector, entries in t
    exact    length-r vector, entries in t (optional)
    critical_conditions  list of scalars in t, y1..yr (optional)
    y0       length-r list of numbers (optional, DAE kinds)

A kernel (k or kappa) none of whose entries reads t is declared free of t
(``kernel_free_of_t``), read off the parsed entries, never by evaluating them.

Every number in a file (t_start, T, a y0 entry, a numeric entry of a
matrix, vector or condition) must be finite: a JSON NaN or Infinity, or an
integer past the float range, is a ProblemFileError naming its field.

Required scalar fields: "kind" (one of linear-dae, linear-iae, dae, iae),
"t_start", "T".  "name" is optional and defaults to the file stem.  The
problem dimension r is inferred from A.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .errors import ProblemFileError
from .expr import compile_expression, variables_read
from .linalg import MatrixFunction
from .problems import LinearDAE, LinearIAE, SemiNonlinearDAE, SemiNonlinearIAE

_KINDS = ("linear-dae", "linear-iae", "dae", "iae")


def _require(data: dict, key: str, path):
    if key not in data:
        raise ProblemFileError(f"{path}: missing required field {key!r}")
    return data[key]


def _number(value, what, path) -> float:
    # a JSON true/false is no number, as in compile_expression; the bound is
    # False for a JSON NaN or Infinity, which Python's json reads as floats,
    # and for an integer past the float range, whose float() would raise
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ProblemFileError(f"{path}: {what} must be a finite number, got {value!r}")
    return float(value)


def _compile(entry, variables, what, path):
    """compile_expression(entry, variables), its error naming the field."""
    try:
        return compile_expression(entry, variables)
    except ProblemFileError as exc:
        raise ProblemFileError(f"{path}: {what}: {exc}") from None


def _free_of_t(entries, variables) -> bool:
    """Whether no compiled kernel entry reads t, which makes the kernel free
    of t.  Read from each entry's text, not from its compiled function,
    which a caller of ``compile_expression`` may have wrapped."""
    return not any("t" in variables_read(e, variables) for e in entries)


def _compile_matrix(entries, variables, what, path):
    if not isinstance(entries, list) or not entries or \
            not all(isinstance(row, list) for row in entries):
        raise ProblemFileError(f"{path}: {what} must be a list of rows")
    rows = len(entries)
    if any(len(row) != rows for row in entries):
        raise ProblemFileError(f"{path}: {what} must be square")
    fns = [[_compile(e, variables, what, path) for e in row] for row in entries]

    def evaluate(*args):
        return np.array([[fn(*args) for fn in row] for row in fns], dtype=float)

    return evaluate, rows


def _compile_vector(entries, variables, what, r, path):
    if not isinstance(entries, list) or len(entries) != r:
        raise ProblemFileError(f"{path}: {what} must be a list of {r} entries")
    fns = [_compile(e, variables, what, path) for e in entries]

    def evaluate(*args):
        # array arguments evaluate every entry elementwise; an entry that
        # does not depend on them (a constant, say) broadcasts to their shape
        out = np.empty((r,) + np.broadcast(*args).shape)
        for i, fn in enumerate(fns):
            out[i] = fn(*args)
        return out

    return evaluate


def load_problem(path):
    """Read a JSON problem file and build the corresponding problem object."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from None
    # a JSONDecodeError, or the ValueError of an integer literal past
    # Python's int-string digit limit
    except ValueError as exc:
        raise ProblemFileError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ProblemFileError(f"{path}: top level must be a JSON object")

    kind = _require(data, "kind", path)
    if kind not in _KINDS:
        raise ProblemFileError(f"{path}: kind must be one of {', '.join(_KINDS)}")
    t_start = _number(_require(data, "t_start", path), "t_start", path)
    t_end = _number(_require(data, "T", path), "T", path)
    if not t_end > t_start:
        raise ProblemFileError(f"{path}: need T > t_start")
    name = data.get("name", path.stem)

    a_eval, r = _compile_matrix(_require(data, "A", path), ("t",), "A", path)
    a_fn = MatrixFunction(eval=a_eval, domain=(t_start, t_end), name=f"{name}-A")
    y_vars = tuple(f"y{i+1}" for i in range(r))
    f_fn = _compile_vector(_require(data, "f", path), ("t",), "f", r, path)

    y0 = data.get("y0")
    if y0 is not None:
        if not isinstance(y0, list) or len(y0) != r:
            raise ProblemFileError(f"{path}: y0 must be a list of {r} numbers")
        y0 = np.array([_number(v, "y0", path) for v in y0])

    exact = None
    if data.get("exact") is not None:
        exact = _compile_vector(data["exact"], ("t",), "exact", r, path)

    entries = data.get("critical_conditions") or []
    if not isinstance(entries, list):
        raise ProblemFileError(f"{path}: critical_conditions must be a list")
    compiled = [_compile(e, ("t",) + y_vars, "critical_conditions", path) for e in entries]
    conditions = tuple((lambda t, y, fn=fn: float(fn(t, *y))) for fn in compiled)

    if kind == "linear-iae":
        k_entries = _require(data, "k", path)
        k_eval, rk = _compile_matrix(k_entries, ("t", "s"), "k", path)
        if rk != r:
            raise ProblemFileError(f"{path}: k must match A's dimension {r}")
        return LinearIAE(A=a_fn, k=k_eval, f=f_fn, r=r, T=t_end,
                         t_start=t_start, name=name, exact=exact,
                         kernel_free_of_t=_free_of_t(sum(k_entries, []), ("t", "s")))

    if kind == "linear-dae":
        b_eval, rb = _compile_matrix(_require(data, "B", path), ("t",), "B", path)
        if rb != r:
            raise ProblemFileError(f"{path}: B must match A's dimension {r}")
        b_fn = MatrixFunction(eval=b_eval, domain=(t_start, t_end), name=f"{name}-B")
        return LinearDAE(A=a_fn, B=b_fn, f=f_fn, y0=y0, r=r, T=t_end,
                         t_start=t_start, name=name, exact=exact)

    if kind == "dae":
        big_f = _compile_vector(_require(data, "F", path), ("t",) + y_vars, "F", r, path)
        return SemiNonlinearDAE(
            A=a_fn,
            F=lambda t, y: big_f(t, *y),
            f=f_fn, r=r, T=t_end, t_start=t_start, y0=y0,
            exact=exact, critical_conditions=conditions, name=name)

    kappa_entries, kappa_vars = _require(data, "kappa", path), ("t", "s") + y_vars
    kappa = _compile_vector(kappa_entries, kappa_vars, "kappa", r, path)
    return SemiNonlinearIAE(
        A=a_fn,
        kappa=lambda t, s, y: kappa(t, s, *y),
        f=f_fn, r=r, T=t_end, t_start=t_start,
        exact=exact, critical_conditions=conditions, name=name,
        kernel_free_of_t=_free_of_t(kappa_entries, kappa_vars))
