"""Outside-in layer tracing for daekit.

Nothing inside the package is edited.  Each traced function is replaced, in
every ``daekit`` module namespace that holds it, by a wrapper that records a
span (call count and self time = span duration minus the time of the spans
it encloses).  Problem callbacks (κ, κ_y, F, F_y, f) are wrapped on the
instances that ``example()`` and ``load_problem()`` return, and a few
result objects are read for solver counts that no call boundary shows.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

# span name -> (defining module, attribute path)
FUNCTIONS = {
    "linalg.semi_inverse": ("daekit.linalg", "semi_inverse"),
    "linalg.numerical_rank": ("daekit.linalg", "numerical_rank"),
    "linalg.fd_derivative": ("daekit.linalg", "fd_derivative"),
    "linalg.matfn": ("daekit.linalg", "MatrixFunction.__call__"),
    "chain.rank_degree_index": ("daekit.chain", "rank_degree_index"),
    "chain.chain_step": ("daekit.chain", "chain_step"),
    "chain.dae_to_iae": ("daekit.chain", "dae_to_iae"),
    "chain.rhs_chain": ("daekit.chain", "rhs_chain"),
    "chain.consistency_check": ("daekit.chain", "consistency_check"),
    "structure.classify": ("daekit.structure", "classify"),
    "structure.frozen_index_report": ("daekit.structure", "frozen_index_report"),
    "structure.pointwise_index": ("daekit.structure", "pointwise_index"),
    "structure.detect_critical_points": ("daekit.structure", "detect_critical_points"),
    "collocation.solve_iae": ("daekit.collocation", "solve_iae"),
    "collocation.residual": ("daekit.collocation", "residual"),
    "collocation.eval": ("daekit.collocation", "PiecewiseSolution.__call__"),
    "probfile.load_problem": ("daekit.probfile", "load_problem"),
    "bdf.solve_dae": ("daekit.bdf", "solve_dae"),
    "export.write_solution_csv": ("daekit.export", "write_solution_csv"),
    "export.write_json": ("daekit.export", "write_json"),
    "cli.main": ("daekit.cli", "main"),
}

# problem attribute -> span name
CALLBACKS = {
    "kappa": "problems.kappa",
    "kappa_y": "problems.kappa_y",
    "F": "problems.F",
    "F_y": "problems.F_y",
    "f": "problems.rhs",
}


# counts read from returned results rather than from spans
COUNTS = ("collocation.intervals", "collocation.newton_iters", "bdf.steps",
          "bdf.newton_iters", "bdf.halvings", "export.bytes")


def metric_names() -> set:
    """Every per-layer metric name a traced pass can produce."""
    spans = [*FUNCTIONS, *CALLBACKS.values(), "expr.eval"]
    return {f"{span}.{kind}" for span in spans for kind in ("calls", "self_s")} | set(COUNTS)


class TraceTargetError(RuntimeError):
    """A wrap target named in the layer table no longer exists."""


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    owner = None
    for part in path.split("."):
        owner = obj
        try:
            obj = getattr(obj, part)
        except AttributeError:
            raise TraceTargetError(
                f"trace target {module}.{path} not found; the layer table is stale") from None
    return owner, path.split(".")[-1], obj


class Tracer:
    """Installed by ``with Tracer() as tr:``; ``tr.snapshot()`` reads the metrics."""

    def __init__(self):
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)   # read from results, not spans
        self._stack: list = []
        self._undo: list = []

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def snapshot(self) -> dict:
        """Flat metrics since the last reset: ``<span>.calls``, ``<span>.self_s``, counts."""
        out = dict(self.counts)
        for name, n in self.calls.items():
            out[name + ".calls"] = n
            out[name + ".self_s"] = self.self_s[name]
        return out

    # -- spans ---------------------------------------------------------
    def _span(self, name, fn, after=None):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(result)
            return result

        return traced

    def _replace_everywhere(self, original, replacement):
        """Point every daekit namespace that holds ``original`` at ``replacement``."""
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "daekit" and not name.startswith("daekit."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    # -- result readers ------------------------------------------------
    def _after_solve_iae(self, result):
        sol, diag = result
        self.counts["collocation.intervals"] += sol.n_intervals
        self.counts["collocation.newton_iters"] += sum(diag["newton_iters"])

    def _after_solve_dae(self, sol):
        self.counts["bdf.steps"] += int(sol.times.size - 1)
        self.counts["bdf.newton_iters"] += sum(sol.newton_iters)
        self.counts["bdf.halvings"] += len(sol.halvings)

    def _after_write(self, path):
        self.counts["export.bytes"] += Path(path).stat().st_size

    def _wrap_problem(self, problem):
        for attr, span in CALLBACKS.items():
            fn = getattr(problem, attr, None)
            if fn is not None:
                setattr(problem, attr, self._span(span, fn))
        return problem

    # -- install / uninstall -------------------------------------------
    def __enter__(self):
        after = {
            "collocation.solve_iae": self._after_solve_iae,
            "bdf.solve_dae": self._after_solve_dae,
            "export.write_solution_csv": self._after_write,
            "export.write_json": self._after_write,
            "probfile.load_problem": self._wrap_problem,
        }
        # resolve everything first so a stale name fails before any patching
        targets = {span: _resolve(*where) for span, where in FUNCTIONS.items()}
        # not spans themselves: they hand out the objects to wrap
        example = _resolve("daekit.examples", "example")[2]
        compile_expression = _resolve("daekit.probfile", "compile_expression")[2]
        for span, (owner, attr, fn) in targets.items():
            wrapped = self._span(span, fn, after.get(span))
            if isinstance(owner, type):
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
            else:
                self._replace_everywhere(fn, wrapped)

        def traced_example(name):
            return self._wrap_problem(example(name))

        def traced_compile(*args, **kwargs):
            return self._span("expr.eval", compile_expression(*args, **kwargs))

        self._replace_everywhere(example, traced_example)
        self._replace_everywhere(compile_expression, traced_compile)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False
