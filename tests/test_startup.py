"""daekit runs on numpy alone: every computation works with scipy unimportable.

The check runs in a fresh interpreter, so no import made by another test
(or by pytest) can satisfy one that daekit makes.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import daekit

SRC = str(Path(daekit.__file__).resolve().parents[1])


def run_fresh(code: str):
    """Run ``code`` in a fresh interpreter that imports daekit from SRC; it must exit 0."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_every_computation_runs_with_scipy_unimportable(tmp_path):
    run_fresh(f"""
        import sys
        sys.modules["scipy"] = None     # any import of scipy or a submodule fails
        import contextlib, io
        import numpy as np
        import daekit, daekit.cli
        from daekit import (CollocationConfig, DaeSolveConfig, LinearDAE, MatrixFunction,
                            classify, dae_residual, dae_to_iae, example, solve_dae,
                            solve_iae, verify_exact)

        classify(example("ex34"))
        solve_iae(example("ex34"), CollocationConfig(h=0.05))
        with contextlib.redirect_stdout(io.StringIO()):
            assert daekit.cli.main(["reproduce", "fig2", "--out", {str(tmp_path)!r}]) == 0
        # index-2 Hessenberg form: y1' + y2 = sin t, y1 = cos t
        p = LinearDAE(A=MatrixFunction.constant(np.diag([1.0, 0.0]), domain=(0.0, 1.0)),
                      B=MatrixFunction.constant(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                                domain=(0.0, 1.0)),
                      f=lambda t: np.array([np.sin(t), np.cos(t)]), y0=None, r=2, T=1.0)
        values = [*dae_to_iae(p).f(0.6)]
        for name in ("ex34", "ex33"):
            q = example(name)
            values.append(verify_exact(q, np.linspace(*q.interval, 5)))
        q = example("ex32")
        sol = solve_dae(q, DaeSolveConfig(h=1e-2), interval=(0.5, 1.0))
        values += [*sol(0.7345), *dae_residual(q, sol, np.linspace(0.51, 0.99, 7))]
        assert np.all(np.isfinite(values))
        """)


def test_importing_daekit_builds_no_gauss_rule():
    # numpy loads numpy.polynomial on first use, and loading it costs every
    # command's start a few milliseconds: a Gauss rule is built when first used
    run_fresh("""
        import sys
        import daekit, daekit.cli
        assert "numpy.polynomial" not in sys.modules
        """)
