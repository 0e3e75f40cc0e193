"""Start-up cost: scipy is imported only by the computations that use it.

Each check runs in a fresh interpreter, so no import made by another test
(or by pytest) can hide a missing one.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import daekit

SRC = str(Path(daekit.__file__).resolve().parents[1])


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports daekit from SRC; its stdout."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_classify_solve_iae_and_reproduce_never_import_scipy(tmp_path):
    out = run_fresh(f"""
        import contextlib, io, sys
        import daekit, daekit.cli
        from daekit import CollocationConfig, classify, example, solve_iae

        classify(example("ex34"))
        solve_iae(example("ex34"), CollocationConfig(h=0.05))
        with contextlib.redirect_stdout(io.StringIO()):
            assert daekit.cli.main(["reproduce", "fig2", "--out", {str(tmp_path)!r}]) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """)
    assert out.strip() == "[]"


# each sets ``values``, a list of floats; run here and in a fresh interpreter
FIRST_USE = {
    "dae_to_iae-rhs": """
        import numpy as np
        from daekit import LinearDAE, MatrixFunction, dae_to_iae

        # index-2 Hessenberg form: y1' + y2 = sin t, y1 = cos t
        p = LinearDAE(A=MatrixFunction.constant(np.diag([1.0, 0.0]), domain=(0.0, 1.0)),
                      B=MatrixFunction.constant(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                                domain=(0.0, 1.0)),
                      f=lambda t: np.array([np.sin(t), np.cos(t)]), y0=None, r=2, T=1.0)
        values = dae_to_iae(p).f(0.6).tolist()
        """,
    "verify_exact": """
        import numpy as np
        from daekit import example, verify_exact

        values = [verify_exact(example("ex34"), np.linspace(1.0, 2.0, 5))]
        """,
    "SolveResult-call": """
        from daekit import DaeSolveConfig, example, solve_dae

        sol = solve_dae(example("ex32"), DaeSolveConfig(h=1e-2), interval=(0.5, 1.0))
        values = sol(0.7345).tolist()
        """,
    "dae_residual": """
        import numpy as np
        from daekit import DaeSolveConfig, dae_residual, example, solve_dae

        p = example("ex32")
        sol = solve_dae(p, DaeSolveConfig(h=1e-2), interval=(0.5, 1.0))
        values = dae_residual(p, sol, np.linspace(0.51, 0.99, 7)).tolist()
        """,
}


@pytest.mark.parametrize("name", FIRST_USE)
def test_a_computation_that_needs_scipy_imports_it_itself(name):
    code = textwrap.dedent(FIRST_USE[name])
    out = run_fresh("import sys, daekit\nassert 'scipy' not in sys.modules\n" + code
                    + "\nimport json\nprint(json.dumps(['scipy' in sys.modules]"
                      " + [float(v).hex() for v in values]))\n")
    here = {}
    exec(code, here)
    assert json.loads(out) == [True] + [float(v).hex() for v in here["values"]]
