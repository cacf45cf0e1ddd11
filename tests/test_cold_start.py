"""The closed-form half of the library runs without loading scipy."""

import os
import subprocess
import sys
from pathlib import Path

import letfgrowth

COLD_START = """
import sys
import tempfile
from pathlib import Path

import numpy as np

from letfgrowth import cli, eigenpair, growth_curve, optimal_beta
from letfgrowth.models import (ConstantRate, Garch, Leverage, Preference, Problem,
                               Quadratic, validate)


def problem(model):
    return validate(Problem(model, Preference(0.5), Leverage(2.0), ConstantRate(0.01)))


betas = -3.0 + 0.01 * np.arange(601)
scalar = problem(Garch(theta=0.08, a=1.0, sigma=0.2))
quadratic = problem(Quadratic(b=[0.1, -0.05], Bmat=[[-1.0, 0.2], [0.0, -0.8]],
                              sigma=[[0.3, 0.0], [0.1, 0.25]]))
for vp in (scalar, quadratic):
    growth_curve(vp, betas)
    optimal_beta(vp)
eigenpair(quadratic)
with tempfile.TemporaryDirectory() as tmp:
    cli.run_figures(1, Path(tmp))
print(" ".join(m for m in ("scipy.linalg", "scipy.special", "concurrent.futures")
               if m in sys.modules))
"""


def test_closed_forms_do_not_load_scipy():
    # A fresh interpreter: scipy is loaded only by the Monte Carlo oracle
    # and the reference densities, neither of which these catalog closed
    # forms reach.  Nothing in the library
    # needs concurrent.futures, so a stray import of it would only add to
    # every start-up.
    src = str(Path(letfgrowth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    assert out.stdout.strip() == ""
