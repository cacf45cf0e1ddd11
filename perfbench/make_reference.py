"""Regenerate ``reference.json``: closed-form outputs on the catalog models.

    python3 perfbench/make_reference.py

Run from the repository root at the commit whose values are the
reference.  The analytic workloads compare their catalog instances
against this file (see ``checks.py`` for the tolerances); seeded instances
are checked by invariants instead.  Regenerate only when a change of the
closed forms is intended, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from letfgrowth.eigen import eigenpair  # noqa: E402
from letfgrowth.growth import growth_curve  # noqa: E402
from letfgrowth.leverage import optimal_beta  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402


def summarize(vp) -> dict:
    return {"curve": checks.curve_summary(growth_curve(vp, inputs.BETA_GRID)),
            "capped": checks.optimum_summary(optimal_beta(vp, cap=inputs.CAP)),
            "uncapped": checks.optimum_summary(optimal_beta(vp, cap=None))}


def main() -> None:
    ref = {}
    for kind in inputs.SCALAR_KINDS:
        m = inputs.CATALOG[kind]
        ref[kind] = summarize(inputs.problem(m))
        ref[kind]["sweep_lam"] = [
            [eigenpair(inputs.problem(m, alpha=a, beta=b)).lam for b in inputs.SWEEP_BETAS]
            for a in inputs.SWEEP_ALPHAS]
    vp = inputs.problem(inputs.CATALOG["quadratic"])
    ref["quadratic"] = summarize(vp)
    ref["quadratic"]["lam"] = eigenpair(vp).lam
    checks.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
