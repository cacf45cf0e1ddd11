"""CLI contract: exit codes, CSV schemas, manifests, determinism."""

import argparse
import csv
import json
import math

import numpy as np
import pytest

import letfgrowth.cli as cli
import letfgrowth.errors as errors
from letfgrowth.growth import growth_rate
from letfgrowth.mc import GrowthEstimate
from letfgrowth.models import load_problem


GBM = {"model": {"kind": "gbm", "mu": 0.05, "sigma": 0.2},
       "alpha": 0.5, "beta": 2.0, "r": 0.01}
QUAD = {"model": {"kind": "quadratic", "b": [0.1, -0.05],
                  "Bmat": [[-1.0, 0.2], [0.0, -0.8]],
                  "sigma": [[0.3, 0.0], [0.1, 0.25]]},
        "alpha": 0.5, "beta": 2.0, "r": 0.01}


@pytest.fixture()
def gbm_cfg(tmp_path):
    p = tmp_path / "gbm.json"
    p.write_text(json.dumps(GBM))
    return p


@pytest.fixture()
def quad_cfg(tmp_path):
    p = tmp_path / "quad.json"
    p.write_text(json.dumps(QUAD))
    return p


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_eigenpair_subcommand(gbm_cfg, capsys):
    assert cli.main(["eigenpair", "--config", str(gbm_cfg)]) == 0
    out = capsys.readouterr().out
    assert "lambda=-0.03" in out
    assert "family=power(p=1)" in out
    assert "residual=" in out


def test_growth_single_beta_and_csv(gbm_cfg, tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert cli.main(["growth", "--config", str(gbm_cfg), "--beta", "2",
                     "--out", str(out)]) == 0
    assert "rate=0.025" in capsys.readouterr().out
    rows = read_csv(out)
    assert [*rows[0]] == ["beta", "rate", "finite", "condition_lhs",
                          "condition_threshold"]
    assert float(rows[0]["rate"]) == pytest.approx(0.025)
    # round trip: the CSV value re-evaluates to the same rate
    vp = load_problem(GBM).with_beta(float(rows[0]["beta"]))
    assert growth_rate(vp).rate == pytest.approx(float(rows[0]["rate"]), rel=1e-12)
    # manifest sidecar exists and is valid JSON
    man = json.loads((tmp_path / "g.csv.manifest.json").read_text())
    assert man["subcommand"] == "growth" and man["tool"] == "letfgrowth"


def test_growth_grid_rows(gbm_cfg, tmp_path):
    out = tmp_path / "grid.csv"
    assert cli.main(["growth", "--config", str(gbm_cfg), "--beta-grid=-3:3:0.5",
                     "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 13
    assert float(rows[0]["beta"]) == -3.0 and float(rows[-1]["beta"]) == 3.0


def test_growth_beta_and_grid_exclusive(gbm_cfg, capsys):
    assert cli.main(["growth", "--config", str(gbm_cfg), "--beta", "1",
                     "--beta-grid=0:1:0.5"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_empty_out_writes_nothing(gbm_cfg, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in (["growth"], ["optimal"]):
        assert cli.main(argv + ["--config", str(gbm_cfg), "--out", ""]) == 0
    assert "rate=0.025" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gbm.json"]


def test_growth_infinite_row(tmp_path):
    cfg = tmp_path / "garch.json"
    cfg.write_text(json.dumps({"model": {"kind": "garch", "theta": 0.08,
                                         "a": 1.0, "sigma": 0.5},
                               "alpha": 1.0, "beta": 10.0, "r": 0.01}))
    out = tmp_path / "inf.csv"
    assert cli.main(["growth", "--config", str(cfg), "--out", str(out)]) == 0
    row = read_csv(out)[0]
    assert row["rate"] == "inf" and row["finite"] == "0"
    # An infinite closed form has no relative gap to the oracle's slope.
    out = tmp_path / "verify.csv"
    assert cli.main(["verify", "--config", str(cfg), "--sim", "t=5,paths=2000,seed=1",
                     "--out", str(out)]) == 0
    rows = read_csv(out)
    assert {(r["analytic_rate"], r["abs_rel_gap"], r["verdict"]) for r in rows} == {
        ("inf", "nan", "DIVERGED")}


def test_optimal_subcommand(gbm_cfg, tmp_path):
    out = tmp_path / "opt.csv"
    assert cli.main(["optimal", "--config", str(gbm_cfg), "--out", str(out)]) == 0
    row = read_csv(out)[0]
    assert float(row["beta_star"]) == pytest.approx(2.0)
    assert row["method"] == "closed_form"
    out2 = tmp_path / "opt2.csv"
    assert cli.main(["optimal", "--config", str(gbm_cfg), "--cap=1.0:1.5",
                     "--out", str(out2)]) == 0
    row2 = read_csv(out2)[0]
    assert row2["method"] == "boundary(+cap)" and float(row2["beta_star"]) == 1.5


def test_riccati_subcommand(quad_cfg, tmp_path):
    out = tmp_path / "r.csv"
    assert cli.main(["riccati", "--config", str(quad_cfg), "--out", str(out)]) == 0
    rows = {r["name"]: r["value"] for r in read_csv(out)}
    loop_real = [float(v) for k, v in rows.items() if k.endswith("_real")]
    assert loop_real and max(loop_real) < 0.0  # Hurwitz closed loop
    assert rows["c_precision_negdef"] == "1"
    assert float(rows["V_01"]) == float(rows["V_10"])  # symmetric
    assert float(rows["riccati_residual"]) < 1e-10


def test_riccati_rejects_non_quadratic(gbm_cfg):
    assert cli.main(["riccati", "--config", str(gbm_cfg)]) == 2


@pytest.mark.parametrize("argv", [
    ["eigenpair"], ["growth", "--beta-grid=-1:3:1"], ["optimal", "--cap=-3:3"], ["riccati"],
    ["verify", "--sim", "t=2,steps=100,paths=2000,seed=1"]], ids=lambda a: a[0])
def test_relaxed_warnings_printed_once_and_recorded(tmp_path, capsys, argv):
    # A negative rate validates only relaxed, with one warning for its one
    # bound: every --config subcommand prints it once, and every manifest
    # records it.
    cfg = tmp_path / "q.json"
    cfg.write_text(json.dumps({**QUAD, "r": -0.01}))
    warnings = list(load_problem(cfg, relax=True).warnings)
    assert warnings == ["r: relaxed check failed: r > 0 (got -0.01)"]
    out = tmp_path / "o.csv"
    code = cli.main([argv[0], "--config", str(cfg), "--relax", *argv[1:]]
                    + ([] if argv[0] == "eigenpair" else ["--out", str(out)]))
    assert code in ((0, 4) if argv[0] == "verify" else (0,))
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("warning=")] == [
        f"warning={w}" for w in warnings]
    if argv[0] != "eigenpair":
        man = json.loads((tmp_path / "o.csv.manifest.json").read_text())
        assert man["relax"] is True and man["warnings"] == warnings


GBM_TEXT = json.dumps(GBM)
QUAD_TEXT = json.dumps(QUAD)


@pytest.mark.parametrize("text, relax, message", [
    pytest.param(json.dumps({"model": {"kind": "inverse_garch", "theta": 0.03,
                                       "a": 1.0, "sigma": 0.2},
                             "alpha": 0.5, "beta": 2.0, "r": 0.01}),
                 False, "theta > sigma^2", id="parameter_bound"),
    pytest.param(GBM_TEXT[:-10], False, "not a JSON document", id="truncated_json"),
    pytest.param(GBM_TEXT.replace('"alpha": 0.5', '"alpha": "abc"'), False, "'alpha'",
                 id="alpha_string"),
    pytest.param(GBM_TEXT.replace('"mu": 0.05', '"mu": [1]'), False, "'mu'", id="mu_list"),
    # JSON strings and booleans are not numbers, even where float() reads them.
    pytest.param(GBM_TEXT.replace('"mu": 0.05', '"mu": "0.05"'), False,
                 "'mu' must be numeric, got '0.05'", id="mu_numeric_string"),
    pytest.param(GBM_TEXT.replace('"alpha": 0.5', '"alpha": true'), False,
                 "'alpha' must be numeric, got True", id="alpha_boolean"),
    pytest.param(QUAD_TEXT.replace("[0.1, -0.05]", "[true, 0.0]"), False,
                 "'b' must be numeric", id="quadratic_b_boolean"),
    pytest.param(QUAD_TEXT.replace('"kind": "quadratic"', '"kind": "quadratic", "d": true'),
                 False, "'d' must be numeric, got True", id="quadratic_d_boolean"),
    pytest.param(GBM_TEXT.replace('"mu": 0.05', '"mu": 1' + "0" * 400), False,
                 "'mu' must be numeric", id="mu_integer_past_float_range"),
    pytest.param(QUAD_TEXT.replace("[0.1, -0.05]", "[0.1, 1" + "0" * 400 + "]"), False,
                 "'b' must be numeric", id="quadratic_b_integer_past_float_range"),
    pytest.param(QUAD_TEXT.replace("[0.1, -0.05]", '[0.1, "a"]'), False, "'b'",
                 id="quadratic_b_string"),
    pytest.param(GBM_TEXT.replace('"mu": 0.05', '"mu": NaN'), False, "mu must be finite",
                 id="gbm_mu_nan"),
    pytest.param(json.dumps({"model": {"kind": "garch", "theta": math.inf, "a": 1.0,
                                       "sigma": 0.2},
                             "alpha": 0.5, "beta": 2.0, "r": 0.01}),
                 False, "theta must be finite", id="garch_theta_inf"),
    pytest.param(GBM_TEXT.replace('"r": 0.01', '"r": NaN'), True, "r must be finite",
                 id="relaxed_r_nan"),
    pytest.param(QUAD_TEXT.replace('"kind": "quadratic"', '"kind": "quadratic", "d": 2.7'),
                 False, "declared d=2.7", id="quadratic_d_not_integral"),
    pytest.param(GBM_TEXT.replace('"alpha": 0.5', '"alpha": 1.5'), False,
                 "0 < alpha <= 1 fails: got 1.5", id="alpha_above_one"),
    pytest.param(GBM_TEXT.replace('"beta": 2.0', '"beta": NaN'), False,
                 "beta must be finite, got nan", id="beta_nan"),
    pytest.param(QUAD_TEXT.replace("[0.1, -0.05]", "[[0.1], [-0.05]]"), True,
                 "b has shape (2, 1)", id="quadratic_b_column"),
    pytest.param(json.dumps([GBM]), False, "configuration must be a JSON object",
                 id="top_level_list"),
    pytest.param(json.dumps({k: v for k, v in GBM.items() if k != "alpha"}), False,
                 "missing required key 'alpha'", id="alpha_missing"),
    pytest.param(json.dumps({**GBM, "model": "gbm"}), False, "'model' must be an object",
                 id="model_string"),
    pytest.param(json.dumps({**GBM, "model": {"mu": 0.05, "sigma": 0.2}}), False,
                 "'model' needs a 'kind' field", id="kind_missing"),
    pytest.param(json.dumps({**GBM, "model": {"kind": "gbm", "mu": 0.05}}), False,
                 "model 'gbm' is missing fields: ['sigma']", id="sigma_missing"),
])
def test_config_validation_exit_code(tmp_path, capsys, text, relax, message):
    # Malformed or non-finite configuration values are configuration errors
    # in strict and relaxed mode alike: exit 2 naming the key, no traceback.
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    argv = ["growth", "--config", str(cfg)] + (["--relax"] if relax else [])
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["optimal", "--cap=2:1"],
    ["optimal", "--cap=nan:1"],
    ["optimal", "--cap=-inf:1"],
    ["growth", "--beta-grid=nan:1:0.1"],
    ["growth", "--beta-grid=0:inf:0.1"],
    ["verify", "--sim=paths=10"],
    ["verify", "--sim=t=abc"],
    ["verify", "--sim=t=inf"],
    # GBM's 50 desk steps/yr at t=0.5 give dt = 0.02; checkpoint 0.05 misses it.
    ["verify", "--sim=t=0.5,paths=2000"],
    # GBM is a stepped kind: 10 steps over 20 years are below its 50/yr floor.
    ["verify", "--sim=steps=10"],
    # numpy's SeedSequence takes no negative seed.
    ["verify", "--sim=t=1,paths=2000,seed=-1"],
    # Sizes numpy refuses before allocating anything (petabytes, or a point
    # count past any integer).
    ["growth", "--beta-grid=0:1:1e-15"],
    ["growth", "--beta-grid=0:1e300:1e-300"],
    ["verify", "--sim=paths=100000000000000"],
])
def test_malformed_option_exit_code(gbm_cfg, capsys, argv):
    # Malformed --cap, --beta-grid and --sim values, and grids or path
    # counts too large to build, are configuration errors: exit 2 with a
    # message, not a traceback.
    assert cli.main(argv + ["--config", str(gbm_cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: --")


@pytest.mark.parametrize("argv, message", [
    (["growth", "--beta-grid=0:1"], "--beta-grid expects lo:hi:step, got '0:1'"),
    (["growth", "--beta-grid=0:1:x"], "--beta-grid expects lo:hi:step, got '0:1:x'"),
    (["optimal", "--cap=1"], "--cap expects lo:hi, got '1'"),
    (["optimal", "--cap=a:b"], "--cap expects lo:hi, got 'a:b'"),
    # Empty parts are skipped; the value after them is still read.
    (["verify", "--sim=,,t=abc"], "--sim ',,t=abc'"),
    (["verify", "--sim=paths"], "--sim expects k=v pairs, got 'paths'"),
    (["verify", "--sim=t=1=2"], "--sim expects k=v pairs, got 't=1=2'"),
    (["verify", "--sim=t=1,horizon=1"], "unknown --sim keys: ['horizon']"),
])
def test_option_format_errors_name_the_value(gbm_cfg, capsys, argv, message):
    assert cli.main(argv + ["--config", str(gbm_cfg)]) == 2
    assert message in capsys.readouterr().err


# Exit code of every library error a subcommand can raise.
ERROR_EXIT_CODES = [
    (errors.ComplexKappa("x"), 3),
    (errors.NoStabilizingSolution("x"), 3),
    (errors.IllConditioned("x"), 3),
    (errors.SingularSystem("x"), 3),
    (errors.NotHurwitz("x"), 3),
    (errors.AllPathsDiverged("x"), 3),
    (errors.SchemeUnstable("x"), 3),
    (errors.NoFiniteRegion("x"), 3),
    (errors.ConfigError("x"), 2),
    (errors.ParameterViolation("mu", "mu > 0"), 2),
    (errors.MissingRate("x"), 2),
    (errors.ExtraneousRate("x"), 2),
    (errors.ConditionUnmet("x > 0"), 2),
    (errors.GridOutsideDomain("x"), 2),
]


@pytest.mark.parametrize("exc, code", ERROR_EXIT_CODES,
                         ids=[type(e).__name__ for e, _ in ERROR_EXIT_CODES])
def test_error_exit_code_mapping(gbm_cfg, monkeypatch, capsys, exc, code):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_eigenpair", fail)
    assert cli.main(["eigenpair", "--config", str(gbm_cfg)]) == code
    assert capsys.readouterr().err == f"error: {exc}\n"


def test_error_exit_codes_cover_every_concrete_error():
    bases = {errors.LetfGrowthError, errors.NumericalError}
    concrete = {c for c in vars(errors).values()
                if isinstance(c, type) and issubclass(c, errors.LetfGrowthError)} - bases
    assert {type(e) for e, _ in ERROR_EXIT_CODES} == concrete


def test_growth_single_beta_raises_numerical_failure(tmp_path, capsys):
    # A complex exponent at the one requested beta is the answer to report
    # (exit 3, as eigenpair does); a grid still collects it per point.
    cfg = tmp_path / "ecir.json"
    cfg.write_text(json.dumps({"model": {"kind": "extended_cir", "theta": 0.01,
                                         "mu": 0.01, "sigma": 0.2},
                               "alpha": 0.3, "beta": 0.5, "r": 0.01}))
    assert cli.main(["growth", "--config", str(cfg), "--relax"]) == 3
    assert cli.main(["eigenpair", "--config", str(cfg), "--relax"]) == 3
    assert "negative square-root argument" in capsys.readouterr().err
    out = tmp_path / "grid.csv"
    assert cli.main(["growth", "--config", str(cfg), "--relax", "--beta-grid=0:1:0.5",
                     "--out", str(out)]) == 0
    assert [r["rate"] for r in read_csv(out)][1] == "nan"


def test_numerical_failure_exit_code(tmp_path):
    # No stabilizing solution: beta inside (0,1) makes the killing negative
    # enough that the stable subspace degenerates.
    cfg = tmp_path / "q.json"
    cfg.write_text(json.dumps({"model": {"kind": "quadratic", "b": [0.0],
                                         "Bmat": [[-1.0]], "sigma": [[1.0]]},
                               "alpha": 1.0, "beta": 0.5, "r": 0.01}))
    assert cli.main(["riccati", "--config", str(cfg)]) == 3


def test_verify_pass_and_outputs(gbm_cfg, tmp_path):
    out = tmp_path / "v.csv"
    code = cli.main(["verify", "--config", str(gbm_cfg),
                     "--sim", "t=5,steps=260,paths=20000,seed=3",
                     "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 10
    assert rows[-1]["verdict"] == "PASS"
    assert float(rows[-1]["analytic_rate"]) == pytest.approx(0.025)
    man = json.loads((tmp_path / "v.csv.manifest.json").read_text())
    assert man["sim_resolved"]["paths"] == 20000
    assert man["sim_resolved"]["seed"] == 3 and "seed" not in man
    assert man["relax"] is False


VASICEK = {"model": {"kind": "gbm_vasicek", "mu": 0.05, "sigma": 0.2, "theta": 0.06,
                     "a": 3.0, "delta": 0.05, "rho": -0.3, "r0": 0.02},
           "alpha": 0.5, "beta": 2.0}


@pytest.mark.parametrize("problem, steps", [(GBM, 250), (VASICEK, 10)],
                         ids=["gbm", "gbm_vasicek"])
def test_verify_horizon_keeps_the_desk_density(tmp_path, problem, steps):
    # --sim t= without steps: GBM keeps 50 steps/yr, while the exact
    # Vasicek scheme keeps one step per checkpoint gap.
    cfg, out = tmp_path / "problem.json", tmp_path / "v.csv"
    cfg.write_text(json.dumps(problem))
    assert cli.main(["verify", "--config", str(cfg), "--sim", "t=5,paths=20000",
                     "--out", str(out)]) == 0
    man = json.loads((tmp_path / "v.csv.manifest.json").read_text())
    assert man["sim_resolved"] == {"t": 5.0, "steps": steps, "paths": 20000, "seed": 42}


def test_verify_fail_exit_code(gbm_cfg, monkeypatch):
    def fake_sim(vp, cfg):
        return GrowthEstimate(
            t=np.array([1.0, 2.0]), log_mean_utility=np.array([0.5, 1.0]),
            stderr=np.array([1e-4, 1e-4]), ess=np.array([1e4, 1e4]),
            slope=0.5, slope_stderr=1e-4, diverged=False,
            overflow_fraction=0.0, truncation_fraction=0.0,
            n_paths=2000, scheme="s")
    monkeypatch.setattr(cli, "simulate_growth", fake_sim)
    assert cli.main(["verify", "--config", str(gbm_cfg)]) == 4


def test_verify_diverged_prints_each_reason(gbm_cfg, monkeypatch, capsys):
    # A DIVERGED estimate against a finite closed form fails (exit 4), and
    # each divergence reason goes to stderr on its own line.
    reasons = ("overflow in 3% of paths", "ESS collapsed at t = 2")

    def fake_sim(vp, cfg):
        return GrowthEstimate(
            t=np.array([1.0, 2.0]), log_mean_utility=np.array([0.5, 1.0]),
            stderr=np.array([1e-4, 1e-4]), ess=np.array([1e4, 2.0]),
            slope=0.5, slope_stderr=1e-4, diverged=True,
            overflow_fraction=0.03, truncation_fraction=0.0,
            n_paths=2000, scheme="s", divergence_reasons=reasons)
    monkeypatch.setattr(cli, "simulate_growth", fake_sim)
    assert cli.main(["verify", "--config", str(gbm_cfg)]) == 4
    captured = capsys.readouterr()
    assert "verdict=DIVERGED" in captured.out
    assert [line for line in captured.err.splitlines()
            if line.startswith("divergence:")] == [f"divergence: {r}" for r in reasons]


def test_verify_determinism(gbm_cfg, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (a, b):
        assert cli.main(["verify", "--config", str(gbm_cfg),
                         "--sim", "t=5,steps=260,paths=20000,seed=3",
                         "--out", str(p)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_figures_scenario_one(tmp_path):
    out_dir = tmp_path / "fig1"
    assert cli.main(["figures", "1", "--out-dir", str(out_dir)]) == 0
    summary = {float(r["mu"]): float(r["beta_star"])
               for r in read_csv(out_dir / "figure1_summary.csv")}
    assert summary[0.05] == pytest.approx(1.93, abs=0.01)
    assert summary[0.01] == pytest.approx(0.0, abs=0.01)
    assert summary[-0.05] == pytest.approx(-1.95, abs=0.01)
    curve = read_csv(out_dir / "figure1_mu_0.05.csv")
    assert len(curve) == 601
    betas = [float(r["beta"]) for r in curve]
    rates = [float(r["rate"]) for r in curve]
    assert betas[0] == -3.0 and betas[-1] == 3.0
    assert abs(betas[int(np.argmax(rates))] - 1.93) <= 0.02
    # Scenario 1 is always validated relaxed, and no figure draws a seed.
    for path in out_dir.glob("*.manifest.json"):
        man = json.loads(path.read_text())
        assert man["relax"] is True and "seed" not in man
        assert any("2*theta > delta^2" in w for w in man["warnings"])


def test_figures_scenario_two(tmp_path):
    out_dir = tmp_path / "fig2"
    assert cli.main(["figures", "2", "--out-dir", str(out_dir)]) == 0
    summary = {float(r["mu"]): float(r["beta_star"])
               for r in read_csv(out_dir / "figure2_summary.csv")}
    assert summary[0.05] == pytest.approx(3.65, abs=0.01)
    assert summary[0.01] == pytest.approx(1.52, abs=0.01)
    assert summary[-0.05] == pytest.approx(-1.68, abs=0.01)
    assert len(read_csv(out_dir / "figure2_mu_0.01.csv")) == 601
    for path in out_dir.glob("*.manifest.json"):
        man = json.loads(path.read_text())
        assert man["relax"] is False and "seed" not in man and man["warnings"] == []


def test_figures_determinism(tmp_path):
    d1, d2 = tmp_path / "f1", tmp_path / "f2"
    assert cli.main(["figures", "2", "--out-dir", str(d1)]) == 0
    assert cli.main(["figures", "2", "--out-dir", str(d2)]) == 0
    for name in ("figure2_summary.csv", "figure2_mu_0.05.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_unknown_figure_id():
    with pytest.raises(errors.ConfigError, match="unknown figure id 3"):
        cli.figure_problems(3)


def test_option_surface():
    # Every settable value of the CLI, per subcommand; a new or leftover
    # knob must show up here as a diff.
    ap = cli._build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: {s for a in p._actions for s in (a.option_strings or [a.dest])}
           - {"-h", "--help"} for name, p in sub.choices.items()}
    problem = {"--config", "--relax"}
    assert got == {
        "eigenpair": problem,
        "growth": problem | {"--out", "--beta", "--beta-grid"},
        "optimal": problem | {"--out", "--cap"},
        "riccati": problem | {"--out"},
        "verify": problem | {"--out", "--sim"},
        "figures": {"figure", "--out-dir"},
    }


def test_number_format_is_twelve_digits():
    assert cli._fmt(math.pi) == "3.14159265359"
    assert cli._fmt(None) == ""
    assert cli._fmt(True) == "1"
    assert cli._fmt(math.inf) == "inf"
