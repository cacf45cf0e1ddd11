"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload analytic_scalar --seed 1 --seconds 25 --trace 0

The library is imported from ``./src``; nothing is installed.  The run

1. times set-up (fresh-interpreter import, input generation, validation)
   in this process and in ``SETUP_PROBES`` child interpreters before the
   timed passes and as many after them, so that the median spans the run;
   each sample is scaled by the host-speed kernel timed right after it to
   a host where the kernel takes ``REFERENCE_KERNEL_S``;
2. repeats passes over the workload's operations, one caller in a closed
   loop, until ``--seconds`` would be exceeded (at least one pass);
   ``pass_cal`` is the median pass with each operation's time divided by
   the host-speed kernel's (see ``HostSpeed``), ``e2e.wall_s`` the
   fastest pass in seconds;
3. checks every operation's output and counts failures;
4. prints one line per metric, then the result as one JSON line.

With ``--trace 1`` the untraced passes (``--seconds``, the source of the
``e2e.*`` figures) are followed by ``--seconds``/2 of passes with spans
around every library call and by direct calls into layers that are only
reached through another; the per-layer metrics and the tracing overhead
come from that run.  A run record (machine, versions, command, sample
counts, failures) and the spans go to ``.perfbench/`` in the working
directory.  Metric names and units are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

SETUP_PROBES = 4  # child set-ups before the timed passes, and again after
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
TAIL_MIN_SAMPLES = 4 * TAIL_BEYOND  # fewer: no tail (it would sit near the median)
SPAN_CALIBRATION = 20_000  # empty spans timed to price one span
HOST_SPEED_EVERY_S = 0.1  # refresh the host-speed kernel at most this often
# The host-speed kernel's time on the baseline host (2-core Intel Xeon VM)
# in its usual state; set-up times are scaled to a host this fast.
REFERENCE_KERNEL_S = 0.7e-3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time set-up in this fresh interpreter, print it, exit")
    return p.parse_args(argv)


def library_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "letfgrowth" / "__init__.py").is_file():
        raise SystemExit("perfbench: no src/letfgrowth under the working directory; "
                         "run from the repository root")
    return root


def setup(workload: str, seed: int, scratch: Path):
    """Import the library, build and validate the inputs; return (workload, s)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(library_root() / "src"))
    import workloads
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {workload!r}; "
                         f"expected one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload](seed, scratch)
    return wl, time.perf_counter() - t0


def probe_setup(args) -> list[tuple[float, float]]:
    """(set-up time, host-speed kernel time) of SETUP_PROBES fresh child
    interpreters."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["kernel_s"]))
    return samples


# ---------------------------------------------------------------------------
# Timed loop
# ---------------------------------------------------------------------------

class HostSpeed:
    """Time of a fixed pure-Python + numpy kernel: the host-speed reference.

    The host's speed drifts by up to 1.7x, in stretches that last from
    seconds to a whole run.  An operation's time divided by this kernel's
    time, measured just before and just after it, cancels most of that
    drift.  The kernel (about 1 ms, best of three) runs outside the timed
    calls and at most every ``HOST_SPEED_EVERY_S``.
    """

    def __init__(self):
        import numpy as np

        self._matrix = np.random.default_rng(0).normal(size=(8, 8))
        self._eigvals = np.linalg.eigvals
        self._at = -math.inf
        self.value = 0.0
        self.samples: list[float] = []

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(3000):
            acc += i * i
        for _ in range(20):
            self._eigvals(self._matrix)
        return time.perf_counter() - t0

    def current(self) -> float:
        if time.perf_counter() - self._at >= HOST_SPEED_EVERY_S:
            self.value = min(self._kernel() for _ in range(3))
            self._at = time.perf_counter()
            self.samples.append(self.value)
        return self.value


class Phase:
    """Timings and outcomes of consecutive passes, traced or not."""

    def __init__(self):
        self.speed = HostSpeed()
        self.pass_walls: list[float] = []
        self.pass_cals: list[float] = []   # passes in host-speed kernel units
        self.latencies: dict[str, list[float]] = {}   # op kind -> seconds
        self.work: dict[str, float] = {}              # op kind -> total work
        self.attempted = 0
        self.failures: list[str] = []


def run_op(op, tracer, phase: Phase) -> tuple[float, float]:
    """Run and check one operation; return its time in seconds and in
    host-speed kernel units."""
    phase.attempted += 1
    before = phase.speed.current()
    t0 = time.perf_counter()
    try:
        with tracer.span("op." + op.kind, label=op.label):
            result = op.run(tracer)
    except Exception as exc:  # an operation that raises is a failed operation
        dt = time.perf_counter() - t0
        phase.failures.append(f"{op.kind} {op.label}: raised "
                              + "".join(traceback.format_exception_only(exc)).strip())
        return dt, 2.0 * dt / (before + phase.speed.current())
    dt = time.perf_counter() - t0
    cal = 2.0 * dt / (before + phase.speed.current())
    phase.latencies.setdefault(op.kind, []).append(dt)
    phase.work[op.kind] = phase.work.get(op.kind, 0.0) + op.work
    try:
        msgs = op.check(result)
    except Exception as exc:
        msgs = ["check raised " + "".join(traceback.format_exception_only(exc)).strip()]
    if msgs:
        phase.failures.append(f"{op.kind} {op.label}: " + "; ".join(msgs))
    return dt, cal


def run_phase(wl, tracer, seconds: float) -> Phase:
    """Passes until another would overrun ``seconds``; at least one."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        wl.counts = dict(wl.initial_counts)
        times = [run_op(op, tracer, phase) for op in wl.ops]
        phase.pass_walls.append(sum(t for t, _ in times))
        phase.pass_cals.append(sum(c for _, c in times))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(phase.pass_walls) > seconds:
            return phase


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, int] | None:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it; None with fewer than TAIL_MIN_SAMPLES samples."""
    s = sorted(samples)
    n = len(s)
    if n < TAIL_MIN_SAMPLES:
        return None
    return s[n - TAIL_BEYOND - 1], (100 * (n - TAIL_BEYOND)) // n


def span_cost_s() -> float:
    """Seconds one span adds: empty spans, traced minus untraced."""
    from tracing import NullTracer, Tracer

    def loop(tracer):
        t0 = time.perf_counter()
        for _ in range(SPAN_CALIBRATION):
            with tracer.span("calibration", kind="gbm"):
                pass
        return time.perf_counter() - t0

    rounds = [loop(Tracer()) - loop(NullTracer()) for _ in range(5)]
    return max(statistics.median(rounds), 0.0) / SPAN_CALIBRATION


def end_to_end(phase: Phase, setup_samples: list[tuple[float, float]],
               record: dict) -> dict:
    record["samples"].update({"setup_s": len(setup_samples),
                              "pass_cal": len(phase.pass_cals), "peak_rss_mb": 1})
    record["setup_s_unscaled"] = statistics.median(t for t, _ in setup_samples)
    return {
        "setup_s": REFERENCE_KERNEL_S * statistics.median(t / k for t, k in setup_samples),
        "pass_cal": statistics.median(phase.pass_cals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def workload_metrics(phase: Phase, record: dict) -> dict:
    """Workload-specific end-to-end figures, measured with tracing off."""
    out = {"e2e.wall_s": min(phase.pass_walls)}
    record["samples"]["e2e.wall_s"] = len(phase.pass_walls)
    lat, work = phase.latencies, phase.work
    if lat.get("growth_curve"):
        out["e2e.curve_points_per_s"] = work["growth_curve"] / sum(lat["growth_curve"])
    if lat.get("optimal_beta"):
        out["e2e.optimum_p50_ms"] = 1e3 * statistics.median(lat["optimal_beta"])
        record["samples"]["e2e.optimum_p50_ms"] = len(lat["optimal_beta"])
        t = tail(lat["optimal_beta"])
        if t is not None:
            out["e2e.optimum_tail_ms"] = 1e3 * t[0]
            record["optimum_tail_percentile"] = t[1]
            record["samples"]["e2e.optimum_tail_ms"] = len(lat["optimal_beta"])
    if lat.get("verify"):
        out["e2e.path_steps_per_s"] = work["verify"] / sum(lat["verify"])
    attempted = max(phase.attempted, 1)
    out["e2e.failed_fraction"] = len(phase.failures) / attempted
    return out


def layer_metrics(wl, tracer, counter_n: int, traced: Phase) -> dict:
    """Per-layer metrics from the spans and the last pass's counters."""
    import inputs
    import workloads

    us, ms = 1e6, 1e3
    out = {"models.validate_us": us * tracer.median_s("models.validate"),
           "eigen.generator_residual_us": us * tracer.median_s("eigen.generator_residual"),
           "riccati.solve_quadratic_model_us": us * tracer.median_s("riccati.solve_quadratic_model"),
           "riccati.stationary_covariance_us": us * tracer.median_s("riccati.stationary_covariance"),
           "leverage.objective_evals.quadratic": counter_n / len(traced.pass_walls)}
    for kind in inputs.KINDS:
        out[f"eigen.eigenpair_us.{kind}"] = us * tracer.median_s("eigen.eigenpair", kind=kind)
        out[f"growth.growth_rate_us.{kind}"] = us * tracer.median_s("growth.growth_rate", kind=kind)
        for cap in ("capped", "uncapped"):
            out[f"leverage.optimal_beta_ms.{kind}.{cap}"] = ms * tracer.median_s(
                "leverage.optimal_beta", kind=kind, cap=cap)
        out[f"mc.martingale_check_s.{kind}"] = tracer.median_s("mc.martingale_check", kind=kind)
    for kind in inputs.KINDS + ("garch_infinite", "gbm_dense"):
        out[f"mc.simulate_growth_s.{kind}"] = tracer.median_s("mc.simulate_growth", kind=kind)
    for kind in inputs.KINDS:
        rates = [s["attrs"]["path_steps"] / (s["end"] - s["start"]) for s in tracer.spans
                 if s["name"] == "mc.simulate_growth" and s["attrs"].get("kind") == kind]
        out[f"mc.path_steps_per_s.{kind}"] = statistics.median(rates) if rates else 0.0
    for d in range(1, 7):
        out[f"riccati.solve_stabilizing_riccati_us.d{d}"] = us * tracer.median_s(
            "riccati.solve_stabilizing_riccati", d=d)
    for fig in (1, 2):
        out[f"cli.run_figures_ms.{fig}"] = ms * tracer.median_s("cli.run_figures", figure=fig)
    verify = [sum(c["end"] - c["start"] for c in tracer.spans if c["parent"] == s["id"]
                  and c["name"] in ("mc.simulate_growth", "growth.growth_rate", "mc.verdict_for"))
              for s in tracer.spans if s["name"] == "op.verify"]
    if verify:
        out["e2e.verify_p50_s"] = statistics.median(verify)
    sparse = tracer.median_s("mc.simulate_growth.checkpoints", n=workloads.SPARSE_CHECKPOINTS)
    dense = tracer.median_s("mc.simulate_growth.checkpoints", n=workloads.DENSE_CHECKPOINTS)
    if dense > sparse > 0.0:
        pairs = workloads.DENSE_PATHS // 2
        out["mc.pair_checkpoints_per_s"] = (
            pairs * (workloads.DENSE_CHECKPOINTS - workloads.SPARSE_CHECKPOINTS)
            / (dense - sparse))
    out.update(wl.counts)
    return out


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def run_record(args, root: Path) -> dict:
    import numpy
    import scipy

    def git_commit():
        try:
            # The ceiling keeps git from reporting an enclosing repository.
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10,
                                 env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
        except OSError:
            return None
        return out.stdout.strip() or None

    def cpu_model():
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or platform.machine()

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "command": [sys.executable] + sys.argv,
        "git_commit": git_commit(), "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "samples": {},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, set before numpy loads: the loop has one caller and
    # small matrices, and an idle OpenBLAS worker otherwise spins on the
    # second core (60% of it on analytic_quadratic), tying every timing to
    # that core's contention.  Child set-up probes inherit the setting.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    root = library_root()
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    if args.setup_probe:
        _, elapsed = setup(args.workload, args.seed, scratch)
        print(json.dumps({"setup_s": elapsed, "kernel_s": HostSpeed().current()}))
        return 0

    wl, own_setup = setup(args.workload, args.seed, scratch)
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    import workloads
    from letfgrowth import validate
    from tracing import NullTracer, Tracer

    setup_samples = [(own_setup, HostSpeed().current())] + probe_setup(args)
    record = run_record(args, root)
    wl.warmup()
    plain = run_phase(wl, NullTracer(), args.seconds)
    setup_samples += probe_setup(args)
    phases = [plain]
    if args.trace:
        tracer = Tracer()
        with workloads.ObjectiveCounter() as counter:
            traced = run_phase(wl, tracer, args.seconds / 2)
        phases.append(traced)
        spans_per_pass = len(tracer.spans) / len(traced.pass_walls)
        wl.probes(tracer)
        for vp in wl.problems:
            with tracer.span("models.validate"):
                validate(vp.problem)
        values = layer_metrics(wl, tracer, counter.n, traced)
        values.update(workload_metrics(plain, record))
        # Spans cost microseconds, far below the host's pass-to-pass drift,
        # so the overhead is priced per span; the measured difference of
        # the fastest passes is kept in the record for comparison.
        values["trace.overhead_s"] = spans_per_pass * span_cost_s()
        record["trace_wall_difference_s"] = min(traced.pass_walls) - min(plain.pass_walls)
        record["spans_per_pass"] = spans_per_pass
        wanted = spec["per_layer"]
        tracer.write(scratch / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        values = end_to_end(plain, setup_samples, record)
        record["context"] = workload_metrics(plain, record)
        wanted = spec["end_to_end"]

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    record["not_exercised"] = [m["name"] for m in wanted if m["name"] not in values]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    record.update({"setup_samples_s": [t for t, _ in setup_samples],
                   "setup_kernel_s": [k for _, k in setup_samples],
                   "pass_walls_s": [p.pass_walls for p in phases],
                   "pass_cals": [p.pass_cals for p in phases],
                   "host_speed_kernel_s": [statistics.median(p.speed.samples) for p in phases],
                   "attempted": attempted, "failures": failures,
                   "known_defects": wl.known_defects, "metrics": metrics})
    (scratch / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")

    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    for f in wl.known_defects[:20]:
        print(f"KNOWN DEFECT (measured, not gated) {f}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in {**record.get("context", {}),
                        **{k: m["value"] for k, m in metrics.items()}}.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
