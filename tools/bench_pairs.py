"""Run the benchmark in alternating parent/change pairs and write a BENCH_*.json.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent HEAD --workload analytic_quadratic:8 \
        --workload analytic_scalar:3 --seconds 32 --topic quadratic_stack \
        --change "what the change does" --out BENCH_quadratic_stack.json

The parent side runs in a tree unpacked from ``git archive <parent>``; the
change side in a copy of the working tree's tracked and untracked,
not-ignored files.  Both trees go to a fresh directory under ``--scratch``.
Each pair runs both sides once with the same seed (``--seed-base`` plus the
pair index), each in a new interpreter started from its tree's root; the
side that runs first alternates from pair to pair.  The ``steal`` field of
the ``cpu`` line of /proc/stat is read before and after each run (USER_HZ
ticks summed over all CPUs); each workload's summary gives each side's
median and max.  Medians and quartiles use
``statistics.quantiles(method="inclusive")``.

Each ``--layer METRIC`` (repeatable) makes every pair also run both sides
with ``--trace 1``, in the same order and with the same seed, and
summarizes those per-layer metrics as it does ``pass_cal``: one traced run
moves with the host, a paired median does not.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

METRICS = ("setup_s", "pass_cal", "peak_rss_mb")
COMMAND = ("python3 perfbench/run.py --workload {workload} --seed {seed} "
           "--seconds {seconds} --trace {trace}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD", help="commit-ish of the parent side")
    p.add_argument("--workload", action="append", required=True,
                   help="NAME:PAIRS, repeatable")
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--seed-base", type=int, default=9701)
    p.add_argument("--topic", required=True)
    p.add_argument("--change", required=True, help="one sentence: what the change does")
    p.add_argument("--scratch", default=tempfile.gettempdir())
    p.add_argument("--out", required=True)
    p.add_argument("--layer", action="append", default=[], metavar="METRIC",
                   help="per-layer metric to compare from --trace 1 runs, repeatable")
    return p.parse_args(argv)


def git(*args, cwd) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout


def parent_tree(repo: Path, commit: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=repo, check=True,
                             capture_output=True).stdout
    tar = dest.parent / "parent.tar"
    tar.write_bytes(archive)
    with tarfile.open(tar) as fh:
        fh.extractall(dest, filter="data")
    tar.unlink()


def change_tree(repo: Path, dest: Path) -> None:
    names = git("ls-files", "--cached", "--others", "--exclude-standard", "-z", cwd=repo)
    for name in filter(None, names.split("\0")):
        src = repo / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def steal_ticks() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def run_once(tree: Path, workload: str, seed: int, seconds: float, layers=()) -> dict:
    """One run of a side; traced (``--trace 1``) and read for ``layers`` if any."""
    command = COMMAND.format(workload=workload, seed=seed, seconds=f"{seconds:g}",
                             trace=int(bool(layers)))
    before, start = steal_ticks(), time.perf_counter()
    out = subprocess.run(command.split(), cwd=tree, capture_output=True, text=True)
    wall, after = time.perf_counter() - start, steal_ticks()
    lines = [ln for ln in out.stdout.splitlines() if ln.startswith("{")]
    result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
    rec = {"command": command, "wall_s": round(wall, 1), "steal_ticks_before": before,
           "steal_ticks_after": after,
           "steal_ticks": None if before is None or after is None else after - before,
           "returncode": out.returncode, "correct": bool(result and result["correct"]),
           "failed": None if result is None else result["failed"]}
    if result is None:
        rec["stderr_tail"] = out.stderr[-2000:]
        return rec
    rec.update({name: result["metrics"][name]["value"] for name in layers or METRICS})
    return rec


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def steal(runs: list[dict]) -> dict | None:
    """Median and max steal ticks of one side's runs; None if any went unread."""
    ticks = [r.get("steal_ticks") for r in runs]
    if not ticks or None in ticks:
        return None
    return {"median": statistics.median(ticks), "max": max(ticks)}


def summarize(runs: list[dict], n_pairs: int, layers=()) -> dict:
    """Pair statistics of the untraced runs' METRICS and the traced runs' ``layers``."""
    plain = [r for r in runs if not r.get("traced")]
    traced = [r for r in runs if r.get("traced")]
    sides = {s: [r for r in plain if r["side"] == s] for s in ("parent", "change")}
    ok = (all(r["correct"] for r in runs) and len(plain) == 2 * n_pairs
          and len(traced) == (2 * n_pairs if layers else 0))
    out = {"pairs": n_pairs, "seeds": [r["seed"] for r in sides["parent"]],
           "correct_all": ok,
           "failed_operations": sum(r["failed"] or 0 for r in runs),
           "steal_ticks": {s: steal(rs) for s, rs in sides.items()}, "metrics": {}}
    if layers:
        out["layers"] = {}
    if not ok or n_pairs < 2:
        return out
    for key, names, group in (("metrics", METRICS, plain), ("layers", layers, traced)):
        for name in names:
            p = [r[name] for r in group if r["side"] == "parent"]
            c = [r[name] for r in group if r["side"] == "change"]
            base = statistics.median(p)  # 0 for a layer the workload does not exercise
            out[key][name] = {
                "parent": spread(p), "change": spread(c),
                "change_over_parent_median": statistics.median(c) / base if base else None,
                "change_lower_in_pairs": f"{sum(y < x for x, y in zip(p, c))}/{n_pairs}",
                "parent_runs": p, "change_runs": c}
    return out


def machine() -> dict:
    probe = ("import json, numpy, scipy, platform; print(json.dumps({'python': "
             "platform.python_version(), 'numpy': numpy.__version__, 'scipy': scipy.__version__}))")
    versions = json.loads(subprocess.run(["python3", "-c", probe], check=True,
                                         capture_output=True, text=True).stdout)
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    # Without a bytecode cache each run compiles src/, which moves setup_s and
    # peak_rss_mb; the runs inherit this environment.
    return {"cpu_model": cpu, "nproc": os.cpu_count(), "kernel": platform.release(),
            **versions, "blas_threads": "1 (perfbench/run.py sets OPENBLAS_NUM_THREADS, "
                                        "OMP_NUM_THREADS and MKL_NUM_THREADS to 1)",
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def main(argv=None) -> int:
    args = parse_args(argv)
    repo = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()).strip())
    parent_commit = git("rev-parse", args.parent, cwd=repo).strip()
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.scratch))
    trees = {"parent": work / "parent", "change": work / "change"}
    for tree in trees.values():
        tree.mkdir()
    parent_tree(repo, parent_commit, trees["parent"])
    change_tree(repo, trees["change"])
    record = {"topic": args.topic, "change": args.change, "parent_commit": parent_commit,
              "machine": machine(),
              "method": "Alternating parent/change pairs with one seed per pair; see "
                        "tools/bench_pairs.py for how the trees are built and steal is read.",
              "command": COMMAND.format(workload="{workload}", seed="{seed}",
                                        seconds=f"{args.seconds:g}", trace=0),
              "layers": args.layer,
              "pair_runner": shlex.join(["python3", "tools/bench_pairs.py", *sys.argv[1:]]),
              "workloads": {}, "runs": []}
    passes = [(), tuple(args.layer)] if args.layer else [()]  # untraced, then traced
    for spec in args.workload:
        workload, n_pairs = spec.split(":")
        runs = []
        for i in range(int(n_pairs)):
            seed = args.seed_base + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for layers in passes:
                for side in order:
                    rec = {"workload": workload, "seed": seed, "pair": i, "side": side,
                           "first": order[0], "traced": bool(layers),
                           **run_once(trees[side], workload, seed, args.seconds, layers)}
                    runs.append(rec)
                    print(json.dumps({k: rec.get(k) for k in (
                        "workload", "pair", "side", "traced", "correct", "steal_ticks",
                        *(layers or METRICS))}), flush=True)
        record["workloads"][workload] = summarize(runs, int(n_pairs), args.layer)
        record["runs"] += runs
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
