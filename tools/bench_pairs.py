"""Alternating parent/change runs of perfbench, summarized in one JSON file.

    python3 tools/bench_pairs.py --parent <rev> --out BENCH_<n>.json

Run from the repository root. The parent revision and HEAD are exported
with ``git archive`` into a temporary directory (``TMPDIR`` chooses where),
so each side runs only its committed files. For every workload, pair i of
ten runs ``perfbench/run.py`` once per side with seed 100 n + 1 + i, so each
record has its own seeds; even pairs run the parent first, odd pairs the
change. The run length is the ``run_seconds`` of the change's
BENCHMARK.json, the same on both sides.

The file holds, per workload and end-to-end metric, each side's runs,
median, quartiles and spread (quartile distance over the median), the
pairs the change won, the metric's bound and a verdict by these rules:

- ``gain``: the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile distance;
- ``regression``: the change's median is worse by more than the bound;
- ``unresolved``: the parent's spread exceeds the bound, and not every
  change run beats every parent run;
- ``no regression`` otherwise.

It also records failed and attempted operations per side, each side's
line count of ``src/sympext`` (as ``wc -l`` counts it) and the Python,
numpy and scipy versions and the machine.

After a workload's pairs, ``perfbench/run.py --setup-only`` runs twelve
times per side, alternating which side goes first, with the seeds of the
pairs in turn; the workload's ``setup_only`` holds each side's set-up
seconds with their median and quartiles. A fresh process's set-up time is
bimodal on a busy host, and these runs time nothing else, so they show
whether a ``setup_s`` verdict comes from the change. They are a record
beside the verdict, not a rule of it.

Before the pairs, a micro table records microseconds per step of
``integrate_batch`` (one ``integrator._drive`` run of 256 order-4 steps at
omega = 10) at 1 to 1024 lanes for the product oscillator (d = 1) and the
2-mode system (d = 2), and at one lane for the Schwarzschild geodesic
(d = 3). Cell ``<model>/<lanes>`` stores every step; cell
``<model>/<lanes>/stride100`` stores every hundredth, so the gap between
the two is the cost of storing and checking the samples. Cell
``<model>/<lanes>/lane_omega`` binds one omega per lane, drawn from
10 U(0.5, 2), for the product and the 2-mode system at 4 and 16 lanes, and
stores every step. At the same widths, cell ``product/<lanes>/array_form``
runs the product with its gradient in array form only (one call of the
pack/unpack adapter per lane on a narrow batch), and cell
``product/<lanes>/rk4_drag`` times ``oracles.rk4_trajectory`` with
``linear_drag(0.05)``, a forced batch. Cell ``product/1/drag`` times a
one-lane ``integrate`` with ``linear_drag(0.05)``: the forced run of the
command line, whose force is called in every A and B stage. Cell
``product/<lanes>/rk4`` times an unforced ``rk4_trajectory`` at 8 and 16
lanes, which step lane by lane on floats, and at 17, which step as
columns. A cell is the
fastest of the runs of one process, which a busy host disturbs less than
their median. Each of three rounds runs one process per side, alternating
which side goes first, and the table holds each side's median over the
rounds. It is a record of lane-step cost, not a gate.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

WORKLOADS = ("single_lane", "wide_batch", "cli_pipeline")
PAIRS = 10
SETUP_ONLY_RUNS = 12
MICRO_LANES = (1, 2, 4, 8, 16, 32, 64, 1024)
MICRO_LANE_OMEGA = (4, 16)
MICRO_RK4 = (8, 16, 17)
MICRO_ROUNDS = 3
# Prints {"<model>/<lanes>[/stride100|/lane_omega|/array_form|/rk4_drag|/drag|/rk4]": us per step}; each cell is the
# fastest of 256-step runs repeated for 0.1 s.
MICRO_SCRIPT = """
import json, sys, time
import numpy as np
import sympext as sx
from sympext.oracles import rk4_trajectory

def us_per_step(Q, P, omega, model, stride=1, run=None):
    run = run or (lambda: sx.integrate_batch(Q, P, 0.01, omega, 4, 256, model, stride=stride))
    run()  # compiles the step kernel
    runs = []
    while len(runs) < 3 or sum(runs) < 0.1:
        start = time.perf_counter()
        run()
        runs.append(time.perf_counter() - start)
    return 1e6 * min(runs) / 256

cells = {}
all_lanes, lane_omega, rk4_lanes = (json.loads(arg) for arg in sys.argv[1:4])
for name, model, q0, p0, widths, omega_widths, rk4_widths in (
        ("product", sx.product_hamiltonian(), [-3.0], [0.0], all_lanes, lane_omega, rk4_lanes),
        ("2-mode", sx.nls_hamiltonian(2), [3.0, 0.01], [1.0, 0.0], all_lanes, lane_omega, []),
        ("schwarzschild", sx.schwarzschild_hamiltonian(), [0.0, 20.0, 0.0], [0.97, 0.0, -4.47], [1], [], [])):
    for lanes in sorted({*widths, *omega_widths, *rk4_widths}):
        rng = np.random.default_rng(lanes)
        Q = np.asarray(q0) + 0.05 * rng.uniform(-1.0, 1.0, (lanes, len(q0)))
        P = np.asarray(p0) + 0.05 * rng.uniform(-1.0, 1.0, (lanes, len(p0)))
        if lanes in widths:
            cells[f"{name}/{lanes}"] = us_per_step(Q, P, 10.0, model)
            cells[f"{name}/{lanes}/stride100"] = us_per_step(Q, P, 10.0, model, 100)
        if lanes == 1 and name == "product":
            drag, cfg = sx.linear_drag(0.05), sx.IntegratorConfig(0.01, 10.0, 4, 256)
            cells[f"{name}/1/drag"] = us_per_step(
                Q, P, 10.0, model, run=lambda: sx.integrate(Q[0], P[0], cfg, model, force=drag))
        if lanes in omega_widths:
            cells[f"{name}/{lanes}/lane_omega"] = us_per_step(Q, P, 10.0 * rng.uniform(0.5, 2.0, lanes), model)
        if lanes in omega_widths and name == "product":
            array_form = sx.HamiltonianModel(name, model.dim, model.value, grad_pair=model.pair)
            cells[f"{name}/{lanes}/array_form"] = us_per_step(Q, P, 10.0, array_form)
            drag = sx.linear_drag(0.05)
            cells[f"{name}/{lanes}/rk4_drag"] = us_per_step(
                Q, P, 10.0, model, run=lambda: rk4_trajectory(model, Q, P, 0.01, 256, force=drag))
        if lanes in rk4_widths:
            cells[f"{name}/{lanes}/rk4"] = us_per_step(
                Q, P, 10.0, model, run=lambda: rk4_trajectory(model, Q, P, 0.01, 256))
print(json.dumps(cells))
"""


def export(rev: str, dest: Path) -> Path:
    """The committed tree of ``rev`` under ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], check=True, capture_output=True).stdout
    tar_path = dest.with_suffix(".tar")
    tar_path.write_bytes(archive)
    with tarfile.open(tar_path) as tar:
        tar.extractall(dest, filter="data")
    tar_path.unlink()
    return dest


def source_lines(tree: Path) -> int:
    """Lines of the package sources of ``tree``."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "sympext").glob("*.py"))


def perfbench_line(tree: Path, workload: str, seed: int, *args: str) -> str:
    """Last line of standard output of one ``perfbench/run.py`` run in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), *args]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {tree} failed:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    result = json.loads(perfbench_line(tree, workload, seed, "--seconds", str(seconds), "--trace", "0"))
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], **{k: v["value"] for k, v in result["metrics"].items()}}


def setup_only(trees: dict, workload: str, seeds: list[int]) -> dict:
    """Set-up seconds of fresh ``--setup-only`` processes per side, alternating which side goes first."""
    values = {side: [] for side in trees}
    for i in range(SETUP_ONLY_RUNS):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            values[side].append(float(perfbench_line(trees[side], workload, seeds[i % len(seeds)], "--setup-only")))
    return {"unit": "s", "runs_per_side": SETUP_ONLY_RUNS, **{side: describe(values[side]) for side in trees}}


def micro_table(trees: dict, lanes=MICRO_LANES, lane_omega=MICRO_LANE_OMEGA, rk4_lanes=MICRO_RK4) -> dict:
    """Microseconds per integrate_batch step, per side and cell, over interleaved rounds."""
    rounds = {side: [] for side in trees}
    for i in range(MICRO_ROUNDS):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            proc = subprocess.run([sys.executable, "-c", MICRO_SCRIPT, json.dumps(list(lanes)),
                                   json.dumps(list(lane_omega)), json.dumps(list(rk4_lanes))],
                                  cwd=trees[side], env={**os.environ, "PYTHONPATH": str(trees[side] / "src")},
                                  capture_output=True, text=True, check=True)
            rounds[side].append(json.loads(proc.stdout))
    cells = {}
    for cell in rounds["parent"][0]:
        parent, change = (statistics.median(r[cell] for r in rounds[side]) for side in ("parent", "change"))
        cells[cell] = {"parent_us": parent, "change_us": change, "ratio": change / parent}
    return {"unit": "us per step", "order": 4, "omega": 10.0, "steps": 256, "rounds": MICRO_ROUNDS,
            "cells": cells}


def describe(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def verdict(parent: dict, change: dict, lower_is_better: bool, bound: float, wins: int, pairs: int) -> str:
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (change["median"] - parent["median"]) / parent["median"]
    all_better = (max(change["runs"]) < min(parent["runs"]) if lower_is_better
                  else min(change["runs"]) > max(parent["runs"]))
    if wins >= 0.9 * pairs and -sign * (change["median"] - parent["median"]) > parent["q3"] - parent["q1"]:
        return "gain"
    if worse_by > bound:
        return "regression"
    if parent["spread"] > bound and not all_better:
        return "unresolved"
    return "no regression"


def summarize(runs: dict, declared: list[dict]) -> dict:
    out = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = describe([r[name] for r in runs["parent"]])
        change = describe([r[name] for r in runs["change"]])
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent["runs"], change["runs"]))
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": parent, "change": change, "change_wins": wins, "pairs": len(parent["runs"]),
            "median_ratio": change["median"] / parent["median"],
            "verdict": verdict(parent, change, lower, metric["bound"], wins, len(parent["runs"])),
        }
    for side in ("parent", "change"):
        out[f"operations.{side}"] = {"attempted": sum(r["attempted"] for r in runs[side]),
                                     "failed": sum(r["failed"] for r in runs[side]),
                                     "all_correct": all(r["correct"] for r in runs[side])}
    return out


def versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "cpus": os.cpu_count(), "system": platform.system()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare HEAD against")
    parser.add_argument("--out", required=True, type=Path, help="record to write, named BENCH_<n>.json")
    args = parser.parse_args(argv)
    match = re.fullmatch(r"BENCH_(\d+)\.json", args.out.name)
    if match is None:
        parser.error(f"--out must be named BENCH_<n>.json, got {args.out.name}")
    seed_base = 100 * int(match[1]) + 1

    revs = {side: subprocess.run(["git", "rev-parse", rev], check=True, capture_output=True, text=True).stdout.strip()
            for side, rev in (("parent", args.parent), ("change", "HEAD"))}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: export(rev, Path(tmp) / side) for side, rev in revs.items()}
        src_lines = {side: source_lines(tree) for side, tree in trees.items()}
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = bench["run_seconds"]
        micro = micro_table(trees)
        results = {}
        for workload in WORKLOADS:
            runs = {"parent": [], "change": []}
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(trees[side], workload, seed_base + i, seconds))
                print(f"bench_pairs: {workload} pair {i + 1}/{PAIRS}: " + ", ".join(
                    f"{side} wall_s {runs[side][-1]['wall_s']:.3f}" for side in ("parent", "change")),
                    file=sys.stderr, flush=True)
            results[workload] = summarize(runs, bench["end_to_end"])
            results[workload]["setup_only"] = setup_only(trees, workload, [seed_base + i for i in range(PAIRS)])
    record = {"parent": revs["parent"], "change": revs["change"], "pairs": PAIRS, "run_seconds": seconds,
              "seeds": [seed_base, seed_base + PAIRS - 1], "versions": versions(),
              "src_lines": src_lines, "micro": micro, "workloads": results}
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
