"""Benchmark of sympext: one workload, one seed, one run.

    python3 perfbench/run.py --workload single_lane --seed 1 --seconds 36 --trace 0

Run from the repository root. The script imports sympext from ``src/`` next
to this directory, makes the workload's inputs from the seed, and then runs
whole rounds of the workload for ``--seconds`` seconds. Outputs are checked
after the timed region. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory for the workloads and the metrics.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK_ROOT = Path(".perfbench_out")
# Set-up is timed in this process and in this many fresh interpreters more;
# setup_s is the median. Import time cannot be repeated inside one process.
EXTRA_SETUPS = 2
WORKLOAD_NAMES = ("single_lane", "wide_batch", "cli_pipeline")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(args, workdir):
    """Import sympext from the checkout and make the workload's inputs."""
    if not (SRC / "sympext" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sympext sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[args.workload](args.seed, workdir)


def fresh_setup_seconds(args) -> float:
    """Set-up time of the same workload and seed in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up in a fresh interpreter failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


class Rounds:
    """Whole rounds of one workload, with the untimed bookkeeping after each."""

    def __init__(self, workload):
        self.workload = workload
        self.times = []
        self.digests = set()
        self.attempted = 0
        self.failed = 0
        self.first_outputs = None
        self.layer_rounds = []
        self.span_rounds = []

    def run(self, seconds, tracer=None):
        """Whole rounds for about ``seconds``: no round starts that would end later."""
        deadline = time.perf_counter() + seconds
        took = 0.0
        while took == 0.0 or time.perf_counter() + took <= deadline:
            t = time.perf_counter()
            outputs, attempted = self.workload.run_round()
            took = time.perf_counter() - t
            if tracer is not None:
                metrics, spans = tracer.finish_round()
                metrics["round_s"] = took
                self.layer_rounds.append(metrics)
                self.span_rounds.append(spans)
            else:
                self.times.append(took)
            self.digests.add(self.workload.digest(outputs))
            self.attempted += attempted
            self.failed += self.workload.failures(outputs)
            if self.first_outputs is None:
                self.first_outputs = outputs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = set_up(args, workdir)
        setups = [time.perf_counter() - T0]
        if args.setup_only:
            print(repr(setups[0]))
            return 0
        rounds = Rounds(workload)
        if args.trace:
            # Untraced rounds first, then the same rounds with the wrappers
            # installed; the difference of the mean rounds is the tracing cost.
            import spans

            rounds.run(args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                rounds.run(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
        else:
            setups += [fresh_setup_seconds(args) for _ in range(EXTRA_SETUPS)]
            rounds.run(args.seconds)
        rss = peak_rss_mb()
        print(f"perfbench: {len(rounds.times)} untraced rounds, seconds "
              + " ".join(f"{t:.3f}" for t in rounds.times) + "; set-ups " + " ".join(f"{t:.3f}" for t in setups),
              file=sys.stderr)

        problems = workload.check(rounds.first_outputs)
        if len(rounds.digests) != 1:
            problems.append(f"outputs differ between rounds ({len(rounds.digests)} distinct digests)")
        for line in problems:
            print(f"perfbench: check failed: {line}", file=sys.stderr)

        # wall_s is the timed region's wall time divided by its rounds. The
        # host's speed drifts between levels lasting tens of seconds; in
        # trials this mean spread less across runs than the median round.
        wall = statistics.fmean(rounds.times)
        if args.trace:
            layer = {key: statistics.median(r[key] for r in rounds.layer_rounds)
                     for key in rounds.layer_rounds[0] if key != "round_s"}
            traced_wall = statistics.fmean(r["round_s"] for r in rounds.layer_rounds)
            layer["trace.overhead_s"] = traced_wall - wall
            later = rounds.times[1:] or rounds.times
            layer["wall.first_round_excess_s"] = rounds.times[0] - statistics.median(later)
            layer["cli.bytes_written"] = workload.bytes_written() if hasattr(workload, "bytes_written") else 0
            spans.write_spans(WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.json",
                              rounds.span_rounds)
            # BENCHMARK.json names the per-layer metrics and their units.
            declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
            metrics = {m["name"]: {"value": int(layer[m["name"]]) if m["unit"] in ("count", "bytes")
                                   else layer[m["name"]], "unit": m["unit"]} for m in declared}
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": wall, "unit": "s"},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
            }
        print(json.dumps({"correct": not problems, "attempted": rounds.attempted,
                          "failed": rounds.failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
