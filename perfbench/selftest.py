"""Self-test of the benchmark's checks: corrupted outputs must be rejected.

    python3 perfbench/selftest.py

Run from the repository root. For each workload it runs one round, requires
the checks to accept the real outputs, then feeds them deliberately
corrupted copies (a perturbed final state, two lanes swapped, a scaled CSV
column, ...) and requires every one to be rejected. Exits 1 if any
corruption passes or a real output is rejected.
"""
from __future__ import annotations

import contextlib
import copy
import io
import shutil
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import sympext.cli  # noqa: E402
from sympext import Trajectory, config_presets, dump_config  # noqa: E402

import workloads  # noqa: E402

WORKDIR = Path(".perfbench_out") / "selftest"


def _accepted(outputs, order):
    return outputs[order][-1]


def single_lane_corruptions(w, outputs):
    def perturb_final(o):
        r = _accepted(o, 4)
        r["Q"] = r["Q"].copy()
        r["Q"][-1] += 1e-4

    def halve_reported_error(o):
        _accepted(o, 6)["error"] *= 0.5

    def drop_accepted_rung(o):
        o[8].pop()

    def stop_early(o):
        o[2].pop(-2)

    for name, fn in [("perturbed final state", perturb_final), ("halved reported error", halve_reported_error),
                     ("accepted rung dropped", drop_accepted_rung), ("rung skipped in the ladder", stop_early)]:
        o = copy.deepcopy(outputs)
        fn(o)
        yield name, lambda o=o: w.check(o)


def wide_batch_corruptions(w, outputs):
    def with_states(o, key, edit):
        traj = o[key]
        states = traj.states.copy()
        edit(states)
        o = dict(o)
        o[key] = Trajectory(traj.times, states)
        return o

    def swap(states):
        states[:, [0, 1]] = states[:, [1, 0]]

    def nudge_rerun_lane(states):
        states[-1, w.rerun[0], 0, 0] += 1e-6

    def scale_mass(states):
        states[-1] *= 1.02

    cases = [
        ("two product lanes swapped", with_states(outputs, "product", swap)),
        ("two mode lanes swapped", with_states(outputs, "nls", swap)),
        ("perturbed final mode state", with_states(outputs, "nls", nudge_rerun_lane)),
        ("perturbed final product state", with_states(outputs, "product", nudge_rerun_lane)),
        ("scaled final mode states", with_states(outputs, "nls", scale_mass)),
    ]
    for name, o in cases:
        yield name, lambda o=o: w.check(o)


def _edit_csv_column(path, column, factor, last_only=False):
    lines = path.read_text(encoding="utf-8").splitlines()
    out = [lines[0]]
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if not last_only or i == len(lines):
            cells[column] = repr(float(cells[column]) * factor)
        out.append(",".join(cells))
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


def _replace_text(path, old, new):
    text = path.read_text(encoding="utf-8")
    if old not in text:
        raise ValueError(f"{old!r} not in {path}")
    path.write_text(text.replace(old, new), encoding="utf-8")


def cli_pipeline_corruptions(w, outputs):
    out = w.out
    cases = [
        ("scaled Hbar column", lambda: _edit_csv_column(out / "integrate.csv", 6, 1.0 + 1e-9)),
        ("scaled q column", lambda: _edit_csv_column(out / "integrate.csv", 1, 1.001)),
        ("scaled table error column", lambda: _edit_csv_column(out / "table.csv", 1, 1.01)),
        ("scaled mode average column", lambda: _edit_csv_column(out / "nls.csv", 6, 1.0 + 1e-6)),
        ("scaled mode mass column", lambda: _edit_csv_column(out / "nls.csv", 4, 1.05)),
        ("uncertified reference", lambda: _replace_text(out / "compare_verdict.txt",
                                                        "benchmark_endpoint_shift = ", "benchmark_endpoint_shift = 1e-9\n#")),
        ("scaled compare error curve", lambda: _edit_csv_column(out / "compare.csv", 2, 1e6)),
        ("strong restraint labelled chaotic", lambda: _replace_text(out / "poincare_strong.meta",
                                                                    "classification: regular", "classification: chaotic")),
        ("section point moved off the shell", lambda: _edit_csv_column(out / "poincare_strong.csv", 0, 3.0)),
        ("cyclic momentum drift", lambda: _edit_csv_column(out / "preset_override.csv", 6, 1.0 + 1e-6, True)),
    ]

    saved = {p: p.read_bytes() for p in w.files()}
    for name, corrupt in cases:
        def run(corrupt=corrupt):
            try:
                corrupt()
                return w.check(outputs)
            finally:
                for p, data in saved.items():
                    p.write_bytes(data)
        yield name, run

    def override_counted():
        # The override operation is judged by what it was asked for: a
        # complete run (made here from an explicit config) is not a failure,
        # the same run cut to 11 rows at stride 10 is.
        cfg = replace(config_presets()["schwarzschild_long"], stride=1, t_final=20.0, out="preset_override")
        path = w.out.parent / "complete.cfg"
        path.write_text(dump_config(cfg), encoding="utf-8")
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                sympext.cli.main(["integrate", "--config", str(path), "--out", str(out), "--workers", "1"])
            complete = w.failures(outputs)
            csv = out / "preset_override.csv"
            csv.write_text("".join(csv.read_text(encoding="utf-8").splitlines(True)[:11]), encoding="utf-8")
            _replace_text(out / "preset_override.meta", "stride = 1\n", "stride = 10\n")
            short = w.failures(outputs)
        finally:
            for p, data in saved.items():
                p.write_bytes(data)
        return ["short run counted as failed"] if (complete, short) == (0, 1) else []

    yield "preset override short of its rows", override_counted


CORRUPTIONS = {
    "single_lane": single_lane_corruptions,
    "wide_batch": wide_batch_corruptions,
    "cli_pipeline": cli_pipeline_corruptions,
}


def main() -> int:
    bad = 0
    try:
        for name, cls in workloads.WORKLOADS.items():
            w = cls(7, WORKDIR / name)
            outputs, _ = w.run_round()
            problems = w.check(outputs)
            print(f"{name}: real outputs {'accepted' if not problems else 'REJECTED: ' + '; '.join(problems)}")
            bad += bool(problems)
            for case, check in CORRUPTIONS[name](w, outputs):
                found = check()
                print(f"  {case}: {'rejected' if found else 'ACCEPTED'}" + (f" ({found[0]})" if found else ""))
                bad += not found
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print("self-test", "passed" if not bad else f"FAILED ({bad})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
