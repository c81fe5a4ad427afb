"""Command line harness: deterministic experiment runs writing CSV files.

Exit codes: 0 success, 2 configuration error, 3 numeric abort,
4 acceptance-check failure in check mode.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, oracles
from .analysis import (
    chaos_statistic,
    classify_section,
    energy_drift,
    ergodic_averages,
    fit_loglog_slope,
    poincare_section,
    polar_errors,
    scaled_running_max_errors,
    schwarzschild_scalings,
)
from .config import ExperimentConfig, _parse_values, apply_overrides, config_presets, dump_config, load_config
from .errors import ConfigError, DomainError, SympextError
from .integrator import linear_drag, integrate
from .models import default_initial_condition, extended_energy, get_model, nls_masses
from .state import Trajectory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECK = 4


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row) + "\n")


def _write_meta(path: Path, cfg: ExperimentConfig, notes=()):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# sympext version: {__version__}\n")
        for note in notes:
            fh.write(f"# {note}\n")
        fh.write(dump_config(cfg))


def _initial_condition(cfg: ExperimentConfig):
    if cfg.q0 or cfg.p0:
        if not (cfg.q0 and cfg.p0):
            raise ConfigError("q0 and p0 must be given together")
        dim = get_model(cfg.system, cfg.n_modes).dim
        if not len(cfg.q0) == len(cfg.p0) == dim:
            raise ConfigError(
                f"q0 and p0 need {dim} values each for system {cfg.system}, got {len(cfg.q0)} and {len(cfg.p0)}"
            )
        return np.asarray(cfg.q0, dtype=float), np.asarray(cfg.p0, dtype=float)
    return default_initial_condition(cfg.system, cfg.n_modes, cfg.ic_preset)


def _require_oracle_start(Q0, P0):
    """The closed-form product solution is normalized to a start at Q0 < 0, P0 = 0."""
    if not (Q0[0] < 0 and P0[0] == 0):
        raise ConfigError(
            f"the exact product oracle needs q0 < 0 and p0 = 0, got q0 = {_fmt(Q0[0])}, p0 = {_fmt(P0[0])}"
        )


def _run_trajectory(cfg: ExperimentConfig) -> Trajectory:
    model = get_model(cfg.system, cfg.n_modes)
    Q0, P0 = _initial_condition(cfg)
    force = linear_drag(cfg.gamma) if cfg.gamma > 0 else None
    return integrate(
        Q0,
        P0,
        cfg.integrator_config(),
        model,
        force=force,
        stride=cfg.stride,
        escape_bound=cfg.escape_bound,
    )


def _energy_columns(traj: Trajectory, model, omega):
    """H and Hbar per sample, NaN at each sample outside the model's domain.

    A copy can cross the domain boundary at a stored sample before any step
    is refused, so the reasons for the NaN samples are returned as well.
    """
    try:
        return model.value(*traj.projected()), extended_energy(model, omega, traj.states), []
    except DomainError:
        pass
    Q, P = traj.projected()
    h, hbar, outside = np.full(len(traj), np.nan), np.full(len(traj), np.nan), []
    for i, t in enumerate(traj.times):
        try:
            h[i], hbar[i] = model.value(Q[i], P[i]), extended_energy(model, omega, traj.states[i])
        except DomainError as exc:
            outside.append(f"outside the domain at t = {_fmt(t)}: {exc}")
    return h, hbar, outside


def _trajectory_rows(traj: Trajectory, h, hbar):
    q, p, x, y = traj.parts()
    for i, t in enumerate(traj.times):
        yield [t, *q[i], *p[i], *x[i], *y[i], h[i], hbar[i]]


def _trajectory_header(d: int):
    cols = ["t"]
    for block in "qpxy":
        cols.extend(f"{block}{i}" for i in range(d))
    cols.extend(["H", "Hbar"])
    return cols


def cmd_integrate(cfg: ExperimentConfig, out_dir: Path) -> int:
    model = get_model(cfg.system, cfg.n_modes)
    base = cfg.out or "trajectory"
    notes = []
    code = EXIT_OK
    try:
        traj = _run_trajectory(cfg)
    except SympextError as exc:
        if exc.partial is None:
            raise
        traj = exc.partial
        notes.append(f"aborted: {exc}")
        code = EXIT_NUMERIC
    h, hbar, outside = _energy_columns(traj, model, cfg.omega)
    if outside:
        notes.extend(outside)
        code = EXIT_NUMERIC
    _write_csv(out_dir / f"{base}.csv", _trajectory_header(model.dim), _trajectory_rows(traj, h, hbar))
    _write_meta(out_dir / f"{base}.meta", cfg, notes)
    return code


def _scan_point(args):
    cfg, key, value = args
    cfg = replace(cfg, **{key: value})
    try:
        traj = _run_trajectory(cfg)
        Q, P = traj.projected()
        q0 = float(traj.states[0, 0, 0])
        qe, pe = oracles.exact_series(q0, traj.times)
        err = polar_errors(traj.times, Q[:, 0], P[:, 0], qe, pe)
        return (value, err.max_amplitude_error, err.max_phase_error, "ok")
    except (SympextError, ValueError) as exc:
        reason = str(exc).replace(",", ";")  # keep the status a single CSV cell
        return (value, np.nan, np.nan, f"failed: {reason}")


def _map_ordered(fn, items, workers: int):
    # A process pool starts all of its workers at the first submit: no more than there are items.
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # only a pooled scan loads multiprocessing
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def cmd_table(cfg: ExperimentConfig, out_dir: Path, workers: int) -> int:
    if cfg.system != "product1d":
        raise ConfigError("table scans need the 1-dof product system (it has the exact oracle)")
    if bool(cfg.omegas) == bool(cfg.deltas):
        raise ConfigError("set exactly one scan list: omegas or deltas")
    _require_oracle_start(*_initial_condition(cfg))
    key, values = ("omega", cfg.omegas) if cfg.omegas else ("delta", cfg.deltas)
    results = _map_ordered(_scan_point, [(cfg, key, v) for v in values], workers)

    survivors = [(v, a, ph) for v, a, ph, status in results if status == "ok"]
    notes = [f"scan key: {key}"]
    fit_lines = []
    if len(survivors) >= 3:
        vs = [r[0] for r in survivors]
        fit_lines.append(f"slope_amplitude = {fit_loglog_slope(vs, [r[1] for r in survivors]):.6f}")
        fit_lines.append(f"slope_phase = {fit_loglog_slope(vs, [r[2] for r in survivors]):.6f}")
    else:
        notes.append("fewer than 3 surviving scan points: no slope fit")
    base = cfg.out or "table"
    rows = [[v, a, ph, status] for v, a, ph, status in results]
    _write_csv(out_dir / f"{base}.csv", [key, "max_amplitude_error", "max_phase_error", "status"], rows)
    _write_meta(out_dir / f"{base}.meta", cfg, notes + fit_lines)
    for line in fit_lines:
        print(line)
    return EXIT_OK


def cmd_poincare(cfg: ExperimentConfig, out_dir: Path) -> int:
    model = get_model(cfg.system, cfg.n_modes)
    dim = model.dim
    if dim != 1:
        raise ConfigError(f"poincare sections need a 1-dof system, got {cfg.system} with {dim} degrees of freedom")
    qlo, qhi, nq = cfg.grid_q
    plo, phi_, np_ = cfg.grid_p
    grid = [(qv, pv) for qv in np.linspace(qlo, qhi, int(nq)) for pv in np.linspace(plo, phi_, int(np_))]
    section = poincare_section(model, grid, cfg.omega, cfg.shell, order=cfg.order, max_crossings=cfg.max_crossings)
    try:
        stat = chaos_statistic(section)
        stat_line = f"chaos statistic: {stat:.6f}"
        label = classify_section(stat)
    except ValueError:
        stat_line = "chaos statistic: not enough crossings per trajectory"
        label = "undetermined"
    base = cfg.out or "section"
    rows = zip(section.points[:, 0], section.points[:, 1], section.crossing_index, section.trajectory_id)
    _write_csv(out_dir / f"{base}.csv", ["q", "p", "crossing_index", "trajectory_id"],
               ([q, p, str(int(ci)), str(int(ti))] for q, p, ci, ti in rows))
    _write_csv(out_dir / f"{base}_skipped.csv", ["q", "p", "reason"],
               ([q, p, reason] for q, p, reason in section.skipped))
    _write_meta(out_dir / f"{base}.meta", cfg, [
        "surface: x[0] = 0.0 (+)",
        f"trajectories: {section.n_trajectories}",
        f"dropped crossings: {section.dropped_crossings}",
        stat_line,
        f"classification: {label}",
    ])
    print(f"{stat_line} ({label})")
    return EXIT_OK


def cmd_nls(cfg: ExperimentConfig, out_dir: Path) -> int:
    if cfg.system != "nls":
        raise ConfigError("the nls command needs system = nls")
    if cfg.resolved_steps() < 1:
        raise ConfigError("the nls command needs n_steps >= 1 for its running averages, got n_steps = 0")
    model = get_model(cfg.system, cfg.n_modes)
    traj = _run_trajectory(cfg)
    Q, P = traj.projected()
    obs = nls_masses(Q, P)
    averages = ergodic_averages(traj.times, obs.masses)
    h = model.value(Q, P)
    hbar = extended_energy(model, cfg.omega, traj.states)
    d = model.dim
    header = ["t", "H", "Hbar", "I"]
    header += [f"I{i+1}" for i in range(d)]
    header += [f"avg_I{i+1}" for i in range(d)]
    header += ["gap"]

    def rows():
        for i, t in enumerate(traj.times):
            row = [t, h[i], hbar[i], obs.total[i], *obs.masses[i]]
            if i == 0:
                row += [np.nan] * d + [np.nan]
            else:
                row += [*averages.averages[i - 1], averages.gap[i - 1]]
            yield row

    base = cfg.out or "observables"
    _write_csv(out_dir / f"{base}.csv", header, rows())
    _write_meta(out_dir / f"{base}.meta", cfg)
    return EXIT_OK


def cmd_compare(cfg: ExperimentConfig, out_dir: Path) -> int:
    if cfg.system == "nls":
        raise ConfigError("compare supports the benchmarked systems: product1d, schwarzschild")
    model = get_model(cfg.system, cfg.n_modes)
    Q0, P0 = _initial_condition(cfg)
    force = linear_drag(cfg.gamma) if cfg.gamma > 0 else None
    n_steps = cfg.integrator_config().n_steps
    exact = cfg.system == "product1d" and cfg.gamma == 0
    if exact:
        _require_oracle_start(Q0, P0)
    elif n_steps % cfg.stride:
        # The reference is sampled on a uniform grid; it must be the trajectory's own.
        raise ConfigError(f"compare against the reference needs stride {cfg.stride} to divide n_steps {n_steps}")
    traj = _run_trajectory(cfg)
    Q, P = traj.projected()
    rk = oracles.rk4_trajectory(model, Q0, P0, cfg.delta, n_steps, stride=cfg.stride, force=force)

    base = cfg.out or "compare"
    verdict = [f"system = {cfg.system}", f"delta = {_fmt(cfg.delta)}", f"omega = {_fmt(cfg.omega)}"]
    if exact:
        qe, pe = oracles.exact_series(float(Q0[0]), traj.times)
        err_new = polar_errors(traj.times, Q[:, 0], P[:, 0], qe, pe)
        err_rk = polar_errors(traj.times, rk.Q[:, 0], rk.P[:, 0], qe, pe)
        rows = zip(traj.times, err_new.amplitude_error, err_new.phase_error,
                   err_rk.amplitude_error, err_rk.phase_error)
        _write_csv(out_dir / f"{base}.csv",
                   ["t", "amp_err", "phase_err", "amp_err_rk4", "phase_err_rk4"], rows)
        verdict += [
            f"max_amplitude_error = {_fmt(err_new.max_amplitude_error)}",
            f"max_phase_error = {_fmt(err_new.max_phase_error)}",
            f"max_amplitude_error_rk4 = {_fmt(err_rk.max_amplitude_error)}",
            f"max_phase_error_rk4 = {_fmt(err_rk.max_phase_error)}",
        ]
    else:
        ref = oracles.reference_flow(model, Q0, P0, n_steps * cfg.delta, n_samples=len(traj.times) - 1, force=force)
        scal = np.concatenate([schwarzschild_scalings(), [1.0]]) if cfg.system == "schwarzschild" \
            else np.ones(model.dim + 1)
        num = np.column_stack([Q, model.value(Q, P)])
        refm = np.column_stack([ref.Q, model.value(ref.Q, ref.P)])
        curves_new = scaled_running_max_errors(num, refm, scal)
        num_rk = np.column_stack([rk.Q, model.value(rk.Q, rk.P)])
        curves_rk = scaled_running_max_errors(num_rk, refm, scal)
        header = ["t"]
        header += [f"err_c{i}" for i in range(curves_new.shape[1])]
        header += [f"err_c{i}_rk4" for i in range(curves_rk.shape[1])]
        rows = ([t, *curves_new[i], *curves_rk[i]] for i, t in enumerate(ref.times))
        _write_csv(out_dir / f"{base}.csv", header, rows)
        verdict += [
            f"benchmark_substeps = {ref.meta['substeps_per_sample']}",
            f"benchmark_endpoint_shift = {_fmt(ref.meta['endpoint_shift'])}",
            f"terminal_scaled_errors = {np.array2string(curves_new[-1], precision=3)}",
            f"terminal_scaled_errors_rk4 = {np.array2string(curves_rk[-1], precision=3)}",
        ]

    drift = energy_drift(traj, model, cfg.omega)
    h_rk = model.value(rk.Q, rk.P)
    verdict += [
        f"max_extended_energy_drift = {_fmt(np.max(np.abs(drift.extended)))}",
        f"max_original_energy_drift = {_fmt(np.max(np.abs(drift.original)))}",
        f"terminal_energy_drift_rk4 = {_fmt(abs(h_rk[-1] - h_rk[0]))}",
    ]
    with open(out_dir / f"{base}_verdict.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(verdict) + "\n")
    _write_meta(out_dir / f"{base}.meta", cfg)
    for line in verdict:
        print(line)
    return EXIT_OK


def cmd_check(numbers, out_dir: Path) -> int:
    from . import checks  # only this subcommand loads the criteria
    unknown = set(numbers or ()) - set(checks.CRITERIA)
    if unknown:
        raise ConfigError(f"unknown criteria {sorted(unknown)}")
    results = checks.run_all(numbers)
    lines = [r.line() for r in results]
    for line in lines:
        print(line)
    with open(out_dir / "check_report.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympext",
        description="Benchmark harness for the extended-phase-space symplectic integrator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("integrate", "run one trajectory and write it as CSV"),
        ("table", "scan omegas or deltas and tabulate polar errors"),
        ("poincare", "extract a section on an energy shell"),
        ("nls", "run the mode system and write mass observables"),
        ("compare", "paired run against RK4 and a benchmark"),
        ("check", "run the acceptance criteria"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="flat key = value config file")
        p.add_argument("--preset", type=str, default=None, help="named preset configuration")
        p.add_argument("--out", type=str, default=".", help="output directory")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes for table scans; the other subcommands run in one process")
        if name == "check":
            p.add_argument("--only", type=str, default=None, help="comma list of criterion numbers")
    return parser


def _load(args) -> ExperimentConfig:
    presets = config_presets()
    if args.preset is not None:
        if args.preset not in presets:
            raise ConfigError(f"unknown preset {args.preset!r}; available: {sorted(presets)}")
        cfg = presets[args.preset]
        if args.config is not None:
            # Every key written in the file overrides the preset, including
            # values that happen to equal the ExperimentConfig defaults.
            cfg = apply_overrides(cfg, _parse_values(Path(args.config).read_text(encoding="utf-8")))
        return cfg.validate()
    if args.config is None:
        raise ConfigError("missing configuration: pass --config or --preset")
    return load_config(args.config)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "check":
            numbers = None
            if args.only:
                try:
                    numbers = [int(part) for part in args.only.split(",")]
                except ValueError:
                    raise ConfigError(f"criteria must be comma-separated numbers, got {args.only!r}") from None
            return cmd_check(numbers, out_dir)
        cfg = _load(args)
        if args.command == "table":
            return cmd_table(cfg, out_dir, args.workers)
        handler = {
            "integrate": cmd_integrate,
            "poincare": cmd_poincare,
            "nls": cmd_nls,
            "compare": cmd_compare,
        }[args.command]
        return handler(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SympextError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
