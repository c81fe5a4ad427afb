"""The three workloads: inputs from a seed, one round of operations, checks.

A round is the whole workload, run once. ``run_round`` holds only calls into
sympext and is what ``run.py`` times; ``digest``, ``failures`` and
``check`` run after the timed region. Every call into sympext goes through a
module attribute looked up at call time (``sympext.integrate``,
``sympext.cli.main``, ...), so the traced run can replace those attributes
with span-recording wrappers without the workloads knowing.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np
import sympext
import sympext.cli

# --- single_lane -----------------------------------------------------------
# Product oscillator from (Q0, 0), Q0 = -3 +- 0.03, omega = 20, horizon 5.
# Each order walks the ladder from coarse to fine and stops at the first step
# size whose maximum polar error meets TARGET. The target sits between rungs
# for every order (the nearest rung error is at least 1.3x away from it over
# the whole Q0 range), so the accepted rung, and with it the work, does not
# depend on the seed.
SL_ORDERS = (2, 4, 6, 8)
SL_LADDER = tuple(0.032 * 2.0 ** (-k / 2.0) for k in range(12))
SL_TARGET = 5e-5
SL_HORIZON = 5.0
SL_OMEGA = 20.0
SL_Q0_SPREAD = 0.03
SL_SLOPE_HALF_BAND = 1.0  # fitted slope over the last three rungs is within this of l
SL_ERROR_RTOL = 1e-4  # reported error against the independent one

# --- wide_batch ------------------------------------------------------------
WB_PRODUCT_LANES = 1024
WB_PRODUCT_DELTA = 0.005
WB_PRODUCT_STEPS = 4000
WB_PRODUCT_OMEGA = (10.0, 30.0)
WB_PRODUCT_AMPLITUDE = (0.5, 3.5)
WB_PRODUCT_ERROR_MAX = 5e-4  # per lane; about 10x the worst lane measured
WB_NLS_LANES = 1024
WB_NLS_DELTA = 0.01
WB_NLS_OMEGA = 100.0
WB_NLS_STEPS = 1000
WB_NLS_MASS_DRIFT_MAX = 2e-2  # relative total-mass drift, per lane
WB_NLS_HBAR_DRIFT_MAX = 5e-3  # relative doubled-energy drift, per lane
WB_ORDER = 4
WB_STRIDE = 100
WB_RERUN_LANES = 3
WB_RERUN_RTOL = 1e-9

# --- cli_pipeline ----------------------------------------------------------
CLI_POINCARE_GRID = "-0.5:0.5:2"
CLI_POINCARE_CROSSINGS = 128
CLI_TABLE_DELTAS = (0.016, 0.0113137084989848, 0.008)
CLI_TABLE_SLOPE_BAND = (3.5, 4.5)
CLI_PRODUCT_ERROR_MAX = 1e-3
CLI_NLS_MASS_DRIFT_MAX = 2e-2
CLI_NLS_HBAR_DRIFT_MAX = 5e-3
CLI_CYCLIC_DRIFT_MAX = 1e-7  # relative p_t, p_phi drift of one copy at delta = 0.2
CLI_CYCLIC_SUM_DRIFT_MAX = 1e-12  # p + y of a cyclic coordinate is kept to roundoff
CLI_COMPARE_ERROR_MAX = 1e-4  # terminal scaled error of the proposed integrator
CLI_CSV_RTOL = 1e-12


def _hash_arrays(arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class SingleLane:
    """Time to a stated accuracy on one lane, orders 2 to 8."""

    name = "single_lane"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.q0 = -3.0 + float(rng.uniform(-SL_Q0_SPREAD, SL_Q0_SPREAD))

    def run_round(self):
        model = sympext.product_hamiltonian()
        Q0 = np.array([self.q0])
        P0 = np.array([0.0])
        outputs = {}
        attempted = 0
        for order in SL_ORDERS:
            rungs = []
            for delta in SL_LADDER:
                attempted += 1
                cfg = sympext.IntegratorConfig(delta, SL_OMEGA, order, round(SL_HORIZON / delta))
                try:
                    traj = sympext.integrate(Q0, P0, cfg, model)
                    Q, P = traj.projected()
                    qe, pe = sympext.oracles.exact_series(self.q0, traj.times)
                    err = sympext.analysis.polar_errors(traj.times, Q[:, 0], P[:, 0], qe, pe)
                except (sympext.SympextError, ValueError) as exc:
                    rungs.append({"delta": delta, "failed": str(exc)})
                    break
                error = max(err.max_amplitude_error, err.max_phase_error)
                rungs.append({"delta": delta, "n_steps": cfg.n_steps, "error": error,
                              "times": traj.times, "Q": Q[:, 0], "P": P[:, 0]})
                if error <= SL_TARGET:
                    break
            outputs[order] = rungs
        return outputs, attempted

    def digest(self, outputs) -> str:
        arrays = []
        for rungs in outputs.values():
            for r in rungs:
                if "failed" not in r:
                    arrays += [r["Q"], r["P"], np.array([r["error"]])]
        return _hash_arrays(arrays)

    def failures(self, outputs) -> int:
        return sum("failed" in r for rungs in outputs.values() for r in rungs)

    def check(self, outputs):
        from reference import loglog_slope, polar_error, product_exact

        problems = []
        for order, rungs in outputs.items():
            ok = [r for r in rungs if "failed" not in r]
            if not ok or ok[-1]["error"] > SL_TARGET:
                problems.append(f"order {order}: no rung of the ladder met the target {SL_TARGET}")
                continue
            for r in ok:
                qe, pe = product_exact(self.q0, r["times"])
                own = float(polar_error(r["Q"], r["P"], qe, pe))
                if abs(own - r["error"]) > SL_ERROR_RTOL * own + 1e-12:
                    problems.append(f"order {order} delta {r['delta']:.5g}: reported error "
                                    f"{r['error']:.6e} but the independent error is {own:.6e}")
                if len(r["times"]) != r["n_steps"] + 1 or not math.isclose(
                        r["times"][-1], r["n_steps"] * r["delta"], rel_tol=1e-12):
                    problems.append(f"order {order} delta {r['delta']:.5g}: wrong sample grid")
            if [r["delta"] for r in rungs] != list(SL_LADDER[:len(rungs)]):
                problems.append(f"order {order}: the rungs walked are not the ladder from its top")
            if any(r["error"] <= SL_TARGET for r in ok[:-1]):
                problems.append(f"order {order}: the ladder walked past a rung that met the target")
            last = ok[-3:]
            if len(last) >= 2:
                slope = loglog_slope([r["delta"] for r in last], [r["error"] for r in last])
                if abs(slope - order) > SL_SLOPE_HALF_BAND:
                    problems.append(f"order {order}: error slope {slope:.3f} along the ladder is not near {order}")
        return problems


class WideBatch:
    """Long-run throughput of two wide batches: product lanes and 2-mode lanes."""

    name = "wide_batch"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.q0 = -rng.uniform(*WB_PRODUCT_AMPLITUDE, WB_PRODUCT_LANES)
        self.omega = rng.uniform(*WB_PRODUCT_OMEGA, WB_PRODUCT_LANES)
        n = WB_NLS_LANES
        self.nq0 = np.column_stack([3.0 + rng.uniform(-0.05, 0.05, n), 0.01 + rng.uniform(-0.005, 0.005, n)])
        self.np0 = np.column_stack([1.0 + rng.uniform(-0.05, 0.05, n), np.zeros(n)])
        self.rerun = rng.choice(n, WB_RERUN_LANES, replace=False)

    def run_round(self):
        product = sympext.integrate_batch(
            self.q0[:, None], np.zeros((WB_PRODUCT_LANES, 1)), WB_PRODUCT_DELTA, self.omega,
            WB_ORDER, WB_PRODUCT_STEPS, sympext.product_hamiltonian(), stride=WB_STRIDE)
        nls = sympext.integrate_batch(
            self.nq0, self.np0, WB_NLS_DELTA, WB_NLS_OMEGA, WB_ORDER, WB_NLS_STEPS,
            sympext.nls_hamiltonian(2), stride=WB_STRIDE)
        return {"product": product, "nls": nls}, 2

    def digest(self, outputs) -> str:
        return _hash_arrays([outputs["product"].states, outputs["nls"].states])

    def failures(self, outputs) -> int:
        return 0

    def check(self, outputs):
        from reference import doubled_energy, nls_energy, polar_error, product_exact

        problems = []
        prod, nls = outputs["product"], outputs["nls"]
        n_samples = len(range(0, WB_PRODUCT_STEPS + 1, WB_STRIDE))
        if prod.states.shape != (n_samples, WB_PRODUCT_LANES, 4, 1):
            return [f"product batch has shape {prod.states.shape}"]
        if not np.allclose(prod.times, WB_PRODUCT_DELTA * WB_STRIDE * np.arange(n_samples), rtol=1e-12):
            problems.append("product batch sample times are wrong")
        qe, pe = product_exact(self.q0, prod.times)
        err = polar_error(prod.states[:, :, 0, 0], prod.states[:, :, 1, 0], qe, pe)
        worst = int(np.argmax(err))
        if not err[worst] <= WB_PRODUCT_ERROR_MAX:
            problems.append(f"product lane {worst}: polar error {err[worst]:.3e} > {WB_PRODUCT_ERROR_MAX}")

        n_samples = len(range(0, WB_NLS_STEPS + 1, WB_STRIDE))
        if nls.states.shape != (n_samples, WB_NLS_LANES, 4, 2):
            return problems + [f"mode batch has shape {nls.states.shape}"]
        q, p, x, y = (nls.states[:, :, i, :] for i in range(4))
        if not (np.array_equal(q[0], self.nq0) and np.array_equal(p[0], self.np0)):
            problems.append("mode batch does not start from its inputs")
        mass = np.sum(q * q + p * p, axis=-1)
        mass_drift = np.max(np.abs(mass - mass[0]) / mass[0])
        if not mass_drift <= WB_NLS_MASS_DRIFT_MAX:
            problems.append(f"mode batch: total-mass drift {mass_drift:.3e} > {WB_NLS_MASS_DRIFT_MAX}")
        hbar = doubled_energy(nls_energy, WB_NLS_OMEGA, q, p, x, y)
        hbar_drift = np.max(np.abs(hbar - hbar[0]) / np.abs(hbar[0]))
        if not hbar_drift <= WB_NLS_HBAR_DRIFT_MAX:
            problems.append(f"mode batch: doubled-energy drift {hbar_drift:.3e} > {WB_NLS_HBAR_DRIFT_MAX}")

        for lane in self.rerun:
            one = sympext.integrate(
                self.q0[lane:lane + 1], np.zeros(1),
                sympext.IntegratorConfig(WB_PRODUCT_DELTA, float(self.omega[lane]), WB_ORDER, WB_PRODUCT_STEPS),
                sympext.product_hamiltonian(), stride=WB_STRIDE)
            gap = np.max(np.abs(one.states - prod.states[:, lane]))
            if not gap <= WB_RERUN_RTOL * (1.0 + np.max(np.abs(one.states))):
                problems.append(f"product lane {lane} differs from its single run by {gap:.3e}")
            one = sympext.integrate(
                self.nq0[lane], self.np0[lane],
                sympext.IntegratorConfig(WB_NLS_DELTA, WB_NLS_OMEGA, WB_ORDER, WB_NLS_STEPS),
                sympext.nls_hamiltonian(2), stride=WB_STRIDE)
            gap = np.max(np.abs(one.states - nls.states[:, lane]))
            if not gap <= WB_RERUN_RTOL * (1.0 + np.max(np.abs(one.states))):
                problems.append(f"mode lane {lane} differs from its single run by {gap:.3e}")
        return problems


def _cfg_text(**values) -> str:
    def fmt(v):
        if isinstance(v, (tuple, list)):
            return ",".join(repr(float(e)) for e in v)
        return repr(v) if isinstance(v, float) else str(v)
    return "".join(f"{k} = {fmt(v)}\n" for k, v in values.items())


class CliPipeline:
    """The paper's experiments through in-process ``sympext.cli.main`` calls."""

    name = "cli_pipeline"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.out = workdir / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.q0 = -3.0 + float(rng.uniform(-0.03, 0.03))
        self.nls_q0 = (3.0 + float(rng.uniform(-0.05, 0.05)), 0.01)
        self.nls_p0 = (1.0 + float(rng.uniform(-0.05, 0.05)), 0.0)
        r = 20.0 + float(rng.uniform(-0.5, 0.5))
        pphi = -math.sqrt(20.0) * (1.0 + float(rng.uniform(-0.01, 0.01)))
        u = 1.0 - 2.0 / r
        self.sch_q0 = (0.0, r, 0.0)
        self.sch_p0 = (math.sqrt(u * (1.0 + pphi * pphi / (r * r))), 0.0, pphi)
        configs = {
            "integrate": _cfg_text(system="product1d", q0=(self.q0,), p0=(0.0,), delta=0.01, omega=20.0,
                                   order=4, t_final=10.0, stride=1, out="integrate"),
            "table": _cfg_text(system="product1d", q0=(self.q0,), p0=(0.0,), omega=20.0, order=4,
                               t_final=5.0, deltas=CLI_TABLE_DELTAS, out="table"),
            "nls": _cfg_text(system="nls", n_modes=2, q0=self.nls_q0, p0=self.nls_p0, delta=0.01,
                             omega=100.0, order=4, t_final=10.0, stride=10, out="nls"),
            "compare": _cfg_text(system="schwarzschild", q0=self.sch_q0, p0=self.sch_p0, delta=0.2,
                                 omega=2.0, order=4, t_final=20.0, out="compare"),
            "poincare_none": _cfg_text(system="product1d", omega=0.0, shell=10.0, order=4,
                                       grid_q=CLI_POINCARE_GRID, grid_p=CLI_POINCARE_GRID,
                                       max_crossings=CLI_POINCARE_CROSSINGS, out="poincare_none"),
            "poincare_strong": _cfg_text(system="product1d", omega=10.0, shell=10.0, order=4,
                                         grid_q=CLI_POINCARE_GRID, grid_p=CLI_POINCARE_GRID,
                                         max_crossings=CLI_POINCARE_CROSSINGS, out="poincare_strong"),
            # Overrides a preset with values that equal the ExperimentConfig
            # defaults (stride = 1); the run must still honour them.
            "preset_override": _cfg_text(stride=1, t_final=20.0, out="preset_override"),
        }
        self.ops = []
        for name, text in configs.items():
            path = workdir / f"{name}.cfg"
            path.write_text(text, encoding="utf-8")
            command = {"poincare_none": "poincare", "poincare_strong": "poincare",
                       "preset_override": "integrate"}.get(name, name)
            argv = [command]
            if name == "preset_override":
                argv += ["--preset", "schwarzschild_long"]
            argv += ["--config", str(path), "--out", str(self.out), "--workers", "1"]
            self.ops.append((name, argv))

    def run_round(self):
        results = {}
        for name, argv in self.ops:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = sympext.cli.main(argv)
                except Exception as exc:  # an uncaught error is a failed operation, not a crash
                    code = f"{type(exc).__name__}: {exc}"
            results[name] = {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
        return results, len(self.ops)

    def files(self):
        return sorted(p for p in self.out.iterdir() if p.is_file())

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.files())

    def digest(self, outputs) -> str:
        h = hashlib.blake2b(digest_size=16)
        for path in self.files():
            h.update(path.name.encode())
            h.update(path.read_bytes())
        for name, r in outputs.items():
            h.update(f"{name}:{r['code']}:{r['stdout']}".encode())
        return h.hexdigest()

    def _override_problem(self, outputs):
        """Why the preset-override operation did not do what was asked, or None."""
        from reference import read_csv, read_meta

        if outputs["preset_override"]["code"] != 0:
            return f"exit {outputs['preset_override']['code']}"
        _, rows = read_csv(self.out / "preset_override.csv")
        meta, _ = read_meta(self.out / "preset_override.meta")
        if len(rows) != 101 or meta.get("stride") != "1":
            return f"asked for stride 1 and 101 rows, got stride {meta.get('stride')} and {len(rows)} rows"
        return None

    def failures(self, outputs) -> int:
        failed = sum(r["code"] != 0 for name, r in outputs.items() if name != "preset_override")
        return failed + (self._override_problem(outputs) is not None)

    def check(self, outputs):
        from reference import (doubled_energy, loglog_slope, nls_energy, polar_error, product_energy,
                               product_energy_blocks, product_exact, read_csv, read_meta,
                               read_numeric_csv, running_average, shell_residual_root_exists)

        problems = []
        for name, r in outputs.items():
            if r["code"] != 0 and name != "preset_override":
                problems.append(f"{name}: exit {r['code']}: {r['stderr'].strip()}")
        if problems:
            return problems
        out = self.out

        # integrate: H and Hbar recomputed from q, p, x, y; the path against the exact solution.
        header, data = read_numeric_csv(out / "integrate.csv")
        if header != ["t", "q0", "p0", "x0", "y0", "H", "Hbar"] or len(data) != 1001:
            problems.append(f"integrate: header {header} with {len(data)} rows")
        else:
            t, q, p, x, y, h, hbar = data.T
            if not np.allclose(h, product_energy(q, p), rtol=CLI_CSV_RTOL, atol=0):
                problems.append("integrate: column H does not match H(q, p)")
            own = doubled_energy(product_energy_blocks, 20.0, q[:, None], p[:, None], x[:, None], y[:, None])
            if not np.allclose(hbar, own, rtol=CLI_CSV_RTOL, atol=0):
                problems.append("integrate: column Hbar does not match the doubled energy")
            qe, pe = product_exact(self.q0, t)
            err = float(polar_error(q, p, qe, pe))
            if not err <= CLI_PRODUCT_ERROR_MAX:
                problems.append(f"integrate: polar error {err:.3e} > {CLI_PRODUCT_ERROR_MAX}")

        # table: errors at each step size recomputed independently, slope near 4.
        header, rows = read_csv(out / "table.csv")
        meta, notes = read_meta(out / "table.meta")
        slope_note = [n for n in notes if n.startswith("slope_amplitude")]
        if len(rows) != len(CLI_TABLE_DELTAS) or any(row[3] != "ok" for row in rows) or not slope_note:
            problems.append(f"table: rows {rows}, notes {notes}")
        else:
            deltas = [float(row[0]) for row in rows]
            amps = [float(row[1]) for row in rows]
            reported = float(slope_note[0].split("=")[1])
            own_slope = loglog_slope(deltas, amps)
            if not (CLI_TABLE_SLOPE_BAND[0] <= own_slope <= CLI_TABLE_SLOPE_BAND[1]
                    and abs(reported - own_slope) <= 1e-5):
                problems.append(f"table: slope {reported} (recomputed {own_slope:.6f}) not near 4")
            model = sympext.product_hamiltonian()
            for delta, amp in zip(deltas, amps):
                traj = sympext.integrate(np.array([self.q0]), np.array([0.0]),
                                         sympext.IntegratorConfig(delta, 20.0, 4, max(1, round(5.0 / delta))), model)
                qe, pe = product_exact(self.q0, traj.times)
                Q, P = traj.projected()
                own = float(np.max(np.abs(np.hypot(Q[:, 0], P[:, 0]) - np.hypot(qe, pe))))
                if abs(own - amp) > 1e-6 * own + 1e-13:
                    problems.append(f"table: amplitude error {amp:.6e} at delta {delta} "
                                    f"but recomputed {own:.6e}")

        # nls: masses sum, running averages recomputed, drifts bounded.
        header, data = read_numeric_csv(out / "nls.csv")
        if header != ["t", "H", "Hbar", "I", "I1", "I2", "avg_I1", "avg_I2", "gap"] or len(data) != 101:
            problems.append(f"nls: header {header} with {len(data)} rows")
        else:
            t, h, hbar, total, i1, i2, a1, a2, gap = data.T
            if not np.allclose(total, i1 + i2, rtol=CLI_CSV_RTOL, atol=0):
                problems.append("nls: I is not I1 + I2")
            q0 = np.array(self.nls_q0)
            p0 = np.array(self.nls_p0)
            if not np.isclose(total[0], np.sum(q0 * q0 + p0 * p0), rtol=CLI_CSV_RTOL):
                problems.append("nls: initial mass does not match the inputs")
            if not np.isclose(h[0], nls_energy(q0, p0), rtol=CLI_CSV_RTOL):
                problems.append("nls: initial H does not match the inputs")
            avg = running_average(t, np.column_stack([i1, i2]))
            if not (np.allclose(a1[1:], avg[:, 0], rtol=1e-10) and np.allclose(a2[1:], avg[:, 1], rtol=1e-10)
                    and np.allclose(gap[1:], a1[1:] - a2[1:], rtol=1e-10, atol=1e-14)):
                problems.append("nls: running averages or gap do not match a recomputation")
            drift = np.max(np.abs(total - total[0])) / total[0]
            if not drift <= CLI_NLS_MASS_DRIFT_MAX:
                problems.append(f"nls: total-mass drift {drift:.3e} > {CLI_NLS_MASS_DRIFT_MAX}")
            drift = np.max(np.abs(hbar - hbar[0])) / abs(hbar[0])
            if not drift <= CLI_NLS_HBAR_DRIFT_MAX:
                problems.append(f"nls: doubled-energy drift {drift:.3e} > {CLI_NLS_HBAR_DRIFT_MAX}")

        # compare: certificate within rtol, error curves small and running maxima.
        verdict, _ = read_meta(out / "compare_verdict.txt")
        header, data = read_numeric_csv(out / "compare.csv")
        try:
            shift = float(verdict["benchmark_endpoint_shift"])
            substeps = int(verdict["benchmark_substeps"])
        except (KeyError, ValueError):
            problems.append(f"compare: verdict lacks the reference certificate: {verdict}")
        else:
            if not (0 <= shift <= 1e-11 and substeps >= 4):
                problems.append(f"compare: certificate shift {shift} with {substeps} substeps exceeds rtol 1e-11")
        if data.shape != (101, 9) or not np.allclose(data[:, 0], np.linspace(0.0, 20.0, 101), rtol=1e-12):
            problems.append(f"compare: table of shape {data.shape}")
        else:
            curves = data[:, 1:]
            if np.any(np.diff(curves, axis=0) < 0):
                problems.append("compare: error curves are not running maxima")
            if not np.max(curves[-1, :4]) <= CLI_COMPARE_ERROR_MAX:
                problems.append(f"compare: terminal scaled errors {curves[-1, :4]} > {CLI_COMPARE_ERROR_MAX}")

        # poincare: points on the shell, ordered statistic, labels.
        stats = {}
        for name, omega in (("poincare_none", 0.0), ("poincare_strong", 10.0)):
            meta, notes = read_meta(out / f"{name}.meta")
            header, rows = read_csv(out / f"{name}.csv")
            qp = np.array([[float(r[0]), float(r[1])] for r in rows])
            if len(qp) == 0 or not np.all(shell_residual_root_exists(qp[:, 0], qp[:, 1], omega, 10.0)):
                problems.append(f"{name}: section points off the energy shell")
            ids = np.array([int(r[3]) for r in rows])
            crossings = np.array([int(r[2]) for r in rows])
            for lane in np.unique(ids):
                c = crossings[ids == lane]
                if not (np.array_equal(c, np.arange(len(c))) and len(c) <= CLI_POINCARE_CROSSINGS):
                    problems.append(f"{name}: trajectory {lane} has crossing indices {c[:5]}...")
                    break
            stat = [n for n in notes if n.startswith("chaos statistic:")]
            label = [n for n in notes if n.startswith("classification:")]
            try:
                stats[name] = float(stat[0].split(":")[1])
                stats[name + "_label"] = label[0].split(":")[1].strip()
            except (IndexError, ValueError):
                problems.append(f"{name}: no chaos statistic in {notes}")
        if len(stats) == 4:
            if not stats["poincare_none"] > stats["poincare_strong"]:
                problems.append(f"poincare: statistic not ordered: {stats}")
            if stats["poincare_none_label"] != "chaotic" or stats["poincare_strong_label"] != "regular":
                problems.append(f"poincare: classification {stats}")

        # preset_override: whatever rows it wrote keep the cyclic momenta.
        if outputs["preset_override"]["code"] == 0:
            header, data = read_numeric_csv(out / "preset_override.csv")
            p, y = data[:, 4:7], data[:, 10:13]
            for col, label in ((0, "p_t"), (2, "p_phi")):
                drift = np.max(np.abs(p[:, col] - p[0, col])) / abs(p[0, col])
                total = p[:, col] + y[:, col]
                sum_drift = np.max(np.abs(total - total[0])) / abs(total[0])
                if not (drift <= CLI_CYCLIC_DRIFT_MAX and sum_drift <= CLI_CYCLIC_SUM_DRIFT_MAX):
                    problems.append(f"preset_override: {label} drifts by {drift:.3e} (copy sum {sum_drift:.3e})")
        return problems


WORKLOADS = {w.name: w for w in (SingleLane, WideBatch, CliPipeline)}
