"""Span recording around the public calls into each sympext module.

Installed only in the traced run. ``Tracer.install`` replaces the module
attributes that callers look up (``sympext.cli.integrate``,
``sympext.oracles.rk4_trajectory``, ``sympext.cli.get_model``, ...) with
wrappers and ``uninstall`` puts the originals back. Spans are kept in memory
and written out once at the end. Gradient-pair and value calls are too many
to keep one span each: they are counted and timed in aggregate, and their
time is charged to the enclosing span as child time. A span's self time is
its duration minus the time its child spans and these leaf calls cover.
"""
from __future__ import annotations

import json
from time import perf_counter

import sympext
import sympext.analysis
import sympext.cli
import sympext.integrator
import sympext.oracles

_ORDERS = (2, 4, 6, 8)
_COMMANDS = ("integrate", "table", "nls", "compare", "poincare")


def _integrate_info(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return _run_info(cfg.n_steps, result)


def _integrate_order(args, kwargs):
    return (args[2] if len(args) > 2 else kwargs["cfg"]).order


def _batch_info(args, kwargs, result):
    return _run_info(args[5] if len(args) > 5 else kwargs["n_steps"], result)


def _batch_order(args, kwargs):
    return args[4] if len(args) > 4 else kwargs["order"]


def _run_info(n_steps, traj):
    lanes = traj.states[0].size // (4 * traj.dim)
    return {"lane_steps": n_steps * lanes, "stored_bytes": traj.states.nbytes}


class Tracer:
    def __init__(self):
        self.spans = []  # dicts: name, parent, start, end, child_s, extra fields
        self.stack = []
        self.orders = []
        self.leaf = {}  # name -> [calls, lane evaluations, seconds]
        self.pairs_by_order = {}
        self.patched = []

    def finish_round(self):
        """Per-layer figures and spans of the round just run; starts the next round."""
        metrics = self._round_metrics()
        spans = self.spans
        self.spans, self.leaf, self.pairs_by_order = [], {}, {}
        return metrics, spans

    # -- wrappers -------------------------------------------------------
    def span(self, name, fn, info=None, order=None):
        def wrapper(*args, **kwargs):
            rec = {"name": name, "parent": self.stack[-1] if self.stack else None,
                   "start": perf_counter(), "child_s": 0.0}
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            if order is not None:
                self.orders.append(order(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = end = perf_counter()
                self.stack.pop()
                if order is not None:
                    self.orders.pop()
                if rec["parent"] is not None:
                    self.spans[rec["parent"]]["child_s"] += end - rec["start"]
            if info is not None:
                rec.update(info(args, kwargs, result))
            return result
        return wrapper

    def leaf_call(self, name, fn, count_order=False):
        def wrapper(a, b):
            start = perf_counter()
            result = fn(a, b)
            took = perf_counter() - start
            stats = self.leaf.get(name)
            if stats is None:
                stats = self.leaf[name] = [0, 0, 0.0]
            stats[0] += 1
            stats[1] += a.size // a.shape[-1]
            stats[2] += took
            if self.stack:
                self.spans[self.stack[-1]]["child_s"] += took
            if count_order and self.orders:
                o = self.orders[-1]
                self.pairs_by_order[o] = self.pairs_by_order.get(o, 0) + 1
            return result
        return wrapper

    def wrap_model(self, model):
        """The same model rebuilt through the public constructor, with counted calls."""
        return sympext.HamiltonianModel(
            model.name, model.dim,
            self.leaf_call("models.value", model.value),
            model.grad_a, model.grad_b,
            self.leaf_call("models.pair", model.pair, count_order=True),
        )

    def model_factory(self, factory):
        def wrapper(*args, **kwargs):
            return self.wrap_model(factory(*args, **kwargs))
        return wrapper

    # -- installation ---------------------------------------------------
    def _patch(self, modules, attr, make):
        original = getattr(modules[0], attr)
        wrapped = make(original)
        for module in modules:
            self.patched.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapped)

    def install(self):
        S, cli, an, orc, integ = sympext, sympext.cli, sympext.analysis, sympext.oracles, sympext.integrator
        span = self.span
        self._patch([integ, S, cli], "integrate",
                    lambda f: span("integrator.integrate", f, _integrate_info, _integrate_order))
        self._patch([integ, S], "integrate_batch",
                    lambda f: span("integrator.integrate_batch", f, _batch_info, _batch_order))
        self._patch([orc, S], "exact_series", lambda f: span("oracles.exact_series", f))
        self._patch([an, S, cli], "polar_errors", lambda f: span("analysis.polar_errors", f))
        self._patch([orc, S], "rk4_trajectory", lambda f: span("oracles.rk4_trajectory", f))
        self._patch([orc, S], "reference_flow", lambda f: span(
            "oracles.reference_flow", f, lambda a, k, r: {"substeps": r.meta["substeps_per_sample"]}))
        self._patch([an], "section_initial_conditions",
                    lambda f: span("analysis.section_initial_conditions", f))
        self._patch([an, S, cli], "poincare_section", lambda f: span(
            "analysis.poincare_section", f, lambda a, k, r: {"crossings": len(r.points)}))
        self._patch([an, S, cli], "chaos_statistic", lambda f: span("analysis.chaos_statistic", f))
        for command in _COMMANDS:
            self._patch([cli], f"cmd_{command}", lambda f, c=command: span(f"cli.{c}", f))
        self._patch([cli], "get_model", self.model_factory)
        for factory in ("product_hamiltonian", "nls_hamiltonian", "schwarzschild_hamiltonian"):
            self._patch([S], factory, self.model_factory)

    def uninstall(self):
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched = []

    # -- metrics --------------------------------------------------------
    def _round_metrics(self):
        def total(name, field="dur"):
            """Sum over the round's spans of ``name``: duration, self time or a recorded field."""
            out = 0.0
            for s in self.spans:
                if s["name"] != name:
                    continue
                if field == "dur":
                    out += s["end"] - s["start"]
                elif field == "self":
                    out += s["end"] - s["start"] - s["child_s"]
                else:
                    out += s[field]
            return out

        pair = self.leaf.get("models.pair", [0, 0, 0.0])
        value = self.leaf.get("models.value", [0, 0, 0.0])
        lane_steps = total("integrator.integrate", "lane_steps") + total("integrator.integrate_batch", "lane_steps")
        integ_self = total("integrator.integrate", "self") + total("integrator.integrate_batch", "self")
        m = {
            "integrator.integrate.self_s": total("integrator.integrate", "self"),
            "integrator.integrate_batch.self_s": total("integrator.integrate_batch", "self"),
            "integrator.self_us_per_lane_step": 1e6 * integ_self / lane_steps if lane_steps else 0.0,
            "integrator.lane_steps": lane_steps,
            "integrator.stored_bytes": total("integrator.integrate", "stored_bytes")
            + total("integrator.integrate_batch", "stored_bytes"),
            "models.pair.calls": pair[0],
            "models.pair.lane_evals": pair[1],
            "models.pair.s": pair[2],
            "models.value.calls": value[0],
            "models.value.s": value[2],
            "oracles.exact_series.s": total("oracles.exact_series"),
            "analysis.polar_errors.s": total("analysis.polar_errors"),
            "oracles.rk4_trajectory.s": total("oracles.rk4_trajectory"),
            "oracles.reference_flow.s": total("oracles.reference_flow"),
            "oracles.reference_flow.substeps": total("oracles.reference_flow", "substeps"),
            "analysis.section_initial_conditions.s": total("analysis.section_initial_conditions"),
            "analysis.poincare_section.self_s": total("analysis.poincare_section", "self"),
            "analysis.poincare_section.crossings": total("analysis.poincare_section", "crossings"),
            "analysis.chaos_statistic.s": total("analysis.chaos_statistic"),
        }
        for order in _ORDERS:
            m[f"models.pair.calls.order{order}"] = self.pairs_by_order.get(order, 0)
        for command in _COMMANDS:
            m[f"cli.{command}.self_s"] = total(f"cli.{command}", "self")
        return m


def write_spans(path, rounds):
    """Write every traced round's spans as JSON, times relative to the round's first span."""
    out = []
    for i, spans in enumerate(rounds):
        t0 = spans[0]["start"] if spans else 0.0
        out += [dict(s, round=i, start=s["start"] - t0, end=s["end"] - t0) for s in spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out), encoding="utf-8")
