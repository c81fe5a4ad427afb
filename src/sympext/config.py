"""Flat key-value experiment configuration for the command line harness."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError
from .integrator import IntegratorConfig, build_scheme
from .models import MODEL_NAMES

# Largest order and mode count a config may ask for, alone and together: each two orders triple the
# step's A/B stages, each unrolling the gradient over the modes. A first one-lane run took 0.08/0.21/0.71 s
# at order 12/14/16 (product), 1.0 s, 328 MB at order 8, 64 modes and 3.4 s, 979 MB at order 10, 64 modes (2-CPU Xeon).
_MAX_ORDER = 12
_MAX_MODES = 64
_MAX_UNROLLED = 82 * 64  # A/B stages times modes of order 8 at 64 modes


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc


def _parse_floats(text: str) -> tuple:
    if not text.strip():
        return ()
    return tuple(_parse_float(part) for part in text.split(","))


def _parse_grid(text: str) -> tuple:
    """Axis specification min:max:count."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid axis must be min:max:count, got {text!r}")
    lo, hi = _parse_float(parts[0]), _parse_float(parts[1])
    n = _parse_int(parts[2])
    if n < 1:
        raise ConfigError(f"grid axis needs at least one point, got {text!r}")
    return (lo, hi, n)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, tuple):
        if len(value) == 3 and isinstance(value[2], int):
            return f"{_fmt(float(value[0]))}:{_fmt(float(value[1]))}:{value[2]}"
        return ",".join(format(float(v), ".17g") for v in value)
    return str(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one subcommand run depends on."""

    system: str = "product1d"
    n_modes: int = 2
    ic_preset: str = "constraint"
    q0: tuple = ()
    p0: tuple = ()
    delta: float = 0.01
    omega: float = 20.0
    order: int = 4
    t_final: float = 0.0
    n_steps: int = -1  # -1 means unset; 0 is a valid single-sample run
    gamma: float = 0.0
    stride: int = 1
    out: str = ""
    deltas: tuple = ()
    omegas: tuple = ()
    shell: float = 10.0
    grid_q: tuple = (-2.2, 2.2, 8)
    grid_p: tuple = (-2.8, 2.8, 8)
    max_crossings: int = 500
    escape_bound: float = 1e12

    def validate(self) -> "ExperimentConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            reals = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in reals):
                raise ConfigError(f"{f.name}: must be finite, got {_fmt(value)}")
        if self.system not in MODEL_NAMES:
            raise ConfigError(f"system: unknown model {self.system!r}; expected one of {MODEL_NAMES}")
        if not 2 <= self.n_modes <= _MAX_MODES:
            raise ConfigError(f"n_modes: need 2 to {_MAX_MODES}, got {self.n_modes}")
        if self.delta <= 0:
            raise ConfigError(f"delta: must be positive, got {self.delta}")
        if self.omega < 0:
            raise ConfigError(f"omega: must be nonnegative, got {self.omega}")
        if not 2 <= self.order <= _MAX_ORDER or self.order % 2:
            raise ConfigError(f"order: must be an even integer from 2 to {_MAX_ORDER}, got {self.order}")
        unrolled = sum(kind != "C" for kind, _ in build_scheme(self.order).stages) * self.n_modes
        if unrolled > _MAX_UNROLLED:
            raise ConfigError(f"order and n_modes: {unrolled} unrolled stage gradients, above {_MAX_UNROLLED}")
        if self.t_final < 0:
            raise ConfigError(f"t_final: must be nonnegative, got {self.t_final}")
        if self.n_steps < -1:
            raise ConfigError(f"n_steps: must be nonnegative, got {self.n_steps}")
        if self.t_final > 0 and self.n_steps >= 0:
            raise ConfigError("t_final and n_steps are mutually exclusive; set one of them")
        if self.gamma < 0:
            raise ConfigError(f"gamma: dissipation coefficient must be >= 0, got {self.gamma}")
        if self.stride < 1:
            raise ConfigError(f"stride: must be >= 1, got {self.stride}")
        if self.max_crossings < 1:
            raise ConfigError(f"max_crossings: must be >= 1, got {self.max_crossings}")
        if self.escape_bound <= 0:
            raise ConfigError(f"escape_bound: must be positive, got {self.escape_bound}")
        if self.q0 and self.p0 and len(self.q0) != len(self.p0):
            raise ConfigError("q0 and p0 must have the same length")
        if self.ic_preset not in ("literal", "constraint"):
            raise ConfigError(f"ic_preset: expected literal or constraint, got {self.ic_preset!r}")
        return self

    def resolved_steps(self) -> int:
        if self.n_steps >= 0:
            return self.n_steps
        if self.t_final > 0:
            return max(1, round(self.t_final / self.delta))
        raise ConfigError("run duration missing: set t_final or n_steps")

    def integrator_config(self) -> IntegratorConfig:
        # Checked before resolved_steps divides by delta: a scan point may carry any delta.
        return replace(IntegratorConfig(self.delta, self.omega, self.order), n_steps=self.resolved_steps())


# Each key's parser, from its field's type (a string under postponed
# annotations); the grid axes are min:max:count triples.
_TYPE_PARSERS = {"float": _parse_float, "int": _parse_int, "str": str, "tuple": _parse_floats}
_PARSERS = {
    f.name: _parse_grid if f.name in ("grid_q", "grid_p") else _TYPE_PARSERS[f.type]
    for f in fields(ExperimentConfig)
}


def _parse_values(text: str) -> dict:
    """The keys written in flat config text, with their parsed values."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](val)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: key {key!r}: {exc}") from exc
    return values


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse flat ``key = value`` lines; '#' starts a comment; unknown keys are rejected."""
    return ExperimentConfig(**_parse_values(text)).validate()


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def dump_config(cfg: ExperimentConfig) -> str:
    """Serialize so that parse_config_text round-trips to an equal config."""
    lines = []
    for f in fields(cfg):
        lines.append(f"{f.name} = {_fmt(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


def apply_overrides(cfg: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    unknown = set(overrides) - set(_PARSERS)
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    return replace(cfg, **overrides).validate()


def config_presets() -> dict:
    """Named experiment configurations, including the full-length horizons."""
    table2_deltas = tuple(10.0**e for e in (-1.5, -2.0, -2.5, -3.0))
    return {
        "fig_longtime": ExperimentConfig(
            system="product1d", q0=(-3.0,), p0=(0.0,), delta=0.1, omega=20.0, order=4,
            t_final=1000.0,
        ),
        "table_omega_scan": ExperimentConfig(
            system="product1d", q0=(-3.0,), p0=(0.0,), delta=1e-3, omega=20.0, order=4,
            t_final=100.0, omegas=(20.0, 40.0, 80.0, 160.0),
        ),
        "table_delta_scan": ExperimentConfig(
            system="product1d", q0=(-3.0,), p0=(0.0,), omega=20.0, order=4,
            t_final=100.0, deltas=table2_deltas,
        ),
        "schwarzschild_long": ExperimentConfig(
            system="schwarzschild", ic_preset="constraint", delta=0.2, omega=2.0, order=4,
            t_final=50000.0, stride=10,
        ),
        "schwarzschild_desk": ExperimentConfig(
            system="schwarzschild", ic_preset="constraint", delta=0.2, omega=2.0, order=4,
            t_final=1000.0,
        ),
        "schwarzschild_dissipative": ExperimentConfig(
            system="schwarzschild", ic_preset="constraint", delta=0.2, omega=2.0, order=4,
            t_final=50000.0, gamma=1e-4, stride=10,
        ),
        "nls2_long": ExperimentConfig(
            system="nls", n_modes=2, delta=0.01, omega=100.0, order=4,
            t_final=1e5, stride=10,
        ),
        "nls2_desk": ExperimentConfig(
            system="nls", n_modes=2, delta=0.01, omega=100.0, order=4,
            t_final=1e4, stride=10,
        ),
        "nls5_cascade": ExperimentConfig(
            system="nls", n_modes=5, delta=1e-3, omega=100.0, order=4,
            t_final=5.0,
        ),
        "poincare_none": ExperimentConfig(
            system="product1d", omega=0.0, shell=10.0, order=4,
        ),
        "poincare_weak": ExperimentConfig(
            system="product1d", omega=0.8, shell=10.0, order=4,
        ),
        "poincare_strong": ExperimentConfig(
            system="product1d", omega=10.0, shell=10.0, order=4,
        ),
    }
