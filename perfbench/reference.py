"""Computations made apart from sympext, used only to check its outputs.

Nothing here imports sympext. The closed-form product-oscillator solution
comes from scipy's Jacobi elliptic functions, the energies are written out
from their formulas, and CSV and meta files are parsed with plain Python.
This module is imported only after the timed region, so its scipy imports
never count towards set-up time.
"""
from __future__ import annotations

import csv
import math

import numpy as np
from scipy.special import ellipj


def product_energy(a, b):
    """H(a, b) = (a^2 + 1)(b^2 + 1) / 2 of the 1-dof product oscillator."""
    return 0.5 * (a * a + 1.0) * (b * b + 1.0)


def product_exact(q0, t):
    """Exact (Q, P) from (q0, 0): Q = q0 cn(sqrt(1+q0^2) t | q0^2/(1+q0^2)), P = Q'/(1+Q^2).

    ``q0`` may be a scalar or a (B,) array of lanes; ``t`` is a (n,) grid.
    The result has shape (n,) or (n, B).
    """
    q0 = np.asarray(q0, dtype=float)
    t = np.asarray(t, dtype=float)
    if q0.ndim:
        t = t[:, None]
    rate = np.sqrt(1.0 + q0 * q0)
    sn, cn, dn, _ = ellipj(rate * t, q0 * q0 / (1.0 + q0 * q0))
    q = q0 * cn
    p = -q0 * rate * sn * dn / (1.0 + q * q)
    return q, p


def polar_error(q, p, q_ref, p_ref):
    """Maximum over samples of the amplitude error and of the wrapped phase error.

    The phase error is the angle of z * conj(z_ref) with z = q + i p, so it
    needs no unwrapping and works at any sampling stride. Reductions run over
    the first axis; extra axes are lanes.
    """
    amp = np.abs(np.hypot(q, p) - np.hypot(q_ref, p_ref))
    phase = np.abs(np.angle((q + 1j * p) * np.conj(q_ref + 1j * p_ref)))
    return np.maximum(amp.max(axis=0), phase.max(axis=0))


def doubled_energy(h, omega, q, p, x, y):
    """H(q, y) + H(x, p) + omega (|q - x|^2 + |p - y|^2) / 2 for (..., d) blocks."""
    bind = 0.5 * omega * (np.sum((q - x) ** 2, axis=-1) + np.sum((p - y) ** 2, axis=-1))
    return h(q, y) + h(x, p) + bind


def product_energy_blocks(a, b):
    """product_energy on (..., 1) blocks, returning (...) values."""
    return product_energy(a[..., 0], b[..., 0])


def nls_energy(q, p):
    """Mode-system Hamiltonian, written out term by term from its definition."""
    total = 0.25 * np.sum((q * q + p * p) ** 2, axis=-1)
    for i in range(1, q.shape[-1]):
        qm, qn, pm, pn = q[..., i - 1], q[..., i], p[..., i - 1], p[..., i]
        total = total - (pm * pm * pn * pn + qm * qm * qn * qn - qm * qm * pn * pn
                         - pm * pm * qn * qn + 4.0 * pm * pn * qm * qn)
    return total


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x, from the normal equations."""
    lx = [math.log(v) for v in xs]
    ly = [math.log(v) for v in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    sxy = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    sxx = sum((a - mx) ** 2 for a in lx)
    return sxy / sxx


def running_average(t, values):
    """Trapezoidal (1/T) integral of each column of ``values`` from t[0] to t[i], for i >= 1."""
    t = np.asarray(t, dtype=float)
    out = np.empty((len(t) - 1, values.shape[1]))
    acc = np.zeros(values.shape[1])
    for i in range(1, len(t)):
        acc = acc + 0.5 * (values[i] + values[i - 1]) * (t[i] - t[i - 1])
        out[i - 1] = acc / (t[i] - t[0])
    return out


def shell_residual_root_exists(q, p, omega, shell, tol=1e-6):
    """Whether some real y puts (q, p, x = 0, y) on the doubled product shell.

    H(q, y) + H(0, p) + omega (q^2 + (p - y)^2) / 2 = shell is a quadratic
    a y^2 + b y + c = 0 in y; a root exists when its discriminant is
    nonnegative (up to ``tol`` relative to b^2 + |4ac|).
    """
    a = 0.5 * (q * q + 1.0) + 0.5 * omega
    b = -omega * p
    c = 0.5 * (q * q + 1.0) + 0.5 * (p * p + 1.0) + 0.5 * omega * (q * q + p * p) - shell
    disc = b * b - 4.0 * a * c
    return disc >= -tol * (b * b + np.abs(4.0 * a * c))


def read_csv(path):
    """Header list and rows (lists of strings) of a CSV file."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_numeric_csv(path):
    """Header list and a float array of a CSV file whose cells are all numbers."""
    header, rows = read_csv(path)
    return header, np.array([[float(c) for c in row] for row in rows], dtype=float).reshape(len(rows), len(header))


def read_meta(path):
    """``key = value`` lines and ``# note`` lines of a meta or verdict file."""
    values, notes = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                notes.append(line[1:].strip())
            elif "=" in line:
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    return values, notes
