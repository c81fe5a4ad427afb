"""State containers for the doubled phase space."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class ExtendedState(NamedTuple):
    """A point (q, p, x, y) of the doubled phase space.

    The four arrays share one trailing dimension d. Leading axes, when
    present, act as batch axes: every map in the package treats them
    elementwise, so a (B, d) state advances B trajectories at once.
    """

    q: np.ndarray
    p: np.ndarray
    x: np.ndarray
    y: np.ndarray

    @property
    def dim(self) -> int:
        return self.q.shape[-1]

    def to_array(self) -> np.ndarray:
        """Pack into a single array of shape (..., 4, d)."""
        return np.stack(self, axis=-2)


def state_from_array(arr: np.ndarray) -> ExtendedState:
    """Inverse of ``ExtendedState.to_array``."""
    arr = np.asarray(arr, dtype=float)
    if arr.ndim < 2 or arr.shape[-2] != 4:
        raise ValueError(f"expected shape (..., 4, d), got {arr.shape}")
    return ExtendedState(arr[..., 0, :], arr[..., 1, :], arr[..., 2, :], arr[..., 3, :])


def unstack(a) -> list:
    """The d components a[..., i] of a (..., d) array: Python floats for one lane, numpy columns for a batch."""
    a = np.asarray(a, dtype=float)
    return a.tolist() if a.ndim == 1 else list(np.moveaxis(a, -1, 0))


def stack(components, batch=()) -> np.ndarray:
    """Inverse of ``unstack``: the (..., d) array of d components, broadcast against ``batch``."""
    if not batch and all(type(c) is float for c in components):
        return np.array(components)  # one lane
    out = np.empty(np.broadcast_shapes(batch, *map(np.shape, components)) + (len(components),))
    for i, c in enumerate(components):
        out[..., i] = c
    return out


def embed(Q0, P0) -> ExtendedState:
    """Doubled embedding (Q0, P0, Q0, P0) used to start every run."""
    Q0 = np.atleast_1d(np.asarray(Q0, dtype=float))
    P0 = np.atleast_1d(np.asarray(P0, dtype=float))
    if Q0.shape != P0.shape:
        raise ValueError(f"position/momentum shapes differ: {Q0.shape} vs {P0.shape}")
    return ExtendedState(Q0.copy(), P0.copy(), Q0.copy(), P0.copy())


def as_parts(state_or_array):
    """Normalize an ExtendedState or packed (..., 4, d) array to (q, p, x, y)."""
    if isinstance(state_or_array, ExtendedState):
        return state_or_array
    return state_from_array(np.asarray(state_or_array))


def canonical_j(d: int) -> np.ndarray:
    """Symplectic structure matrix for the coordinate ordering (q, p, x, y).

    The 2-form is dq ^ dp + dx ^ dy, i.e. two canonical blocks.
    """
    j2 = np.zeros((2 * d, 2 * d))
    j2[:d, d:] = np.eye(d)
    j2[d:, :d] = -np.eye(d)
    out = np.zeros((4 * d, 4 * d))
    out[: 2 * d, : 2 * d] = j2
    out[2 * d :, 2 * d :] = j2
    return out


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped sequence of stored states, the result of every run.

    ``states`` has shape (n, ..., k, d): n samples, any batch axes, then k
    parts of dimension d. A doubled run stores k = 4 parts (q, p, x, y);
    RK4 and the reference store the k = 2 parts (Q, P) of the original
    system. ``meta`` holds what the run certifies beside its samples, such
    as the reference's step-doubling certificate.
    """

    times: np.ndarray
    states: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states lengths differ")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    def projected(self):
        """Reported (Q, P) series: the first two parts, each of shape (n, ..., d)."""
        return self.states[..., 0, :], self.states[..., 1, :]
