"""State containers for the doubled phase space."""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

PROJECTIONS = ("copy1", "mean", "copy2")


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


def embed(Q0, P0) -> ExtendedState:
    """Doubled embedding (Q0, P0, Q0, P0) used to start every run."""
    Q0 = np.atleast_1d(np.asarray(Q0, dtype=float))
    P0 = np.atleast_1d(np.asarray(P0, dtype=float))
    if Q0.shape != P0.shape:
        raise ValueError(f"position/momentum shapes differ: {Q0.shape} vs {P0.shape}")
    return ExtendedState(Q0.copy(), P0.copy(), Q0.copy(), P0.copy())


def project(state_or_array, policy: str = "copy1"):
    """Reported (Q, P) pair for one of the projection policies.

    copy1 -> (q, p), copy2 -> (x, y), mean -> ((q + x) / 2, (p + y) / 2).
    """
    q, p, x, y = as_parts(state_or_array)
    if policy == "copy1":
        return q, p
    if policy == "copy2":
        return x, y
    if policy == "mean":
        return 0.5 * (q + x), 0.5 * (p + y)
    raise ValueError(f"unknown projection policy {policy!r}; expected one of {PROJECTIONS}")


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
    """Time-stamped sequence of extended states.

    ``states`` has shape (n, 4, d) for a single trajectory or (n, B, 4, d)
    for a batch of B trajectories advanced together.
    """

    times: np.ndarray
    states: np.ndarray
    projection: str = "copy1"

    def __post_init__(self):
        if self.projection not in PROJECTIONS:
            raise ValueError(f"unknown projection policy {self.projection!r}")
        if len(self.times) != len(self.states):
            raise ValueError("times and states lengths differ")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    def parts(self) -> ExtendedState:
        """Component series (q, p, x, y), each of shape (n, ..., d)."""
        return state_from_array(self.states)

    def projected(self, policy: str | None = None):
        """Reported (Q, P) series under the trajectory's (or given) policy."""
        return project(self.states, policy or self.projection)
