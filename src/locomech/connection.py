"""Shape-to-body-velocity maps.

Everything here produces or consumes the 3 x d matrix A(r) relating a shape
rate to a body twist, body_twist = A(r) @ rdot, with rows ordered (vx, vy,
omega).  Three construction routes are covered: differentiating a pose map
through the group, solving a linear force or constraint balance, and
dispatching over the holonomic pieces of a contact-switching model.

Provider protocol.  Everything that consumes A(r) (integrator, field
sampling, optimizer, verify suites) talks to a provider through:

- ``dim``: the number of shape coordinates d;
- ``contacts_at(r)``: the hashable stance label selected at shape r, and
  None for a provider with a single piece;
- ``connection_at(r)``: A(r) of the piece selected at r;
- ``connection_for(label, r)``: A(r) of the named piece, possibly evaluated
  past that piece's switching surface; only needed when contacts_at can
  return a label other than None.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .liegroup import Pose, Twist, compose, inverse, log

ConnectionMatrix = np.ndarray  # (3, d), rows vx, vy, omega

ContactSet = frozenset

_COND_LIMIT = 1e12


class SingularConstraint(RuntimeError):
    """Raised when a constraint balance is singular or numerically unusable."""


@dataclass(frozen=True)
class PoseMap:
    """Deterministic smooth map from a shape vector to a Pose."""

    fn: Callable[[np.ndarray], Pose]
    dim: int

    def __call__(self, r: np.ndarray) -> Pose:
        return self.fn(r)


@dataclass(frozen=True)
class ConstraintSystem:
    """Linear balance m @ xi + n @ rdot = 0 with m (3, 3) and n (3, d)."""

    m: np.ndarray
    n: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=float)
        n = np.asarray(self.n, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"twist coefficient block must be 3x3, got {m.shape}")
        if n.ndim != 2 or n.shape[0] != 3:
            raise ValueError(f"shape-rate coefficient block must be 3xd, got {n.shape}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)


def jacobian_connection_eval(pose_map: PoseMap, r, h: float = 1e-5) -> ConnectionMatrix:
    """Differentiate a pose map through the group.

    Column i is log(F(r - h e_i)^-1 F(r + h e_i)) / (2 h), the body-frame
    velocity per unit rate of coordinate i; accuracy O(h^2).
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (pose_map.dim,):
        raise ValueError(f"shape has {r.shape} coordinates, pose map expects {pose_map.dim}")
    d = pose_map.dim
    a = np.empty((3, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        lo = pose_map.fn(r - e)
        hi = pose_map.fn(r + e)
        a[:, i] = log(compose(inverse(lo), hi)).to_array() / (2.0 * h)
    return a


def _cond_estimate(m: np.ndarray) -> float:
    """1-norm condition estimate of the 3x3 twist block via its adjugate.

    Cheaper than an SVD by an order of magnitude, which matters because this
    guard sits inside every integrator stage of the force-balance models.
    """
    (a, b, c), (d, e, f), (g, h, i) = m
    c00 = e * i - f * h
    c01 = f * g - d * i
    c02 = d * h - e * g
    det = a * c00 + b * c01 + c * c02
    if det == 0.0 or not np.isfinite(det):
        return np.inf
    adj = np.array([
        [c00, c * h - b * i, b * f - c * e],
        [c01, a * i - c * g, c * d - a * f],
        [c02, b * g - a * h, a * e - b * d],
    ])
    norm1 = np.abs(m).sum(axis=0).max()
    inv_norm1 = np.abs(adj).sum(axis=0).max() / abs(det)
    return float(norm1 * inv_norm1)


def linear_constraint_connection(system: ConstraintSystem) -> ConnectionMatrix:
    """Solve the balance for A = -m^-1 n via a pivoted solve.

    One refinement pass keeps the residual ||m A + n||_inf at roundoff level;
    a condition estimate above 1e12 raises SingularConstraint.
    """
    m, n = system.m, system.n
    if not np.all(np.isfinite(m)) or not np.all(np.isfinite(n)):
        raise SingularConstraint("constraint blocks contain non-finite entries")
    cond = _cond_estimate(m)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularConstraint(f"twist coefficient block has condition {cond:.3e}")
    a = np.linalg.solve(m, -n)
    resid = m @ a + n
    scale = max(np.abs(n).max(initial=0.0), np.abs(m).max() * max(np.abs(a).max(initial=0.0), 1.0))
    if np.abs(resid).max(initial=0.0) > 1e-13 * max(scale, 1.0):
        a -= np.linalg.solve(m, resid)
    return a


def apply(a: ConnectionMatrix, rdot) -> Twist:
    """Body twist produced by a shape rate."""
    a = np.asarray(a, dtype=float)
    rdot = np.asarray(rdot, dtype=float)
    if a.ndim != 2 or a.shape[0] != 3:
        raise ValueError(f"connection matrix must be 3xd, got {a.shape}")
    if rdot.shape != (a.shape[1],):
        raise ValueError(f"shape rate has {rdot.shape} entries, connection expects {a.shape[1]}")
    return Twist.from_array(a @ rdot)


class JacobianConnection:
    """Provider backed by a single smooth pose map."""

    def __init__(self, pose_map: PoseMap, h: float = 1e-5):
        self.pose_map = pose_map
        self.h = h

    @property
    def dim(self) -> int:
        return self.pose_map.dim

    def connection_at(self, r) -> ConnectionMatrix:
        return jacobian_connection_eval(self.pose_map, r, self.h)

    def contacts_at(self, r) -> None:
        return None


class ConstraintConnection:
    """Provider solving a shape-dependent linear balance."""

    def __init__(self, builder: Callable[[np.ndarray], ConstraintSystem], dim: int):
        self.builder = builder
        self._dim = dim

    @property
    def dim(self) -> int:
        return self._dim

    def connection_at(self, r) -> ConnectionMatrix:
        return linear_constraint_connection(self.builder(np.asarray(r, dtype=float)))

    def contacts_at(self, r) -> None:
        return None


class PiecewiseConnection:
    """Provider dispatching on a contact model's selected stance.

    The model must offer select_contacts(r), contact_map(c), and shape_dim.
    Within one stance piece the connection is the group derivative of that
    piece's pose map, so it may be evaluated slightly past the switching
    surface while a step is being completed.
    """

    def __init__(self, model, h: float = 1e-5):
        self.model = model
        self.h = h
        self._maps: dict = {}

    @property
    def dim(self) -> int:
        return self.model.shape_dim

    def contacts_at(self, r) -> ContactSet:
        return self.model.select_contacts(np.asarray(r, dtype=float))

    def piece_map(self, c: ContactSet) -> PoseMap:
        m = self._maps.get(c)
        if m is None:
            m = self.model.contact_map(c)
            self._maps[c] = m
        return m

    def connection_for(self, c: ContactSet, r) -> ConnectionMatrix:
        return jacobian_connection_eval(self.piece_map(c), np.asarray(r, dtype=float), self.h)

    def connection_at(self, r) -> ConnectionMatrix:
        return self.connection_for(self.contacts_at(r), r)
