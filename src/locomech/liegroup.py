"""Planar rigid transforms and their velocity algebra.

A Pose (x, y, theta) is the rigid transform that rotates by theta and then
translates by (x, y); theta is stored in (-pi, pi].  A Twist (vx, vy, omega)
is a body-frame velocity, and the component ordering here fixes the row
ordering of every connection matrix in this package.

The ``*_many`` kernels take triples of broadcastable float components, e.g. a
(3, ...) array, and return (3, ...) arrays; pose angles must lie in (-pi, pi].
inverse, exp, log and bracket are their one-column case.  compose keeps its own
float formula: compose_chain is bitwise the chain of compose calls, NaN signs
included, and numpy's array arithmetic passes NaN signs on unlike float's.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from ._record import FrozenRecord

_TWO_PI = 2.0 * math.pi

# Below this rotation magnitude exp/log switch to series for the translation
# coupling; both branches agree to better than 1e-12 at the threshold.
_SMALL_ANGLE = 1e-6


def normalize_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    t = math.remainder(theta, _TWO_PI)
    if t <= -math.pi:
        t += _TWO_PI
    return t


class Pose(FrozenRecord):
    """Planar rigid transform; the identity is Pose()."""

    def __init__(self, x: float = 0.0, y: float = 0.0, theta: float = 0.0) -> None:
        self.__dict__.update(x=float(x), y=float(y), theta=normalize_angle(float(theta)))

    def matrix(self) -> np.ndarray:
        """Homogeneous 3x3 form."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s, self.x], [s, c, self.y], [0.0, 0.0, 1.0]])

    def apply_point(self, p) -> np.ndarray:
        """Image of a planar point under this transform."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([self.x + c * p[0] - s * p[1], self.y + s * p[0] + c * p[1]])


class Twist(FrozenRecord):
    """Body-frame velocity (vx, vy, omega); supports vector arithmetic."""

    def __init__(self, vx: float = 0.0, vy: float = 0.0, omega: float = 0.0) -> None:
        self.__dict__.update(vx=vx, vy=vy, omega=omega)

    def __add__(self, other: "Twist") -> "Twist":
        return Twist(self.vx + other.vx, self.vy + other.vy, self.omega + other.omega)

    def __sub__(self, other: "Twist") -> "Twist":
        return Twist(self.vx - other.vx, self.vy - other.vy, self.omega - other.omega)

    def __neg__(self) -> "Twist":
        return Twist(-self.vx, -self.vy, -self.omega)

    def __mul__(self, a: float) -> "Twist":
        return Twist(a * self.vx, a * self.vy, a * self.omega)

    __rmul__ = __mul__

    def norm(self) -> float:
        return math.sqrt(self.vx * self.vx + self.vy * self.vy + self.omega * self.omega)

    def to_array(self) -> np.ndarray:
        return np.array([self.vx, self.vy, self.omega])

    @classmethod
    def from_array(cls, a) -> "Twist":
        return cls(float(a[0]), float(a[1]), float(a[2]))


def compose(g1: Pose, g2: Pose) -> Pose:
    """Group product: apply g2 first, then g1."""
    c, s = math.cos(g1.theta), math.sin(g1.theta)
    return Pose(
        g1.x + c * g2.x - s * g2.y,
        g1.y + s * g2.x + c * g2.y,
        g1.theta + g2.theta,
    )


def compose_chain(increments) -> np.ndarray:
    """Running products from the identity of m chains of (3, m, n) increments, as (3, m, n + 1); (3, n) as (3, n + 1).

    Column k + 1 of a chain is compose(column k, Pose(*increment k)), bitwise:
    angles are sums wrapped as Pose wraps them, and x and y running sums of
    compose's terms.  x adds -(s iy) where compose subtracts s iy, which flips
    a NaN's sign, so increments that are not all finite take compose itself.
    """
    inc = np.asarray(increments, dtype=float)
    if inc.ndim == 2:
        return compose_chain(inc[:, None])[:, 0]
    if not np.isfinite(inc).all():
        chains = [accumulate(map(Pose, *chain), compose, initial=Pose()) for chain in inc.transpose(1, 0, 2).tolist()]
        return np.array([[(g.x, g.y, g.theta) for g in chain] for chain in chains]).transpose(2, 0, 1)
    ix, iy, ith = inc
    th = np.concatenate([np.zeros((len(ith), 1)), wrap_many(ith)], axis=1)
    # a sum inside (-pi, pi] is its own wrap, so angles are running sums, restarted
    # after each wrap in chunks twice the last run, so frequent wraps stay linear
    for row in th:
        k, size = 0, len(row)
        while k < len(row) - 1:
            run = np.cumsum(row[k:k + size])
            m = int(((run > math.pi) | (run <= -math.pi)).argmax()) or len(run)
            row[k + 1:k + m] = run[1:m]
            if m < len(run):
                row[k + m] = normalize_angle(run[m])
            k, size = k + m - (m == len(run)), 2 * m  # k: the last angle set
    c, s = np.cos(th[:, :-1]), np.sin(th[:, :-1])
    terms = np.zeros((2, len(th), 2 * th.shape[1] - 1))
    terms[0, :, 1::2], terms[0, :, 2::2], terms[1, :, 1::2], terms[1, :, 2::2] = c * ix, -(s * iy), s * ix, c * iy
    return np.concatenate([np.cumsum(terms, axis=2)[:, :, ::2], th[None]])


def _one_column(record, kernel, *parts):
    """The record of kernel on one column of float triples, as quiet as float arithmetic: inf or NaN, no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = kernel(*np.array(parts, dtype=float)[..., None])
    return record(*out[:, 0].tolist())


def inverse(g: Pose) -> Pose:
    return _one_column(Pose, inverse_many, (g.x, g.y, g.theta))


def exp(xi: Twist, dt: float = 1.0) -> Pose:
    """Pose reached by flowing along a constant body twist for time dt."""
    return _one_column(Pose, exp_many, (xi.vx * dt, xi.vy * dt, xi.omega * dt))


def log(g: Pose) -> Twist:
    """Principal-branch inverse of exp at unit time."""
    return _one_column(Twist, log_many, (g.x, g.y, g.theta))


def adjoint(g: Pose, xi: Twist) -> Twist:
    """Twist seen from the frame displaced by g: Ad_g xi."""
    c, s = math.cos(g.theta), math.sin(g.theta)
    rvx = c * xi.vx - s * xi.vy
    rvy = s * xi.vx + c * xi.vy
    return Twist(rvx + g.y * xi.omega, rvy - g.x * xi.omega, xi.omega)


def bracket(a: Twist, b: Twist) -> Twist:
    """Lie bracket [a, b]; the rotation component always vanishes."""
    return _one_column(Twist, bracket_many, (a.vx, a.vy, a.omega), (b.vx, b.vy, b.omega))


def hat(xi: Twist) -> np.ndarray:
    """Matrix form of a twist in the homogeneous representation."""
    return np.array(
        [[0.0, -xi.omega, xi.vx], [xi.omega, 0.0, xi.vy], [0.0, 0.0, 0.0]]
    )


def vee(m) -> Twist:
    """Inverse of hat."""
    return Twist(float(m[0][2]), float(m[1][2]), float(m[1][0]))


def _stack(*rows) -> np.ndarray:
    out = np.empty((3,) + np.broadcast(*rows).shape)
    out[0], out[1], out[2] = rows
    return out


def wrap_many(theta) -> np.ndarray:
    """normalize_angle over an array, bitwise: only |theta| >= pi needs a wrap."""
    out = np.array(theta, dtype=float)
    far = np.abs(out) >= math.pi
    out[far] = [normalize_angle(t) for t in out[far]]
    return out


def compose_many(g1, g2, wrap: bool = True) -> np.ndarray:
    """compose(); wrap=False skips the wrap, for angle sums known to lie inside (-pi, pi)."""
    (x1, y1, t1), (x2, y2, t2) = g1, g2
    c, s = np.cos(t1), np.sin(t1)
    t = t1 + t2
    return _stack(x1 + c * x2 - s * y2, y1 + s * x2 + c * y2, wrap_many(t) if wrap else t)


def inverse_many(g) -> np.ndarray:
    x, y, t = g
    c, s = np.cos(t), np.sin(t)
    return _stack(-(c * x + s * y), s * x - c * y, wrap_many(-t))


def exp_many(xi) -> np.ndarray:
    """exp() at unit time; the closed form sees 1 where the series applies, so it never divides by 0."""
    ux, uy, ang = xi
    small = np.abs(ang) < _SMALL_ANGLE
    big = np.where(small, 1.0, ang)
    # half-angle form of (1 - cos)/ang: no cancellation for small ang
    half_sin = np.sin(0.5 * big)
    a = np.where(small, 1.0 - ang * ang / 6.0, np.sin(big) / big)
    b = np.where(small, 0.5 * ang, 2.0 * half_sin * half_sin / big)
    return _stack(a * ux - b * uy, b * ux + a * uy, wrap_many(ang))


def log_many(g) -> np.ndarray:
    x, y, ang = g
    small = np.abs(ang) < _SMALL_ANGLE
    # cot form of ang*sin/(2(1-cos)): the subtraction loses half the digits near 0, polluting differenced columns
    half = 0.5 * np.where(small, 1.0, ang)
    a = np.where(small, 1.0 - ang * ang / 12.0, half * np.cos(half) / np.sin(half))
    b = 0.5 * ang
    return _stack(a * x + b * y, -b * x + a * y, ang)


def bracket_many(a, b) -> np.ndarray:
    (avx, avy, aom), (bvx, bvy, bom) = a, b
    return _stack(bom * avy - aom * bvy, aom * bvx - bom * avx, 0.0)
