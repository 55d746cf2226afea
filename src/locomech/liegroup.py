"""Planar rigid transforms and their velocity algebra.

A Pose (x, y, theta) is the rigid transform that rotates by theta and then
translates by (x, y); theta is stored in (-pi, pi].  A Twist (vx, vy, omega)
is a body-frame velocity, and the component ordering here fixes the row
ordering of every connection matrix in this package.

The ``*_many`` kernels, the only array SE(2) arithmetic here, take triples of
broadcastable float components, e.g. a (3, ...) array, and return (3, ...)
arrays bitwise equal to their scalar twins; pose angles must lie in (-pi, pi].
compose_chain, the running product of a path's increments, is sequential and
runs compose's float expressions on plain floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class Pose:
    """Planar rigid transform; the identity is Pose()."""

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "theta", normalize_angle(float(self.theta)))

    def matrix(self) -> np.ndarray:
        """Homogeneous 3x3 form."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s, self.x], [s, c, self.y], [0.0, 0.0, 1.0]])

    def apply_point(self, p) -> np.ndarray:
        """Image of a planar point under this transform."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([self.x + c * p[0] - s * p[1], self.y + s * p[0] + c * p[1]])


@dataclass(frozen=True)
class Twist:
    """Body-frame velocity (vx, vy, omega); supports vector arithmetic."""

    vx: float = 0.0
    vy: float = 0.0
    omega: float = 0.0

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
    """Running products of (3, n) increments from the identity, as (3, n + 1).

    Column k + 1 is compose(column k, Pose(*increment k)), bitwise: the same
    float expressions on plain floats, with each angle wrapped as Pose does.
    """
    cos, sin, wrap = math.cos, math.sin, normalize_angle
    x = y = th = 0.0
    xs, ys, ths = [x], [y], [th]
    for ix, iy, ith in zip(*np.asarray(increments, dtype=float).tolist()):
        c, s = cos(th), sin(th)
        x, y, th = x + c * ix - s * iy, y + s * ix + c * iy, wrap(th + wrap(ith))
        xs.append(x)
        ys.append(y)
        ths.append(th)
    return np.array([xs, ys, ths])


def inverse(g: Pose) -> Pose:
    c, s = math.cos(g.theta), math.sin(g.theta)
    return Pose(-(c * g.x + s * g.y), s * g.x - c * g.y, -g.theta)


def exp(xi: Twist, dt: float = 1.0) -> Pose:
    """Pose reached by flowing along a constant body twist for time dt."""
    ang = xi.omega * dt
    ux, uy = xi.vx * dt, xi.vy * dt
    if abs(ang) < _SMALL_ANGLE:
        a = 1.0 - ang * ang / 6.0
        b = 0.5 * ang
    else:
        # half-angle form of (1 - cos)/ang: no cancellation for small ang
        half_sin = math.sin(0.5 * ang)
        a = math.sin(ang) / ang
        b = 2.0 * half_sin * half_sin / ang
    return Pose(a * ux - b * uy, b * ux + a * uy, ang)


def log(g: Pose) -> Twist:
    """Principal-branch inverse of exp at unit time."""
    ang = g.theta
    if abs(ang) < _SMALL_ANGLE:
        a = 1.0 - ang * ang / 12.0
    else:
        # cot form of ang*sin/(2(1-cos)); the subtraction loses half the
        # significant digits near zero and would pollute differenced columns
        half = 0.5 * ang
        a = half * math.cos(half) / math.sin(half)
    b = 0.5 * ang
    return Twist(a * g.x + b * g.y, -b * g.x + a * g.y, ang)


def adjoint(g: Pose, xi: Twist) -> Twist:
    """Twist seen from the frame displaced by g: Ad_g xi."""
    c, s = math.cos(g.theta), math.sin(g.theta)
    rvx = c * xi.vx - s * xi.vy
    rvy = s * xi.vx + c * xi.vy
    return Twist(rvx + g.y * xi.omega, rvy - g.x * xi.omega, xi.omega)


def bracket(a: Twist, b: Twist) -> Twist:
    """Lie bracket [a, b]; the rotation component always vanishes."""
    return Twist(
        b.omega * a.vy - a.omega * b.vy,
        a.omega * b.vx - b.omega * a.vx,
        0.0,
    )


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
    half_sin = np.sin(0.5 * big)
    a = np.where(small, 1.0 - ang * ang / 6.0, np.sin(big) / big)
    b = np.where(small, 0.5 * ang, 2.0 * half_sin * half_sin / big)
    return _stack(a * ux - b * uy, b * ux + a * uy, wrap_many(ang))


def log_many(g) -> np.ndarray:
    x, y, ang = g
    small = np.abs(ang) < _SMALL_ANGLE
    half = 0.5 * np.where(small, 1.0, ang)
    a = np.where(small, 1.0 - ang * ang / 12.0, half * np.cos(half) / np.sin(half))
    b = 0.5 * ang
    return _stack(a * x + b * y, -b * x + a * y, ang)


def bracket_many(a, b) -> np.ndarray:
    (avx, avy, aom), (bvx, bvy, bom) = a, b
    return _stack(bom * avy - aom * bvy, aom * bvx - bom * avx, 0.0)
