"""Periodic shape-space trajectories.

Shapes are plain 1-D float arrays of joint coordinates.  Two gait forms are
provided: truncated Fourier loops (closed by construction, analytic rates)
and closed piecewise-linear waypoint loops (exact closure by repeating the
first waypoint; rates are right-hand limits at the knots).  A Fourier loop
retimed through the smoothstep warp is a third, knot-free form with exact
rates; `reparameterize` retimes either form through any warp as a polyline.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ._record import FrozenRecord


def _readonly(a, shape=None) -> np.ndarray:
    """A frozen float copy of a, checked to have the given shape if one is given."""
    out = np.array(a, dtype=float)
    if shape is not None and out.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {out.shape}")
    out.setflags(write=False)
    return out


def _gait_times(times, side: str) -> np.ndarray:
    """Sample times as a float array, checked finite, for a side "right" or "left"."""
    if side not in ("right", "left"):
        raise ValueError(f"gait side must be 'right' or 'left', got {side!r}")
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError(f"gait time must be finite, got {times[~np.isfinite(times)][0]}")
    return times


class _Sampled:
    """A gait samples itself through evaluate_many; evaluate is its one-row case."""

    def evaluate(self, t: float, side: str = "right") -> tuple[np.ndarray, np.ndarray]:
        r, rdot = self.evaluate_many([t], side)
        return r[0], rdot[0]


class FourierGait(_Sampled, FrozenRecord):
    """Loop r_i(t) = mean_i + sum_k cos[k,i] cos(2 pi k t/T) + sin[k,i] sin(2 pi k t/T)."""

    def __init__(self, period: float, mean: np.ndarray, cos: np.ndarray = None, sin: np.ndarray = None) -> None:
        if not (period > 0.0 and np.isfinite(period)):
            raise ValueError(f"gait period must be positive and finite, got {period}")
        mean = _readonly(np.atleast_1d(mean))
        d = mean.shape[0]
        # absent or empty coefficients are no harmonics; the shorter array is padded with zero rows
        cos, sin = (np.array(np.zeros((0, d)) if c is None or not np.size(c) else c, float, ndmin=2)
                    for c in (cos, sin))
        k = max(len(cos), len(sin))
        if cos.shape[1:] != (d,) or sin.shape[1:] != (d,):
            raise ValueError("harmonic coefficient arrays must have shape (K, d)")
        cos, sin = (_readonly(np.vstack([c, np.zeros((k - len(c), d))])) for c in (cos, sin))
        if not (np.isfinite(mean).all() and np.isfinite(cos).all() and np.isfinite(sin).all()):
            raise ValueError("gait mean and harmonic coefficients must be finite")
        period = float(period)
        # a subnormal period overflows the rates to inf; every rate the gait
        # then samples is NaN, which integrate_gait rejects as a non-finite
        # shape rate, so the overflow warning is not printed here
        with np.errstate(over="ignore"):
            rates = 2.0 * np.pi * np.arange(1, k + 1) / period
        # angular_rates, 2 pi k / T for harmonic k = 1..K, is no field, so repr and == leave it out
        self.__dict__.update(period=period, mean=mean, cos=cos, sin=sin, angular_rates=_readonly(rates))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def evaluate_many(self, times, side: str = "right") -> tuple[np.ndarray, np.ndarray]:
        """Shapes and rates at every time of a (n,) array, as two (n, d) arrays.

        Each harmonic sum is a stacked (n, 1, K) @ (K, d) product, so row i is
        bitwise the (K,) @ (K, d) sum at times[i] alone; a flat (n, K) product
        need not be.  The rate is smooth, so `side` changes nothing.
        """
        tau = _gait_times(times, side) % self.period
        w = self.angular_rates
        if not w.size:
            return np.tile(self.mean, (len(tau), 1)), np.zeros((len(tau), self.dim))
        ang = w * tau[:, None, None]
        r = self.mean + (np.cos(ang) @ self.cos)[:, 0] + (np.sin(ang) @ self.sin)[:, 0]
        rdot = ((-w * np.sin(ang)) @ self.cos)[:, 0] + ((w * np.cos(ang)) @ self.sin)[:, 0]
        return r, rdot


class WaypointGait(_Sampled, FrozenRecord):
    """Closed polyline: segment i runs points[i] -> points[(i+1) % m] over
    [times[i], times[i+1]]; the loop ends back at points[0] at t = period."""

    def __init__(self, points: np.ndarray, times: np.ndarray) -> None:
        pts = _readonly(np.atleast_2d(points))
        times = _readonly(np.atleast_1d(times))
        if not pts.shape[0]:
            raise ValueError("a waypoint gait needs at least one waypoint")
        if not np.isfinite(pts).all():
            raise ValueError("waypoints must be finite")
        if not np.isfinite(times).all():
            raise ValueError("knot times must be finite")
        if times.shape[0] != pts.shape[0] + 1:
            raise ValueError(
                f"need one more knot time than waypoints, got {times.shape[0]} times "
                f"for {pts.shape[0]} waypoints"
            )
        if times[0] != 0.0:
            raise ValueError("knot times must start at 0")
        if not np.all(np.diff(times) > 0.0):
            raise ValueError("knot times must be strictly increasing")
        self.__dict__.update(points=pts, times=times)

    @property
    def period(self) -> float:
        return float(self.times[-1])

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def evaluate_many(self, times, side: str = "right") -> tuple[np.ndarray, np.ndarray]:
        """Shapes and rates at every time of a (n,) array, as two (n, d) arrays.

        The rate is discontinuous at knots; `side` picks which segment's rate
        a knot time reports (positions agree).
        """
        tau = _gait_times(times, side) % self.period
        if side == "left":
            tau[tau == 0.0] = self.period
        m = self.points.shape[0]
        j = np.clip(np.searchsorted(self.times, tau, side=side) - 1, 0, m - 1)
        p0 = self.points[j]
        p1 = self.points[(j + 1) % m]
        dt = self.times[j + 1] - self.times[j]
        frac = (tau - self.times[j]) / dt
        return p0 + frac[:, None] * (p1 - p0), (p1 - p0) / dt[:, None]


Gait = FourierGait | WaypointGait


def smoothstep(t, period: float):
    """The warp w(t) = T(3u^2 - 2u^3), u = t/T, of a float or an array: it maps [0, T] onto itself, strictly increasing."""
    u = t / period
    return period * (3.0 * u * u - 2.0 * u**3)


class SmoothstepGait(_Sampled):
    """A Fourier gait retimed through smoothstep, exactly: r(t) = base(w(t)), rdot(t) = base'(w(t)) w'(t).

    Its rate factor is w'(t) = 6u(1 - u) in closed form, so the loop traces
    the base's path over the same period, at rest at t = 0 and t = T.  It
    has no knots.
    """

    def __init__(self, base: FourierGait) -> None:
        self.base = base
        self.period = base.period
        self.dim = base.dim

    def evaluate_many(self, times, side: str = "right") -> tuple[np.ndarray, np.ndarray]:
        """Shapes and rates at every time of a (n,) array, as two (n, d) arrays; the rate is smooth."""
        tau = _gait_times(times, side) % self.period
        u = tau / self.period
        r, rdot = self.base.evaluate_many(smoothstep(tau, self.period), side)
        return r, rdot * (6.0 * u * (1.0 - u))[:, None]


def reparameterize(gait: Gait, warp: Callable[[float], float], samples: int = 4096) -> WaypointGait:
    """Retime a gait through a strictly increasing warp of [0, T] onto [0, warp(T)].

    Waypoint gaits keep their vertices and retime the knots, so the path is
    identical; Fourier gaits are first resampled into `samples` uniform
    segments, a polyline that moves the path slightly.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample segment, got {samples}")
    if isinstance(gait, WaypointGait):
        old_times = gait.times
        pts = gait.points.copy()
    else:
        ts = np.linspace(0.0, gait.period, samples + 1)
        pts = gait.evaluate_many(ts[:-1])[0]
        old_times = ts
    new_times = np.array([float(warp(t)) for t in old_times])
    if abs(new_times[0]) > 1e-12:
        raise ValueError("warp must fix t = 0")
    new_times[0] = 0.0
    if not np.all(np.diff(new_times) > 0.0):
        raise ValueError("warp must be strictly increasing")
    return WaypointGait(pts, new_times)


def reversed_gait(gait: Gait) -> Gait:
    """The same loop traversed backwards: r'(t) = r(T - t), exactly."""
    if isinstance(gait, FourierGait):
        return FourierGait(gait.period, gait.mean, gait.cos, -gait.sin)
    durations = np.diff(gait.times)[::-1]
    pts = np.vstack([gait.points[0], gait.points[:0:-1]])
    times = np.concatenate([[0.0], np.cumsum(durations)])
    return WaypointGait(pts, times)
