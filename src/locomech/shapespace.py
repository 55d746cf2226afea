"""Periodic shape-space trajectories.

Shapes are plain 1-D float arrays of joint coordinates.  Two gait forms are
provided: truncated Fourier loops (closed by construction, analytic rates)
and closed piecewise-linear waypoint loops (exact closure by repeating the
first waypoint; rates are right-hand limits at the knots).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def _as_readonly(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
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


@dataclass(frozen=True)
class FourierGait(_Sampled):
    """Loop r_i(t) = mean_i + sum_k cos[k,i] cos(2 pi k t/T) + sin[k,i] sin(2 pi k t/T)."""

    period: float
    mean: np.ndarray
    cos: np.ndarray = None
    sin: np.ndarray = None
    # 2 pi k / T for harmonic k = 1..K, fixed once the gait is built
    angular_rates: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.period > 0.0 and np.isfinite(self.period)):
            raise ValueError(f"gait period must be positive and finite, got {self.period}")
        mean = _as_readonly(np.atleast_1d(self.mean))
        d = mean.shape[0]
        cos = self.cos if self.cos is not None else np.zeros((0, d))
        sin = self.sin if self.sin is not None else np.zeros((0, d))
        cos = _as_readonly(np.atleast_2d(cos)) if np.size(cos) else _as_readonly(np.zeros((0, d)))
        sin = _as_readonly(np.atleast_2d(sin)) if np.size(sin) else _as_readonly(np.zeros((0, d)))
        k = max(cos.shape[0], sin.shape[0])
        if cos.shape[0] < k:
            cos = _as_readonly(np.vstack([cos, np.zeros((k - cos.shape[0], d))]))
        if sin.shape[0] < k:
            sin = _as_readonly(np.vstack([sin, np.zeros((k - sin.shape[0], d))]))
        if cos.shape != (k, d) or sin.shape != (k, d):
            raise ValueError("harmonic coefficient arrays must have shape (K, d)")
        object.__setattr__(self, "period", float(self.period))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cos", cos)
        object.__setattr__(self, "sin", sin)
        # a subnormal period overflows the rates to inf; every rate the gait
        # then samples is NaN, which integrate_gait rejects as a non-finite
        # shape rate, so the overflow warning is not printed here
        with np.errstate(over="ignore"):
            rates = 2.0 * np.pi * np.arange(1, k + 1) / self.period
        object.__setattr__(self, "angular_rates", _as_readonly(rates))

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


@dataclass(frozen=True)
class WaypointGait(_Sampled):
    """Closed polyline: segment i runs points[i] -> points[(i+1) % m] over
    [times[i], times[i+1]]; the loop ends back at points[0] at t = period."""

    points: np.ndarray
    times: np.ndarray

    def __post_init__(self) -> None:
        pts = _as_readonly(np.atleast_2d(self.points))
        times = _as_readonly(np.atleast_1d(self.times))
        if times.shape[0] != pts.shape[0] + 1:
            raise ValueError(
                f"need one more knot time than waypoints, got {times.shape[0]} times "
                f"for {pts.shape[0]} waypoints"
            )
        if times[0] != 0.0:
            raise ValueError("knot times must start at 0")
        if not np.all(np.diff(times) > 0.0):
            raise ValueError("knot times must be strictly increasing")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "times", times)

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


def reparameterize(gait: Gait, warp: Callable[[float], float], samples: int = 4096) -> WaypointGait:
    """Retime a gait through a strictly increasing warp of [0, T] onto [0, warp(T)].

    The returned waypoint gait traces the identical shape-space path.  Waypoint
    gaits keep their vertices and retime the knots; Fourier gaits are first
    resampled into `samples` uniform segments.
    """
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
