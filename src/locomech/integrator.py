"""Fixed-step Lie-group integration of gait-driven body motion.

The body pose solves g' = g * hat(A(r(t)) rdot(t)) with a 4th-order
Munthe-Kaas scheme.  The shape path r(t) is prescribed, so every stage twist
depends on t alone and the work is array passes.  The step grids of all
cycles are planned from arrays: one gait.evaluate_many call samples every
grid point and step midpoint, and one provider.contacts_many call labels
them.  A step whose midpoint and end carry its start's label is accepted as
it stands; only a step that leaves its start's stance is split at the
switch time, and integration resumes with the new piece from the same pose,
so the pose path stays continuous.  All switches are bisected together, one
labelling call over every open bracket's midpoint per level.  Three
evaluate_many calls then fill the stage rows, the connection is evaluated
once per distinct (stance, stage shape), the step exponents (stage twists
combined through the truncated inverse differential of exp) and their
exponentials are array passes.  Only the pose product runs step by step, as
one plain-float loop (liegroup.compose_chain) that builds no Pose; the poses
are kept as one read-only (3, n + 1) array, and Trajectory.poses reads them
as Pose objects.  A single-piece provider labels every shape None and so
never splits a step.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .connection import SingularConstraint, coded_connection_rows, stance_codes
from .liegroup import Pose, Twist, bracket_many, compose_chain, compose_many, exp_many, inverse_many, log_many


@dataclass(frozen=True)
class EventRecord:
    """One located stance switch."""

    time: float
    before: frozenset
    after: frozenset
    shape: np.ndarray
    window: tuple[float, float]


class PoseSequence(Sequence):
    """Read-only sequence of the Poses in the columns of a (3, n) pose array.

    Each index, slice or iteration builds its Poses from the array; a slice
    gives a list.
    """

    __slots__ = ("_g",)

    def __init__(self, g: np.ndarray) -> None:
        self._g = g

    def __len__(self) -> int:
        return self._g.shape[1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [Pose(*col) for col in zip(*self._g[:, i].tolist())]
        return Pose(*self._g[:, i].tolist())

    def __iter__(self):
        return (Pose(*col) for col in zip(*self._g.tolist()))


@dataclass
class Trajectory:
    """Sampled integration output; one row per accepted step boundary.

    pose_array holds the body poses as (3, rows) x, y, theta rows and is made
    read-only; poses reads its columns as Pose objects.
    """

    times: np.ndarray
    pose_array: np.ndarray
    shapes: np.ndarray
    twists: np.ndarray
    contacts: list
    events: list[EventRecord]
    cycle_indices: list[int]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        g = np.asarray(self.pose_array, dtype=float).view()
        g.flags.writeable = False
        self.pose_array = g

    @property
    def poses(self) -> PoseSequence:
        return PoseSequence(self.pose_array)


def _dexpinv(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Inverse differential of exp at -u applied to v, truncated for 4th order, over (3, n) twists.

    For body-frame flows g' = g * hat(xi) the exponent u in g = g0 * exp(u)
    satisfies u' = v + [u, v]/2 + [u, [u, v]]/12; the sign of the linear
    bracket term is what separates 4th order from 2nd here.
    """
    uv = bracket_many(u, v)
    return v + 0.5 * uv + (1.0 / 12.0) * bracket_many(u, uv)


def _require_finite(finite: np.ndarray, what: str, times: np.ndarray, shapes: np.ndarray) -> None:
    """Raise SingularConstraint at the first stage not marked finite, naming its time and shape."""
    if not finite.all():
        i = int(np.argmin(finite))
        raise SingularConstraint(f"non-finite {what} at t={float(times[i])!r}, shape {shapes[i].tolist()}")


def _rkmk4_exponents(h: np.ndarray, k1: np.ndarray, mid: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Exponent u, g1 = g0 * exp(u), of n steps of lengths h from their (3, n) stage twists.

    k2 and k3 share the midpoint twist; the end twist takes the left-limit
    rate, because the step end may be a waypoint corner.
    """
    k2 = _dexpinv((0.5 * h) * k1, mid)
    k3 = _dexpinv((0.5 * h) * k2, mid)
    k4 = _dexpinv(h * k3, end)
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Most steps (per cycle, times cycles) one integration may take.  It peaks
# at 489-564 bytes per step (walker, swimmer) or 671-699 (crawler) and its
# Trajectory keeps about 81 (tracemalloc on the shipped scenarios at 20k and
# 80k steps), so a period or step asking for more is rejected instead of
# exhausting memory.
MAX_STEPS = 1_000_000


def steps_per_cycle(period: float, step: float, cycles: int = 1) -> int:
    """Steps per cycle at the nominal step snapped to divide the period; ValueError past MAX_STEPS."""
    ratio = period / step
    n_steps = max(1, round(ratio)) if math.isfinite(ratio) else math.inf
    if n_steps * cycles > MAX_STEPS:
        raise ValueError(f"{cycles} cycle(s) of period {period!r} at step {step!r} exceed {MAX_STEPS} steps")
    return n_steps


def integrate_gait(provider, gait, cycles: int = 1, step: float = 1e-3, event_tol: float = 1e-10) -> Trajectory:
    """Integrate `cycles` periods of the gait from the identity pose.

    The step is snapped to an integer count per cycle so cycle boundaries are
    sample points.  Stance switches are located to event_tol (in time) by
    bisection, all switches together, one provider call per level; a step
    containing several switches is split at each.  A single-piece provider
    never switches, and is labelled in one contacts_many call.

    The shape path is prescribed, so the work runs in three phases: plan the
    accepted steps and events from the stance labels alone, evaluate the
    connection once per distinct (stance, stage shape) with one
    connection_many call per stance, then combine the stage twists into
    poses.  A non-finite connection entry, shape rate, stage twist, twist
    norm, step exponent or pose raises SingularConstraint naming its time and
    shape.
    """
    if cycles < 1:
        raise ValueError(f"cycle count must be at least 1, got {cycles}")
    if not (step > 0.0 and np.isfinite(step)):
        raise ValueError(f"step must be positive, got {step}")
    if not (event_tol > 0.0 and np.isfinite(event_tol)):
        raise ValueError(f"event tolerance must be positive and finite, got {event_tol}")
    period = gait.period
    n_steps = steps_per_cycle(period, step, cycles)
    h = period / n_steps

    def sample(ts, side: str = "right"):
        """Shapes and rates at times ts, without numpy's overflow warnings.

        A gait that overflows samples non-finite rates; the stage rates are
        checked before any sample is used beyond picking a stance.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            return gait.evaluate_many(ts, side)

    ids: dict = {}

    def label(ts) -> np.ndarray:
        """Codes (indices into ids) of the stances selected at times ts, in one provider call."""
        return stance_codes(provider.contacts_many(sample(ts)[0]), ids)

    def bisect(lo, hi, c_lo, c_hi):
        """Shrink, in place, brackets [lo, hi] with stances c_lo != c_hi at their ends; one call per level.

        A bracket whose midpoint is an end spans adjacent floats, as tight as
        it gets below their spacing.  Returns lo, hi and the stance at hi.
        """
        while True:
            mid = 0.5 * (lo + hi)
            k = np.flatnonzero((hi - lo > event_tol) & (mid != lo) & (mid != hi))
            if not len(k):
                return lo, hi, c_hi
            c = label(mid[k])
            same = c == c_lo[k]
            lo[k[same]] = mid[k[same]]
            hi[k[~same]], c_hi[k[~same]] = mid[k[~same]], c[~same]

    # -- plan: accepted steps and events; no connection call.  Step j runs
    # from row j to row j + 1 on row j's stance.
    # Waypoint knots are rate corners; a stage sampled across one would cost
    # the scheme its order, so knots are forced onto the step grid.
    knot_times = getattr(gait, "times", None)
    interior_knots = [] if knot_times is None else [float(t) for t in knot_times[1:-1]]
    merge_tol = 1e-12 * max(1.0, period)
    g = [0.0]
    for k in range(cycles):
        base = k * period
        end = (k + 1) * period
        cuts = [base + j * h for j in range(1, n_steps)]
        cuts.extend(base + tk for tk in interior_knots)
        cuts.sort()
        grid = [base]
        for t in cuts:
            if t - grid[-1] > merge_tol:
                grid.append(t)
        # the cycle start stays even when the whole period is below merge_tol
        while len(grid) > 1 and end - grid[-1] <= merge_tol:
            grid.pop()
        grid.append(end)
        # a cycle starts where the previous one ends
        g.extend(grid[1:])

    # label every grid point, then every step midpoint, in one call.  A step
    # ends on the stance its end point selects, and only a step whose
    # midpoint or end leaves its start's stance is searched for switches
    g = np.array(g)
    n = len(g) - 1
    g_mid = g[:-1] + 0.5 * (g[1:] - g[:-1])
    codes = label(np.concatenate([g, g_mid]))
    c0, c1, c_mid = codes[:n], codes[1:n + 1], codes[n + 1:]
    j = np.flatnonzero((c1 != c0) | (c_mid != c0))
    t0, t1, t_mid, active, c1, c_mid = g[j], g[j + 1], g_mid[j], c0[j], c1[j], c_mid[j]
    t, row_codes = g, codes[:n + 1]
    found = []
    # Each round locates the first switch of every searched step together.  A
    # switch before its step's end adds a row there, and the rest of the step
    # is searched like a step: a midpoint or end off the new stance.
    while len(t0):
        off = c_mid != active
        lo, hi, after = bisect(t0, np.where(off, t_mid, t1), active, np.where(off, c_mid, c1))
        rest = hi < t1
        found.append((hi, lo, active, after, rest))
        t0, t1, active, c1 = hi[rest], t1[rest], after[rest], c1[rest]
        t_mid = t0 + 0.5 * (t1 - t0)
        c_mid = label(t_mid) if len(t0) else active
        searched = (c_mid != active) | (c1 != active)
        t0, t1, t_mid, active, c1, c_mid = (x[searched] for x in (t0, t1, t_mid, active, c1, c_mid))
    catalog = list(ids)
    events = []
    if found:
        ev_t, ev_lo, before, after, rest = map(np.concatenate, zip(*found))
        # a switch row lies strictly inside its step, so a time sort orders the rows
        t, row_codes = np.append(t, ev_t[rest]), np.append(row_codes, after[rest])
        order = np.argsort(t, kind="stable")
        t, row_codes = t[order], row_codes[order]
        order = np.argsort(ev_t, kind="stable")
        ev = [x[order].tolist() for x in (ev_t, ev_lo, before, after)] + [sample(ev_t[order])[0]]
        events = [EventRecord(t_e, catalog[b], catalog[a], r, (lo_e, t_e)) for t_e, lo_e, b, a, r in zip(*ev)]
        # a switch row after the first of its step marks a step holding several
        late = len(found[0][0])
        for t_switch in np.sort(ev_t[late:][rest[late:]]).tolist():
            warnings.warn(
                f"multiple stance switches inside one step near t={t_switch:.6g}; splitting at each switch",
                RuntimeWarning,
            )

    # -- evaluate: stages 3j, 3j + 1 and 3j + 2 are the start, midpoint and
    # end of step j, on the stance of row j; the final stage is the last row,
    # whose twist is no stage.  The end stage takes the left-limit rate,
    # because a step end may be a waypoint corner.
    t_mid = t[:-1] + 0.5 * (t[1:] - t[:-1])
    stage_times = np.empty(3 * len(t) - 2)
    stage_shapes = np.empty((len(stage_times), gait.dim))
    stage_rates = np.empty_like(stage_shapes)
    for offset, ts, side in ((0, t, "right"), (1, t_mid, "right"), (2, t[1:], "left")):
        stage_times[offset::3] = ts
        stage_shapes[offset::3], stage_rates[offset::3] = sample(ts, side)
    _require_finite(np.isfinite(stage_rates).all(axis=1), "shape rate", stage_times, stage_shapes)
    stage_codes = np.repeat(row_codes, 3)[:-2]
    conn, stage_conn = coded_connection_rows(provider, stage_shapes, stage_codes, catalog)
    _require_finite(np.isfinite(conn).all(axis=(1, 2))[stage_conn], "connection", stage_times, stage_shapes)
    # Each array pass from here on is checked for finiteness right after it,
    # so an overflow aborts with SingularConstraint and numpy's warning is
    # not printed.
    with np.errstate(over="ignore", invalid="ignore"):
        # one row per stage; the batched product gives each row bitwise its own A @ rdot
        stage_twists = (conn[stage_conn] @ stage_rates[:, :, None])[:, :, 0]
        _require_finite(np.isfinite(stage_twists).all(axis=1), "stage twist", stage_times, stage_shapes)
        # the last row's twist is no stage, so it stays out of the largest norm;
        # a finite twist's squares can still overflow
        vx, vy, om = stage_twists[:-1].T
        norms = np.sqrt(vx * vx + vy * vy + om * om)
        _require_finite(np.isfinite(norms), "twist norm", stage_times, stage_shapes)
    max_norm = float(norms.max(initial=0.0))
    n_shapes = len(conn)
    shapes = stage_shapes[::3].copy()
    del conn, stage_conn, stage_codes, stage_rates, stage_shapes, stage_times, norms

    # -- combine: every step's exponent and increment in array passes; only
    # the pose product runs step by step, in plain floats.  Finite twists can
    # still combine into an overflowing exponent or pose; row j's time and
    # shape name step j.
    with np.errstate(over="ignore", invalid="ignore"):
        u = _rkmk4_exponents(t[1:] - t[:-1], stage_twists[0:-1:3].T, stage_twists[1::3].T, stage_twists[2::3].T)
        _require_finite(np.isfinite(u).all(axis=0), "step exponent", t, shapes)
        poses = compose_chain(exp_many(u))
    # a non-finite coordinate stays non-finite under the product (theta is
    # wrapped and stays finite), so the last pose tells whether any pose is
    if not np.isfinite(poses[:2, -1]).all():
        _require_finite(np.isfinite(poses[:2]).all(axis=0), "pose", t, shapes)

    return Trajectory(
        times=t,
        pose_array=poses,
        shapes=shapes,
        # row k's twist is the start stage of the step leaving row k
        twists=stage_twists[::3].copy(),
        contacts=list(map(catalog.__getitem__, row_codes.tolist())),
        events=events,
        cycle_indices=[0] + np.searchsorted(t, period * np.arange(1, cycles + 1)).tolist(),
        meta={
            "scheme": "rkmk4",
            "order": 4,
            "step_nominal": float(step),
            "step": float(h),
            "steps_per_cycle": int(n_steps),
            "cycles": int(cycles),
            "period": float(period),
            "event_tol": float(event_tol),
            "max_twist_norm": float(max_norm),
            "stage_shapes": int(n_shapes),
        },
    )


def pose_increments(traj: Trajectory, a, b) -> np.ndarray:
    """Exponents log(g_a^-1 g_b) over paired indices or slices a, b of traj.poses, as (3, n)."""
    g = traj.pose_array
    return log_many(compose_many(inverse_many(g[:, a]), g[:, b]))


def net_displacement(traj: Trajectory) -> Twist:
    """Per-cycle displacement exponent log(g(0)^-1 g(T)).

    The trajectory must span at least one full cycle; the first cycle's
    increment is returned (increments of later cycles agree up to integration
    error, see per_cycle_displacements).
    """
    return per_cycle_displacements(traj)[0]


def per_cycle_displacements(traj: Trajectory) -> list[Twist]:
    """Displacement exponent of each completed cycle."""
    idx = traj.cycle_indices
    if len(idx) < 2:
        raise ValueError("trajectory does not span a full cycle")
    return [Twist(*u) for u in pose_increments(traj, idx[:-1], idx[1:]).T.tolist()]
