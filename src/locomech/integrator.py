"""Fixed-step Lie-group integration of gait-driven body motion.

The body pose solves g' = g * hat(A(r(t)) rdot(t)) with a 4th-order
Munthe-Kaas scheme: stage twists are combined in the velocity algebra through
the truncated inverse differential of exp and applied with one group
exponential per step.  The shape path r(t) is prescribed, so within a stance
piece every stage twist depends on t alone and the whole stage grid is
planned and evaluated before any group arithmetic.  Every step compares the provider's stance label at
its midpoint and end with the active one; a step that straddles a stance
change is split at the switch time (located by bisection on the selector)
and integration resumes with the new piece from the same pose, so the pose
path stays continuous.  A single-piece provider labels every shape None and
so never splits a step.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass, field

import numpy as np

from .connection import SingularConstraint, apply as apply_connection, connection_rows
from .liegroup import Pose, Twist, bracket, compose, exp, inverse, log


@dataclass(frozen=True)
class EventRecord:
    """One located stance switch."""

    time: float
    before: frozenset
    after: frozenset
    shape: np.ndarray
    window: tuple[float, float]


@dataclass
class Trajectory:
    """Sampled integration output; one row per accepted step boundary."""

    times: np.ndarray
    poses: list[Pose]
    shapes: np.ndarray
    twists: np.ndarray
    contacts: list
    events: list[EventRecord]
    cycle_indices: list[int]
    meta: dict = field(default_factory=dict)


def _dexpinv(u: Twist, v: Twist) -> Twist:
    """Inverse differential of exp at -u applied to v, truncated for 4th order.

    For body-frame flows g' = g * hat(xi) the exponent u in g = g0 * exp(u)
    satisfies u' = v + [u, v]/2 + [u, [u, v]]/12; the sign of the linear
    bracket term is what separates 4th order from 2nd here.
    """
    uv = bracket(u, v)
    return v + 0.5 * uv + (1.0 / 12.0) * bracket(u, uv)


def _require_finite(finite: np.ndarray, what: str, where) -> None:
    """Raise SingularConstraint at the first row not marked finite; where(i) gives its (t, shape)."""
    if not finite.all():
        t, r = where(int(np.argmin(finite)))
        raise SingularConstraint(f"non-finite {what} at t={t!r}, shape {r.tolist()}")


def _rkmk4_step(g: Pose, h: float, k1: Twist, mid: Twist, end: Twist) -> Pose:
    """One step of length h from g, given the start, midpoint and end stage twists.

    k2 and k3 share the midpoint twist; the end twist takes the left-limit
    rate, because the step end may be a waypoint corner.
    """
    k2 = _dexpinv((0.5 * h) * k1, mid)
    k3 = _dexpinv((0.5 * h) * k2, mid)
    k4 = _dexpinv(h * k3, end)
    u = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return compose(g, exp(u, 1.0))


def integrate_gait(provider, gait, cycles: int = 1, step: float = 1e-3, event_tol: float = 1e-10) -> Trajectory:
    """Integrate `cycles` periods of the gait from the identity pose.

    The step is snapped to an integer count per cycle so cycle boundaries are
    sample points.  Stance switches are located to event_tol (in time) by
    bisection; a step containing several switches is split at each located
    switch.  A single-piece provider never switches.

    The shape path is prescribed, so the work runs in three phases: plan the
    accepted steps and events from the stance selector alone, evaluate the
    connection once per distinct (stance, stage shape) with one
    connection_many call per stance, then combine the stage twists into
    poses.  A non-finite connection entry, shape rate or stage twist raises
    SingularConstraint naming its time and shape.
    """
    if cycles < 1:
        raise ValueError(f"cycle count must be at least 1, got {cycles}")
    if not (step > 0.0 and np.isfinite(step)):
        raise ValueError(f"step must be positive, got {step}")
    if event_tol <= 0.0:
        raise ValueError(f"event tolerance must be positive, got {event_tol}")
    period = gait.period
    n_steps = max(1, round(period / step))
    h = period / n_steps

    # every (t, side) that one step asks for is evaluated once; the memo
    # only ever holds the step being planned
    evaluated: dict = {}

    def at(t: float, side: str = "right") -> tuple[np.ndarray, np.ndarray]:
        key = (t, side)
        out = evaluated.get(key)
        if out is None:
            out = evaluated[key] = gait.evaluate(t, side)
        return out

    # -- plan: accepted steps and events; no connection call.  Step j runs
    # from row j to row j + 1 on row j's stance.
    r0 = at(0.0)[0]
    times = [0.0]
    shapes = [r0]
    contacts = [provider.contacts_at(r0)]
    events: list[EventRecord] = []
    cycle_indices = [0]
    active = contacts[0]
    # shape and rate of every stage, flat: start, midpoint and end of each
    # step, then the last row, whose twist is no stage
    stage_shapes = array("d")
    stage_rates = array("d")

    def add_stage(t: float, side: str) -> None:
        r, rdot = at(t, side)
        stage_shapes.frombytes(np.asarray(r, dtype=float).tobytes())
        stage_rates.frombytes(np.asarray(rdot, dtype=float).tobytes())

    def step_to(t0: float, t1: float, r1: np.ndarray, after) -> None:
        """Accept [t0, t1] on the active piece; the new row is labelled `after`."""
        # the end stage takes the left-limit rate: t1 may be a waypoint corner
        add_stage(t0, "right")
        add_stage(t0 + 0.5 * (t1 - t0), "right")
        add_stage(t1, "left")
        times.append(t1)
        shapes.append(r1)
        contacts.append(after)

    def locate_switch(t0: float, t1: float, c0):
        """First time in (t0, t1] whose selected stance differs from c0."""
        lo, hi = t0, t1
        while hi - lo > event_tol:
            mid = 0.5 * (lo + hi)
            if provider.contacts_at(at(mid)[0]) == c0:
                lo = mid
            else:
                hi = mid
        return lo, hi

    def advance(t0: float, t1: float) -> None:
        nonlocal active
        start = evaluated[(t0, "right")]
        evaluated.clear()
        evaluated[(t0, "right")] = start
        # a loop, not recursion: a self-referencing closure would keep the
        # whole trajectory alive until the cyclic collector ran
        splits = 0
        while True:
            # check the midpoint too: a stance entered and left inside one
            # step would be invisible to an endpoint-only comparison
            t_mid = t0 + 0.5 * (t1 - t0)
            c_mid = provider.contacts_at(at(t_mid)[0])
            r1 = at(t1)[0]
            c_end = provider.contacts_at(r1)
            if c_mid == active and c_end == active:
                step_to(t0, t1, r1, active)
                return
            lo, t_switch = locate_switch(t0, t_mid if c_mid != active else t1, active)
            r_switch = at(t_switch)[0]
            new_piece = provider.contacts_at(r_switch)
            events.append(
                EventRecord(
                    time=t_switch,
                    before=active,
                    after=new_piece,
                    shape=r_switch,
                    window=(lo, t_switch),
                )
            )
            step_to(t0, t_switch, r_switch, new_piece)
            active = new_piece
            if t_switch >= t1:
                return
            if splits > 0:
                warnings.warn(
                    f"multiple stance switches inside one step near t={t_switch:.6g}; "
                    "splitting at each switch",
                    RuntimeWarning,
                    stacklevel=2,
                )
            splits += 1
            t0 = t_switch

    # Waypoint knots are rate corners; a stage sampled across one would cost
    # the scheme its order, so knots are forced onto the step grid.
    knot_times = getattr(gait, "times", None)
    interior_knots = [] if knot_times is None else [float(t) for t in knot_times[1:-1]]
    merge_tol = 1e-12 * max(1.0, period)

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
        while end - grid[-1] <= merge_tol:
            grid.pop()
        grid.append(end)
        for t0, t1 in zip(grid[:-1], grid[1:]):
            advance(t0, t1)
        cycle_indices.append(len(times) - 1)
    add_stage(times[-1], "right")
    evaluated.clear()

    # -- evaluate
    def where(i: int) -> tuple[float, np.ndarray]:
        """Time and shape of stage i."""
        j, k = divmod(i, 3)
        t = times[j] if k == 0 else times[j + 1] if k == 2 else times[j] + 0.5 * (times[j + 1] - times[j])
        return t, gait.evaluate(t, "left" if k == 2 else "right")[0]

    rates = np.frombuffer(stage_rates).reshape(3 * len(times) - 2, len(r0))
    _require_finite(np.isfinite(rates).all(axis=1), "shape rate", where)
    # stages 3j, 3j + 1 and 3j + 2 belong to step j, on the stance of row j;
    # the final stage is the last row's
    stage_labels = [c for c in contacts[:-1] for _ in range(3)] + contacts[-1:]
    conn, stage_conn = connection_rows(provider, np.frombuffer(stage_shapes).reshape(rates.shape), stage_labels)
    stage_shapes = stage_labels = None
    _require_finite(np.isfinite(conn).all(axis=(1, 2))[stage_conn], "connection", where)
    # stage twists as flat (vx, vy, omega) floats, so long trajectories hold
    # no per-stage objects
    stage_twists = array("d")

    def add_twist(i: int) -> Twist:
        xi = apply_connection(conn[stage_conn[i]], rates[i])
        if not (math.isfinite(xi.vx) and math.isfinite(xi.vy) and math.isfinite(xi.omega)):
            t, r = where(i)
            raise SingularConstraint(f"non-finite stage twist at t={t!r}, shape {r.tolist()}")
        stage_twists.extend((xi.vx, xi.vy, xi.omega))
        return xi

    max_norm = 0.0
    for i in range(len(rates) - 1):
        max_norm = max(max_norm, add_twist(i).norm())
    # the last row's twist is no stage, so it stays out of the largest norm
    add_twist(len(rates) - 1)
    n_shapes = len(conn)
    del conn, rates, stage_conn
    stage_rates = None

    # -- combine: RKMK4 group arithmetic, step by step
    def stage(i: int) -> Twist:
        return Twist(stage_twists[3 * i], stage_twists[3 * i + 1], stage_twists[3 * i + 2])

    g = Pose()
    poses = [g]
    for j in range(len(times) - 1):
        g = _rkmk4_step(g, times[j + 1] - times[j], stage(3 * j), stage(3 * j + 1), stage(3 * j + 2))
        poses.append(g)
    # row k's twist is the start stage of the step leaving row k
    twists = np.frombuffer(stage_twists).reshape(-1, 3)[::3].copy()
    stage_twists = None

    return Trajectory(
        times=np.array(times),
        poses=poses,
        shapes=np.stack(shapes),
        twists=twists,
        contacts=contacts,
        events=events,
        cycle_indices=cycle_indices,
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


def net_displacement(traj: Trajectory) -> Twist:
    """Per-cycle displacement exponent log(g(0)^-1 g(T)).

    The trajectory must span at least one full cycle; the first cycle's
    increment is returned (increments of later cycles agree up to integration
    error, see per_cycle_displacements).
    """
    idx = traj.cycle_indices
    if len(idx) < 2:
        raise ValueError("trajectory does not span a full cycle")
    g0 = traj.poses[idx[0]]
    g1 = traj.poses[idx[1]]
    return log(compose(inverse(g0), g1))


def per_cycle_displacements(traj: Trajectory) -> list[Twist]:
    """Displacement exponent of each completed cycle."""
    idx = traj.cycle_indices
    if len(idx) < 2:
        raise ValueError("trajectory does not span a full cycle")
    out = []
    for a, b in zip(idx[:-1], idx[1:]):
        out.append(log(compose(inverse(traj.poses[a]), traj.poses[b])))
    return out
