"""Fixed-step Lie-group integration of gait-driven body motion.

The body pose solves g' = g * hat(A(r(t)) rdot(t)) with a 4th-order
Munthe-Kaas scheme: stage twists are combined in the velocity algebra through
the truncated inverse differential of exp and applied with one group
exponential per step.  Every step compares the provider's stance label at
its midpoint and end with the active one; a step that straddles a stance
change is split at the switch time (located by bisection on the selector)
and integration resumes with the new piece from the same pose, so the pose
path stays continuous.  A single-piece provider labels every shape None and
so never splits a step.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass, field

import numpy as np

from .connection import apply as apply_connection
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


class _TwistField:
    """Stage-twist evaluator; tracks the largest stage twist norm it has produced.

    This is the one place a stance label picks the connection: None is the
    label of a single-piece provider, any other label names a piece.
    """

    def __init__(self, provider, gait):
        self.provider = provider
        self.gait = gait
        self.max_norm = 0.0

    def twist(self, t: float, piece, side: str = "right") -> Twist:
        r, rdot = self.gait.evaluate(t, side)
        if piece is None:
            a = self.provider.connection_at(r)
        else:
            a = self.provider.connection_for(piece, r)
        return apply_connection(a, rdot)

    def __call__(self, t: float, piece, side: str = "right") -> Twist:
        xi = self.twist(t, piece, side)
        norm = xi.norm()
        if norm > self.max_norm:
            self.max_norm = norm
        return xi


def _rkmk4_step(g: Pose, t0: float, t1: float, piece, xi_at: _TwistField) -> tuple[Pose, Twist]:
    """One step from (t0, g); returns the end pose and the start twist k1."""
    # the end stage takes the left-limit rate: t1 may be a waypoint corner
    h = t1 - t0
    k1 = xi_at(t0, piece)
    k2 = _dexpinv((0.5 * h) * k1, xi_at(t0 + 0.5 * h, piece))
    k3 = _dexpinv((0.5 * h) * k2, xi_at(t0 + 0.5 * h, piece))
    k4 = _dexpinv(h * k3, xi_at(t1, piece, "left"))
    u = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return compose(g, exp(u, 1.0)), k1


def integrate_gait(provider, gait, cycles: int = 1, step: float = 1e-3, event_tol: float = 1e-10) -> Trajectory:
    """Integrate `cycles` periods of the gait from the identity pose.

    The step is snapped to an integer count per cycle so cycle boundaries are
    sample points.  Stance switches are located to event_tol (in time) by
    bisection; a step containing several switches is split at each located
    switch.  A single-piece provider never switches.
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

    xi_at = _TwistField(provider, gait)
    r0, _ = gait.evaluate(0.0)

    times = [0.0]
    poses = [Pose()]
    shapes = [r0]
    contacts = [provider.contacts_at(r0)]
    # row k's twist is the k1 stage of the step leaving row k, kept as flat
    # floats so long trajectories hold no per-row objects
    twists = array("d")
    events: list[EventRecord] = []
    cycle_indices = [0]

    g = Pose()
    active = contacts[0]

    def step_to(t0: float, t1: float, r1: np.ndarray, after) -> None:
        """Advance g over [t0, t1] on the active piece; the new row is labelled `after`."""
        nonlocal g
        g, k1 = _rkmk4_step(g, t0, t1, active, xi_at)
        twists.extend((k1.vx, k1.vy, k1.omega))
        times.append(t1)
        poses.append(g)
        shapes.append(r1)
        contacts.append(after)

    def locate_switch(t0: float, t1: float, c0):
        """First time in (t0, t1] whose selected stance differs from c0."""
        lo, hi = t0, t1
        while hi - lo > event_tol:
            mid = 0.5 * (lo + hi)
            if provider.contacts_at(gait.evaluate(mid)[0]) == c0:
                lo = mid
            else:
                hi = mid
        return lo, hi

    def advance(t0: float, t1: float) -> None:
        nonlocal active
        # a loop, not recursion: a self-referencing closure would keep the
        # whole trajectory alive until the cyclic collector ran
        splits = 0
        while True:
            # check the midpoint too: a stance entered and left inside one
            # step would be invisible to an endpoint-only comparison
            t_mid = t0 + 0.5 * (t1 - t0)
            c_mid = provider.contacts_at(gait.evaluate(t_mid)[0])
            r1 = gait.evaluate(t1)[0]
            c_end = provider.contacts_at(r1)
            if c_mid == active and c_end == active:
                step_to(t0, t1, r1, active)
                return
            lo, t_switch = locate_switch(t0, t_mid if c_mid != active else t1, active)
            r_switch = gait.evaluate(t_switch)[0]
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

    # no step leaves the last row; its twist is not a stage, so it stays out
    # of max_norm
    last = xi_at.twist(times[-1], active)
    twists.extend((last.vx, last.vy, last.omega))

    return Trajectory(
        times=np.array(times),
        poses=poses,
        shapes=np.stack(shapes),
        twists=np.frombuffer(twists).reshape(-1, 3),
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
            "max_twist_norm": float(xi_at.max_norm),
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
