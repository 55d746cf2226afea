"""Fixed-step Lie-group integration of gait-driven body motion.

The body pose solves g' = g * hat(A(r(t)) rdot(t)) with a 4th-order
Munthe-Kaas scheme.  The shape path r(t) is prescribed and periodic, so
every cycle moves the body by the first one's step increments, and a
trajectory's closing row (shape, stance, twist) is its first row, with no
stage of its own.  One cycle's step grid is planned from arrays, one
gait.evaluate_many call samples every grid point and step midpoint, and one
provider.contacts_many call gives their stance codes, indices into
provider.catalog; a gait with no switch reuses those samples as its stages.
Only a step whose midpoint or end leaves its start's stance is split at the
switch time, and integration resumes with the new piece from the same pose,
so the pose path stays continuous; all switches are bisected together, one
coding call per level.  A stance's label is looked up only for the events
and Trajectory.contacts.  Gaits integrated together (integrate_gaits), each
over its own cycle count, in batches of at most MAX_STEPS steps, share one
connection_by_stance call over every step's start and midpoint and each end
that is not its gait's next start, array passes for the step exponents and
their exponentials, and one liegroup.compose_chain call for the pose
products.  The poses are kept as one read-only (3, n + 1) array, read by
Trajectory.poses.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence

import numpy as np

from ._record import FrozenRecord, Record
from .connection import SingularConstraint, connection_by_stance
from .liegroup import Pose, Twist, bracket_many, compose_chain, compose_many, exp_many, inverse_many, log_many


class EventRecord(FrozenRecord):
    """One located stance switch."""

    def __init__(self, time: float, before: frozenset, after: frozenset, shape: np.ndarray,
                 window: tuple[float, float]) -> None:
        self.__dict__.update(time=time, before=before, after=after, shape=shape, window=window)


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


class Trajectory(Record):
    """Sampled integration output; one row per accepted step boundary.

    pose_array holds the body poses as (3, rows) x, y, theta rows and is made
    read-only; poses reads its columns as Pose objects.  Row k's twist is the
    start stage of the step leaving it; the last row's shape, twist and stance
    are the first row's, as the gait is periodic.
    """

    def __init__(self, times: np.ndarray, pose_array: np.ndarray, shapes: np.ndarray, twists: np.ndarray,
                 contacts: list, events: list[EventRecord], cycle_indices: list[int], meta: dict | None = None) -> None:
        g = np.asarray(pose_array, dtype=float).view()
        g.flags.writeable = False
        self.times = times
        self.pose_array = g
        self.shapes = shapes
        self.twists = twists
        self.contacts = contacts
        self.events = events
        self.cycle_indices = cycle_indices
        self.meta = {} if meta is None else meta

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


# Most steps (per cycle, times cycles) one integration, or one batch of
# integrate_gaits, may take.  A step peaks at 514-533 bytes (walker, swimmer)
# or 492-493 (crawler) and its Trajectory keeps about 81 (tracemalloc on the
# shipped scenarios at 20k and 80k steps); more is rejected, not run out of memory.
MAX_STEPS = 1_000_000


def steps_per_cycle(period: float, step: float, cycles: int = 1) -> int:
    """Steps per cycle at the nominal step snapped to divide the period; ValueError past MAX_STEPS."""
    ratio = period / step
    n_steps = max(1, round(ratio)) if math.isfinite(ratio) else math.inf
    if n_steps * cycles > MAX_STEPS:
        raise ValueError(f"{cycles} cycle(s) of period {period!r} at step {step!r} exceed {MAX_STEPS} steps")
    return n_steps


def integrate_gait(provider, gait, cycles: int = 1, step: float = 1e-3, event_tol: float = 1e-10) -> Trajectory:
    """Integrate `cycles` periods of the gait from the identity pose; integrate_gaits of one gait.

    The step is snapped to an integer count per cycle so cycle boundaries are
    sample points.  Stance switches are located to event_tol (in time) by
    bisection, all switches together, one provider call per level; a step
    containing several switches is split at each.  One cycle's steps and
    events are planned from the stance codes alone, the connection is evaluated
    at each step start, midpoint and end not the next start, and the stage
    twists are combined into poses, every cycle by the first one's increments.
    A non-finite connection entry, shape rate, stage twist, twist norm, step
    exponent or pose raises SingularConstraint naming its time and shape.
    """
    return next(integrate_gaits(provider, [gait], cycles, step, event_tol))


def integrate_gaits(provider, gaits, cycles=1, step: float = 1e-3, event_tol: float = 1e-10):
    """Yield integrate_gait of each gait in turn, bitwise: each is planned alone, then finished in batches.

    cycles is one count for every gait or one count per gait, broadcast as
    numpy broadcasts.  A gait's rows depend on it alone.  A batch holds at
    most MAX_STEPS steps in all (or one gait); a singular batch raises its
    first failing stage's error.
    """
    for count in np.ravel(cycles).tolist():
        if count < 1:
            raise ValueError(f"cycle count must be at least 1, got {count}")
    if not (step > 0.0 and np.isfinite(step)):
        raise ValueError(f"step must be positive, got {step}")
    if not (event_tol > 0.0 and np.isfinite(event_tol)):
        raise ValueError(f"event tolerance must be positive and finite, got {event_tol}")
    batch, size = [], 0
    for gait, count in zip(gaits, np.broadcast_to(cycles, len(gaits)).tolist()):
        # a gait whose nominal steps cannot join the batch waits for the batch to
        # finish, so that one batch's plans are held at a time
        if batch and size + steps_per_cycle(gait.period, step, count) * count > MAX_STEPS:
            yield from _finish(provider, batch, step, event_tol)
            batch, size = [], 0
        plan = _plan(provider, gait, count, step, event_tol)
        # its planned rows, knots and switch rows included, may still not fit
        if batch and size + (len(plan[4]) - 1) * count > MAX_STEPS:
            yield from _finish(provider, batch, step, event_tol)
            batch, size = [], 0
        batch.append(plan)
        size += (len(plan[4]) - 1) * count
    if batch:
        yield from _finish(provider, batch, step, event_tol)


def _sample(gait, ts, side: str = "right"):
    """Shapes and rates at times ts, without numpy's overflow warnings; the stage rates are checked before use."""
    with np.errstate(over="ignore", invalid="ignore"):
        return gait.evaluate_many(ts, side)


# a step cut closer than this, relative to a period over 1, to a knot or a cycle end yields to it
_MERGE_TOL = 1e-12


def _step_grid(period: float, h: float, n_steps: int, knots) -> np.ndarray:
    """One cycle's grid times: 0, then the step cuts and knots in order, then the period.

    A cut within merge_tol of a knot, of 0 or of the period yields to it, so
    every knot is a grid time.  Cuts are h >= period / MAX_STEPS apart, over
    merge_tol for any period from 1e-6 up, so cuts are never merged together.
    """
    merge_tol = _MERGE_TOL * max(1.0, period)
    cuts = np.arange(1, n_steps) * h
    starts, ends = np.append(0.0, knots), np.append(knots, period)
    # the knot or cycle end on either side of each cut
    k = np.searchsorted(ends, cuts)
    keep = (cuts - starts[k] > merge_tol) & (ends[k] - cuts > merge_tol)
    grid = np.concatenate([starts, cuts[keep], [period]])
    # a knot-free grid is in order already; not sorting it spares a smooth
    # run the 128 KB of resident memory numpy's first sort call maps in
    return np.sort(grid) if len(knots) else grid


def _plan(provider, gait, cycles: int, step: float, event_tol: float):
    """(gait, cycles, n_steps, h, t, row_codes, switch_rows, events, sampled) of one cycle; step j: t[j] to t[j + 1].

    Step j runs on stance provider.catalog[row_codes[j]]; the plan reads
    stance codes alone.  switch_rows marks the rows a switch adds to the grid.
    With no switch, sampled is the shapes and rates at t and the step
    midpoints, else None.
    """
    period = gait.period
    n_steps = steps_per_cycle(period, step, cycles)
    h = period / n_steps

    def code(ts) -> np.ndarray:
        """Codes of the stances selected at times ts, in one provider call."""
        return provider.contacts_many(_sample(gait, ts)[0])

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
            c = code(mid[k])
            same = c == c_lo[k]
            lo[k[same]] = mid[k[same]]
            hi[k[~same]], c_hi[k[~same]] = mid[k[~same]], c[~same]

    # Waypoint knots are rate corners; a stage sampled across one would cost
    # the scheme its order, so every knot is a grid time.  Each row is sampled
    # at its own time: the period end's phase is exactly 0.
    g = _step_grid(period, h, n_steps, np.asarray(getattr(gait, "times", ()), dtype=float)[1:-1])
    # code every grid point, then every step midpoint, in one call.  A step
    # ends on the stance its end point selects, and only a step whose
    # midpoint or end leaves its start's stance is searched for switches
    n = len(g) - 1
    g_mid = g[:-1] + 0.5 * (g[1:] - g[:-1])
    sampled = _sample(gait, np.concatenate([g, g_mid]))
    codes = provider.contacts_many(sampled[0])
    c0, c1, c_mid = codes[:n], codes[1:n + 1], codes[n + 1:]
    j = np.flatnonzero((c1 != c0) | (c_mid != c0))
    t0, t1, t_mid, active, c1, c_mid = g[j], g[j + 1], g_mid[j], c0[j], c1[j], c_mid[j]
    t, row_codes, switch_rows = g, codes[:n + 1], np.zeros(n + 1, dtype=bool)
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
        c_mid = code(t_mid) if len(t0) else active
        searched = (c_mid != active) | (c1 != active)
        t0, t1, t_mid, active, c1, c_mid = (x[searched] for x in (t0, t1, t_mid, active, c1, c_mid))
    events = []
    if found:
        ev_t, ev_lo, before, after, rest = map(np.concatenate, zip(*found))
        # a switch row lies strictly inside its step, so a time sort orders the rows
        t, row_codes = np.append(t, ev_t[rest]), np.append(row_codes, after[rest])
        order = np.argsort(t, kind="stable")
        t, row_codes, switch_rows = t[order], row_codes[order], order > n
        order = np.argsort(ev_t, kind="stable")
        catalog = provider.catalog
        ev = [x[order].tolist() for x in (ev_t, ev_lo, before, after)] + [_sample(gait, ev_t[order])[0]]
        events = [EventRecord(t_e, catalog[b], catalog[a], r, (lo_e, t_e)) for t_e, lo_e, b, a, r in zip(*ev)]
        # a switch row after the first of its step marks a step holding several;
        # later cycles copy the first one's rows, so only the first cycle warns
        late = len(found[0][0])
        for t_switch in np.sort(ev_t[late:][rest[late:]]).tolist():
            warnings.warn(
                f"multiple stance switches inside one step near t={t_switch:.6g}; splitting at each switch",
                RuntimeWarning,
            )
    return [gait, cycles, n_steps, h, t, row_codes, switch_rows, events, None if found else sampled]


def _finish(provider, plans, step, event_tol) -> list:
    """Evaluate and combine one cycle of each planned gait, each array pass over the rows of all of them.

    A gait is periodic, so its last row (shape, stance, twist) is its first
    row's, and its trajectory takes its cycle's step-start rows its plan's
    `cycles` times, then its first row; its pose chain repeats the cycle's
    increments as often.  Each plan's sampled is popped as its stages are laid out.
    """
    # -- evaluate: of N steps in all, step k has stages 3k, 3k + 1, 3k + 2 (start,
    # midpoint, end, on its start's stance; the end takes the left-limit rate, as a
    # step end may be a waypoint corner).  Gait i's stages are lo[i]:hi[i].
    n = np.array([len(t) - 1 for _, _, _, _, t, *_ in plans])
    hi = 3 * np.cumsum(n)
    lo = hi - 3 * n
    stage_times = np.empty(hi[-1])
    stage_shapes, stage_rates = np.empty((2, len(stage_times), plans[0][0].dim))
    codes = np.empty(len(stage_times) // 3, dtype=np.int32)
    for plan, a, b, k in zip(plans, lo, hi, n):
        sampled = plan.pop()
        gait, _, _, _, t, row_codes, *_ = plan
        # each gait is sampled at its rows and midpoints once, by its plan if it
        # had no switch; an end row is a row's sample, except at a waypoint knot
        # or the period end, where a waypoint gait's left limit differs from it
        times = np.concatenate([t, t[:-1] + 0.5 * (t[1:] - t[:-1])])
        shapes, rates = _sample(gait, times) if sampled is None else sampled
        # step j's start, midpoint and end are rows j, k + 1 + j and j + 1 of times
        rows = (np.arange(k)[:, None] + [0, k + 1, 1]).ravel()
        stage_times[a:b], stage_shapes[a:b], stage_rates[a:b] = times[rows], shapes[rows], rates[rows]
        knots = getattr(gait, "times", ())
        if len(knots):
            at = a + 3 * np.searchsorted(t, knots[1:]) - 1
            stage_shapes[at], stage_rates[at] = _sample(gait, stage_times[at], "left")
        codes[a // 3:b // 3] = row_codes[:-1]
    del times, shapes, rates, sampled, rows
    _require_finite(np.isfinite(stage_rates).all(axis=1), "shape rate", stage_times, stage_shapes)
    # rows evaluated: every step start, every midpoint, and each end whose stance or shape
    # bits (-0.0 is not 0.0) differ from its gait's next start's (the last step's is the first)
    steps = len(codes)
    nxt = np.arange(1, steps + 1)
    nxt[hi // 3 - 1] = lo // 3
    extra = (codes != codes[nxt]) | (stage_shapes[2::3].view(np.int64) != stage_shapes[::3][nxt].view(np.int64)).any(1)
    rows = (np.s_[:steps], np.s_[steps:2 * steps], np.where(extra, 2 * steps + np.cumsum(extra) - 1, nxt))
    nodes = np.concatenate([stage_shapes[::3], stage_shapes[1::3], stage_shapes[2::3][extra]])
    conn = connection_by_stance(provider, nodes, np.concatenate([codes, codes, codes[extra]]))
    finite = np.isfinite(conn).all(axis=(1, 2))
    _require_finite(np.stack([finite[at] for at in rows], axis=1).ravel(), "connection", stage_times, stage_shapes)
    # Each array pass from here on is checked for finiteness right after it,
    # so an overflow aborts with SingularConstraint and numpy's warning is
    # not printed.
    with np.errstate(over="ignore", invalid="ignore"):
        # one row per stage, each bitwise its own A @ rdot; only the ends gather their rows
        stage_twists = np.empty((len(stage_times), 3))
        for i, at in enumerate(rows):
            stage_twists[i::3] = (conn[at] @ stage_rates[i::3, :, None])[:, :, 0]
        _require_finite(np.isfinite(stage_twists).all(axis=1), "stage twist", stage_times, stage_shapes)
        # a finite twist's squares can still overflow
        vx, vy, om = stage_twists.T
        norms = np.sqrt(vx * vx + vy * vy + om * om)
        _require_finite(np.isfinite(norms), "twist norm", stage_times, stage_shapes)
    # each gait's own largest norm and count of evaluated rows
    tops = np.maximum.reduceat(norms, lo).tolist()
    counts = (2 * n + np.add.reduceat(extra, lo // 3, dtype=int)).tolist()
    del nodes, conn, finite, codes, rows, stage_rates, norms

    # -- combine: every step's exponent and increment in array passes, and
    # the pose products of all gaits in one compose_chain call.  Finite
    # twists can still combine into an overflowing exponent or pose; a step
    # is named by its start's time and shape.
    with np.errstate(over="ignore", invalid="ignore"):
        lengths = np.concatenate([t[1:] - t[:-1] for _, _, _, _, t, *_ in plans])
        u = _rkmk4_exponents(lengths, *(stage_twists[i::3].T for i in range(3)))
        # the step starts' shapes and twists, copied so the stage arrays can be freed
        start_shapes, start_twists = stage_shapes[::3].copy(), stage_twists[::3].copy()
        _require_finite(np.isfinite(u).all(axis=0), "step exponent", stage_times[::3], start_shapes)
        del stage_times, stage_shapes, stage_twists
        # a gait's chain takes its cycle's increments `cycles` times; a shorter
        # chain ends in identity steps, which leave its poses as they are
        reps = np.array([plan[1] for plan in plans])
        chains = reps * n
        repeat = np.s_[:]
        if (reps > 1).any():
            repeat = np.concatenate([a + np.arange(m) % k for a, k, m in zip(lo // 3, n, chains)])
        increments = np.zeros((3, len(n), chains.max()))
        increments[:, np.arange(chains.max()) < chains[:, None]] = exp_many(u)[:, repeat]
        poses = compose_chain(increments)
    out = []
    for plan, g, a, k, top, m in zip(plans, poses.swapaxes(0, 1), lo // 3, n, tops, counts):
        gait, cycles, n_steps, h, t, row_codes, switch_rows, events = plan
        g = np.ascontiguousarray(g[:, :cycles * k + 1])
        # the step-start rows `cycles` times, then the first row, which closes the cycle
        rows = np.arange(cycles * k + 1) % k
        shapes, twists = start_shapes[a + rows], start_twists[a + rows]
        contacts = list(map(provider.catalog.__getitem__, row_codes[rows].tolist()))
        if cycles > 1:
            # cycle c's rows and events are the first cycle's, at times c * period + t
            offsets = np.arange(cycles) * gait.period
            t = np.append((t[:-1] + offsets[:, None]).ravel(), cycles * gait.period)
            # a switch row rounded onto a neighbour's time steps off it float by float, away from it
            switch_rows = np.append(np.tile(switch_rows[:-1], cycles), False)
            while len(up := np.flatnonzero(switch_rows[1:] & (t[1:] <= t[:-1]))):
                t[up + 1] = np.nextafter(t[up], np.inf)
            while len(down := np.flatnonzero(switch_rows[:-1] & (t[:-1] >= t[1:]))):
                t[down] = np.nextafter(t[down + 1], -np.inf)
            events = [EventRecord(e.time + c, e.before, e.after, e.shape, (e.window[0] + c, e.window[1] + c))
                      for c in offsets.tolist() for e in events]
        # a non-finite coordinate stays non-finite under the product (theta is
        # wrapped and stays finite), so the last pose tells whether any pose is
        if not np.isfinite(g[:2, -1]).all():
            _require_finite(np.isfinite(g[:2]).all(axis=0), "pose", t, shapes)
        meta = {"scheme": "rkmk4", "order": 4, "step_nominal": float(step), "step": float(h),
                "steps_per_cycle": int(n_steps), "cycles": int(cycles), "period": float(gait.period),
                "event_tol": float(event_tol), "max_twist_norm": float(top), "stage_shapes": int(m)}
        out.append(Trajectory(t, g, shapes, twists, contacts, events, list(range(0, cycles * k + 1, k)), meta))
    return out


def pose_increments(traj: Trajectory, a, b) -> np.ndarray:
    """Exponents log(g_a^-1 g_b) over paired indices or slices a, b of traj.poses, as (3, n)."""
    g = traj.pose_array
    return log_many(compose_many(inverse_many(g[:, a]), g[:, b]))


def net_displacement(traj: Trajectory) -> Twist:
    """Per-cycle displacement exponent log(g(0)^-1 g(T)).

    The trajectory must span at least one full cycle; the first cycle's
    increment is returned (later cycles repeat its steps, so theirs agree up
    to the rounding of the pose products, see per_cycle_displacements).
    """
    return per_cycle_displacements(traj)[0]


def per_cycle_displacements(traj: Trajectory) -> list[Twist]:
    """Displacement exponent of each completed cycle."""
    idx = traj.cycle_indices
    if len(idx) < 2:
        raise ValueError("trajectory does not span a full cycle")
    return [Twist(*u) for u in pose_increments(traj, idx[:-1], idx[1:]).T.tolist()]
