"""One-at-a-time references for the batched library paths.

Pointwise gives a provider defined one shape at a time its batched calls;
reference_plan is the one-switch-at-a-time stance-switch search over one
cycle, on the step grid of reference_cycle_grid; reference_compose_chain is the
pose product as one float loop; reference_nelder_mead runs the optimizer's
restarts one after another.
"""

import math
import warnings

import numpy as np

from locomech.integrator import EventRecord, steps_per_cycle
from locomech.liegroup import normalize_angle
from locomech.optimizer import OptimizationReport


class Pointwise:
    """connection_many and contacts_many for a provider that defines connection_at and contacts_at.

    contacts_at returns a label of catalog, (None,) unless a subclass names its own.
    """

    catalog = (None,)

    def connection_many(self, label, shapes):
        return np.stack([self.connection_at(r) for r in shapes])

    def contacts_many(self, shapes):
        return np.array([self.catalog.index(self.contacts_at(r)) for r in shapes], dtype=int)


def reference_cycle_grid(period, h, n_steps, knots) -> list:
    """Grid times of one cycle: 0, the step cuts and knots in order, then the period, one cut at a time.

    A cut within merge_tol of a knot, of 0 or of the period is dropped.
    """
    merge_tol = 1e-12 * max(1.0, period)
    fixed = [0.0, *knots, period]
    cuts = [j * h for j in range(1, n_steps)]
    return sorted(fixed + [t for t in cuts if all(abs(t - f) > merge_tol for f in fixed)])


def reference_plan(provider, gait, step, event_tol):
    """The one-at-a-time stance-switch search over one cycle: its times, contacts and events.

    Each step whose midpoint or end leaves its start's stance is split at its
    switches one step at a time, and each switch is located by bisection
    with one single-time gait sample and one single-row label per midpoint.
    The integrator locates every switch together; its first cycle must give
    the same bits.
    """
    period = gait.period
    n_steps = steps_per_cycle(period, step)
    h = period / n_steps

    def sample(ts, side: str = "right"):
        with np.errstate(over="ignore", invalid="ignore"):
            return gait.evaluate_many(ts, side)

    def shape_and_label(t: float):
        """Shape at t and the stance selected there, one row at a time."""
        r = sample([t])[0]
        return r[0], provider.catalog[provider.contacts_many(r)[0]]

    events: list[EventRecord] = []

    def locate_switch(t0: float, t1: float, c0):
        """First time in (t0, t1] whose selected stance differs from c0."""
        lo, hi = t0, t1
        while hi - lo > event_tol:
            mid = 0.5 * (lo + hi)
            # lo and hi are adjacent floats: a tolerance below their spacing
            # cannot be met, so the bracket is as tight as it gets
            if mid == lo or mid == hi:
                break
            if shape_and_label(mid)[1] == c0:
                lo = mid
            else:
                hi = mid
        return lo, hi

    def split(t0: float, t1: float, active) -> None:
        """Cut step [t0, t1], which starts on stance `active`, at each switch: an event, and a row before t1."""
        splits = 0
        while True:
            # check the midpoint too: a stance entered and left inside one
            # step would be invisible to an endpoint-only comparison
            t_mid = t0 + 0.5 * (t1 - t0)
            c_mid = shape_and_label(t_mid)[1]
            if c_mid == active and shape_and_label(t1)[1] == active:
                return
            lo, t_switch = locate_switch(t0, t_mid if c_mid != active else t1, active)
            r_switch, new_piece = shape_and_label(t_switch)
            events.append(
                EventRecord(
                    time=t_switch,
                    before=active,
                    after=new_piece,
                    shape=r_switch,
                    window=(lo, t_switch),
                )
            )
            if t_switch >= t1:
                return
            times.append(t_switch)
            contacts.append(new_piece)
            active = new_piece
            if splits > 0:
                warnings.warn(
                    f"multiple stance switches inside one step near t={t_switch:.6g}; "
                    "splitting at each switch",
                    RuntimeWarning,
                    stacklevel=2,
                )
            splits += 1
            t0 = t_switch

    knot_times = getattr(gait, "times", None)
    interior_knots = [] if knot_times is None else [float(t) for t in knot_times[1:-1]]
    grid = reference_cycle_grid(period, h, n_steps, interior_knots)
    n = len(grid) - 1
    g = np.array(grid)
    codes = provider.contacts_many(sample(np.concatenate([g, g[:-1] + 0.5 * np.diff(g)]))[0])
    labels = [provider.catalog[c] for c in codes.tolist()]
    times, contacts = [grid[0]], [labels[0]]
    for j in range(n):
        if not labels[j] == labels[j + 1] == labels[n + 1 + j]:
            split(grid[j], grid[j + 1], labels[j])
        times.append(grid[j + 1])
        contacts.append(labels[j + 1])
    return times, contacts, events


def reference_compose_chain(increments) -> np.ndarray:
    """The running pose product as one plain-float loop of compose's expressions, as (3, n + 1)."""
    x = y = th = 0.0
    xs, ys, ths = [x], [y], [th]
    for ix, iy, ith in zip(*np.asarray(increments, dtype=float).tolist()):
        c, s = math.cos(th), math.sin(th)
        x, y, th = x + c * ix - s * iy, y + s * ix + c * iy, normalize_angle(th + normalize_angle(ith))
        xs.append(x)
        ys.append(y)
        ths.append(th)
    return np.array([xs, ys, ths])


def reference_nelder_mead(objective, lower, upper, budget=500, seeds=4, rng_seed=0) -> OptimizationReport:
    """Restarted projected Nelder-Mead with one restart after another, one objective call per point.

    The optimizer runs its restarts in lockstep; it must give the same
    history, best point, evaluation count and termination.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    dim = lower.shape[0]
    if budget < dim + 1:
        raise ValueError(f"budget {budget} cannot even build one simplex in {dim} dims")
    if seeds < 1:
        raise ValueError("need at least one restart seed")
    span = upper - lower

    history = []
    best_p = None
    best_v = float("-inf")
    used = 0
    termination = "budget"

    def project(p):
        return np.clip(p, lower, upper)

    def evaluate(p):
        nonlocal used, best_p, best_v
        v = float(objective(p))
        used += 1
        history.append((p.copy(), v))
        if v > best_v:
            best_v, best_p = v, p.copy()
        return v

    per_seed = budget // seeds
    for s in range(seeds):
        remaining = budget - used
        if remaining < dim + 1:
            break
        allowance = min(per_seed if s < seeds - 1 else remaining, remaining)
        rng = np.random.default_rng((rng_seed, s))
        x0 = lower + span * rng.uniform(size=dim)
        simplex = [project(x0)]
        for i in range(dim):
            step = np.zeros(dim)
            step[i] = 0.1 * span[i] * (1.0 if x0[i] + 0.1 * span[i] <= upper[i] else -1.0)
            simplex.append(project(x0 + step))
        simplex = np.stack(simplex)
        values = np.array([evaluate(p) for p in simplex])
        spent = dim + 1

        while spent < allowance:
            order = np.argsort(values)[::-1]  # descending: maximizing
            simplex, values = simplex[order], values[order]
            if np.max(np.abs(simplex - simplex[0])) < 1e-12:
                termination = "converged"
                break
            centroid = simplex[:-1].mean(axis=0)
            worst = simplex[-1]
            reflected = project(centroid + (centroid - worst))
            fr = evaluate(reflected)
            spent += 1
            if fr > values[0]:
                if spent < allowance:
                    expanded = project(centroid + 2.0 * (centroid - worst))
                    fe = evaluate(expanded)
                    spent += 1
                    if fe > fr:
                        simplex[-1], values[-1] = expanded, fe
                        continue
                simplex[-1], values[-1] = reflected, fr
                continue
            if fr > values[-2]:
                simplex[-1], values[-1] = reflected, fr
                continue
            contracted = project(centroid + 0.5 * (worst - centroid))
            if spent >= allowance:
                break
            fc = evaluate(contracted)
            spent += 1
            if fc > values[-1]:
                simplex[-1], values[-1] = contracted, fc
                continue
            for i in range(1, dim + 1):
                if spent >= allowance:
                    break
                simplex[i] = project(simplex[0] + 0.5 * (simplex[i] - simplex[0]))
                values[i] = evaluate(simplex[i])
                spent += 1

    return OptimizationReport(
        best_params=best_p, best_value=best_v, evaluations=used, history=history, termination=termination
    )
