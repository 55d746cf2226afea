"""One-at-a-time references for the batched library paths.

Pointwise gives a provider defined one shape at a time its batched calls;
reference_plan is the one-switch-at-a-time stance-switch search.
"""

import warnings

import numpy as np

from locomech.integrator import EventRecord, steps_per_cycle


class Pointwise:
    """connection_many and contacts_many for a provider that defines connection_at and contacts_at."""

    def connection_many(self, label, shapes):
        return np.stack([self.connection_at(r) for r in shapes])

    def contacts_many(self, shapes):
        return [self.contacts_at(r) for r in shapes]


def reference_plan(provider, gait, cycles, step, event_tol):
    """The one-at-a-time stance-switch search: times, contacts and events of an integration.

    Each step whose midpoint or end leaves its start's stance is split at its
    switches one step at a time, and each switch is located by bisection
    with one single-time gait sample and one single-row label per midpoint.
    The integrator locates every switch together; it must give the same
    bits.
    """
    period = gait.period
    n_steps = steps_per_cycle(period, step, cycles)
    h = period / n_steps

    def sample(ts, side: str = "right"):
        with np.errstate(over="ignore", invalid="ignore"):
            return gait.evaluate_many(ts, side)

    def shape_and_label(t: float):
        """Shape at t and the stance selected there, one row at a time."""
        r = sample([t])[0]
        return r[0], provider.contacts_many(r)[0]

    times: list[float] = []
    contacts: list = []
    events: list[EventRecord] = []
    cycle_indices = [0]

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
        while len(grid) > 1 and end - grid[-1] <= merge_tol:
            grid.pop()
        grid.append(end)
        n = len(grid) - 1
        g = np.array(grid)
        labels = provider.contacts_many(sample(np.concatenate([g, g[:-1] + 0.5 * np.diff(g)]))[0])
        if k == 0:
            times.append(grid[0])
            contacts.append(labels[0])
        for j in range(n):
            if not labels[j] == labels[j + 1] == labels[n + 1 + j]:
                split(grid[j], grid[j + 1], labels[j])
            times.append(grid[j + 1])
            contacts.append(labels[j + 1])
        cycle_indices.append(len(times) - 1)
    return times, contacts, events, cycle_indices
