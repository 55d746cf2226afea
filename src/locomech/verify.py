"""Named invariant suites runnable against any scenario.

Each suite turns one conservation or consistency property into a few
numeric checks: a measured value, the threshold it must stay under, and
the resulting verdict.  Suites reuse the scenario's model, gait, and
integrator settings so a failing row points at a concrete configuration.
A suite is a function of the scenario and of the runs it reads: base, the
scenario's gait over the scenario's cycles, and one cycle of that gait
reversed or retimed.  One verify run integrates every run its suites read
in one integrate_gaits call, when the first suite that reads a run is
reached.  Later cycles repeat the first one's step increments, so the
one-cycle suites read base's first cycle, which is bitwise a one-cycle run.
The retimed run retimes a Fourier gait exactly (SmoothstepGait, run at the
scenario's step) and a waypoint gait through reparameterize, so neither
moves the path.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ._numerics import _uniforms
from ._record import FrozenRecord
from .connection import _balance_scale, _finite_rows, _max_abs, linear_constraint_connection
from .integrator import integrate_gaits, net_displacement, pose_increments
from .liegroup import compose, log
from .shapespace import FourierGait, SmoothstepGait, reparameterize, reversed_gait, smoothstep


class VerifyCheck(FrozenRecord):
    def __init__(self, suite: str, check: str, value: float, threshold: float, passed: bool) -> None:
        self.__dict__.update(suite=suite, check=check, value=value, threshold=threshold, passed=passed)


def _check(suite: str, check: str, value: float, threshold: float) -> VerifyCheck:
    value = float(value)
    threshold = float(threshold)
    return VerifyCheck(suite, check, value, threshold, bool(value <= threshold))


def _suite_loop_closure(scenario, base):
    return [_check("loop_closure", "log_final_pose", log(base.poses[base.cycle_indices[1]]).norm(), 1e-8)]


def _suite_single_piece(scenario, base):
    events = sum(e.time <= base.times[base.cycle_indices[1]] for e in base.events)
    return [
        _check("single_piece", "net_displacement", net_displacement(base).norm(), 1e-8),
        _check("single_piece", "event_count", float(events), 0.0),
    ]


def _suite_reversal(scenario, base, backward):
    forward = base.poses[base.cycle_indices[1]]
    return [
        _check("reversal", "log_roundtrip_pose", log(compose(forward, backward.poses[-1])).norm(), 1e-8)
    ]


def _suite_pacing(scenario, base, warped):
    gap = net_displacement(base) - net_displacement(warped)
    return [_check("pacing", "retimed_displacement_gap", gap.norm(), 1e-7)]


def _suite_continuity(scenario, base):
    vx, vy, om = pose_increments(base, slice(None, -1), slice(1, None))
    worst = float(np.sqrt(vx * vx + vy * vy + om * om).max(initial=0.0))
    bound = base.meta["max_twist_norm"] * base.meta["step"] * (1.0 + 1e-9)
    return [_check("continuity", "max_pose_increment", worst, bound)]


def _suite_residual(scenario):
    builder = scenario.constraint_builder
    if builder is None:
        raise ValueError("residual suite needs a constraint-based model")
    count, box = scenario.verify["shapes"], scenario.verify["box"]
    # numpy's default_rng(seed).uniform(-box, box, (count, dim)), bitwise: the
    # seed's PCG64 stream in row-major order, scaled as uniform scales it
    lo, hi = -float(box), float(box)
    shapes = lo + (hi - lo) * _uniforms(scenario.seed, count * scenario.dim).reshape(count, scenario.dim)
    # only a single-stance ConstraintConnection has a builder, so these are its balances
    system = builder(shapes)
    a = _finite_rows(linear_constraint_connection(system), shapes)
    worst = (_max_abs(system.m @ a + system.n) / _balance_scale(system.m, system.n, a)).max()
    return [_check("residual", "constraint_balance", worst, 1e-10)]


def _retimed(gait):
    # the connection is linear in the shape rate, so a retimed cycle moves the
    # body as far.  A waypoint gait keeps its vertices and maps its knots
    if isinstance(gait, FourierGait):
        return SmoothstepGait(gait)
    return reparameterize(gait, partial(smoothstep, period=gait.period))


# each run a suite may read, as its gait and cycle count
_RUNS = {
    "base": lambda scenario: (scenario.gait, scenario.cycles),
    "reversed": lambda scenario: (reversed_gait(scenario.gait), 1),
    "warped": lambda scenario: (_retimed(scenario.gait), 1),
}

# each suite's function of the scenario and the runs it reads, and those runs
SUITES = {
    "loop_closure": (_suite_loop_closure, ("base",)),
    "single_piece": (_suite_single_piece, ("base",)),
    "reversal": (_suite_reversal, ("base", "reversed")),
    "pacing": (_suite_pacing, ("base", "warped")),
    "continuity": (_suite_continuity, ("base",)),
    "residual": (_suite_residual, ()),
}


def run_verify(scenario) -> list[VerifyCheck]:
    """Run the scenario's selected suites and collect all check rows; ScenarioError without a verify block."""
    suites = [SUITES[name] for name in scenario.block("verify")["suites"]]
    names = list(dict.fromkeys(run for _, runs in suites for run in runs))
    trajectories = {}
    rows: list[VerifyCheck] = []
    for suite, runs in suites:
        if runs and not trajectories:
            # every run the suites read, integrated together when the first suite that reads one is reached
            gaits, cycles = zip(*(_RUNS[name](scenario) for name in names))
            trajectories = dict(zip(names, integrate_gaits(
                scenario.provider, gaits, cycles, scenario.step, scenario.event_tol)))
        rows.extend(suite(scenario, *map(trajectories.get, runs)))
    return rows
