"""Named invariant suites runnable against any scenario.

Each suite turns one conservation or consistency property into a few
numeric checks: a measured value, the threshold it must stay under, and
the resulting verdict.  Suites reuse the scenario's model, gait, and
integrator settings so a failing row points at a concrete configuration.
One verify run integrates the scenario's own gait once, over the
scenario's cycles, and every suite that needs it shares that run.  Later
cycles repeat the first one's step increments, so the one-cycle suites read
its first cycle, which is bitwise a one-cycle run.  The pacing
suite retimes a Fourier gait exactly (SmoothstepGait, run at the scenario's
step) and a waypoint gait through reparameterize, so neither moves the path.
"""

from __future__ import annotations

from functools import cache, partial

import numpy as np

from ._numerics import _uniforms
from ._record import FrozenRecord
from .connection import SingularConstraint, _balance_scale, _max_abs, linear_constraint_connection
from .integrator import integrate_gait, net_displacement, pose_increments
from .liegroup import compose, log
from .shapespace import FourierGait, SmoothstepGait, reparameterize, reversed_gait, smoothstep


class VerifyCheck(FrozenRecord):
    def __init__(self, suite: str, check: str, value: float, threshold: float, passed: bool) -> None:
        self.__dict__.update(suite=suite, check=check, value=value, threshold=threshold, passed=passed)


def _check(suite: str, check: str, value: float, threshold: float) -> VerifyCheck:
    value = float(value)
    threshold = float(threshold)
    return VerifyCheck(suite, check, value, threshold, bool(value <= threshold))


def _integrate(scenario, cycles, gait=None):
    return integrate_gait(
        scenario.provider,
        scenario.gait if gait is None else gait,
        cycles=cycles,
        step=scenario.step,
        event_tol=scenario.event_tol,
    )


def _suite_loop_closure(scenario, base):
    traj = base()
    return [_check("loop_closure", "log_final_pose", log(traj.poses[traj.cycle_indices[1]]).norm(), 1e-8)]


def _suite_single_piece(scenario, base):
    traj = base()
    events = sum(e.time <= traj.times[traj.cycle_indices[1]] for e in traj.events)
    return [
        _check("single_piece", "net_displacement", net_displacement(traj).norm(), 1e-8),
        _check("single_piece", "event_count", float(events), 0.0),
    ]


def _suite_reversal(scenario, base):
    traj = base()
    forward = traj.poses[traj.cycle_indices[1]]
    backward = _integrate(scenario, 1, reversed_gait(scenario.gait)).poses[-1]
    return [
        _check("reversal", "log_roundtrip_pose", log(compose(forward, backward)).norm(), 1e-8)
    ]


def _suite_pacing(scenario, base):
    # the connection is linear in the shape rate, so a retimed cycle moves the
    # body as far.  A waypoint gait keeps its vertices and maps its knots
    gait = scenario.gait
    if isinstance(gait, FourierGait):
        warped_gait = SmoothstepGait(gait)
    else:
        warped_gait = reparameterize(gait, partial(smoothstep, period=gait.period))
    shift = net_displacement(base())
    warped = net_displacement(_integrate(scenario, 1, warped_gait))
    return [_check("pacing", "retimed_displacement_gap", (shift - warped).norm(), 1e-7)]


def _suite_continuity(scenario, base):
    traj = base()
    vx, vy, om = pose_increments(traj, slice(None, -1), slice(1, None))
    worst = float(np.sqrt(vx * vx + vy * vy + om * om).max(initial=0.0))
    bound = traj.meta["max_twist_norm"] * traj.meta["step"] * (1.0 + 1e-9)
    return [_check("continuity", "max_pose_increment", worst, bound)]


def _suite_residual(scenario, base):
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
    a = linear_constraint_connection(system)
    bad = ~np.isfinite(a).all(axis=(1, 2))
    if bad.any():
        raise SingularConstraint(f"non-finite connection at shape {shapes[bad.argmax()].tolist()}")
    worst = (_max_abs(system.m @ a + system.n) / _balance_scale(system.m, system.n, a)).max()
    return [_check("residual", "constraint_balance", worst, 1e-10)]


SUITES = {
    "loop_closure": _suite_loop_closure,
    "single_piece": _suite_single_piece,
    "reversal": _suite_reversal,
    "pacing": _suite_pacing,
    "continuity": _suite_continuity,
    "residual": _suite_residual,
}


def run_verify(scenario) -> list[VerifyCheck]:
    """Run the scenario's selected suites and collect all check rows; ScenarioError without a verify block."""
    # the scenario's own gait, integrated on first use
    base = cache(partial(_integrate, scenario, scenario.cycles))
    rows: list[VerifyCheck] = []
    for name in scenario.block("verify")["suites"]:
        rows.extend(SUITES[name](scenario, base))
    return rows
