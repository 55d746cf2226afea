"""Group integration of gait-driven motion: order, events, conservation laws."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from locomech import (
    ChainModel,
    DragModel,
    FourierGait,
    PiecewiseConnection,
    Pose,
    PoseMap,
    SingularConstraint,
    Trajectory,
    Twist,
    WaypointGait,
    apply,
    arm_com_pose_map,
    JacobianConnection,
    build_contact_map,
    compose,
    crawler_slip_model,
    exp,
    foot_position,
    integrate_gait,
    inverse,
    load_scenario,
    log,
    net_displacement,
    per_cycle_displacements,
    reparameterize,
    reversed_gait,
    three_link_swimmer,
    two_leg_crawler,
    wavy_pose_map,
)
from locomech.integrator import MAX_STEPS, pose_increments
from locomech.optimizer import amplitude_phase_family
from fuzzing import time_limit
from pointwise import Pointwise

TWO_PI = 2.0 * math.pi


class ExactFlow(Pointwise):
    """Provider whose integral curve is known in closed form.

    Along the unit-circle gait r(t) = (sin, -cos)(2 pi t) the body twist
    reproduces the pose path g(t) = (2.4 sin, 1.8 (1 - cos), 4.0 sin)(2 pi t),
    so every trajectory sample has an exact reference and the loop closes
    identically.
    """

    dim = 2

    def connection_at(self, r):
        r1, r2 = float(r[0]), float(r[1])
        th = 4.0 * r1
        c, s = math.cos(th), math.sin(th)
        xdot = 2.4 * TWO_PI * (-r2)
        ydot = 1.8 * TWO_PI * r1
        om = 4.0 * TWO_PI * (-r2)
        xi = np.array([c * xdot + s * ydot, -s * xdot + c * ydot, om])
        w = np.array([-r2, r1]) / (TWO_PI * (r1 * r1 + r2 * r2))
        return np.outer(xi, w)

    def contacts_at(self, r):
        return None

    @staticmethod
    def exact_pose(t):
        ang = TWO_PI * t
        return Pose(2.4 * math.sin(ang), 1.8 * (1.0 - math.cos(ang)), 4.0 * math.sin(ang))


CIRCLE = FourierGait(1.0, [0.0, 0.0], cos=[[0.0, -1.0]], sin=[[1.0, 0.0]])
CIRCLE_HALF = FourierGait(1.0, [0.0, 0.0], cos=[[0.0, -0.5]], sin=[[0.5, 0.0]])


def square_gait():
    return WaypointGait(
        points=[[0.6, 0.3], [-0.3, 0.6], [-0.6, -0.3], [0.3, -0.6]],
        times=[0.0, 0.25, 0.5, 0.75, 1.0],
    )


class ConstantColumn(Pointwise):
    dim = 1

    def connection_at(self, r):
        return np.array([[0.3], [-0.2], [0.5]])

    def contacts_at(self, r):
        return None


def test_constant_shape_stays_put():
    gait = FourierGait(1.0, [0.4, -0.2])
    traj = integrate_gait(JacobianConnection(wavy_pose_map()), gait, step=1e-2)
    for g in traj.poses:
        assert log(g).norm() < 1e-14


def test_constant_column_collinear_flow():
    # collinear stage twists commute: closure is exact and intermediate
    # poses follow exp(a (r(t) - r(0)))
    gait = FourierGait(1.0, [0.0], sin=[[0.4]])
    traj = integrate_gait(ConstantColumn(), gait, step=1e-3)
    assert log(traj.poses[-1]).norm() < 1e-12
    i = int(np.argmin(np.abs(traj.times - 0.25)))
    assert traj.times[i] == 0.25
    expected = exp(Twist(0.3 * 0.4, -0.2 * 0.4, 0.5 * 0.4))
    assert log(compose(inverse(expected), traj.poses[i])).norm() < 1e-10


def test_exact_flow_closure_and_order():
    # frozen closure errors 8.016e-6, 6.626e-10, 7.491e-14: slope 4.015
    errs = []
    for h in (1e-2, 1e-3, 1e-4):
        traj = integrate_gait(ExactFlow(), CIRCLE, step=h)
        errs.append(log(traj.poses[-1]).norm())
    assert errs[1] <= 1e-8
    slope = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(errs), 1)[0]
    assert 3.7 <= slope <= 4.3


def test_exact_flow_trajectory_wide():
    traj = integrate_gait(ExactFlow(), CIRCLE, step=1e-3)
    worst = 0.0
    for i in range(0, len(traj.times), 29):
        ref = ExactFlow.exact_pose(traj.times[i])
        worst = max(worst, log(compose(inverse(ref), traj.poses[i])).norm())
    assert worst < 1e-8


def test_crawler_events_match_analytic_switch():
    # the square gait crosses the stance boundary r1 = r2 at t = 1/16 and
    # t = 9/16, entering at shapes (0.375, 0.375) and (-0.375, -0.375)
    traj = integrate_gait(
        PiecewiseConnection(two_leg_crawler()), square_gait(), step=1e-3, event_tol=1e-10
    )
    assert len(traj.events) == 2
    first, second = traj.events
    assert abs(first.time - 0.0625) <= 1e-9
    assert first.before == frozenset({0}) and first.after == frozenset({1})
    np.testing.assert_allclose(first.shape, [0.375, 0.375], atol=1e-8)
    assert abs(second.time - 0.5625) <= 1e-9
    assert second.before == frozenset({1}) and second.after == frozenset({0})
    np.testing.assert_allclose(second.shape, [-0.375, -0.375], atol=1e-8)
    for e in traj.events:
        assert e.window[0] <= e.time <= e.window[1]
        assert e.window[1] - e.window[0] <= 1e-10 + 1e-15


def test_crawler_cycle_matches_piece_product():
    # within one stance the pose advances by F(r_in)^-1 F(r_out), so the
    # cycle displacement has a closed form through the two switch shapes
    crawler = two_leg_crawler()
    F0 = build_contact_map(crawler, {0})
    F1 = build_contact_map(crawler, {1})
    r0, rA, rB = np.array([0.6, 0.3]), np.array([0.375, 0.375]), np.array([-0.375, -0.375])
    exact = compose(
        compose(
            compose(inverse(F0(r0)), F0(rA)),
            compose(inverse(F1(rA)), F1(rB)),
        ),
        compose(inverse(F0(rB)), F0(r0)),
    )
    assert abs(exact.x - 0.4136260535196015) < 1e-14
    assert abs(exact.y + 0.6045955260355118) < 1e-14
    assert abs(exact.theta) < 1e-14
    traj = integrate_gait(PiecewiseConnection(crawler), square_gait(), step=1e-3)
    gap = log(compose(inverse(exact), traj.poses[-1])).norm()
    assert gap < 1e-8
    assert net_displacement(traj).norm() > 0.01


def test_single_piece_gait_is_immobile():
    # loop strictly inside stance {0}: exact holonomy is the identity
    gait = WaypointGait(
        points=[[0.5, -0.5], [0.8, 0.0], [0.2, -0.2]], times=[0.0, 0.4, 0.7, 1.0]
    )
    traj = integrate_gait(PiecewiseConnection(two_leg_crawler()), gait, step=1e-3)
    assert len(traj.events) == 0
    assert net_displacement(traj).norm() <= 1e-8


def test_continuity_bound_across_switches():
    traj = integrate_gait(PiecewiseConnection(two_leg_crawler()), square_gait(), cycles=10, step=1e-3)
    assert len(traj.events) == 20
    limit = traj.meta["max_twist_norm"] * traj.meta["step"] * (1.0 + 1e-9)
    for a, b in zip(traj.poses[:-1], traj.poses[1:]):
        assert log(compose(inverse(a), b)).norm() <= limit


def test_stance_foot_pinned_during_phase():
    crawler = two_leg_crawler()
    traj = integrate_gait(PiecewiseConnection(crawler), square_gait(), step=1e-4)
    drift = 0.0
    ref = None
    ref_piece = None
    for i in range(len(traj.times)):
        piece = traj.contacts[i]
        (foot,) = piece
        world = traj.poses[i].apply_point(foot_position(crawler, foot, traj.shapes[i]))
        if piece != ref_piece:
            ref, ref_piece = world, piece
        else:
            drift = max(drift, np.abs(world - ref).max())
    assert drift <= 1e-8


def test_swimmer_net_matches_fine_step_reference():
    # frozen from a step-2e-4 run; the step-1e-3 value sits 3e-13 away
    gait = amplitude_phase_family().build(np.array([0.6, 0.5 * math.pi]))
    traj = integrate_gait(three_link_swimmer().provider(), gait, step=1e-3)
    nd = net_displacement(traj)
    assert abs(nd.vx - 0.06369819325905401) < 1e-7
    assert abs(nd.vy - 0.010052766022113477) < 1e-7
    assert abs(nd.omega) < 1e-7


def test_net_displacement_trivial_cases():
    zero = FourierGait(1.0, [0.2, -0.1])
    traj = integrate_gait(JacobianConnection(wavy_pose_map()), zero, step=1e-2)
    assert net_displacement(traj).norm() < 1e-13
    hand = Trajectory(
        times=np.array([0.0, 1.0]),
        poses=[Pose(), Pose(0.1, 0.0, 0.0)],
        shapes=np.zeros((2, 1)),
        twists=np.zeros((2, 3)),
        contacts=[None, None],
        events=[],
        cycle_indices=[0, 1],
    )
    nd = net_displacement(hand)
    assert (nd.vx, nd.vy, nd.omega) == (0.1, 0.0, 0.0)


def test_net_displacement_needs_full_cycle():
    partial = Trajectory(
        times=np.array([0.0]),
        poses=[Pose()],
        shapes=np.zeros((1, 1)),
        twists=np.zeros((1, 3)),
        contacts=[None],
        events=[],
        cycle_indices=[0],
    )
    with pytest.raises(ValueError):
        net_displacement(partial)


def test_per_cycle_displacements_agree():
    gait = amplitude_phase_family().build(np.array([0.5, 1.1]))
    traj = integrate_gait(three_link_swimmer().provider(), gait, cycles=3, step=2e-3)
    per = per_cycle_displacements(traj)
    assert len(per) == 3
    for d in per[1:]:
        assert (d - per[0]).norm() < 1e-9


def test_path_reversal_cancels_every_provider():
    fourier = FourierGait(1.0, [0.1, -0.1], cos=[[0.4, 0.2]], sin=[[-0.3, 0.5]])
    cases = [
        (JacobianConnection(wavy_pose_map()), fourier),
        (three_link_swimmer().provider(), fourier),
        (crawler_slip_model().provider({0, 1}), fourier),
        (PiecewiseConnection(two_leg_crawler()), square_gait()),
    ]
    for provider, gait in cases:
        forward = integrate_gait(provider, gait, step=1e-3).poses[-1]
        backward = integrate_gait(provider, reversed_gait(gait), step=1e-3).poses[-1]
        assert log(compose(forward, backward)).norm() <= 1e-8


def test_pacing_invariance_under_cubic_warp():
    def cubic_warp(T):
        def w(t):
            u = t / T
            return T * (3.0 * u * u - 2.0 * u**3)

        return w

    swim_gait = amplitude_phase_family().build(np.array([0.6, 0.5 * math.pi]))
    cases = [
        (three_link_swimmer().provider(), swim_gait),
        (PiecewiseConnection(two_leg_crawler()), square_gait()),
    ]
    for provider, gait in cases:
        base = net_displacement(integrate_gait(provider, gait, step=1e-3))
        warped = reparameterize(gait, cubic_warp(gait.period), samples=4096)
        retimed = net_displacement(integrate_gait(provider, warped, step=1e-3))
        assert (base - retimed).norm() <= 1e-7


def test_trajectory_bookkeeping():
    traj = integrate_gait(ExactFlow(), CIRCLE, cycles=2, step=1e-2)
    assert np.all(np.diff(traj.times) > 0.0)
    assert traj.cycle_indices[0] == 0
    assert traj.times[traj.cycle_indices[1]] == pytest.approx(1.0, abs=1e-12)
    assert traj.meta["cycles"] == 2
    assert traj.meta["scheme"] == "rkmk4"
    assert traj.shapes.shape[0] == len(traj.times)
    assert traj.twists.shape == (len(traj.times), 3)


def test_input_validation():
    with pytest.raises(ValueError):
        integrate_gait(ExactFlow(), CIRCLE, cycles=0)
    with pytest.raises(ValueError):
        integrate_gait(ExactFlow(), CIRCLE, step=0.0)
    with pytest.raises(ValueError):
        integrate_gait(ExactFlow(), CIRCLE, event_tol=0.0)


@pytest.mark.parametrize("event_tol", [math.nan, math.inf])
def test_non_finite_event_tolerance_is_rejected(event_tol):
    # with either, hi - lo > event_tol is false at once: the bisection never
    # ran and the crawler's switches landed at step ends, whole-step windows
    with pytest.raises(ValueError, match="event tolerance"):
        integrate_gait(PiecewiseConnection(two_leg_crawler()), square_gait(), step=0.01, event_tol=event_tol)


def test_multi_switch_step_warns_and_recovers():
    # both stance changes of this smooth gait land inside the single step,
    # forcing the recursive split path
    gait = FourierGait(1.0, [0.0, 0.0], cos=[[0.0, 0.1]], sin=[[0.5, 0.0]])
    t1 = math.atan(0.2) / TWO_PI
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = integrate_gait(PiecewiseConnection(two_leg_crawler()), gait, step=1.0)
    assert len(traj.events) == 2
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)
    assert abs(traj.events[0].time - t1) <= 1e-9
    assert abs(traj.events[1].time - (t1 + 0.5)) <= 1e-9
    assert traj.events[0].before == frozenset({1})
    assert traj.events[0].after == frozenset({0})


class CountingProvider:
    """Single-piece provider wrapper that counts batched calls and shape rows."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.calls = 0
        self.rows = 0

    def connection_many(self, label, shapes):
        self.calls += 1
        self.rows += len(shapes)
        return self.inner.connection_many(label, shapes)

    def contacts_at(self, r):
        return self.inner.contacts_at(r)

    def contacts_many(self, shapes):
        return self.inner.contacts_many(shapes)


def test_smooth_integration_makes_two_evaluations_per_step():
    # a smooth gait's stage shapes are the n + 1 row shapes and the n step
    # midpoints: k2 and k3 share the midpoint, and a step's end shape is the
    # next step's start.  All of them go to the provider in one call, once
    # each; shapes repeat when the gait revisits them, since it reduces t
    # modulo its period (every cycle end is the shape at t = 0)
    provider = CountingProvider(three_link_swimmer().provider())
    gait = FourierGait(1.0, [0.0, 0.0], cos=[[0.0, -0.5]], sin=[[0.5, 0.0]])
    traj = integrate_gait(provider, gait, cycles=2, step=0.05)
    n = len(traj.times) - 1
    assert n == 40
    mids = traj.times[:-1] + 0.5 * np.diff(traj.times)
    distinct = {gait.evaluate(t)[0].tobytes() for t in np.concatenate([traj.times, mids])}
    assert provider.calls == 1
    assert provider.rows == len(distinct) == traj.meta["stage_shapes"]
    assert provider.rows <= 2 * n + 1


class LabelCounting(CountingProvider):
    """CountingProvider that also counts batched and single-shape label calls."""

    def __init__(self, inner):
        super().__init__(inner)
        self.label_batches = 0
        self.single_labels = 0

    def contacts_many(self, shapes):
        self.label_batches += 1
        return super().contacts_many(shapes)

    def contacts_at(self, r):
        self.single_labels += 1
        return super().contacts_at(r)


@pytest.mark.parametrize("cycles", [1, 3])
def test_smooth_integration_samples_the_gait_in_batches(cycles):
    # one gait batch and one label batch per cycle to plan, then three gait
    # batches for the stage rows; never a single-time or single-shape call
    calls = {"evaluate": 0, "evaluate_many": 0}

    class Counted(FourierGait):
        def evaluate(self, t, side="right"):
            calls["evaluate"] += 1
            return super().evaluate(t, side)

        def evaluate_many(self, times, side="right"):
            calls["evaluate_many"] += 1
            return super().evaluate_many(times, side)

    provider = LabelCounting(three_link_swimmer().provider())
    gait = Counted(1.0, [0.0, 0.0], cos=[[0.0, -0.5]], sin=[[0.5, 0.0]])
    traj = integrate_gait(provider, gait, cycles=cycles, step=0.05)
    assert len(traj.times) == 20 * cycles + 1
    assert calls["evaluate"] == 0
    assert calls["evaluate_many"] <= cycles + 3
    assert provider.label_batches <= cycles + 1
    assert provider.single_labels == 0


def test_one_smooth_cycle_evaluates_two_shapes_per_step():
    # 2n + 1 stage times, less the cycle end, whose shape is the one at t = 0
    gait = amplitude_phase_family().build(np.array([0.6, 0.5 * math.pi]))
    for step in (0.1, 0.03, 0.02):
        traj = integrate_gait(three_link_swimmer().provider(), gait, step=step)
        assert traj.meta["stage_shapes"] == 2 * (len(traj.times) - 1)


def test_crawler_square_stage_shapes_match_hand_count():
    # one cycle: every step adds its start and midpoint shapes.  Its end
    # shape is the next step's start (the corners are exact binary
    # fractions, so both one-sided shapes at a knot agree), except where a
    # switch ends the step: there the old stance needs the shape as well.
    # The cycle end is the shape at t = 0 on the same stance.
    gait = WaypointGait(
        points=[[-0.375, -0.375], [0.375, -0.375], [0.375, 0.375], [-0.375, 0.375]],
        times=[0.0, 0.25, 0.5, 0.75, 1.0],
    )
    for step in (0.03, 1e-2):
        traj = integrate_gait(PiecewiseConnection(two_leg_crawler()), gait, step=step)
        n = len(traj.times) - 1
        assert len(traj.events) == 2
        assert traj.contacts[-1] == traj.contacts[0]
        assert traj.meta["stage_shapes"] == 2 * n + len(traj.events)


class RecordingProvider:
    """Piecewise provider wrapper logging the order of selector and connection calls."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.log = []

    def contacts_at(self, r):
        self.log.append("contacts")
        return self.inner.contacts_at(r)

    def contacts_many(self, shapes):
        self.log.append("contacts")
        return self.inner.contacts_many(shapes)

    def connection_many(self, label, shapes):
        self.log.append(("connection", label))
        return self.inner.connection_many(label, shapes)


def test_planning_precedes_one_connection_call_per_stance():
    provider = RecordingProvider(PiecewiseConnection(two_leg_crawler()))
    traj = integrate_gait(provider, square_gait(), cycles=2, step=0.01)
    first = provider.log.index(("connection", traj.contacts[0]))
    assert "contacts" not in provider.log[first:]
    calls = provider.log[first:]
    assert len(calls) == len(set(calls)) == len(set(traj.contacts)) == 2


def nan_past(radius):
    """Pose map that turns NaN once the shape leaves a disc."""

    def fn(r):
        if math.hypot(r[0], r[1]) > radius:
            return Pose(math.nan, 0.0, 0.0)
        return Pose(0.3 * r[0], r[1] * r[1], 0.5 * r[1])

    return PoseMap(fn, 2)


def test_non_finite_connection_raises_naming_time_and_shape():
    provider = JacobianConnection(nan_past(0.45))
    with pytest.raises(SingularConstraint, match=r"non-finite connection at t=.*shape \["):
        integrate_gait(provider, CIRCLE_HALF, step=0.05)
    # the same map inside its disc integrates
    traj = integrate_gait(provider, FourierGait(1.0, [0.0, 0.0], sin=[[0.3, 0.0]]), step=0.05)
    assert np.isfinite(traj.twists).all()


def test_non_finite_rate_raises_naming_time_and_shape():
    class HugeRate(FourierGait):
        def evaluate_many(self, times, side="right"):
            r, rdot = super().evaluate_many(times, side)
            return r, np.where((np.asarray(times) > 0.5)[:, None], rdot + math.inf, rdot)

    gait = HugeRate(1.0, [0.0, 0.0], sin=[[0.3, 0.0]])
    with pytest.raises(SingularConstraint, match=r"non-finite shape rate at t=.*shape"):
        integrate_gait(JacobianConnection(wavy_pose_map()), gait, step=0.05)


@pytest.mark.parametrize(
    "provider, gait",
    [
        (
            PiecewiseConnection(two_leg_crawler()),
            WaypointGait(
                points=[[-0.375, -0.375], [0.375, -0.375], [0.375, 0.375], [-0.375, 0.375]],
                times=[0.0, 0.25, 0.5, 0.75, 1.0],
            ),
        ),
        (
            three_link_swimmer().provider(),
            FourierGait(1.0, [0.0, 0.0], cos=[[0.0, -0.5]], sin=[[0.5, 0.0]]),
        ),
    ],
    ids=["crawler_square", "swimmer"],
)
def test_twist_rows_are_right_side_twists_on_the_row_stance(provider, gait):
    traj = integrate_gait(provider, gait, cycles=2, step=0.03)
    if isinstance(gait, WaypointGait):
        assert len(traj.events) == 4
        assert {e.time for e in traj.events} <= set(traj.times)
        assert set(gait.times[1:-1]) <= set(traj.times)
    for k, t in enumerate(traj.times):
        r = traj.shapes[k]
        piece = traj.contacts[k]
        a = provider.connection_at(r) if piece is None else provider.connection_for(piece, r)
        expected = apply(a, gait.evaluate(t, "right")[1]).to_array()
        assert np.array_equal(traj.twists[k], expected), k


def test_overflowing_stage_twist_raises():
    class Huge(Pointwise):
        dim = 1

        def connection_at(self, r):
            return np.array([[1e308], [0.0], [0.0]])

        def contacts_at(self, r):
            return None

    with pytest.raises(SingularConstraint, match="non-finite stage twist"):
        integrate_gait(Huge(), FourierGait(1.0, [0.0], sin=[[0.5]]), step=0.1)


@pytest.mark.parametrize("amplitude, what", [(1.0e160, "twist norm"), (1.0e110, "step exponent")])
def test_overflowing_combine_raises(amplitude, what):
    # finite stage twists whose squares (1e160) or exponent brackets (1e110)
    # overflow once gave NaN poses and an infinite largest norm, without an abort
    gait = FourierGait(1.0, [0.0, 0.0], cos=[[0.0, -amplitude]], sin=[[amplitude, 0.0]])
    with pytest.raises(SingularConstraint, match=f"non-finite {what} at t=0.0"):
        integrate_gait(three_link_swimmer().provider(), gait, step=0.05)


def test_overflowing_pose_product_raises():
    # every twist, norm and exponent is finite (one step moves 1.9e307 along
    # x), but the body travels twice the 1.5e308 amplitude, past the largest float
    class Doubling(Pointwise):
        dim = 1

        def connection_at(self, r):
            return np.array([[2.0], [0.0], [0.0]])

        def contacts_at(self, r):
            return None

    with pytest.raises(SingularConstraint, match="non-finite pose at t="):
        integrate_gait(Doubling(), FourierGait(1.0e200, [0.0], sin=[[1.5e308]]), step=1.0e198)


def test_shapeless_model_evaluates_one_row():
    # a single-link swimmer has no shape coordinates: every stage is the
    # same empty shape, so one row is evaluated and the body never moves
    provider = DragModel(ChainModel([1.0]), 1.0, 2.0).provider()
    traj = integrate_gait(provider, FourierGait(1.0, np.zeros(0)), step=0.1)
    assert traj.meta["stage_shapes"] == 1
    assert not traj.twists.any()
    assert traj.poses[-1] == Pose()


CRAWLER_SQUARE = Path(__file__).resolve().parent.parent / "scenarios" / "crawler_square.yaml"

# (time, window start) of every crawler_square event at event_tol 1e-10,
# recorded before the bisection learned to stop at adjacent floats
CRAWLER_SQUARE_EVENTS = [
    ("0x1.0000000083127p-1", "0x1.0000000000000p-1"),
    ("0x1.0000000000000p+0", "0x1.ffffffff7ced9p-1"),
    ("0x1.8000000041894p+0", "0x1.8000000000000p+0"),
    ("0x1.0000000000000p+1", "0x1.ffffffffbe76cp+0"),
    ("0x1.4000000020c4ap+1", "0x1.4000000000000p+1"),
    ("0x1.8000000000000p+1", "0x1.7fffffffdf3b6p+1"),
]


def crawler_square_events(event_tol):
    sc = load_scenario(str(CRAWLER_SQUARE))
    with time_limit(20.0):
        traj = integrate_gait(sc.provider, sc.gait, cycles=sc.cycles, step=sc.step, event_tol=event_tol)
    return sc.provider, traj.events


def test_event_records_at_the_default_tolerance_are_unchanged():
    _, events = crawler_square_events(1e-10)
    assert [(e.time.hex(), e.window[0].hex()) for e in events] == CRAWLER_SQUARE_EVENTS


def test_event_tolerance_below_the_float_spacing_stops_at_adjacent_floats():
    # near t = 3 one ulp is 4.4e-16: the bracket cannot shrink to 1e-17, so
    # the bisection must stop once its midpoint is an endpoint
    provider, events = crawler_square_events(1e-17)
    assert len(events) == len(CRAWLER_SQUARE_EVENTS)
    for e, (t, _) in zip(events, CRAWLER_SQUARE_EVENTS):
        lo, hi = e.window
        assert hi == e.time and np.nextafter(lo, math.inf) == hi
        assert abs(e.time - float.fromhex(t)) <= 1e-10
        assert provider.contacts_at(e.shape) == e.after != e.before


@pytest.mark.parametrize("period", [1e9, 2.0 * MAX_STEPS * 1e-3])
def test_step_count_above_the_ceiling_is_rejected(period):
    gait = FourierGait(period, [0.0, 0.0], sin=[[0.5, 0.0]])
    with time_limit(5.0), pytest.raises(ValueError, match="steps"):
        integrate_gait(ExactFlow(), gait, step=1e-3)
    with time_limit(5.0), pytest.raises(ValueError, match="steps"):
        integrate_gait(ExactFlow(), CIRCLE, cycles=MAX_STEPS + 1, step=1.0)


@pytest.mark.parametrize("links", [4, 7])
def test_stage_twists_are_per_row_apply_bitwise_on_longer_arms(links):
    # the batched stage product must not reorder a row's sums, whatever d
    provider = JacobianConnection(arm_com_pose_map(np.linspace(1.0, 0.4, links)))
    rng = np.random.default_rng(links)
    gait = FourierGait(1.0, rng.uniform(-0.3, 0.3, links), cos=rng.uniform(-0.4, 0.4, (1, links)),
                       sin=rng.uniform(-0.4, 0.4, (1, links)))
    traj = integrate_gait(provider, gait, step=0.02)
    for k, t in enumerate(traj.times):
        expected = apply(provider.connection_at(traj.shapes[k]), gait.evaluate(t, "right")[1]).to_array()
        assert traj.twists[k].tobytes() == expected.tobytes(), k


def test_pose_increments_are_the_scalar_group_ops_bitwise():
    traj = integrate_gait(PiecewiseConnection(two_leg_crawler()), square_gait(), cycles=2, step=0.01)
    steps = pose_increments(traj, slice(None, -1), slice(1, None))
    for k, (a, b) in enumerate(zip(traj.poses[:-1], traj.poses[1:])):
        assert steps[:, k].tobytes() == log(compose(inverse(a), b)).to_array().tobytes(), k
    idx = traj.cycle_indices
    for got, a, b in zip(per_cycle_displacements(traj), idx[:-1], idx[1:]):
        assert got == log(compose(inverse(traj.poses[a]), traj.poses[b]))
    assert net_displacement(traj) == per_cycle_displacements(traj)[0]
