"""Group integration of gait-driven motion: order, events, conservation laws."""

import gc
import math
import tracemalloc
import warnings
from functools import partial
from itertools import accumulate
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

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
    arm_com_pose_map,
    JacobianConnection,
    LeggedModel,
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
from locomech import integrator
from locomech.connection import connection_by_stance
from locomech.integrator import MAX_STEPS, _step_grid, integrate_gaits, pose_increments
from locomech.liegroup import compose_chain
from locomech.optimizer import amplitude_phase_family
from locomech.shapespace import SmoothstepGait, smoothstep
from fuzzing import time_limit
from pointwise import Pointwise, reference_cycle_grid, reference_plan

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
        pose_array=np.array([[0.0, 0.1], [0.0, 0.0], [0.0, 0.0]]),
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
        pose_array=np.zeros((3, 1)),
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


# A later cycle's knot time c T + t_k rounds off its knot (1.65 % 1.0 is below
# 0.65), as does a period of 0.1 (3 * 0.1 % 0.1 is 2.7e-17); sampled at that
# time, a step ending or starting there would take the wrong segment's rate,
# an O(h) error per cycle.  Every cycle repeats the first one's steps instead.
KNOT_POINTS = [[0.1, -0.7], [0.7, 0.1], [-0.3, 0.3]]


@pytest.mark.parametrize(
    "times, step",
    [([0.0, 0.3, 0.65, 1.0], h) for h in (0.01, 0.005, 0.0025)] + [([0.0, 0.025, 0.0625, 0.1], 1e-3)],
)
def test_waypoint_cycles_displace_alike(times, step):
    traj = integrate_gait(three_link_swimmer().provider(), WaypointGait(KNOT_POINTS, times), cycles=3, step=step)
    first, *later = per_cycle_displacements(traj)
    for d in later:
        assert (d - first).norm() <= 1e-12


def test_a_knot_merged_into_a_cut_keeps_fourth_order():
    # at 35, 70 and 140 steps the cut nearest the knot at 0.4 lands 3e-17
    # below it and yields to the knot
    gait = WaypointGait(KNOT_POINTS + [[0.2, -0.4]], [0.0, 0.2, 0.4, 0.8, 1.0])
    provider = three_link_swimmer().provider()
    ref = net_displacement(integrate_gait(provider, gait, step=1.0 / 4000))
    errors = [(net_displacement(integrate_gait(provider, gait, step=1.0 / n)) - ref).norm() for n in (35, 70, 140)]
    assert errors[0] >= 8.0 * errors[1] >= 64.0 * errors[2], errors


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


def assert_plan_matches_the_one_at_a_time_search(provider, gait, cycles, step, event_tol):
    """integrate_gait's first cycle of rows, events and warnings, bitwise reference_plan's; later cycles repeat it."""
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        traj = integrate_gait(provider, gait, cycles=cycles, step=step, event_tol=event_tol)
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        times, contacts, events = reference_plan(provider, gait, step, event_tol)
    n = len(times) - 1
    assert [t.hex() for t in traj.times[:n + 1].tolist()] == [t.hex() for t in times]
    assert traj.contacts[:n + 1] == contacts
    assert traj.cycle_indices == list(range(0, cycles * n + 1, n))
    assert len(traj.events) == cycles * len(events)
    for got, want in zip(traj.events, events):
        assert got.time.hex() == want.time.hex()
        assert [w.hex() for w in got.window] == [w.hex() for w in want.window]
        assert (got.before, got.after) == (want.before, want.after)
        assert got.shape.tobytes() == want.shape.tobytes()
    # later cycles repeat the first one's rows, so only the first cycle warns
    assert len(got_warnings) == len(want_warnings)
    assert [str(w.message) for w in got_warnings[:len(want_warnings)]] == [str(w.message) for w in want_warnings]
    assert_cycles_repeat_the_first(traj, gait.period)
    return traj


@settings(max_examples=40, deadline=None)
@given(
    half=st.tuples(st.floats(0.05, 0.7), st.floats(0.05, 0.7)),
    centre=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
    step=st.floats(2e-3, 0.4),
    cycles=st.integers(1, 3),
    event_tol=st.sampled_from([1e-10, 1e-17]),
)
def test_batched_switch_search_matches_the_one_at_a_time_search(half, centre, step, cycles, event_tol):
    # every midpoint, label and event of the batched search is the one a
    # search of one switch at a time computes, because gait rows and label
    # rows are bitwise independent of their batch
    (a1, a2), (x, y) = half, centre
    gait = WaypointGait(
        points=[[x - a1, y - a2], [x + a1, y - a2], [x + a1, y + a2], [x - a1, y + a2]],
        times=[0.0, 0.25, 0.5, 0.75, 1.0],
    )
    with time_limit(20.0):
        assert_plan_matches_the_one_at_a_time_search(
            PiecewiseConnection(two_leg_crawler()), gait, cycles, step, event_tol
        )


@pytest.mark.parametrize("event_tol", [1e-10, 1e-17])
@pytest.mark.parametrize("cycles", [1, 2])
def test_batched_multi_switch_search_matches_the_one_at_a_time_search(cycles, event_tol):
    gait = FourierGait(1.0, [0.0, 0.0], cos=[[0.0, 0.1]], sin=[[0.5, 0.0]])
    traj = assert_plan_matches_the_one_at_a_time_search(
        PiecewiseConnection(two_leg_crawler()), gait, cycles, 1.0, event_tol
    )
    assert len(traj.events) == 2 * cycles


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(st.floats(-0.6, 0.6), min_size=12, max_size=12),
    step=st.floats(0.05, 1.0),
    cycles=st.integers(1, 2),
    event_tol=st.sampled_from([1e-10, 1e-17]),
)
def test_batched_search_matches_on_three_stances_and_several_switches_per_step(coeffs, step, cycles, event_tol):
    # a two-harmonic loop over three legs, each planted while its angle is
    # the largest, with long steps: a step may hold several switches, and a
    # bisection midpoint may select a third stance
    legs = LeggedModel(hips=[[0.0, 0.5], [0.0, -0.5], [0.5, 0.0]], leg_lengths=[1.0] * 3, rest_angles=[0.0] * 3)
    c = np.reshape(coeffs, (2, 2, 3))
    gait = FourierGait(1.0, [0.0] * 3, cos=c[0], sin=c[1])
    with time_limit(20.0):
        assert_plan_matches_the_one_at_a_time_search(PiecewiseConnection(legs), gait, cycles, step, event_tol)


class CountingProvider:
    """Single-piece provider wrapper that counts batched calls and shape rows."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.catalog = inner.catalog
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
    # a smooth gait's stage shapes are one cycle's n + 1 row shapes and n
    # step midpoints: k2 and k3 share the midpoint, a step's end shape is
    # the next step's start, and the later cycles repeat the first.  All of
    # them go to the provider in one call, once each; shapes repeat when the
    # gait revisits them, since it reduces t modulo its period (the cycle
    # end is the shape at t = 0)
    provider = CountingProvider(three_link_swimmer().provider())
    gait = FourierGait(1.0, [0.0, 0.0], cos=[[0.0, -0.5]], sin=[[0.5, 0.0]])
    traj = integrate_gait(provider, gait, cycles=2, step=0.05)
    n = traj.cycle_indices[1]
    assert (n, len(traj.times)) == (20, 41)
    t = traj.times[:n + 1]
    distinct = {gait.evaluate(x)[0].tobytes() for x in np.concatenate([t, t[:-1] + 0.5 * np.diff(t)])}
    assert provider.calls == 1
    assert provider.rows == len(distinct) == traj.meta["stage_shapes"]
    assert provider.rows <= 2 * n + 1


class LabelCounting(CountingProvider):
    """CountingProvider that also counts batched label calls, their rows, and single-shape label calls."""

    def __init__(self, inner):
        super().__init__(inner)
        self.label_batches = 0
        self.label_rows = 0
        self.single_labels = 0

    def contacts_many(self, shapes):
        self.label_batches += 1
        self.label_rows += len(shapes)
        return super().contacts_many(shapes)

    def contacts_at(self, r):
        self.single_labels += 1
        return super().contacts_at(r)


@pytest.mark.parametrize("cycles", [1, 3])
def test_smooth_integration_samples_the_gait_in_batches(cycles):
    # one gait batch samples every grid point and midpoint of every cycle,
    # and the stages reuse it; never a single-time or single-shape call
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
    assert calls["evaluate_many"] == 1
    assert provider.label_batches == 1
    assert provider.single_labels == 0


def test_crawler_square_labels_every_switch_together():
    # one call labels the plan, then each bisection level labels the
    # midpoints of all six switch brackets at once; one switch at a time
    # took 165 calls over 6165 rows
    sc = load_scenario(str(CRAWLER_SQUARE))
    provider = LabelCounting(sc.provider)
    traj = integrate_gait(provider, sc.gait, cycles=sc.cycles, step=sc.step, event_tol=sc.event_tol)
    assert len(traj.events) == 6
    assert provider.label_batches <= 30
    assert provider.label_rows <= 6165


@pytest.mark.parametrize("cycles", [1, 2, 5])
@pytest.mark.parametrize("name", ["walker_mirror", "swimmer_circle"])
def test_single_piece_provider_is_labelled_in_one_call(name, cycles):
    sc = load_scenario(str(CRAWLER_SQUARE.with_name(f"{name}.yaml")))
    provider = LabelCounting(sc.provider)
    traj = integrate_gait(provider, sc.gait, cycles=cycles, step=0.01)
    # one cycle's rows and midpoints; the later cycles repeat its codes
    assert provider.label_batches == 1
    assert provider.label_rows == 2 * traj.cycle_indices[1] + 1


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


def test_an_end_off_its_next_start_by_a_rounding_is_a_row_of_its_own(monkeypatch):
    # a step's end reuses the next step's start row, except at the t = 0.6
    # knot, whose incoming segment ends a rounding away from its point: that
    # end is one more row.  Every stage twist, reused or not, is bitwise its
    # own shape's per-row connection times its rate
    provider = CountingProvider(three_link_swimmer().provider())
    gait = WaypointGait([[0.1, 0.0], [0.7, 0.3], [0.2, 0.9]], [0.0, 0.3, 0.6, 1.0])
    left, right = (gait.evaluate_many(np.array([0.6]), side)[0] for side in ("left", "right"))
    assert left.tobytes() != right.tobytes()
    stages = []
    combine = integrator._rkmk4_exponents
    monkeypatch.setattr(integrator, "_rkmk4_exponents", lambda h, *k: stages.append(k) or combine(h, *k))
    traj = integrate_gait(provider, gait, step=0.05)
    ((k1, mid, end),) = stages
    t = traj.times
    assert len(t) - 1 == 20
    assert provider.rows == traj.meta["stage_shapes"] == 41

    def twist(time, side):
        r, rdot = gait.evaluate_many(np.array([time]), side)
        return (provider.inner.connection_many(None, r) @ rdot[:, :, None])[0, :, 0]

    for j in range(20):
        assert k1[:, j].tobytes() == twist(t[j], "right").tobytes(), j
        assert mid[:, j].tobytes() == twist(t[j] + 0.5 * (t[j + 1] - t[j]), "right").tobytes(), j
        assert end[:, j].tobytes() == twist(t[j + 1], "left").tobytes(), j


class RecordingProvider:
    """Piecewise provider wrapper logging the order of selector and connection calls."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.catalog = inner.catalog
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
    # a later cycle's row is the first cycle's, sampled at its time in that cycle
    n = traj.cycle_indices[1]
    for k in range(len(traj.times)):
        r = traj.shapes[k]
        piece = traj.contacts[k]
        a = provider.connection_at(r) if piece is None else provider.connection_for(piece, r)
        expected = a @ gait.evaluate(traj.times[k % n], "right")[1]
        assert np.array_equal(traj.twists[k], expected), k


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
            # knots whose incoming segment ends a rounding away from the next point
            three_link_swimmer().provider(),
            WaypointGait(points=[[0.1, -0.7], [0.7, 0.1], [-0.3, 0.3]], times=[0.0, 0.3, 0.65, 1.0]),
        ),
        (
            three_link_swimmer().provider(),
            FourierGait(1.0, [0.0, 0.0], cos=[[0.0, -0.5]], sin=[[0.5, 0.0]]),
        ),
    ],
    ids=["crawler_square", "swimmer_waypoints", "swimmer"],
)
def test_stage_twists_are_their_own_samples(provider, gait, monkeypatch):
    # the stages reuse the plan's samples; each must still be its own time's
    # twist on the step's stance, the end stage at the left limit.  Only the
    # first cycle is evaluated, and every knot is one of its row times
    stages = []
    combine = integrator._rkmk4_exponents
    monkeypatch.setattr(integrator, "_rkmk4_exponents", lambda h, *k: stages.append(k) or combine(h, *k))
    traj = integrate_gait(provider, gait, cycles=2, step=0.03)
    ((k1, mid, end),) = stages
    n = traj.cycle_indices[1]
    t, corners = traj.times[:n + 1], 0
    assert k1.shape[1] == n
    assert set(getattr(gait, "times", [])) <= set(t)

    def twist(piece, time, side):
        r, rdot = gait.evaluate(time, side)
        return (provider.connection_at(r) if piece is None else provider.connection_for(piece, r)) @ rdot

    for j, piece in enumerate(traj.contacts[:n]):
        assert np.array_equal(k1[:, j], twist(piece, t[j], "right")), j
        assert np.array_equal(mid[:, j], twist(piece, t[j] + 0.5 * (t[j + 1] - t[j]), "right")), j
        assert np.array_equal(end[:, j], twist(piece, t[j + 1], "left")), j
        corners += not np.array_equal(end[:, j], twist(piece, t[j + 1], "right"))
    # a waypoint gait's rate jumps at its knots, so some end stages are not right-side samples
    assert (corners > 0) == isinstance(gait, WaypointGait)


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


def test_shapeless_model_evaluates_two_rows_a_step():
    # a single-link swimmer has no shape coordinates: every stage is the
    # same empty shape, evaluated at each step's start and midpoint (each end
    # is the next start), and the body never moves
    provider = DragModel(ChainModel([1.0]), 1.0, 2.0).provider()
    traj = integrate_gait(provider, FourierGait(1.0, np.zeros(0)), step=0.1)
    assert traj.meta["stage_shapes"] == 2 * 10
    assert not traj.twists.any()
    assert traj.poses[-1] == Pose()


def test_integrated_poses_are_one_read_only_array():
    traj = integrate_gait(PiecewiseConnection(two_leg_crawler()), square_gait(), step=0.01)
    assert traj.pose_array.shape == (3, len(traj.times))
    with pytest.raises(ValueError):
        traj.pose_array[:, -1] = 0.0
    assert traj.poses[-1] == Pose(*traj.pose_array[:, -1])


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(-12.0, 12.0)), max_size=12),
    st.integers(-15, 14),
    st.slices(14),
)
def test_poses_view_reads_the_pose_chain(incs, k, part):
    chain = list(accumulate((Pose(*inc) for inc in incs), compose, initial=Pose()))
    n = len(chain)
    traj = Trajectory(
        times=np.arange(float(n)),
        pose_array=compose_chain(np.array(incs).reshape(-1, 3).T),
        shapes=np.zeros((n, 1)),
        twists=np.zeros((n, 3)),
        contacts=[None] * n,
        events=[],
        cycle_indices=[0],
    )
    poses = traj.poses
    assert len(poses) == n
    assert list(poses) == chain
    assert poses[part] == chain[part]
    if -n <= k < n:
        assert poses[k] == chain[k]
    else:
        with pytest.raises(IndexError):
            poses[k]
    with pytest.raises(TypeError):
        poses[0] = Pose()
    with pytest.raises(ValueError):
        traj.pose_array[0, 0] = 1.0


SWIMMER_CIRCLE = Path(__file__).resolve().parent.parent / "scenarios" / "swimmer_circle.yaml"


def test_trajectory_retains_under_100_bytes_per_step():
    # poses are one float array, not a Pose per step: about 81 B/step are
    # kept (times, poses, shapes, twists and contact slots)
    sc = load_scenario(str(SWIMMER_CIRCLE))
    steps = 20_000
    integrate_gait(sc.provider, sc.gait, step=sc.gait.period / 100)  # one-time caches first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = integrate_gait(sc.provider, sc.gait, step=sc.gait.period / steps)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(traj.times) == steps + 1
    assert retained / steps <= 100.0


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


# every crawler_square event record, recorded with the differenced stance
# maps: (time, window, stance before, stance after, shape), floats in hex.
# A later cycle's switch shape is the first cycle's (it was sampled at the
# later time, whose phase 1.5000000041894 - 1 rounds off the first's)
CRAWLER_SQUARE_RECORDS = [
    ("0x1.0000000083127p-1", "0x1.0000000000000p-1", "0x1.0000000083127p-1", {0}, {1},
     ["0x1.7ffffffced916p-2", "0x1.8000000000000p-2"]),
    ("0x1.0000000000000p+0", "0x1.ffffffff7ced9p-1", "0x1.0000000000000p+0", {1}, {0},
     ["-0x1.8000000000000p-2", "-0x1.8000000000000p-2"]),
    ("0x1.8000000041894p+0", "0x1.8000000000000p+0", "0x1.8000000041894p+0", {0}, {1},
     ["0x1.7ffffffced916p-2", "0x1.8000000000000p-2"]),
    ("0x1.0000000000000p+1", "0x1.ffffffffbe76cp+0", "0x1.0000000000000p+1", {1}, {0},
     ["-0x1.8000000000000p-2", "-0x1.8000000000000p-2"]),
    ("0x1.4000000020c4ap+1", "0x1.4000000000000p+1", "0x1.4000000020c4ap+1", {0}, {1},
     ["0x1.7ffffffced916p-2", "0x1.8000000000000p-2"]),
    ("0x1.8000000000000p+1", "0x1.7fffffffdf3b6p+1", "0x1.8000000000000p+1", {1}, {0},
     ["-0x1.8000000000000p-2", "-0x1.8000000000000p-2"]),
]


def test_crawler_square_event_records_are_bitwise_unchanged():
    # the selector reads only the shape, so exact stance connections move no event
    _, events = crawler_square_events(1e-10)
    got = [
        (e.time.hex(), e.window[0].hex(), e.window[1].hex(), set(e.before), set(e.after), [x.hex() for x in e.shape])
        for e in events
    ]
    assert got == CRAWLER_SQUARE_RECORDS


def test_event_tolerance_below_the_float_spacing_stops_at_adjacent_floats():
    # near t = 1 one ulp is 2.2e-16: the bracket cannot shrink to 1e-17, so
    # the bisection must stop once its midpoint is an endpoint.  The later
    # cycles' windows are the first cycle's, offset by whole periods
    provider, events = crawler_square_events(1e-17)
    assert len(events) == len(CRAWLER_SQUARE_EVENTS)
    first = events[:2]
    for k, (e, (t, _)) in enumerate(zip(events, CRAWLER_SQUARE_EVENTS)):
        c, e0 = k // 2, first[k % 2]
        lo, hi = e.window
        assert (e.time, lo, hi) == (e0.time + c, e0.window[0] + c, e0.window[1] + c)
        assert c or (hi == e.time and np.nextafter(lo, math.inf) == hi)
        assert abs(e.time - float.fromhex(t)) <= 1e-10
        assert provider.contacts_at(e.shape) == e.after != e.before


def test_later_cycle_switch_rows_follow_their_predecessors():
    # three legs and long steps: cycle 0 switches at 6.9e-18 and one float
    # after 0.5, so offset by the period both switch rows round onto the grid
    # row before them, and each moves to the next float above it
    legs = LeggedModel(hips=[[0.0, 0.5], [0.0, -0.5], [0.5, 0.0]], leg_lengths=[1.0] * 3, rest_angles=[0.0] * 3)
    coeffs = np.zeros((2, 2, 3))
    coeffs[1, 1, 2] = 0.5
    gait = FourierGait(1.0, [0.0] * 3, cos=coeffs[0], sin=coeffs[1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = integrate_gait(PiecewiseConnection(legs), gait, 2, 0.5, 1e-17)
    assert (np.diff(traj.times) > 0).all()
    assert traj.times[6:11].tolist() == [1.0, np.nextafter(1.0, 2.0), 1.25, 1.5, np.nextafter(1.5, 2.0)]
    assert [e.time for e in traj.events[4:]] == [1.0, 1.25, 1.5, 1.75]


class ThresholdStances:
    """Stance 1 where r1 reaches a threshold, else stance 0; both pieces map rdot to vx, vy."""

    dim = 2
    catalog = (frozenset({0}), frozenset({1}))

    def __init__(self, threshold):
        self.threshold = threshold

    def contacts_many(self, shapes):
        return (shapes[:, 0] >= self.threshold).astype(int)

    def connection_many(self, label, shapes):
        return np.broadcast_to(np.eye(3, 2), (*shapes.shape[:-1], 3, 2)).copy()


def test_later_cycle_switch_rows_stay_between_their_grid_rows():
    # r1 = 2t up to the knot at 0.5, so stance 1 holds on [0.5 - 2**-54, 0.5]:
    # offset by the period, the switch row before the knot rounds onto it and
    # moves to the float below it, and the one after it to the float above
    gait = WaypointGait(points=[[0.0, 0.0], [1.0, 0.0]], times=[0.0, 0.5, 1.0])
    traj = integrate_gait(ThresholdStances(np.nextafter(1.0, 0.0)), gait, 2, 0.5, 1e-17)
    below, above = np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)
    assert traj.times[:5].tolist() == [0.0, below, 0.5, above, 1.0]
    assert traj.times[4:].tolist() == [1.0, np.nextafter(1.5, 0.0), 1.5, np.nextafter(1.5, 2.0), 2.0]
    assert traj.contacts[:5] == [frozenset({0}), frozenset({1}), frozenset({1}), frozenset({0}), frozenset({0})]


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
        expected = provider.connection_at(traj.shapes[k]) @ gait.evaluate(t, "right")[1]
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


# -- the step grid: one cycle, every knot a grid time ---------------------------


@st.composite
def grid_cases(draw):
    """A period, step and knots, some within merge_tol of a cut, of each other or of the cycle end."""
    period = draw(st.one_of(st.floats(0.05, 20.0), st.floats(1e-14, 5e-13), st.sampled_from([1.0, 3.0])))
    n_steps = draw(st.integers(1, 40))
    h = period / n_steps
    tol = 1e-12 * max(1.0, period)
    nudge = st.sampled_from([0.0, 0.3, -0.3, 0.9, -0.9, 1.0, -1.0, 1.5, -1.5, 4.0]).map(lambda f: f * tol)
    on_cuts = draw(st.lists(st.tuples(st.integers(0, n_steps), nudge), max_size=6))
    anywhere = draw(st.lists(st.floats(0.0, 1.0), max_size=4))
    knots = {j * h + d for j, d in on_cuts} | {f * period for f in anywhere}
    return period, h, n_steps, sorted(t for t in knots if 0.0 < t < period)


def greedy_cycle_grid(period, h, n_steps, knots) -> list:
    """The old step grid of one cycle: sorted cuts and knots, each kept if over merge_tol past the last kept.

    The kept times within merge_tol of the period are dropped again, so a
    knot could merge into a cut, or into the period end.
    """
    merge_tol = 1e-12 * max(1.0, period)
    grid = [0.0]
    for t in sorted([j * h for j in range(1, n_steps)] + list(knots)):
        if t - grid[-1] > merge_tol:
            grid.append(t)
    while len(grid) > 1 and period - grid[-1] <= merge_tol:
        grid.pop()
    return grid + [period]


@settings(max_examples=150, deadline=None)
@given(grid_cases())
def test_every_knot_is_a_grid_time(case):
    period, h, n_steps, knots = case
    got = _step_grid(period, h, n_steps, np.array(knots, dtype=float))
    assert [t.hex() for t in got.tolist()] == [t.hex() for t in reference_cycle_grid(period, h, n_steps, knots)]
    assert set(knots) <= set(got.tolist())
    assert got[0] == 0.0 and got[-1] == period and np.all(np.diff(got) > 0.0)


@settings(max_examples=150, deadline=None)
@given(grid_cases())
def test_a_grid_without_near_times_is_the_greedy_loop_bitwise(case):
    # with no cut within merge_tol of a knot, and no knots that close, the
    # greedy loop merged no knot, so both grids are the same times
    period, h, n_steps, near = case
    tol = 1e-12 * max(1.0, period)
    knots = []
    for t in near:
        if all(abs(t - f) > tol for f in [0.0, period, *knots] + [j * h for j in range(1, n_steps)]):
            knots.append(t)
    got = _step_grid(period, h, n_steps, np.array(knots, dtype=float))
    assert [t.hex() for t in got.tolist()] == [t.hex() for t in greedy_cycle_grid(period, h, n_steps, knots)]


def test_a_short_waypoint_segment_is_integrated():
    # a segment shorter than merge_tol between two knots is a step of its own;
    # the displacement depends on the path alone, so the polygon retimed
    # with no short segment moves the body as far, up to that one step's
    # error on a segment 0.028 long (7.9e-9).  Merged away, it was 6.6e-3 off
    points = [[0.1, -0.7], [0.7, 0.1], [0.72, 0.12], [-0.3, 0.3]]
    provider = three_link_swimmer().provider()
    short = integrate_gait(provider, WaypointGait(points, [0.0, 0.3, 0.3 + 1e-13, 0.65, 1.0]), step=1e-3)
    even = integrate_gait(provider, WaypointGait(points, [0.0, 0.4, 0.65, 0.9, 1.0]), step=1e-3)
    assert 0.3 + 1e-13 in short.times.tolist()
    assert (net_displacement(short) - net_displacement(even)).norm() <= 1e-7


# -- batched gaits: each trajectory bitwise its own integration ----------------

BATCH_PROVIDERS = {"swimmer": three_link_swimmer().provider(), "crawler": PiecewiseConnection(two_leg_crawler())}
small = st.floats(-0.5, 0.5)
# A failing example of a property over batch_gait() is reported as drawn: shrinking
# one integrated gait after another ran for minutes at about 780 MB of memory.
UNSHRUNK = settings(max_examples=40, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])


@st.composite
def batch_gait(draw):
    """A random Fourier or waypoint loop in two shape coordinates."""
    period = draw(st.sampled_from([1.0, 0.8, 1.3]))
    if draw(st.booleans()):
        harmonics = draw(st.integers(1, 2))
        coeffs = [draw(st.lists(small, min_size=2 * harmonics, max_size=2 * harmonics)) for _ in range(2)]
        mean = draw(st.lists(st.floats(-0.2, 0.2), min_size=2, max_size=2))
        return FourierGait(period, mean, np.reshape(coeffs[0], (harmonics, 2)), np.reshape(coeffs[1], (harmonics, 2)))
    k = draw(st.integers(3, 6))
    points = draw(st.lists(st.tuples(small, small), min_size=k, max_size=k))
    gaps = draw(st.lists(st.floats(0.2, 1.0), min_size=k, max_size=k))
    times = period * np.concatenate([[0.0], np.cumsum(gaps)]) / sum(gaps)
    times[-1] = period
    return WaypointGait(points=points, times=times)


def assert_cycles_repeat_the_first(traj, period):
    """Cycle c's rows, twists, stances and events are bitwise cycle 0's, at times c * period + t (rows untied)."""
    idx = traj.cycle_indices
    n = idx[1]
    assert idx == list(range(0, len(traj.times), n))
    # a switch near a cycle end may round onto it once offset, so cycles are counted, not timed
    per_cycle, left = divmod(len(traj.events), len(idx) - 1)
    assert not left
    first = traj.events[:per_cycle]
    # the last row is the first cycle's end row, at cycles * period
    assert traj.times[-1] == (len(idx) - 1) * period
    assert traj.shapes[-1].tobytes() == traj.shapes[n].tobytes()
    assert traj.twists[-1].tobytes() == traj.twists[n].tobytes()
    assert traj.contacts[-1] == traj.contacts[n]
    # the times strictly increase: a row whose time c * period + t lies within a few
    # floats of a neighbour's may move by a few floats, and every other row keeps it
    want = np.append((traj.times[:n] + period * np.arange(len(idx) - 1)[:, None]).ravel(), traj.times[-1])
    near = np.diff(want) <= 4 * np.spacing(want[1:])
    near = np.r_[near, False] | np.r_[False, near]
    assert (np.diff(traj.times) > 0).all()
    assert traj.times[~near].tobytes() == want[~near].tobytes()
    assert (np.abs(traj.times - want) <= 4 * np.spacing(want)).all()
    for c, a in enumerate(idx[:-1]):
        rows = slice(a, a + n)
        assert traj.shapes[rows].tobytes() == traj.shapes[:n].tobytes()
        assert traj.twists[rows].tobytes() == traj.twists[:n].tobytes()
        assert traj.contacts[rows] == traj.contacts[:n]
        for got, want in zip(traj.events[c * per_cycle:], first):
            offset = c * period
            assert (got.time, got.window) == (want.time + offset, (want.window[0] + offset, want.time + offset))
            assert (got.before, got.after, got.shape.tobytes()) == (want.before, want.after, want.shape.tobytes())


def assert_same_trajectory(got, want):
    for name in ("times", "pose_array", "shapes", "twists"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.contacts, got.cycle_indices) == (want.contacts, want.cycle_indices)
    assert [(k, repr(v)) for k, v in got.meta.items()] == [(k, repr(v)) for k, v in want.meta.items()]
    assert [(e.time.hex(), e.window, e.before, e.after, e.shape.tobytes()) for e in got.events] == [
        (e.time.hex(), e.window, e.before, e.after, e.shape.tobytes()) for e in want.events
    ]


@UNSHRUNK
@given(
    gaits=st.lists(batch_gait(), min_size=1, max_size=4),
    model=st.sampled_from(sorted(BATCH_PROVIDERS)),
    cycles=st.integers(1, 3),
    step=st.sampled_from([0.02, 0.05, 0.1]),
)
def test_batched_trajectories_are_the_separate_ones_bitwise(gaits, model, cycles, step):
    # every row of a gait depends on that gait alone, so sharing one
    # connection evaluation and one combine changes no bit of any trajectory
    provider = BATCH_PROVIDERS[model]
    with warnings.catch_warnings(record=True) as batch_warnings:
        warnings.simplefilter("always")
        batch = list(integrate_gaits(provider, gaits, cycles, step))
    with warnings.catch_warnings(record=True) as alone_warnings:
        warnings.simplefilter("always")
        alone = [integrate_gait(provider, gait, cycles, step) for gait in gaits]
    assert [str(w.message) for w in batch_warnings] == [str(w.message) for w in alone_warnings]
    assert len(batch) == len(gaits)
    for got, want in zip(batch, alone):
        assert_same_trajectory(got, want)


@UNSHRUNK
@given(gait=batch_gait(), model=st.sampled_from(sorted(BATCH_PROVIDERS)), cycles=st.integers(1, 3),
       step=st.sampled_from([0.02, 0.05, 0.1]))
def test_every_cycle_repeats_the_first_bitwise(gait, model, cycles, step):
    # one cycle is planned and evaluated; the chain repeats its increments
    provider = BATCH_PROVIDERS[model]
    chains = []
    compose = integrator.compose_chain
    with warnings.catch_warnings(), mock.patch.object(
        integrator, "compose_chain", lambda increments: chains.append(increments) or compose(increments)
    ):
        warnings.simplefilter("ignore")
        traj = integrate_gait(provider, gait, cycles, step)
        alone = integrate_gait(provider, gait, 1, step)
    assert_cycles_repeat_the_first(traj, gait.period)
    n = alone.cycle_indices[1]
    assert traj.pose_array[:, :n + 1].tobytes() == alone.pose_array.tobytes()
    for c in range(cycles):
        assert chains[0][:, :, c * n:(c + 1) * n].tobytes() == chains[1].tobytes()


# every gait form the library builds, including verify's reversed and retimed ones
CLOSING_GAITS = {
    "fourier": CIRCLE_HALF,
    "waypoint": square_gait(),
    "reversed_fourier": reversed_gait(CIRCLE_HALF),
    "reversed_waypoint": reversed_gait(square_gait()),
    "smoothstep": SmoothstepGait(CIRCLE_HALF),
    "reparameterized_fourier": reparameterize(CIRCLE_HALF, partial(smoothstep, period=1.0), samples=64),
    "reparameterized_waypoint": reparameterize(square_gait(), partial(smoothstep, period=1.0)),
}


@pytest.mark.parametrize("cycles", [1, 3])
@pytest.mark.parametrize("model", sorted(BATCH_PROVIDERS))
@pytest.mark.parametrize("name", CLOSING_GAITS)
def test_the_closing_row_is_the_first_row_bitwise(name, model, cycles):
    # a periodic gait is back at its first shape, rate and stance at every
    # cycle end, so the closing row, evaluated there as a stage of its own,
    # is the first row bit for bit
    provider, gait = BATCH_PROVIDERS[model], CLOSING_GAITS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = integrate_gait(provider, gait, cycles, 0.05)
    assert bool(traj.events) == (model == "crawler")
    for t in (gait.period, cycles * gait.period):
        shape, rate = gait.evaluate_many(np.array([t]))
        code = provider.contacts_many(shape)
        twist = (connection_by_stance(provider, shape, code) @ rate[:, :, None])[:, :, 0]
        assert shape[0].tobytes() == traj.shapes[0].tobytes() == traj.shapes[-1].tobytes()
        assert twist[0].tobytes() == traj.twists[0].tobytes() == traj.twists[-1].tobytes()
        assert provider.catalog[code[0]] == traj.contacts[0] == traj.contacts[-1]


def nan_outside_a_disc(r):
    # a pose map whose connection is NaN once the shape leaves the disc of radius 0.2
    if math.hypot(r[0], r[1]) > 0.2:
        return Pose(math.nan, 0.0, 0.0)
    return Pose(r[0], r[1] * r[0], r[1])


class RaisesOnTheWholeCall(Pointwise):
    """A provider that rejects any call holding a shape outside the disc of radius 0.2, naming the call's size."""

    dim = 2

    def connection_many(self, label, shapes):
        if (np.hypot(shapes[:, 0], shapes[:, 1]) > 0.2).any():
            raise SingularConstraint(f"connection refused for a call of {len(shapes)} shapes")
        return JacobianConnection(PoseMap(nan_outside_a_disc, 2)).connection_many(label, shapes)

    def contacts_at(self, r):
        return None


SINGULAR_CASES = {
    # an error for the whole connection call, which a batch makes larger
    "refused": (
        RaisesOnTheWholeCall(),
        FourierGait(1.0, [0.0, 0.0], cos=[[0.0, 0.5]], sin=[[0.5, 0.0]]),
    ),
    # a NaN connection along part of the loop
    "connection": (
        JacobianConnection(PoseMap(nan_outside_a_disc, 2)),
        FourierGait(1.0, [0.0, 0.0], cos=[[0.0, 0.5]], sin=[[0.5, 0.0]]),
    ),
    # shape rates that overflow
    "shape rate": (three_link_swimmer().provider(), FourierGait(1.0, [0.0, 0.0], cos=[[1e308, 0.0]], sin=[[0.0, 0.1]])),
}


@pytest.mark.parametrize("case", sorted(SINGULAR_CASES))
@pytest.mark.parametrize("position", [0, 1, 2])
def test_a_singular_gait_makes_its_batch_raise(case, position):
    # the batch raises; optimize then scores its gaits one at a time
    provider, singular = SINGULAR_CASES[case]
    fine = [
        FourierGait(1.0, [0.0, 0.0], cos=[[0.0, 0.05]], sin=[[0.05, 0.0]]),
        FourierGait(1.0, [0.0, 0.02], cos=[[0.03, 0.0]], sin=[[0.0, -0.06]]),
    ]
    with pytest.raises(SingularConstraint, match=case):
        integrate_gait(provider, singular, step=0.05)
    with pytest.raises(SingularConstraint, match=case):
        list(integrate_gaits(provider, fine[:position] + [singular] + fine[position:], step=0.05))
    # without it, the batch is the separate integrations
    for got, gait in zip(integrate_gaits(provider, fine, step=0.05), fine, strict=True):
        assert_same_trajectory(got, integrate_gait(provider, gait, step=0.05))


@pytest.mark.parametrize(("ceiling", "batches"), [(50, [1, 1, 1, 1]), (120, [2, 2]), (199, [3, 1]), (MAX_STEPS, [4])])
def test_a_batch_over_the_step_ceiling_is_split(monkeypatch, ceiling, batches):
    # four 50-step gaits are finished in batches of at most `ceiling` steps,
    # each gait still its separate integration
    provider = BATCH_PROVIDERS["swimmer"]
    gaits = [FourierGait(1.0, [0.0, 0.0], cos=[[0.0, a]], sin=[[a, 0.0]]) for a in (0.1, 0.3, 0.5, 0.7)]
    want = [integrate_gait(provider, gait, step=0.02) for gait in gaits]
    sizes, finish = [], integrator._finish

    def counted(provider, plans, *args):
        sizes.append(len(plans))
        return finish(provider, plans, *args)

    monkeypatch.setattr(integrator, "_finish", counted)
    monkeypatch.setattr(integrator, "MAX_STEPS", ceiling)
    for got, expected in zip(integrate_gaits(provider, gaits, step=0.02), want, strict=True):
        assert_same_trajectory(got, expected)
    assert sizes == batches


# a waypoint gait with knots, a gait whose one step holds two stance switches, and a smooth gait
MIXED_GAITS = [square_gait(), FourierGait(0.1, [0.0, 0.0], cos=[[0.0, 0.1]], sin=[[0.5, 0.0]]), CIRCLE_HALF]


@pytest.mark.parametrize(
    ("ceiling", "calls"),
    [
        (MAX_STEPS, ["plan", "plan", "plan", "finish 3"]),
        # 42 + 3 rows; the third gait's nominal 2 x 10 steps cannot join them
        (45, ["plan", "plan", "finish 2", "plan", "finish 1"]),
        # the second gait's nominal step fits beside the first's 42 rows, its three planned rows do not
        (43, ["plan", "plan", "finish 1", "plan", "finish 2"]),
    ],
)
def test_mixed_cycle_counts_give_the_separate_trajectories(monkeypatch, ceiling, calls):
    # on the crawler each gait runs its own count, 3, 1 and 2 cycles, and is
    # still its separate integration, in a batch split by rows or not
    provider, cycles = BATCH_PROVIDERS["crawler"], [3, 1, 2]
    with warnings.catch_warnings(record=True) as alone_warnings:
        warnings.simplefilter("always")
        want = [integrate_gait(provider, gait, count, 0.1) for gait, count in zip(MIXED_GAITS, cycles)]
    log, plan, finish = [], integrator._plan, integrator._finish
    monkeypatch.setattr(integrator, "_plan", lambda *args: log.append("plan") or plan(*args))
    monkeypatch.setattr(integrator, "_finish", lambda provider, plans, *args: log.append(f"finish {len(plans)}")
                        or finish(provider, plans, *args))
    monkeypatch.setattr(integrator, "MAX_STEPS", ceiling)
    with warnings.catch_warnings(record=True) as batch_warnings:
        warnings.simplefilter("always")
        got = list(integrate_gaits(provider, MIXED_GAITS, cycles, 0.1))
    assert [str(w.message) for w in batch_warnings] == [str(w.message) for w in alone_warnings]
    assert len(got) == len(want)
    for traj, expected in zip(got, want):
        assert_same_trajectory(traj, expected)
    assert log == calls


@pytest.mark.parametrize("cycles", [[1, 0, 2], [2, 3, -1], 0])
def test_a_cycle_count_below_one_for_any_gait_is_rejected(cycles):
    with pytest.raises(ValueError, match="cycle count must be at least 1, got (0|-1)$"):
        list(integrate_gaits(BATCH_PROVIDERS["swimmer"], MIXED_GAITS, cycles, 0.1))


def test_an_empty_batch_integrates_nothing():
    assert list(integrate_gaits(BATCH_PROVIDERS["swimmer"], [], step=0.05)) == []
