"""Planar transform algebra: frozen examples plus the group axioms."""

import math
import warnings
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locomech import (
    Pose,
    Twist,
    adjoint,
    bracket,
    compose,
    exp,
    hat,
    inverse,
    log,
    normalize_angle,
    vee,
)
from locomech.liegroup import (
    _SMALL_ANGLE,
    bracket_many,
    compose_chain,
    compose_many,
    exp_many,
    inverse_many,
    log_many,
    wrap_many,
)
from pointwise import reference_compose, reference_compose_chain


def test_exp_quarter_turn_unit_drive():
    # flowing (1, 0, pi/2) for unit time lands at (2/pi, 2/pi, pi/2);
    # cross-checked against a 1e6-step matrix-exponential flow before freezing
    g = exp(Twist(1.0, 0.0, 0.5 * math.pi))
    assert abs(g.x - 0.6366197723675814) < 1e-12
    assert abs(g.y - 0.6366197723675814) < 1e-12
    assert abs(g.theta - 0.5 * math.pi) < 1e-15


def test_exp_zero_twist_is_identity():
    g = exp(Twist())
    assert (g.x, g.y, g.theta) == (0.0, 0.0, 0.0)


def test_exp_pure_translation():
    g = exp(Twist(0.3, -0.7, 0.0), 2.0)
    assert abs(g.x - 0.6) < 1e-15
    assert abs(g.y + 1.4) < 1e-15
    assert g.theta == 0.0


def test_inverse_frozen_example():
    g = inverse(Pose(1.0, 1.0, 0.5 * math.pi))
    assert abs(g.x + 1.0) < 1e-15
    assert abs(g.y - 1.0) < 1e-15
    assert abs(g.theta + 0.5 * math.pi) < 1e-15


def test_compose_with_inverse_is_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = Pose(*rng.uniform(-2, 2, 2), rng.uniform(-math.pi, math.pi))
        e = compose(g, inverse(g))
        assert abs(e.x) < 1e-12 and abs(e.y) < 1e-12 and abs(e.theta) < 1e-12


def test_compose_associative():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a, b, c = (Pose(*rng.uniform(-2, 2, 2), rng.uniform(-3, 3)) for _ in range(3))
        lhs = compose(compose(a, b), c)
        rhs = compose(a, compose(b, c))
        assert abs(lhs.x - rhs.x) < 1e-12
        assert abs(lhs.y - rhs.y) < 1e-12
        assert abs(normalize_angle(lhs.theta - rhs.theta)) < 1e-12


def test_exp_one_parameter_homomorphism():
    # exp(xi, s+t) = exp(xi, s) o exp(xi, t) for collinear flows
    rng = np.random.default_rng(5)
    for _ in range(50):
        xi = Twist(*rng.uniform(-2, 2, 2), rng.uniform(-2, 2))
        s, t = rng.uniform(-1, 1, 2)
        one = exp(xi, s + t)
        two = compose(exp(xi, s), exp(xi, t))
        assert abs(one.x - two.x) < 1e-12
        assert abs(one.y - two.y) < 1e-12
        assert abs(normalize_angle(one.theta - two.theta)) < 1e-12


def test_log_exp_roundtrip_random():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        xi = Twist(
            *rng.uniform(-3, 3, 2),
            rng.uniform(-(math.pi - 0.1), math.pi - 0.1),
        )
        back = log(exp(xi))
        worst = max(worst, (back - xi).norm())
    assert worst < 1e-10


def test_log_small_angle_branch_continuity():
    # the series and closed-form branches must agree across the threshold
    for ang in (9.9e-7, 1.01e-6):
        xi = Twist(0.8, -0.4, ang)
        back = log(exp(xi))
        assert (back - xi).norm() < 1e-12


def test_exp_small_angle_branch_continuity():
    lo = exp(Twist(1.0, 1.0, 9.9e-7))
    hi = exp(Twist(1.0, 1.0, 1.01e-6))
    assert abs(lo.x - hi.x) < 1e-5
    assert abs(lo.y - hi.y) < 1e-5


def test_adjoint_frozen_example():
    # pure rotation rate seen from a frame one unit to the side picks up vx
    out = adjoint(Pose(0.0, 1.0, 0.0), Twist(0.0, 0.0, 1.0))
    assert abs(out.vx - 1.0) < 1e-15
    assert abs(out.vy) < 1e-15
    assert abs(out.omega - 1.0) < 1e-15


def test_adjoint_matches_matrix_conjugation():
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = Pose(*rng.uniform(-2, 2, 2), rng.uniform(-3, 3))
        xi = Twist(*rng.uniform(-2, 2, 2), rng.uniform(-2, 2))
        gm = g.matrix()
        m = gm @ hat(xi) @ np.linalg.inv(gm)
        direct = adjoint(g, xi)
        assert (direct - vee(m)).norm() < 1e-10


def test_bracket_matches_matrix_commutator():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = Twist(*rng.uniform(-2, 2, 2), rng.uniform(-2, 2))
        b = Twist(*rng.uniform(-2, 2, 2), rng.uniform(-2, 2))
        comm = hat(a) @ hat(b) - hat(b) @ hat(a)
        assert (bracket(a, b) - vee(comm)).norm() < 1e-12


def test_bracket_rotation_component_vanishes():
    assert bracket(Twist(1, 2, 3), Twist(-4, 5, -6)).omega == 0.0


def test_hat_vee_roundtrip():
    xi = Twist(0.1, -0.2, 0.3)
    back = vee(hat(xi))
    assert (back - xi).norm() == 0.0


def test_normalize_angle_wraps_to_half_open_interval():
    assert normalize_angle(math.pi) == pytest.approx(math.pi)
    assert normalize_angle(-math.pi) == pytest.approx(math.pi)
    assert normalize_angle(3 * math.pi) == pytest.approx(math.pi)
    assert normalize_angle(0.0) == 0.0
    assert abs(normalize_angle(2 * math.pi)) < 1e-15
    for k in (-5, -1, 2, 9):
        t = 0.4 + 2 * math.pi * k
        assert abs(normalize_angle(t) - 0.4) < 1e-12


def test_pose_normalizes_theta_on_construction():
    g = Pose(0.0, 0.0, 7.0)
    assert -math.pi < g.theta <= math.pi


def test_pose_apply_point():
    g = Pose(1.0, 2.0, 0.5 * math.pi)
    p = g.apply_point((1.0, 0.0))
    assert abs(p[0] - 1.0) < 1e-15
    assert abs(p[1] - 3.0) < 1e-15


def test_twist_vector_arithmetic():
    a = Twist(1.0, 2.0, 3.0)
    b = Twist(-0.5, 0.25, 1.0)
    assert ((a + b) - Twist(0.5, 2.25, 4.0)).norm() == 0.0
    assert ((a - b) - Twist(1.5, 1.75, 2.0)).norm() == 0.0
    assert ((2.0 * a) - Twist(2.0, 4.0, 6.0)).norm() == 0.0
    assert ((-a) + a).norm() == 0.0
    np.testing.assert_allclose(Twist.from_array(a.to_array()).to_array(), a.to_array())


def test_scalar_operations_give_inf_and_nan_without_a_warning():
    # each case overflows or makes a NaN inside its kernel, as float arithmetic would, silently
    big = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [
            inverse(Pose(math.inf, -math.inf, 0.5)),
            exp(Twist(big, big, big)),
            exp(Twist(big, -big, 1.0), 1e10),
            log(Pose(1.7e308, 1.7e308, 3.1)),
            log(Pose(math.inf, 0.0, 0.0)),
            bracket(Twist(big, big, big), Twist(big, big, big)),
        ]
    inv, spun, flown, far, infinite, br = got
    assert math.isnan(inv.x) and inv.y == math.inf and inv.theta == -0.5
    assert all(map(math.isfinite, (spun.x, spun.y, spun.theta)))
    assert math.isnan(flown.x) and flown.y == math.inf and math.isfinite(flown.theta)
    assert (far.vx, far.vy, far.omega) == (math.inf, -math.inf, 3.1)
    assert infinite.vx == math.inf and math.isnan(infinite.vy) and infinite.omega == 0.0
    assert math.isnan(br.vx) and math.isnan(br.vy) and br.omega == 0.0


# -- properties over generated inputs ----------------------------------------

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

coords = st.floats(-10.0, 10.0)
# rotation magnitudes straddling the series switch, small and large ones
switch_angles = st.floats(0.25 * _SMALL_ANGLE, 4.0 * _SMALL_ANGLE)
rotations = st.one_of(
    st.just(0.0),
    switch_angles,
    switch_angles.map(lambda a: -a),
    st.floats(-3.0, 3.0),
)
twists = st.builds(Twist, coords, coords, rotations)
poses = st.builds(Pose, coords, coords, st.one_of(rotations, st.floats(-math.pi, math.pi)))


def assert_poses_close(g, h, tol=1e-11):
    scale = 1.0 + abs(h.x) + abs(h.y)
    assert abs(g.x - h.x) <= tol * scale
    assert abs(g.y - h.y) <= tol * scale
    assert abs(normalize_angle(g.theta - h.theta)) <= tol


def assert_twists_close(a, b, tol=1e-11):
    scale = 1.0 + b.norm()
    for u, v in ((a.vx, b.vx), (a.vy, b.vy), (a.omega, b.omega)):
        assert abs(u - v) <= tol * scale


@PROPERTY
@given(twists)
def test_log_inverts_exp_across_the_series_switch(xi):
    assert_twists_close(log(exp(xi)), xi)


@PROPERTY
@given(poses)
def test_exp_inverts_log_across_the_series_switch(g):
    assert_poses_close(exp(log(g)), g)


@PROPERTY
@given(poses, poses, twists)
def test_adjoint_is_a_homomorphism(g1, g2, xi):
    assert_twists_close(adjoint(compose(g1, g2), xi), adjoint(g1, adjoint(g2, xi)), tol=1e-10)
    assert_twists_close(adjoint(inverse(g1), adjoint(g1, xi)), xi, tol=1e-10)


@PROPERTY
@given(poses, poses, poses)
def test_compose_is_associative(a, b, c):
    assert_poses_close(compose(compose(a, b), c), compose(a, compose(b, c)), tol=1e-10)


@PROPERTY
@given(st.integers(-40, 40), st.sampled_from([-1.0, 1.0]), st.floats(1e-15, 1e-9))
def test_normalize_angle_maps_plus_and_minus_pi_into_half_open_interval(turns, side, nudge):
    # odd multiples of pi land on +pi, never -pi; a nudge past either end
    # wraps to the other end
    assert normalize_angle(side * math.pi) == math.pi
    wrapped = normalize_angle(side * math.pi + turns * 2.0 * math.pi)
    assert -math.pi < wrapped <= math.pi
    assert abs(abs(wrapped) - math.pi) <= 1e-12 * (1 + abs(turns))
    inside = normalize_angle(side * (math.pi - nudge))
    assert -math.pi < inside <= math.pi
    assert abs(inside - side * (math.pi - nudge)) <= 1e-15


# -- array kernels: bitwise their scalar twins --------------------------------

KERNELS = settings(derandomize=True, database=None, max_examples=200, deadline=None)

# angles on both sides of the series switch and past +-pi, so compose sums,
# inverses of pi and exp of a large rotation all need the wrap
wide_angles = st.one_of(rotations, st.floats(3.0, math.pi), st.floats(-math.pi, -3.0), st.floats(-12.0, 12.0))
wide_twists = st.builds(Twist, coords, coords, wide_angles)
wide_poses = st.builds(Pose, coords, coords, wide_angles)


def pose_parts(gs):
    return np.array([(g.x, g.y, g.theta) for g in gs]).T


def twist_parts(xs):
    return np.array([(x.vx, x.vy, x.omega) for x in xs]).T


def assert_bitwise(got, want):
    """got (3, n) against n scalar results; tobytes tells -0.0 from 0.0."""
    got = np.ascontiguousarray(got)
    assert got.shape == want.shape
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@KERNELS
@given(st.lists(st.tuples(wide_poses, wide_poses), min_size=1, max_size=16))
def test_compose_and_inverse_many_are_their_scalar_twins_bitwise(pairs):
    g1, g2 = pose_parts([a for a, _ in pairs]), pose_parts([b for _, b in pairs])
    assert_bitwise(compose_many(g1, g2), pose_parts([compose(a, b) for a, b in pairs]))
    assert_bitwise(inverse_many(g1), pose_parts([inverse(a) for a, _ in pairs]))
    # broadcast: one scalar pose against the batch
    a = pairs[0][0]
    assert_bitwise(compose_many((a.x, a.y, a.theta), g2), pose_parts([compose(a, b) for _, b in pairs]))


@KERNELS
@given(st.lists(wide_twists, min_size=1, max_size=16))
def test_exp_many_is_exp_bitwise(xis):
    assert_bitwise(exp_many(twist_parts(xis)), pose_parts([exp(xi) for xi in xis]))


@KERNELS
@given(st.lists(wide_poses, min_size=1, max_size=16))
def test_log_many_is_log_bitwise(gs):
    assert_bitwise(log_many(pose_parts(gs)), twist_parts([log(g) for g in gs]))


@KERNELS
@given(st.lists(st.tuples(wide_twists, wide_twists), min_size=1, max_size=16))
def test_bracket_many_is_bracket_bitwise(pairs):
    a, b = twist_parts([x for x, _ in pairs]), twist_parts([y for _, y in pairs])
    assert_bitwise(bracket_many(a, b), twist_parts([bracket(x, y) for x, y in pairs]))


@KERNELS
@given(st.lists(st.one_of(wide_angles, st.sampled_from([math.pi, -math.pi, 3 * math.pi])), min_size=1))
def test_wrap_many_is_normalize_angle_bitwise(angles):
    got = wrap_many(np.array(angles))
    assert got.tobytes() == np.array([normalize_angle(t) for t in angles]).tobytes()


@KERNELS
@given(wide_poses, wide_poses)
@example(Pose(1.0, -2.0, math.pi), Pose(0.5, 0.25, math.pi))
@example(Pose(0.0, 1.0, -0.5 * math.pi), Pose(2.0, 0.0, -0.5 * math.pi))
@example(Pose(-1.0, 3.0, 3.0), Pose(1.0, 1.0, 3.0))
@example(Pose(2.0, -1.0, -3.0), Pose(-0.5, 0.5, -2.5))
@example(Pose(1.0, 1.0, math.pi), Pose(-1.0, 0.0, math.nextafter(math.pi, 0.0)))
def test_compose_is_the_plain_float_formula_bitwise(a, b):
    # compose has no formula of its own: its one kernel column is the float expressions,
    # on both sides of +-pi and where the angle sum wraps (pi + pi to 0, -pi/2 - pi/2 to pi)
    g = compose(a, b)
    want = reference_compose((a.x, a.y, a.theta), (b.x, b.y, b.theta))
    assert np.array([g.x, g.y, g.theta]).tobytes() == np.array(want).tobytes()


def test_kernel_inputs_cover_both_series_branches_and_the_wrap():
    # the strategies above must reach the cases the kernels special-case
    xi = twist_parts([Twist(1.0, 2.0, w) for w in (0.5 * _SMALL_ANGLE, 2.0 * _SMALL_ANGLE, 7.0)])
    assert_bitwise(exp_many(xi), pose_parts([exp(Twist(*col)) for col in xi.T]))
    g = pose_parts([Pose(1.0, -1.0, math.pi), Pose(0.5, 0.5, 3.0)])
    assert inverse_many(g)[2, 0] == math.pi
    assert_bitwise(compose_many(g, g), pose_parts([compose(Pose(*c), Pose(*c)) for c in g.T]))


# -- the running pose product: bitwise the compose chain ----------------------

_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, math.inf, -math.inf, math.nan]
chain_coords = st.one_of(coords, st.floats(-1e300, 1e300), st.sampled_from(_SPECIALS))
chain_angles = st.one_of(
    wide_angles,
    st.floats(-1e300, 1e300),
    st.sampled_from([math.pi, -math.pi, 3 * math.pi, -3 * math.pi] + _SPECIALS),
)
chain_increments = st.lists(st.tuples(chain_coords, chain_coords, chain_angles), max_size=16)


def compose_chain_reference(increments):
    """The Pose chain of (3, n) increments, as (3, n + 1); ValueError where Pose cannot wrap an angle."""
    return pose_parts(list(accumulate(map(Pose, *increments.tolist()), compose, initial=Pose())))


def assert_the_chain(incs, reference):
    """compose_chain against reference: bitwise for finite increments; past a non-finite one,
    NaN where reference is NaN, whatever its sign, and every other entry bitwise, inf included."""
    increments = np.array(incs, dtype=float).reshape(-1, 3).T
    try:
        want = reference(increments)
    except ValueError:
        # an infinite angle has no wrap, for Pose and for the loop alike
        with pytest.raises(ValueError):
            compose_chain(increments)
        return
    got = compose_chain(increments)
    if np.isfinite(increments).all():
        assert_bitwise(got, want)
        return
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert_bitwise(np.where(nan, 0.0, got), np.where(nan, 0.0, want))


@KERNELS
@given(chain_increments)
@example([(1.0, 2.0, math.pi), (0.5, -0.0, math.pi), (-1.0, 5e-324, -math.pi), (3.0, 1.0, 2.5)])
@example([(1e300, 1e300, 3.0), (1e300, -1e300, 3.0), (math.nan, 1.0, 0.5), (1.0, 1.0, math.nan)])
@example([(math.inf, 0.0, 1.0), (-math.inf, 1.0, -1.0), (2.0, 3.0, 1e300)])
@example([(1.0, 1.0, math.inf)])
@example([])
def test_compose_chain_is_the_compose_chain_bitwise(incs):
    # the same float operations in the same order give the same bits, a NaN's sign aside
    assert_the_chain(incs, compose_chain_reference)


# increments that wrap the angle on every step, sit on +-pi, or step by a
# large rotation, and long ones that wrap every few steps
wrapping_angles = st.one_of(
    st.sampled_from([math.pi, -math.pi, 3.0, -3.0, 2.5, math.nextafter(math.pi, 0.0)]),
    st.floats(2.0, 3.2),
    st.floats(-3.2, -2.0),
)
run_increments = st.lists(st.tuples(chain_coords, chain_coords, st.one_of(chain_angles, wrapping_angles)), max_size=40)


@settings(KERNELS, max_examples=120)
@given(run_increments)
@example([(1.0, 0.5, 3.0)] * 40)
@example([(0.1, -0.2, -3.0)] * 41)
@example([(1.0, 1.0, math.pi), (1.0, 1.0, -math.pi), (2.0, 0.0, math.pi), (0.0, 1.0, math.pi)])
@example([(1.0, 2.0, 0.5), (1.0, math.nan, 0.5), (3.0, 1.0, 3.0)])
@example([(1.0, 2.0, 0.5), (math.inf, 0.0, 0.5), (0.0, math.inf, 0.5), (1.0, -math.inf, 3.0)])
def test_compose_chain_is_the_float_loop_bitwise(incs):
    # the running sums restart at every wrap, however often it comes
    assert_the_chain(incs, reference_compose_chain)


def test_compose_chain_wrapping_often_on_a_long_path():
    rng = np.random.default_rng(7)
    for angles in (np.full(5000, 3.0), rng.uniform(-3.1, 3.1, 5000), rng.uniform(-0.05, 0.05, 5000)):
        increments = np.vstack([rng.uniform(-1.0, 1.0, (2, len(angles))), angles])
        assert_bitwise(compose_chain(increments), reference_compose_chain(increments))


@settings(KERNELS, max_examples=60)
@given(st.lists(st.lists(st.tuples(coords, coords, st.one_of(wide_angles, wrapping_angles)), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_compose_chain_of_several_chains_is_each_chain_bitwise(chains):
    increments = np.array(chains, dtype=float).transpose(2, 0, 1)
    got = compose_chain(increments)
    assert got.shape == (3, len(chains), 4)
    for i, chain in enumerate(increments.swapaxes(0, 1)):
        assert_bitwise(got[:, i], reference_compose_chain(chain))
