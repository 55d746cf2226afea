"""Concrete model builders: chain kinematics, drag balances, stances, slip."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locomech import (
    ChainModel,
    DragModel,
    FourierGait,
    LeggedModel,
    PiecewiseConnection,
    SlipModel,
    arm_com_pose_map,
    build_contact_map,
    build_drag_constraints,
    build_slip_constraints,
    Pose,
    compose,
    crawler_slip_model,
    foot_position,
    inverse,
    linear_constraint_connection,
    many_legged_drag_surrogate,
    mirrored_slip_walker,
    objective_displacement,
    rotate_translate_map,
    three_link_swimmer,
    two_leg_crawler,
    wavy_pose_map,
)
from locomech._numerics import _gauss_legendre
from locomech.models import _link_frames, _viscous_balance


def pose_close(pose, xyt, tol=1e-12):
    return (
        abs(pose.x - xyt[0]) < tol
        and abs(pose.y - xyt[1]) < tol
        and abs(pose.theta - xyt[2]) < tol
    )


def link_poses(chain, r):
    """The link frames _link_frames gives at one shape, as Pose objects."""
    return [Pose(*f) for f in zip(*_link_frames(chain, r))]


class TestChainKinematics:
    def test_straight_chain(self):
        frames = link_poses(ChainModel([1.0, 1.0, 1.0]), np.zeros(2))
        assert pose_close(frames[0], (-1.0, 0.0, 0.0))
        assert pose_close(frames[1], (0.0, 0.0, 0.0))
        assert pose_close(frames[2], (1.0, 0.0, 0.0))

    def test_hand_forward_kinematics(self):
        # three hand-worked configurations
        half_pi = 0.5 * math.pi
        frames = link_poses(ChainModel([1.0, 1.0, 1.0]), np.array([half_pi, 0.0]))
        assert pose_close(frames[0], (-0.5, 0.5, -half_pi))
        assert pose_close(frames[2], (1.0, 0.0, 0.0))
        frames = link_poses(ChainModel([1.0, 1.0, 1.0]), np.array([0.0, half_pi]))
        assert pose_close(frames[0], (-1.0, 0.0, 0.0))
        assert pose_close(frames[2], (0.5, 0.5, half_pi))
        frames = link_poses(ChainModel([1.0, 2.0, 1.0]), np.array([half_pi, half_pi]))
        assert pose_close(frames[0], (-1.0, 0.5, -half_pi))
        assert pose_close(frames[2], (1.0, 0.5, half_pi))

    def test_deterministic(self):
        chain = ChainModel([0.8, 1.1, 0.9])
        r = np.array([0.37, -0.52])
        a = link_poses(chain, r)
        b = link_poses(chain, r)
        for fa, fb in zip(a, b):
            assert (fa.x, fa.y, fa.theta) == (fb.x, fb.y, fb.theta)

    def test_frames_are_exact_pose_products(self):
        # every row of one batched call against the frames chained outward
        # from the middle link with Pose objects, joint angles past +-pi
        # included so the angle wrap is exercised
        chain = ChainModel([1.0, 0.7, 1.3, 0.9, 1.1])
        half = 0.5 * chain.lengths
        shapes = np.random.default_rng(12).uniform(-5.0, 5.0, (40, 4))
        for r, got in zip(shapes, np.stack(_link_frames(chain, shapes), axis=-1)):
            ref = [Pose()] * 5
            for k in (2, 3):
                hop = compose(Pose(half[k], 0.0, r[k]), Pose(half[k + 1], 0.0, 0.0))
                ref[k + 1] = compose(ref[k], hop)
            for k in (1, 0):
                hop = compose(Pose(-half[k + 1], 0.0, -r[k]), Pose(-half[k], 0.0, 0.0))
                ref[k] = compose(ref[k + 1], hop)
            assert got.tolist() == [[p.x, p.y, p.theta] for p in ref]

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            _link_frames(ChainModel([1.0, 1.0, 1.0]), np.zeros(3))

    def test_even_link_count_rejected(self):
        with pytest.raises(ValueError):
            ChainModel([1.0, 1.0])
        with pytest.raises(ValueError):
            ChainModel([1.0, -1.0, 1.0])


class TestDragBalance:
    def test_single_link_matrix(self):
        # drag of a lone straight link is diagonal in its own frame:
        # c_t L against surge, c_n L against sway, c_n L^3/12 against spin
        L, ct, cn = 1.3, 0.7, 2.1
        system = build_drag_constraints(DragModel(ChainModel([L]), ct, cn), np.zeros(0))
        exact = np.diag([-ct * L, -cn * L, -cn * L**3 / 12.0])
        assert np.abs(system.m - exact).max() < 1e-12
        assert system.n.shape == (3, 0)

    def test_straight_isotropic_swimmer_definite(self):
        model = DragModel(ChainModel([1.0, 1.0, 1.0]), 1.0, 1.0)
        m = build_drag_constraints(model, np.zeros(2)).m
        assert np.abs(m - m.T).max() < 1e-12
        assert np.linalg.eigvalsh(m).max() < 0.0

    def test_quadrature_self_convergence(self):
        coarse = three_link_swimmer()
        fine = three_link_swimmer(quadrature=64)
        rng = np.random.default_rng(14)
        for _ in range(10):
            r = rng.uniform(-1.2, 1.2, 2)
            a = build_drag_constraints(coarse, r)
            b = build_drag_constraints(fine, r)
            assert np.abs(a.m - b.m).max() < 1e-6
            assert np.abs(a.n - b.n).max() < 1e-6

    def test_dissipation_positive_definite(self):
        model = three_link_swimmer()
        rng = np.random.default_rng(11)
        for _ in range(100):
            r = rng.uniform(-1.2, 1.2, 2)
            m = build_drag_constraints(model, r).m
            assert np.linalg.eigvalsh(-m).min() > 0.0

    def test_bad_parameters_rejected(self):
        chain = ChainModel([1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            DragModel(chain, 0.0, 1.0)
        with pytest.raises(ValueError):
            DragModel(chain, 1.0, -2.0)
        with pytest.raises(ValueError):
            DragModel(chain, 1.0, 1.0, quadrature=1)


class TestLeggedStances:
    def test_foot_geometry(self):
        model = two_leg_crawler()
        p = foot_position(model, 0, np.zeros(2))
        np.testing.assert_allclose(p, [-0.5, -1.0], atol=1e-15)
        r = np.array([0.0, 0.3])
        g, want = inverse(build_contact_map(model, {1})(r)), ref_foot_pose(model, 1, r)
        assert pose_close(g, (want.x, want.y, want.theta))
        assert g.theta == pytest.approx(0.3)

    def test_single_foot_map_is_translation_at_rest(self):
        model = LeggedModel(
            hips=[[0.0, 0.0]],
            leg_lengths=[0.8],
            rest_angles=[0.0],
            selector="fixed",
            fixed_contacts=frozenset({0}),
        )
        F = build_contact_map(model, {0})
        assert pose_close(F(np.zeros(1)), (-0.8, 0.0, 0.0))

    def test_leg_sweep_rotates_body_oppositely(self):
        # planted flat foot: sweeping the leg by delta turns the body by
        # -delta while the foot stays pinned in the stance frame
        model = LeggedModel(
            hips=[[0.0, 0.0]],
            leg_lengths=[0.8],
            rest_angles=[0.0],
            selector="fixed",
            fixed_contacts=frozenset({0}),
        )
        F = build_contact_map(model, {0})
        for delta in (-0.7, 0.2, 1.1):
            g = F(np.array([delta]))
            assert g.theta == pytest.approx(-delta, abs=1e-14)
            foot_world = g.apply_point(foot_position(model, 0, np.array([delta])))
            assert np.abs(foot_world).max() < 1e-14

    def test_two_foot_map_matches_root_finder(self):
        scipy_root = pytest.importorskip("scipy.optimize").root
        model = mirrored_slip_walker().geometry
        F = build_contact_map(model, {0, 1})

        def residual(v, r):
            from locomech import Pose

            g = Pose(v[0], v[1], v[2])
            p0 = g.apply_point(foot_position(model, 0, r))
            p1 = g.apply_point(foot_position(model, 1, r))
            return [p0[0], p0[1], p1[1]]

        shapes = [(0.3, -0.2), (0.0, 0.0), (-0.6, 0.45), (1.0, 0.8), (-0.25, -0.9)]
        for rv in shapes:
            r = np.array(rv)
            g = F(r)
            sol = scipy_root(residual, x0=[g.x + 0.01, g.y - 0.01, g.theta + 0.01], args=(r,))
            assert sol.success
            assert abs(g.x - sol.x[0]) < 1e-9
            assert abs(g.y - sol.x[1]) < 1e-9
            assert abs(g.theta - sol.x[2]) < 1e-9
            # the second pinned foot lies on the +x ray from the first
            p1 = g.apply_point(foot_position(model, 1, r))
            assert p1[0] > 0.0

    def test_degenerate_two_foot_stance(self):
        model = LeggedModel(
            hips=[[0.0, 0.0], [0.0, 0.0]],
            leg_lengths=[1.0, 1.0],
            rest_angles=[0.0, 0.0],
            selector="fixed",
            fixed_contacts=frozenset({0, 1}),
        )
        F = build_contact_map(model, {0, 1})
        # the feet coincide at the first and third shapes only
        shapes = np.array([[0.0, 0.0], [0.3, -0.2], [1.5, 1.5], [-0.4, 0.1]])
        poses = F.poses_many(shapes)
        assert np.array_equal(np.isnan(poses).all(axis=0), [True, False, True, False])
        assert np.isfinite(poses[:, [1, 3]]).all()
        for r, col in zip(shapes, poses.T):
            g = F(r)
            assert np.array([g.x, g.y, g.theta]).tobytes() == col.tobytes()

    def test_contact_map_validation(self):
        model = two_leg_crawler()
        with pytest.raises(ValueError):
            build_contact_map(model, set())
        with pytest.raises(ValueError):
            build_contact_map(model, {0, 5})

    def test_selector_rule(self):
        model = two_leg_crawler()
        catalog = model.contact_catalog()
        assert catalog[model.contacts_many(np.array([0.2, 0.1])[None])[0]] == frozenset({0})
        assert catalog[model.contacts_many(np.array([0.1, 0.2])[None])[0]] == frozenset({1})
        # tie goes to the lower index
        assert catalog[model.contacts_many(np.array([0.3, 0.3])[None])[0]] == frozenset({0})

    def test_selector_piecewise_constant(self):
        model = two_leg_crawler()
        grid = np.linspace(-1.0, 1.0, 41)
        for r1 in grid:
            for r2 in grid:
                want = frozenset({0 if r1 >= r2 else 1})
                assert model.contact_catalog()[model.contacts_many(np.array([r1, r2])[None])[0]] == want

    def test_contact_catalog(self):
        assert two_leg_crawler().contact_catalog() == (frozenset({0}), frozenset({1}))
        walker = mirrored_slip_walker().geometry
        assert walker.contact_catalog() == (frozenset({0, 1}),)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            LeggedModel(hips=[[0.0, 0.0]], leg_lengths=[1.0], rest_angles=[0.0], selector="clock")
        with pytest.raises(ValueError):
            LeggedModel(hips=[[0.0, 0.0]], leg_lengths=[1.0], rest_angles=[0.0], selector="fixed")
        with pytest.raises(ValueError):
            LeggedModel(
                hips=[[0.0, 0.0]],
                leg_lengths=[1.0],
                rest_angles=[0.0],
                selector="fixed",
                fixed_contacts=frozenset({3}),
            )
        with pytest.raises(ValueError):
            LeggedModel(hips=[[0.0, 0.0]], leg_lengths=[-1.0], rest_angles=[0.0])

    def test_fixed_stance_of_more_than_two_feet_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="one or two feet"):
            LeggedModel(
                hips=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                leg_lengths=[1.0, 1.0, 1.0],
                rest_angles=[0.0, 0.0, 0.0],
                selector="fixed",
                fixed_contacts=frozenset({0, 1, 2}),
            )


class TestSlipBalance:
    def test_swing_leg_column_vanishes(self):
        model = crawler_slip_model()
        a = linear_constraint_connection(
            build_slip_constraints(model, {0}, np.array([0.4, -0.2]))
        )
        assert np.abs(a[:, 1]).max() == 0.0

    def test_frozen_legs_pin_the_body(self):
        # isotropic dissipation at one foot: zero shape rate forces zero twist
        model = crawler_slip_model()
        system = build_slip_constraints(model, {0}, np.array([0.1, 0.5]))
        xi = np.linalg.solve(system.m, np.zeros(3))
        assert np.abs(xi).max() == 0.0

    def test_single_contact_matches_planted_foot(self):
        model = crawler_slip_model()
        r = np.array([0.4, -0.2])
        a_slip = linear_constraint_connection(build_slip_constraints(model, {0}, r))
        a_pin = PiecewiseConnection(model.geometry).connection_for(frozenset({0}), r)
        assert np.abs(a_slip - a_pin).max() < 1e-10

    def test_mirror_symmetric_stance(self):
        walker = mirrored_slip_walker()
        for c in (0.2, -0.5, 0.9):
            a = linear_constraint_connection(
                build_slip_constraints(walker, {0, 1}, np.array([c, -c]))
            )
            xi = a @ np.array([1.0, -1.0])
            assert abs(xi[1]) < 1e-12
            assert abs(xi[2]) < 1e-12

    def test_stick_limit_converges_to_planted_foot(self):
        # stiffening one contact against a fixed partner pins the body to it;
        # the gap decays like the coefficient ratio
        geometry = crawler_slip_model().geometry
        r = np.array([0.4, -0.2])
        pinned = PiecewiseConnection(geometry).connection_for(frozenset({0}), r)
        gaps = []
        for s in (1e1, 1e2, 1e3, 1e4, 1e5):
            stiff = SlipModel(
                geometry,
                slip_tangential=np.array([s, 1.0]),
                slip_normal=np.array([s, 1.0]),
                slip_yaw=np.array([s, 1.0]),
            )
            a = linear_constraint_connection(build_slip_constraints(stiff, {0, 1}, r))
            gaps.append(np.abs(a - pinned).max())
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-3
        assert gaps[0] > 1e-2

    @pytest.mark.parametrize("repeated, distinct", [([0, 0, 1], [0, 1]), ((1, 1), (1,)), ([1, 0, 1, 0], {0, 1})])
    def test_a_repeated_foot_counts_once(self, repeated, distinct):
        # a contact set is a set: a foot listed twice resists once
        model = crawler_slip_model()
        r = np.array([[0.3, -0.2], [-0.5, 0.7]])
        twice, once = build_slip_constraints(model, repeated, r), build_slip_constraints(model, distinct, r)
        assert np.array_equal(twice.m, once.m) and np.array_equal(twice.n, once.n)
        a_twice, a_once = (model.provider(c).connection_many(None, r) for c in (repeated, distinct))
        assert np.array_equal(a_twice, a_once)

    def test_slip_validation(self):
        model = crawler_slip_model()
        with pytest.raises(ValueError):
            build_slip_constraints(model, set(), np.zeros(2))
        with pytest.raises(ValueError):
            build_slip_constraints(model, {7}, np.zeros(2))
        with pytest.raises(ValueError):
            build_slip_constraints(model, {0}, np.zeros(3))
        with pytest.raises(ValueError):
            SlipModel(model.geometry, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            SlipModel(model.geometry, np.ones(3), 1.0, 1.0)

    def test_coefficient_arrays_are_copied(self):
        # the model keeps read-only copies, so the caller's arrays stay its own
        given_tangential = np.array([2.0, 1.0])
        model = SlipModel(crawler_slip_model().geometry, given_tangential, 1.0, 1.0)
        assert given_tangential.flags.writeable and model.slip_tangential is not given_tangential
        given_tangential[0] = 5.0
        assert model.slip_tangential.tolist() == [2.0, 1.0]
        assert not model.slip_tangential.flags.writeable


class TestManyLeggedSurrogate:
    def test_two_contacts_equal_two_point_rule(self):
        # hand-computed two-point midpoint sums on a lone link
        L, ct, cn = 1.3, 0.7, 2.1
        single = DragModel(ChainModel([L]), ct, cn)
        system = many_legged_drag_surrogate(single, 2, np.zeros(0))
        exact = np.diag([-ct * L, -cn * L, -cn * L**3 / 16.0])
        assert np.abs(system.m - exact).max() < 1e-12

    def test_dense_contacts_approach_drag_integral(self):
        L, ct, cn = 1.3, 0.7, 2.1
        single = DragModel(ChainModel([L]), ct, cn)
        system = many_legged_drag_surrogate(single, 64, np.zeros(0))
        exact = -cn * L**3 / 12.0
        assert abs(system.m[2, 2] - exact) / abs(exact) <= 1e-3

    def test_doubling_contacts_shrinks_gap(self):
        model = three_link_swimmer()
        rng = np.random.default_rng(17)
        for _ in range(5):
            r = rng.uniform(-1.0, 1.0, 2)
            ref = build_drag_constraints(model, r)
            gaps = []
            for m in (2, 4, 8, 16, 32, 64):
                s = many_legged_drag_surrogate(model, m, r)
                gaps.append(max(np.abs(s.m - ref.m).max(), np.abs(s.n - ref.n).max()))
            assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_contact_count_validation(self):
        with pytest.raises(ValueError):
            many_legged_drag_surrogate(three_link_swimmer(), 1, np.zeros(2))


def test_provider_shortcuts():
    assert three_link_swimmer().provider().dim == 2
    assert two_leg_crawler().provider().dim == 2
    assert crawler_slip_model().provider({0}).dim == 2


_FIVE_LINKS = DragModel(ChainModel([1.0, 0.7, 1.3, 0.9, 1.1]), 1.0, 2.5, quadrature=5)


@pytest.mark.parametrize(
    "build, dim",
    [
        (lambda r: build_drag_constraints(three_link_swimmer(), r), 2),
        (lambda r: build_drag_constraints(_FIVE_LINKS, r), 4),
        (lambda r: many_legged_drag_surrogate(_FIVE_LINKS, 3, r), 4),
        (lambda r: build_slip_constraints(mirrored_slip_walker(), {0, 1}, r), 2),
        (lambda r: build_slip_constraints(crawler_slip_model(), {1}, r), 2),
    ],
    ids=["drag", "drag_five_links", "many_legged", "slip_both_feet", "slip_one_foot"],
)
def test_batched_builders_match_single_shapes(build, dim):
    # shapes (4, 6, d) give blocks (4, 6, 3, 3) and (4, 6, 3, d), each
    # bitwise the single-shape blocks; angles past +-pi included
    shapes = np.random.default_rng(6).uniform(-4.0, 4.0, (4, 6, dim))
    batch = build(shapes)
    assert batch.m.shape == (4, 6, 3, 3) and batch.n.shape == (4, 6, 3, dim)
    for idx in np.ndindex(4, 6):
        one = build(shapes[idx])
        assert np.array_equal(batch.m[idx], one.m), idx
        assert np.array_equal(batch.n[idx], one.n), idx


# A lone straight link resists spin with c_n m2, the second moment of its
# stations: L^3/12 (1 - 1/m^2) for m midpoint contacts, and L^3/12 for any
# Gauss rule of 2 or more points, since the integrand is quadratic along the
# link.  Exact values are rational in the float inputs.
_L, _CT, _CN = 1.3, 0.7, 2.1


def _eps_off(got, exact: Fraction) -> float:
    return float(abs(Fraction(got) - exact) / abs(exact)) / np.finfo(float).eps


@pytest.mark.parametrize("m", [2, 3, 8, 64])
def test_surrogate_spin_is_the_exact_midpoint_moment(m):
    system = many_legged_drag_surrogate(DragModel(ChainModel([_L]), _CT, _CN), m, np.zeros(0))
    exact = -Fraction(_CN) * Fraction(_L) ** 3 / 12 * (1 - Fraction(1, m * m))
    assert _eps_off(system.m[2, 2], exact) <= 4.0


@pytest.mark.parametrize("q", range(2, 17))
def test_gauss_spin_is_the_exact_integral(q):
    system = build_drag_constraints(DragModel(ChainModel([_L]), _CT, _CN, quadrature=q), np.zeros(0))
    exact = -Fraction(_CN) * Fraction(_L) ** 3 / 12
    # numpy's rounded nodes and weights carry their own error: on the 8-point
    # rule, sum w x^2 is 7.75 eps from 2/3 in exact arithmetic; the balance
    # may add 2 eps to it
    nodes, weights = _gauss_legendre(q)
    rule = sum(Fraction(w) * Fraction(x) ** 2 for x, w in zip(nodes, weights))
    assert _eps_off(system.m[2, 2], exact) <= 2.0 + _eps_off(rule, Fraction(2, 3))


def _mp_compose(a, b):
    c, s = mpmath.cos(a[2]), mpmath.sin(a[2])
    return (a[0] + c * b[0] - s * b[1], a[1] + s * b[0] + c * b[1], a[2] + b[2])


def mp_balance(lengths, r, c_t, c_n, stations):
    """50-digit [m | n] of -sum_w B^T D B, summed station by station.

    stations(j, length) lists link j's (offset, weight) pairs as mpf.  Link
    frames are chained outward from the middle link as the model documents;
    joint k swings the links outboard of it, +1 on the far side of the middle
    link and -1 on the near side.
    """
    with mpmath.workdps(50):
        lengths = [mpmath.mpf(float(v)) for v in lengths]
        r = [mpmath.mpf(float(v)) for v in r]
        n_links, mid = len(lengths), len(lengths) // 2
        d = n_links - 1
        frames = [None] * n_links
        frames[mid] = (mpmath.mpf(0),) * 3
        for k in range(mid, d):
            hop = _mp_compose((lengths[k] / 2, 0, r[k]), (lengths[k + 1] / 2, 0, 0))
            frames[k + 1] = _mp_compose(frames[k], hop)
        for k in range(mid - 1, -1, -1):
            hop = _mp_compose((-lengths[k + 1] / 2, 0, -r[k]), (-lengths[k] / 2, 0, 0))
            frames[k] = _mp_compose(frames[k + 1], hop)
        joints = [_mp_compose(frames[k], (lengths[k] / 2, 0, 0)) for k in range(d)]
        total = mpmath.zeros(3, 3 + d)
        for j, (x, y, th) in enumerate(frames):
            t = mpmath.matrix([mpmath.cos(th), mpmath.sin(th)])
            n = mpmath.matrix([-t[1], t[0]])
            drag = c_t * t * t.T + c_n * n * n.T
            for s, w in stations(j, lengths[j]):
                px, py = x + s * t[0], y + s * t[1]
                b = mpmath.zeros(2, 3 + d)
                b[0, 0], b[1, 1], b[0, 2], b[1, 2] = 1, 1, -py, px
                for k in range(d):
                    sign = 1 if mid <= k < j else (-1 if j <= k < mid else 0)
                    b[0, 3 + k], b[1, 3 + k] = -sign * (py - joints[k][1]), sign * (px - joints[k][0])
                total += w * (b[:, :3].T * drag * b)
        return -np.array(total.tolist(), dtype=float)


def _mp_gauss(j, length):
    # two-point Gauss-Legendre is exact for the quadratic integrand
    half = length / 2
    return [(-half / mpmath.sqrt(3), half), (half / mpmath.sqrt(3), half)]


def _mp_midpoint(m):
    return lambda j, length: [(length * ((i + mpmath.mpf(0.5)) / m - mpmath.mpf(0.5)), length / m) for i in range(m)]


# off-centre stations with unequal weights, so the first moments are far from zero
_SKEWED = (np.array([-0.31, 0.02, 0.27, 0.45]), np.array([0.2, 0.35, 0.1, 0.4]))


def _skewed(lengths):
    return lengths[:, None] * _SKEWED[0], lengths[:, None] * _SKEWED[1]


def _mp_skewed(j, length):
    return [(length * mpmath.mpf(s), length * mpmath.mpf(w)) for s, w in zip(*_SKEWED)]


@pytest.mark.parametrize(
    "build, chain, c_t, c_n, stations",
    [
        (lambda r: build_drag_constraints(three_link_swimmer(), r), ChainModel([1.0] * 3), 1.0, 2.0, _mp_gauss),
        (lambda r: build_drag_constraints(_FIVE_LINKS, r), _FIVE_LINKS.chain, 1.0, 2.5, _mp_gauss),
        (lambda r: many_legged_drag_surrogate(_FIVE_LINKS, 3, r), _FIVE_LINKS.chain, 1.0, 2.5, _mp_midpoint(3)),
        (lambda r: many_legged_drag_surrogate(three_link_swimmer(), 16, r), ChainModel([1.0] * 3), 1.0, 2.0,
         _mp_midpoint(16)),
        (lambda r: _viscous_balance(_FIVE_LINKS.chain, r, 0.7, 2.1, _skewed), _FIVE_LINKS.chain, 0.7, 2.1, _mp_skewed),
    ],
    ids=["drag", "drag_five_links", "many_legged_m3", "many_legged_m16", "skewed_stations"],
)
def test_drag_blocks_match_a_50_digit_station_sum(build, chain, c_t, c_n, stations):
    shapes = np.random.default_rng(50).uniform(-2.0, 2.0, (10, chain.shape_dim))
    system = build(shapes)
    for r, m, n in zip(shapes, system.m, system.n):
        ref = mp_balance(chain.lengths, r, c_t, c_n, stations)
        for got, want in ((m, ref[:, :3]), (n, ref[:, 3:])):
            assert np.abs(got - want).max() <= 4e-15 * np.abs(want).max(), r


def mp_slip_balance(model, c, r):
    """50-digit [m | n] of -sum (B^T D B + yaw e^T e) over the feet in c.

    A foot at p = hip + L (cos a, sin a), a = rest angle + r_i, moves at
    B [xi; rdot] = (vx - w py, vy + w px) + r_i' L (-sin a, cos a), resists
    with D = c_t t t^T + c_n n n^T along its frame t = (cos r_i, sin r_i),
    and resists its spin e [xi; rdot] = w + r_i' with the yaw coefficient.
    """
    geo = model.geometry
    with mpmath.workdps(50):
        total = mpmath.zeros(3, 3 + geo.shape_dim)
        for i in sorted(c):
            hip_x, hip_y = (mpmath.mpf(float(v)) for v in geo.hips[i])
            rest, length, r_i = (mpmath.mpf(float(v)) for v in (geo.rest_angles[i], geo.leg_lengths[i], r[i]))
            a = rest + r_i
            px, py = hip_x + length * mpmath.cos(a), hip_y + length * mpmath.sin(a)
            t = mpmath.matrix([mpmath.cos(r_i), mpmath.sin(r_i)])
            n = mpmath.matrix([-t[1], t[0]])
            drag = float(model.slip_tangential[i]) * t * t.T + float(model.slip_normal[i]) * n * n.T
            b = mpmath.zeros(2, 3 + geo.shape_dim)
            b[0, 0], b[1, 1], b[0, 2], b[1, 2] = 1, 1, -py, px
            b[0, 3 + i], b[1, 3 + i] = -length * mpmath.sin(a), length * mpmath.cos(a)
            e = mpmath.zeros(1, 3 + geo.shape_dim)
            e[0, 2], e[0, 3 + i] = 1, 1
            total += b[:, :3].T * drag * b + float(model.slip_yaw[i]) * e[:, :3].T * e
        return -np.array(total.tolist(), dtype=float)


_UNEQUAL_CRAWLER = crawler_slip_model(slip_tangential=[1.0, 2.5], slip_normal=[3.0, 0.7], slip_yaw=[0.5, 1.3])


@pytest.mark.parametrize(
    "model, c",
    [
        (mirrored_slip_walker(), {0, 1}),
        (mirrored_slip_walker(), {1}),
        (crawler_slip_model(), {0}),
        (_UNEQUAL_CRAWLER, {0, 1}),
    ],
    ids=["walker_both_feet", "walker_foot_1", "crawler_foot_0", "unequal_crawler_both_feet"],
)
def test_slip_blocks_match_a_50_digit_foot_sum(model, c):
    shapes = np.random.default_rng(50).uniform(-2.0, 2.0, (10, model.shape_dim))
    system = build_slip_constraints(model, c, shapes)
    for r, m, n in zip(shapes, system.m, system.n):
        ref = mp_slip_balance(model, c, r)
        for got, want in ((m, ref[:, :3]), (n, ref[:, 3:])):
            assert np.abs(got - want).max() <= 4e-15 * np.abs(want).max(), r


# The scalar bodies of the library pose maps as they were before the maps
# were written in array form, kept verbatim as an independent oracle.


def ref_foot_position(model, i, r):
    ang = model.rest_angles[i] + r[i]
    return model.hips[i] + model.leg_lengths[i] * np.array([math.cos(ang), math.sin(ang)])


def ref_foot_pose(model, i, r):
    p = ref_foot_position(model, i, r)
    return Pose(p[0], p[1], r[i])


def ref_single(model, i):
    def single(r):
        return inverse(ref_foot_pose(model, i, r))

    return single


def ref_pinned(model, i, j):
    tol = 1e-9 * (1.0 + float(model.leg_lengths.max()))

    def pinned(r):
        pi = ref_foot_position(model, i, r)
        pj = ref_foot_position(model, j, r)
        dx, dy = pj - pi
        if math.hypot(dx, dy) < tol:
            return None
        beta = -math.atan2(dy, dx)
        cb, sb = math.cos(beta), math.sin(beta)
        return Pose(-(cb * pi[0] - sb * pi[1]), -(sb * pi[0] + cb * pi[1]), beta)

    return pinned


def ref_arm_com(lengths, masses):
    lengths = np.asarray(lengths, dtype=float)
    masses = np.asarray(masses, dtype=float)
    total = masses.sum()

    def fn(r):
        head = np.cumsum(r)
        dirs = np.stack([np.cos(head), np.sin(head)], axis=1)
        tips = np.cumsum(lengths[:, None] * dirs, axis=0)
        mids = tips - 0.5 * lengths[:, None] * dirs
        com = masses @ mids / total
        return Pose(com[0], com[1], float(masses @ head / total))

    return fn


def ref_rotate_translate(r):
    return compose(Pose(0.0, 0.0, r[0]), Pose(r[1], 0.0, 0.0))


def ref_wavy(r):
    return Pose(
        0.9 * math.sin(r[0]) + 0.4 * r[1] * r[1],
        0.7 * (math.cos(r[0] * r[1]) - 1.0),
        0.8 * math.sin(r[1]) + 0.3 * r[0],
    )


def assert_array_map_is_reference(pose_map, reference, shapes):
    """poses_many and fn agree bitwise with the scalar reference row by row,
    and are NaN at the rows where it has no pose (None)."""
    got = pose_map.poses_many(shapes)
    assert got.shape == (3, len(shapes))
    for r, col in zip(shapes, got.T):
        want, g = reference(r), pose_map(r)
        alone = np.array([g.x, g.y, g.theta])
        if want is None:
            assert np.isnan(col).all() and np.isnan(alone).all()
        else:
            assert col.tobytes() == alone.tobytes() == np.array([want.x, want.y, want.theta]).tobytes()


# angles well past +-pi, and +-pi themselves, so every wrap fires (the wavy
# heading 0.8 sin r1 + 0.3 r0 passes pi only for |r0| above about 7.8)
_ANGLES = st.one_of(
    st.floats(-12.0, 12.0),
    st.sampled_from([math.pi, -math.pi, 2.0 * math.pi, -3.0 * math.pi, math.nextafter(math.pi, 4.0)]),
)


def shape_rows(d):
    return st.lists(st.lists(_ANGLES, min_size=d, max_size=d), min_size=1, max_size=6).map(
        lambda rows: np.array(rows, dtype=float)
    )


@st.composite
def legged_models(draw):
    f = draw(st.integers(2, 3))
    coords = st.floats(-1.0, 1.0)
    return LeggedModel(
        hips=[[draw(coords), draw(coords)] for _ in range(f)],
        leg_lengths=[draw(st.floats(0.2, 2.0)) for _ in range(f)],
        rest_angles=[draw(st.floats(-4.0, 4.0)) for _ in range(f)],
    )


_LIBRARY_LEGS = [two_leg_crawler(), mirrored_slip_walker().geometry]
_BITWISE = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@_BITWISE
@given(st.one_of(st.sampled_from(_LIBRARY_LEGS), legged_models()), st.data())
def test_single_foot_map_is_its_scalar_body_bitwise(model, data):
    i = data.draw(st.integers(0, model.n_feet - 1))
    shapes = data.draw(shape_rows(model.shape_dim))
    assert_array_map_is_reference(build_contact_map(model, {i}), ref_single(model, i), shapes)


@_BITWISE
@given(st.one_of(st.sampled_from(_LIBRARY_LEGS), legged_models()), st.data())
def test_pinned_map_is_its_scalar_body_bitwise(model, data):
    i, j = sorted(data.draw(st.sets(st.integers(0, model.n_feet - 1), min_size=2, max_size=2)))
    shapes = data.draw(shape_rows(model.shape_dim))
    assert_array_map_is_reference(build_contact_map(model, {i, j}), ref_pinned(model, i, j), shapes)


@_BITWISE
@given(shape_rows(2))
def test_rotate_translate_and_wavy_maps_are_their_scalar_bodies_bitwise(shapes):
    assert_array_map_is_reference(rotate_translate_map(), ref_rotate_translate, shapes)
    assert_array_map_is_reference(wavy_pose_map(), ref_wavy, shapes)


@_BITWISE
@given(st.integers(1, 6), st.data())
def test_arm_com_map_is_its_scalar_body_bitwise(d, data):
    positive = st.lists(st.floats(0.1, 2.0), min_size=d, max_size=d)
    lengths, masses = data.draw(positive), data.draw(positive)
    shapes = data.draw(shape_rows(d))
    assert_array_map_is_reference(arm_com_pose_map(lengths, masses), ref_arm_com(lengths, masses), shapes)


# hips a unit apart: feet 0 and 1 coincide at r = +-(2 pi/3, pi/3)
_PINCH = LeggedModel(
    hips=[[0.0, 0.0], [-1.0, 0.0]],
    leg_lengths=[1.0, 1.0],
    rest_angles=[0.0, 0.0],
    selector="fixed",
    fixed_contacts=frozenset({0, 1}),
)


def test_batched_coincident_pins_are_nan_rows():
    # the second and fourth shapes pinch the feet, as the scalar pinned map
    # finds; those rows are NaN and the others are their single-row results
    third = math.pi / 3.0
    shapes = np.array([[0.1, 0.2], [2.0 * third, third], [0.3, -0.4], [-2.0 * third, -third]])
    reference = ref_pinned(_PINCH, 0, 1)
    assert [reference(r) is None for r in shapes] == [False, True, False, True]
    for route in (PiecewiseConnection(_PINCH).connection_many, _PINCH.stance_connection):
        got = route(frozenset({0, 1}), shapes)
        assert np.isnan(got[[1, 3]]).all()
        assert np.isfinite(got[[0, 2]]).all()
        for k in (0, 2):
            assert got[k].tobytes() == route(frozenset({0, 1}), shapes[k]).tobytes()


def test_degenerate_stance_gait_scores_minus_inf():
    # feet at (cos r0, sin r0) and (cos r1, sin r1) coincide where r0 == r1,
    # which holds at every shape of this gait
    model = LeggedModel(
        hips=[[0.0, 0.0], [0.0, 0.0]],
        leg_lengths=[1.0, 1.0],
        rest_angles=[0.0, 0.0],
        selector="fixed",
        fixed_contacts=frozenset({0, 1}),
    )
    gait = FourierGait(period=1.0, mean=[0.0, 0.0], cos=[[0.5, 0.5]])
    assert np.isnan(model.provider().connection_many(frozenset({0, 1}), gait.evaluate_many([0.0, 0.3])[0])).all()
    assert objective_displacement(model.provider(), gait, "x") == float("-inf")


# three feet with unequal hips (a zero coordinate among them), legs and rest angles
_THREE_FEET = LeggedModel(
    hips=[[-0.6, 0.1], [0.45, 0.0], [0.0, 0.3]],
    leg_lengths=[1.0, 0.8, 1.3],
    rest_angles=[-1.5, -1.7, -1.2],
)


def no_negative_zero(a):
    return not (np.signbit(a) & (a == 0.0)).any()


@pytest.mark.parametrize("model", [two_leg_crawler(), _THREE_FEET], ids=["crawler", "three_feet"])
def test_single_foot_stance_columns_are_the_hip_bitwise(model):
    # the body turns about the planted foot's hip: column i is (-h_y, h_x, -1)
    shapes = np.random.default_rng(20).uniform(-3.2, 3.2, (64, model.shape_dim))
    for i in range(model.n_feet):
        want = np.zeros((3, model.shape_dim))
        want[:, i] = 0.0 - model.hips[i, 1], 0.0 + model.hips[i, 0], -1.0
        got = model.stance_connection({i}, shapes)
        assert got.tobytes() == np.broadcast_to(want, got.shape).tobytes()
        assert no_negative_zero(got)
        assert model.stance_connection({i}, shapes[0]).tobytes() == want.tobytes()


def mp_stance_connection(model, feet, r):
    """50-digit body-frame derivative of build_contact_map's pose map at r.

    The map is written at 50 digits from the model's float parameters and
    the float shape r; column k is R(-theta) d(x, y)/dr_k over d theta/dr_k,
    each derivative taken by mpmath.diff.
    """
    with mpmath.workdps(50):
        hips = [[mpmath.mpf(float(v)) for v in hip] for hip in model.hips]
        lengths, rests, r = ([mpmath.mpf(float(v)) for v in a] for a in (model.leg_lengths, model.rest_angles, r))

        def pose(q, part):
            (px, py), *rest = [(hips[k][0] + lengths[k] * mpmath.cos(rests[k] + q[k]),
                                hips[k][1] + lengths[k] * mpmath.sin(rests[k] + q[k])) for k in feet]
            theta = -q[feet[0]] if not rest else -mpmath.atan2(rest[0][1] - py, rest[0][0] - px)
            c, s = mpmath.cos(theta), mpmath.sin(theta)
            return (-(c * px - s * py), -(s * px + c * py), theta)[part]

        theta = pose(r, 2)
        out = np.empty((3, len(r)))
        for k in range(len(r)):
            dx, dy, dth = (mpmath.diff(lambda t: pose(r[:k] + [t] + r[k + 1:], part), r[k]) for part in range(3))
            c, s = mpmath.cos(theta), mpmath.sin(theta)
            out[:, k] = [float(c * dx + s * dy), float(c * dy - s * dx), float(dth)]
        return out


def test_single_foot_stance_connection_is_the_50_digit_derivative():
    for i in range(_THREE_FEET.n_feet):
        for r in np.random.default_rng(21).uniform(-2.0, 2.0, (4, 3)):
            want = mp_stance_connection(_THREE_FEET, [i], r)
            assert np.abs(_THREE_FEET.stance_connection({i}, r) - want).max() <= 1e-15


@pytest.mark.parametrize(
    "model, feet",
    [
        (mirrored_slip_walker().geometry, [0, 1]),
        (two_leg_crawler(), [0, 1]),
        (_THREE_FEET, [0, 1]),
        (_THREE_FEET, [0, 2]),
        (_THREE_FEET, [1, 2]),
    ],
    ids=["walker", "crawler", "three_feet_01", "three_feet_02", "three_feet_12"],
)
def test_pinned_stance_connection_is_the_50_digit_derivative_to_the_rounding_of_the_feet(model, feet):
    # within 4 ulps of each block's largest entry, plus the first-order effect
    # of rounding the feet: the leg angle sums, their cosines and the foot
    # positions move a foot by about eps * spread, which turns the pin line d
    # by that over |d|; omega moves by about 3 L/|d|^2 per unit of it and v by
    # |p_i| times that, so near coincident pins no float result is closer
    shapes = np.random.default_rng(23).uniform(-1.0, 1.0, (50, model.shape_dim))
    got = model.stance_connection(set(feet), shapes)
    angles = model.rest_angles[feet] + shapes[:, feet]
    lengths = model.leg_lengths[feet]
    p = model.hips[feet] + lengths[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    norms = np.hypot(*p.T)
    spread = norms.sum(axis=0) + (lengths * abs(angles)).sum(axis=1)
    dist = np.hypot(*(p[:, 1] - p[:, 0]).T)
    feet_rounding = np.finfo(float).eps * spread * lengths.sum() * (1.0 + norms[0]) / dist**2
    for a, r, e in zip(got, shapes, feet_rounding):
        want = mp_stance_connection(model, feet, r)
        assert np.abs(a - want).max() <= 4 * np.spacing(np.abs(want).max()) + e, r.tolist()
        assert no_negative_zero(a)
        assert model.stance_connection(set(feet), r).tobytes() == a.tobytes()


def test_pinned_stance_connection_writes_no_negative_zero():
    # at r0 = 0 foot 0 sits on the body x axis, so p_0y is exactly 0, and at
    # r1 = 2 omega_1 is negative: vx_1 = omega_1 p_0y is a signed zero
    a = _PINCH.stance_connection({0, 1}, np.array([0.0, 2.0]))
    assert a[0, 1] == 0.0 and a[2, 1] < 0.0
    assert no_negative_zero(a)
