"""Connection evaluation routes: group differencing, linear balances, stance
dispatch, and the shared matrix contract."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locomech
from locomech import (
    ChainModel,
    ConstraintConnection,
    ConstraintSystem,
    DragModel,
    JacobianConnection,
    LeggedModel,
    PiecewiseConnection,
    Pose,
    PoseMap,
    Twist,
    build_contact_map,
    build_drag_constraints,
    build_slip_constraints,
    arm_com_pose_map,
    compose,
    crawler_slip_model,
    inverse,
    jacobian_connection_eval,
    linear_constraint_connection,
    load_scenario,
    log,
    many_legged_drag_surrogate,
    mirrored_slip_walker,
    rotate_translate_map,
    three_link_swimmer,
    two_leg_crawler,
    wavy_pose_map,
)
from locomech.connection import _CHUNK_ROWS, _JACOBIAN_ROWS, _cond_estimate, connection_by_stance
from locomech.scenario import _MODELS

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def curved_map():
    # F(r) = (sin r2, 0, r1); hand-differentiated below
    return PoseMap(lambda r: Pose(math.sin(r[1]), 0.0, r[0]), 2)


def curved_map_exact(r):
    c1, s1, c2 = math.cos(r[0]), math.sin(r[0]), math.cos(r[1])
    return np.array([[0.0, c1 * c2], [0.0, -s1 * c2], [1.0, 0.0]])


def test_constant_map_gives_zero_matrix():
    F = PoseMap(lambda r: Pose(0.4, -0.2, 1.1), 3)
    a = jacobian_connection_eval(F, np.zeros(3))
    assert np.abs(a).max() < 1e-9


def test_pure_translation_column():
    F = PoseMap(lambda r: Pose(r[0], 0.0, 0.0), 1)
    a = jacobian_connection_eval(F, [0.3])
    np.testing.assert_allclose(a[:, 0], [1.0, 0.0, 0.0], atol=1e-10)


def test_pure_rotation_column():
    F = PoseMap(lambda r: Pose(0.0, 0.0, r[0]), 1)
    a = jacobian_connection_eval(F, [0.3])
    np.testing.assert_allclose(a[:, 0], [0.0, 0.0, 1.0], atol=1e-10)


def test_rotate_translate_matches_hand_derivative():
    # spin-then-slide map: body vx tracks the slide, vy couples the slide
    # distance into the spin, omega tracks the spin
    F = rotate_translate_map()
    r = np.array([0.3, 0.7])
    exact = np.array([[0.0, 1.0], [r[1], 0.0], [1.0, 0.0]])
    a = jacobian_connection_eval(F, r, h=1e-3)
    assert np.abs(a - exact).max() < 1e-6
    assert np.abs(jacobian_connection_eval(F, r) - exact).max() < 1e-10


def test_jacobian_connection_second_order():
    # truncation halves twice per decade: 1.019e-5, 1.019e-7, 1.019e-9
    F = curved_map()
    r = np.array([0.5, 0.8])
    errs = [
        np.abs(jacobian_connection_eval(F, r, h) - curved_map_exact(r)).max()
        for h in (1e-2, 1e-3, 1e-4)
    ]
    assert errs[2] < 2e-9
    assert 80.0 < errs[0] / errs[1] < 120.0
    assert 80.0 < errs[1] / errs[2] < 120.0


def test_jacobian_connection_dimension_check():
    with pytest.raises(ValueError):
        jacobian_connection_eval(curved_map(), np.zeros(3))


def test_constraint_identity_blocks():
    a = linear_constraint_connection(ConstraintSystem(np.eye(3), -np.eye(3)))
    np.testing.assert_allclose(a, np.eye(3), atol=0)


def test_constraint_scaled_blocks():
    a = linear_constraint_connection(ConstraintSystem(2.0 * np.eye(3), np.eye(3)))
    np.testing.assert_allclose(a, -0.5 * np.eye(3), atol=0)


def test_constraint_zero_matrix_is_singular():
    assert np.isnan(linear_constraint_connection(ConstraintSystem(np.zeros((3, 3)), np.eye(3)))).all()


def test_constraint_nonfinite_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        m, n = np.eye(3), np.eye(3)
        m[0, 0] = bad
        assert np.isnan(linear_constraint_connection(ConstraintSystem(m, np.eye(3)))).all()
        n[1, 2] = bad
        assert np.isnan(linear_constraint_connection(ConstraintSystem(np.eye(3), n))).all()


def test_constraint_near_singular_rejected():
    m = np.diag([1.0, 1.0, 1e-14])
    assert np.isnan(linear_constraint_connection(ConstraintSystem(m, np.eye(3)))).all()


def test_constraint_shape_validation():
    with pytest.raises(ValueError):
        ConstraintSystem(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        ConstraintSystem(np.eye(3), np.ones((2, 4)))


def test_swimmer_balance_matches_least_squares():
    model = three_link_swimmer()
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(20):
        r = rng.uniform(-1.0, 1.0, 2)
        system = build_drag_constraints(model, r)
        a = linear_constraint_connection(system)
        ls = np.linalg.lstsq(system.m, -system.n, rcond=None)[0]
        worst = max(worst, np.abs(a - ls).max())
    assert worst < 1e-9


def test_constraint_residual_bound():
    rng = np.random.default_rng(8)
    for _ in range(200):
        m = rng.uniform(-1, 1, (3, 3)) + 3.0 * np.eye(3)
        n = rng.uniform(-1, 1, (3, 4))
        a = linear_constraint_connection(ConstraintSystem(m, n))
        assert np.abs(m @ a + n).max() <= 1e-10


def test_cond_estimate_tracks_numpy():
    rng = np.random.default_rng(9)
    for _ in range(100):
        m = rng.uniform(-1, 1, (3, 3))
        ref = np.linalg.cond(m, 1)
        est = _cond_estimate(m)
        assert est == pytest.approx(ref, rel=1e-8)
    assert _cond_estimate(np.zeros((3, 3))) == np.inf


def test_cond_estimate_is_scale_free_bitwise():
    # a power-of-two scale changes no bit of the condition, however far it
    # takes the entries from 1; unscaled, the adjugate of 1e300 entries overflows
    m = np.random.default_rng(4).uniform(-1, 1, (50, 3, 3))
    cond = _cond_estimate(m)
    for k in range(-1000, 1001, 40):
        assert _cond_estimate(np.ldexp(m, k)).tobytes() == cond.tobytes()


def test_apply_zero_rate():
    assert Twist.from_array(np.ones((3, 2)) @ np.zeros(2)).norm() == 0.0


def test_apply_identity_block():
    out = Twist.from_array(np.eye(3) @ np.array([1.0, 0.0, 0.0]))
    assert (out.vx, out.vy, out.omega) == (1.0, 0.0, 0.0)


def test_apply_linearity():
    rng = np.random.default_rng(10)
    a = rng.uniform(-1, 1, (3, 4))
    r1, r2 = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
    s, t = 0.7, -1.3
    lhs = Twist.from_array(a @ (s * r1 + t * r2))
    rhs = s * Twist.from_array(a @ r1) + t * Twist.from_array(a @ r2)
    assert (lhs - rhs).norm() < 1e-14


def test_single_piece_is_the_models_stance_connection():
    model = two_leg_crawler()
    r = np.array([0.4, -0.1])
    piecewise = PiecewiseConnection(model)
    c, a = piecewise.contacts_at(r), piecewise.connection_at(r)
    assert c == frozenset({0})
    assert a.tobytes() == model.stance_connection(frozenset({0}), r).tobytes()
    # the differenced stance pose map agrees to its O(h^2) truncation
    assert np.abs(jacobian_connection_eval(build_contact_map(model, {0}), r) - a).max() < 1e-9


def test_two_piece_interior_selection():
    model = two_leg_crawler()
    piecewise = PiecewiseConnection(model)
    r = np.array([-0.5, 0.3])
    c, a = piecewise.contacts_at(r), piecewise.connection_at(r)
    assert c == frozenset({1})
    piece = PiecewiseConnection(model).connection_for(frozenset({1}), np.array([-0.5, 0.3]))
    assert np.array_equal(a, piece)


def test_boundary_pieces_disagree():
    # the stance jump is order one on the crawler: the two pieces' matrices
    # sit a distance ~1.0 apart all along the switching surface
    provider = PiecewiseConnection(two_leg_crawler())
    for c in (0.375, 0.0, -0.2):
        r = np.array([c, c])
        gap = np.abs(
            provider.connection_for(frozenset({0}), r)
            - provider.connection_for(frozenset({1}), r)
        ).max()
        assert gap > 0.5


def test_anchor_independence():
    # left-translating a pose map must leave its body-frame connection untouched
    offset = Pose(0.7, -1.2, 2.1)
    rng = np.random.default_rng(12)
    for c in ({0}, {1}, {0, 1}):
        inner = build_contact_map(two_leg_crawler(), c)
        shifted = PoseMap(lambda r: compose(offset, inner(r)), inner.dim)
        for _ in range(20):
            r = rng.uniform(-1, 1, 2)
            a0 = JacobianConnection(inner).connection_at(r)
            a1 = JacobianConnection(shifted).connection_at(r)
            assert np.abs(a0 - a1).max() < 1e-10


def test_crawler_runs_without_differencing_a_pose_map(monkeypatch):
    # integration, sweep and verify all reach the legged stances through
    # stance_connection alone
    def refuse(*args, **kwargs):
        raise AssertionError("a legged stance went through its pose map")

    for module in (locomech, locomech.connection, locomech.models):
        for name in ("jacobian_connection_eval", "build_contact_map"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(PoseMap, "poses_many", refuse)
    sc = load_scenario(str(SCENARIOS / "crawler_square.yaml"))
    traj = locomech.integrate_gait(sc.provider, sc.gait, cycles=sc.cycles, step=sc.step, event_tol=sc.event_tol)
    assert len(traj.events) == 6
    spec = locomech.GridSpec(lo=(-1.0, -1.0), hi=(1.0, 1.0), counts=(9, 9))
    assert locomech.curvature(locomech.sample_field(sc.provider, spec)).valid.any()
    assert all(row.passed for row in locomech.run_verify(sc))


def test_provider_dim_and_contacts():
    model = two_leg_crawler()
    p = PiecewiseConnection(model)
    assert p.dim == 2
    assert p.contacts_at(np.array([0.5, -0.5])) == frozenset({0})
    j = JacobianConnection(rotate_translate_map())
    assert j.dim == 2
    assert j.contacts_at(np.zeros(2)) is None


# one scenario model block per provider kind, every jacobian map included
_KIND_BLOCKS = {
    "swimmer": {"kind": "swimmer"},
    "many_legged": {"kind": "many_legged", "feet": 3},
    "slip_walker": {"kind": "slip_walker"},
    "crawler": {"kind": "crawler"},
    "jacobian:rotate_translate": {"kind": "jacobian", "map": "rotate_translate"},
    "jacobian:wavy": {"kind": "jacobian", "map": "wavy"},
    "jacobian:arm_com": {
        "kind": "jacobian", "map": "arm_com", "lengths": [1.0, 0.7, 0.4], "masses": [1.0, 2.0, 1.0]
    },
}


def test_kind_blocks_cover_every_model_kind():
    assert {name.split(":")[0] for name in _KIND_BLOCKS} == set(_MODELS)


@pytest.mark.parametrize("name", sorted(_KIND_BLOCKS))
def test_connection_many_rows_are_single_shape_evaluations(name):
    dim = 3 if name == "jacobian:arm_com" else 2
    gait = {"kind": "fourier", "period": 1.0, "mean": [0.0] * dim}
    provider = load_scenario({"model": _KIND_BLOCKS[name], "gait": gait}).provider
    shapes = np.random.default_rng(17).uniform(-1.0, 1.0, (9, provider.dim))
    labels = {provider.contacts_at(r) for r in shapes}
    for label in labels:
        many = provider.connection_many(label, shapes)
        assert many.shape == (9, 3, provider.dim)
        for i, r in enumerate(shapes):
            assert np.array_equal(many[i], provider.connection_for(label, r)), (label, i)
    for r in shapes:
        assert np.array_equal(
            provider.connection_at(r), provider.connection_for(provider.contacts_at(r), r)
        )


# three feet, so that rows can tie all three leg angles exactly
_THREE_FEET = LeggedModel(
    hips=[[-0.6, 0.1], [0.45, 0.0], [0.0, 0.3]], leg_lengths=[1.0, 0.8, 1.3], rest_angles=[-1.5, -1.7, -1.2]
)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 40))
def test_contacts_many_rows_are_single_shape_labels(seed, n):
    rng = np.random.default_rng(seed)
    providers = {
        "jacobian": JacobianConnection(rotate_translate_map()),
        "constraint": three_link_swimmer().provider(),
        "crawler": PiecewiseConnection(two_leg_crawler()),
        "walker": PiecewiseConnection(mirrored_slip_walker().geometry),
        "three_feet": PiecewiseConnection(_THREE_FEET),
    }
    shapes, labels = {}, {}
    for name, provider in providers.items():
        r = rng.uniform(-1.0, 1.0, (n, provider.dim))
        # exact ties lie on the argmax switching surfaces: every third row
        # ties all its leg angles, the next row its last two
        r[::3] = r[::3, :1]
        r[1::3, -1] = r[1::3, -2]
        codes, catalog = provider.contacts_many(r), provider.catalog
        assert isinstance(codes, np.ndarray) and np.issubdtype(codes.dtype, np.integer), name
        assert codes.shape == (n,) and ((codes >= 0) & (codes < len(catalog))).all(), name
        assert isinstance(catalog, tuple) and len(set(catalog)) == len(catalog), name
        shapes[name], labels[name] = r, [catalog[c] for c in codes.tolist()]
        assert labels[name] == [provider.contacts_at(row) for row in r], name
    assert providers["jacobian"].catalog == providers["constraint"].catalog == (None,)
    assert providers["walker"].catalog == (frozenset({0, 1}),)
    # the largest leg angle plants its foot; a tie goes to the lowest index
    for name in ("crawler", "three_feet"):
        assert labels[name] == [frozenset({r.index(max(r))}) for r in shapes[name].tolist()], name


class RecordingStances:
    """The crawler's stance connections under a catalog whose last label no row carries, recording each call."""

    def __init__(self):
        self.inner = PiecewiseConnection(two_leg_crawler())
        self.catalog = (*self.inner.catalog, "unused")
        self.calls = []

    def connection_many(self, label, shapes):
        self.calls.append((label, len(shapes)))
        return self.inner.connection_many(label, shapes)


def test_connection_by_stance_calls_each_present_stance_once_in_catalog_order():
    # the rows carry stance 1 first and repeat shapes: nothing is
    # deduplicated, and stance 0 is still called first
    provider = RecordingStances()
    shapes = np.random.default_rng(6).uniform(-1.0, 1.0, (7, 2))[[0, 1, 2, 3, 1, 4, 5]]
    codes = np.array([1, 0, 1, 0, 1, 0, 0])
    rows = connection_by_stance(provider, shapes, codes)
    assert provider.calls == [(frozenset({0}), 4), (frozenset({1}), 3)]
    assert rows.shape == (7, 3, 2)
    for i, (c, r) in enumerate(zip(codes, shapes)):
        assert rows[i].tobytes() == provider.inner.connection_for(provider.catalog[c], r).tobytes(), i


def test_connection_by_stance_of_no_rows_calls_nothing():
    provider = RecordingStances()
    rows = connection_by_stance(provider, np.zeros((0, 2)), np.zeros(0, dtype=int))
    assert rows.shape == (0, 3, 2) and provider.calls == []


_FIVE_LINKS = DragModel(ChainModel([1.0, 0.7, 1.3, 0.9, 1.1]), 1.0, 2.5, quadrature=5)

_BLOCK_BUILDERS = {
    "drag": (lambda r: build_drag_constraints(three_link_swimmer(), r), 2),
    "drag_five_links": (lambda r: build_drag_constraints(_FIVE_LINKS, r), 4),
    "many_legged": (lambda r: many_legged_drag_surrogate(_FIVE_LINKS, 3, r), 4),
    "slip_both_feet": (lambda r: build_slip_constraints(mirrored_slip_walker(), {0, 1}, r), 2),
    "slip_one_foot": (lambda r: build_slip_constraints(crawler_slip_model(), {1}, r), 2),
}


@pytest.mark.parametrize("name", sorted(_BLOCK_BUILDERS))
def test_row_blocks_are_single_shape_solves_at_the_block_boundaries(name):
    build, dim = _BLOCK_BUILDERS[name]
    sizes = []

    def recording(r):
        sizes.append(r.shape[:-1])
        return build(r)

    provider = ConstraintConnection(recording, dim)
    longest = 2 * _CHUNK_ROWS + 1
    shapes = np.random.default_rng(23).uniform(-1.2, 1.2, (longest, dim))
    singles = [provider.connection_at(r) for r in shapes]
    for count, blocks in [
        (_CHUNK_ROWS - 1, [_CHUNK_ROWS - 1]),
        (_CHUNK_ROWS, [_CHUNK_ROWS]),
        (_CHUNK_ROWS + 1, [_CHUNK_ROWS, 1]),
        (longest, [_CHUNK_ROWS, _CHUNK_ROWS, 1]),
    ]:
        sizes.clear()
        many = provider.connection_many(None, shapes[:count])
        assert sizes == [(b,) for b in blocks], count
        assert many.shape == (count, 3, dim)
        wrong = [i for i in range(count) if not np.array_equal(many[i], singles[i])]
        assert not wrong, (count, wrong[:5])


@pytest.mark.parametrize("pose_map", [rotate_translate_map(), wavy_pose_map(), arm_com_pose_map([1.0, 0.7, 0.5, 0.3])],
                         ids=["rotate_translate", "wavy", "arm_com_4"])
def test_pose_maps_are_differentiated_in_row_blocks_of_single_shape_results(pose_map):
    sizes = []

    def recording(r):
        sizes.append(len(r))
        return pose_map.poses_many(r)

    provider = JacobianConnection(PoseMap.from_many(recording, pose_map.dim))
    probes = 2 * pose_map.dim
    longest = 2 * _JACOBIAN_ROWS + 1
    shapes = np.random.default_rng(29).uniform(-1.2, 1.2, (longest, pose_map.dim))
    singles = [provider.connection_at(r) for r in shapes]
    for count, blocks in [
        (_JACOBIAN_ROWS, [_JACOBIAN_ROWS]),
        (_JACOBIAN_ROWS + 1, [_JACOBIAN_ROWS, 1]),
        (longest, [_JACOBIAN_ROWS, _JACOBIAN_ROWS, 1]),
    ]:
        sizes.clear()
        many = provider.connection_many(None, shapes[:count])
        assert sizes == [probes * b for b in blocks], count
        wrong = [i for i in range(count) if not np.array_equal(many[i], singles[i])]
        assert not wrong, (count, wrong[:5])


def test_batched_solve_rows_match_single_solves():
    rng = np.random.default_rng(4)
    m = rng.uniform(-1, 1, (4, 5, 3, 3)) + 3.0 * np.eye(3)
    n = rng.uniform(-1, 1, (4, 5, 3, 2))
    batch = linear_constraint_connection(ConstraintSystem(m, n))
    assert batch.shape == (4, 5, 3, 2)
    for idx in np.ndindex(4, 5):
        assert np.array_equal(batch[idx], linear_constraint_connection(ConstraintSystem(m[idx], n[idx])))


def test_refinement_pass_takes_only_the_failing_rows(monkeypatch):
    rng = np.random.default_rng(3)
    m = rng.uniform(-1, 1, (6, 3, 3)) + 3.0 * np.eye(3)
    m[[1, 4], 0, 0] = 7.0
    n = rng.uniform(-1, 1, (6, 3, 2))
    solve = np.linalg.solve
    rows = []

    def sloppy(a, b):
        # a pivoted solve already meets the residual test, so a miss is
        # made on purpose for the balances whose m[0, 0] is 7
        rows.append(a.shape[0] if a.ndim == 3 else 1)
        x = solve(a, b)
        x[..., 0, 0] += np.where(a[..., 0, 0] == 7.0, 1e-6, 0.0)
        return x

    monkeypatch.setattr(np.linalg, "solve", sloppy)
    batch = linear_constraint_connection(ConstraintSystem(m, n))
    assert rows == [6, 2]
    for i in range(6):
        assert np.array_equal(batch[i], linear_constraint_connection(ConstraintSystem(m[i], n[i])))


@pytest.mark.parametrize("unusable", ["condition", "zero", "nan_m", "inf_m", "inf_n", "huge_norm"])
def test_unusable_balances_are_nan_rows_and_the_rest_solve_alone(unusable):
    # the unusable balances sit among well-posed ones, on two leading axes
    rng = np.random.default_rng(31)
    m = rng.uniform(-1.0, 1.0, (3, 4, 3, 3)) + 3.0 * np.eye(3)
    n = rng.uniform(-1.0, 1.0, (3, 4, 3, 2))
    bad = np.zeros((3, 4), dtype=bool)
    bad[0, 1] = bad[2, 3] = True
    if unusable == "condition":
        m[bad] = np.diag([1.0, 1.0, 1e-14])
    elif unusable == "zero":
        m[bad] = 0.0
    elif unusable == "nan_m":
        m[bad, 1, 2] = np.nan
    elif unusable == "inf_m":
        m[bad, 0, 0] = np.inf
    elif unusable == "inf_n":
        n[bad, 2, 1] = -np.inf
    else:
        m[bad] = 1.0e308
    a = linear_constraint_connection(ConstraintSystem(m, n))
    assert a.shape == n.shape
    assert np.array_equal(np.isnan(a).all(axis=(-2, -1)), bad)
    assert np.isfinite(a[~bad]).all()
    for k in zip(*np.nonzero(~bad)):
        assert a[k].tobytes() == linear_constraint_connection(ConstraintSystem(m[k], n[k])).tobytes()
    assert a[~bad].tobytes() == linear_constraint_connection(ConstraintSystem(m[~bad], n[~bad])).tobytes()


def test_constraint_system_leading_axes_must_agree():
    with pytest.raises(ValueError):
        ConstraintSystem(np.zeros((4, 3, 3)), np.zeros((5, 3, 2)))
    with pytest.raises(ValueError):
        ConstraintSystem(np.zeros((4, 3, 3)), np.zeros((3, 2)))
    system = ConstraintSystem(np.zeros((4, 2, 3, 3)), np.zeros((4, 2, 3, 1)))
    assert system.n.shape == (4, 2, 3, 1)


def test_cond_estimate_over_leading_axes():
    rng = np.random.default_rng(10)
    m = rng.uniform(-1, 1, (6, 3, 3))
    m[3] = 0.0
    est = _cond_estimate(m)
    assert est.shape == (6,)
    for i in range(6):
        assert est[i] == _cond_estimate(m[i])
    assert est[3] == np.inf


def scalar_jacobian(pose_map, r, h):
    """The per-column scalar route: log(F(r - h e_i)^-1 F(r + h e_i)) / (2 h)."""
    a = np.empty((3, pose_map.dim))
    for i in range(pose_map.dim):
        e = np.zeros(pose_map.dim)
        e[i] = h
        a[:, i] = log(compose(inverse(pose_map.fn(r - e)), pose_map.fn(r + e))).to_array() / (2.0 * h)
    return a


LIBRARY_MAPS = pytest.mark.parametrize(
    "pose_map",
    [
        rotate_translate_map(),
        wavy_pose_map(),
        arm_com_pose_map([1.0, 0.7, 0.5, 0.3]),
        build_contact_map(two_leg_crawler(), frozenset({0})),
        build_contact_map(two_leg_crawler(), frozenset({0, 1})),
    ],
    ids=["rotate_translate", "wavy", "arm_com_4", "single_foot", "pinned"],
)


@LIBRARY_MAPS
def test_batched_jacobian_is_the_scalar_route_bitwise(pose_map):
    # angles near +-pi make the group products wrap
    shapes = np.random.default_rng(pose_map.dim).uniform(-3.2, 3.2, (5, 4, pose_map.dim))
    got = jacobian_connection_eval(pose_map, shapes, 1e-5)
    assert got.shape == (5, 4, 3, pose_map.dim)
    for idx in np.ndindex(5, 4):
        assert got[idx].tobytes() == scalar_jacobian(pose_map, shapes[idx], 1e-5).tobytes(), idx


def test_batched_jacobian_calls_the_map_shape_by_shape_lower_probe_first():
    # the first failing probe, and so the error a stance raises, is unchanged
    seen = []

    def fn(r):
        seen.append(r.copy())
        return Pose(r[0], r[1], 0.0)

    shapes = np.array([[0.0, 1.0], [2.0, 3.0]])
    jacobian_connection_eval(PoseMap(fn, 2), shapes, 0.5)
    expected = [r + s * e for r in shapes for e in 0.5 * np.eye(2) for s in (-1.0, 1.0)]
    assert np.array_equal(np.array(seen), np.array(expected))


def _refuse(r):
    raise AssertionError("a library pose map was called one shape at a time")


@LIBRARY_MAPS
def test_library_maps_are_differentiated_without_their_scalar_fn(pose_map):
    shapes = np.random.default_rng(7).uniform(-3.2, 3.2, (6, pose_map.dim))
    array_only = PoseMap(_refuse, pose_map.dim, pose_map.many)
    got = jacobian_connection_eval(array_only, shapes, 1e-5)
    assert got.tobytes() == jacobian_connection_eval(pose_map, shapes, 1e-5).tobytes()
