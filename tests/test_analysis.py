import math

import numpy as np
import pytest

from locomech import (
    ConstraintConnection,
    ConstraintSystem,
    CurvatureField,
    FieldGrid,
    FourierGait,
    GridSpec,
    JacobianConnection,
    LeggedModel,
    LoopOutsideGrid,
    Pose,
    PoseMap,
    SingularConstraint,
    Twist,
    WaypointGait,
    bracket,
    curvature,
    holonomy_vs_area,
    mirrored_slip_walker,
    sample_field,
    three_link_swimmer,
    two_leg_crawler,
)
from locomech.analysis import _bracket_surface_integral, _line_integral
from pointwise import Pointwise


def node_shape(field, i, j):
    """The shape at grid node (i, j): the base with the swept axes set."""
    r = field.base.copy()
    r[list(field.axes)] = field.axis1[i], field.axis2[j]
    return r


class ConstantCommuting(Pointwise):
    """Constant connection whose columns are pure translations."""

    dim = 2

    def connection_at(self, r):
        return np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

    def contacts_at(self, r):
        return None


class ConstantNoncommuting(Pointwise):
    # columns e_vx and e_omega, so the column bracket is (0, -1, 0)
    dim = 2

    def connection_at(self, r):
        return np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])

    def contacts_at(self, r):
        return None


class LinearCurl(Pointwise):
    """vx row is (r2, 0): the only curvature term is -d(vx_1)/dr2 = -1."""

    dim = 2

    def connection_at(self, r):
        return np.array([[float(r[1]), 0.0], [0.0, 0.0], [0.0, 0.0]])

    def contacts_at(self, r):
        return None


class SmoothSynthetic(Pointwise):
    """Dense analytic connection used for convergence checks."""

    dim = 2

    def connection_at(self, r):
        r0, r1 = float(r[0]), float(r[1])
        return np.array(
            [
                [math.sin(r0 * r1), r1**3],
                [r0**2 * r1, math.cos(r0)],
                [0.3 * r0**3, 0.2 * math.sin(r1)],
            ]
        )

    def contacts_at(self, r):
        return None


class CountingProvider:
    """Wrapper recording the label and row count of every batched call and counting single-shape calls."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.catalog = inner.catalog
        self.labels = []
        self.rows = 0
        self.single = 0

    def contacts_at(self, r):
        return self.inner.contacts_at(r)

    def contacts_many(self, shapes):
        return self.inner.contacts_many(shapes)

    def connection_many(self, label, shapes):
        self.labels.append(label)
        self.rows += len(shapes)
        return self.inner.connection_many(label, shapes)

    def connection_for(self, label, r):
        self.single += 1
        return self.inner.connection_for(label, r)

    def connection_at(self, r):
        self.single += 1
        return self.inner.connection_at(r)


def nan_past(radius):
    """Pose map that turns NaN once the shape leaves a disc."""

    def fn(r):
        if math.hypot(r[0], r[1]) > radius:
            return Pose(math.nan, 0.0, 0.0)
        return Pose(0.3 * r[0], r[1] * r[1], 0.5 * r[1])

    return PoseMap(fn, 2)


def singular_at_zero_r0(shapes):
    """Balance whose vx row is r0 * vx + rdot_0 = 0: singular where r0 = 0."""
    lead = shapes.shape[:-1]
    m = np.zeros(lead + (3, 3))
    m[..., 0, 0] = shapes[..., 0]
    m[..., 1, 1] = 1.0
    m[..., 2, 2] = 1.0
    n = np.zeros(lead + (3, 2))
    n[..., 0, 0] = 1.0
    n[..., 1, 1] = 1.0
    return ConstraintSystem(m, n)


def smooth_synthetic_curvature(r0, r1):
    # d1(col2) - d2(col1) + [col1, col2], worked out by hand from the
    # closed-form entries of SmoothSynthetic
    return np.array(
        [
            -r0 * math.cos(r0 * r1)
            + 0.2 * r0**2 * r1 * math.sin(r1)
            - 0.3 * r0**3 * math.cos(r0),
            -math.sin(r0) - r0**2 + 0.3 * r0**3 * r1**3
            - 0.2 * math.sin(r1) * math.sin(r0 * r1),
            0.0,
        ]
    )


def per_node_curvature(field):
    """Curvature written out node by node: one-sided (-3, 4, -1)/(2h) stencils
    on the edges, centered ones inside, invalid where a stencil node is
    singular or carries another stance label."""
    n1, n2 = field.conn.shape[:2]
    a1, a2 = field.axes
    h1 = field.axis1[1] - field.axis1[0]
    h2 = field.axis2[1] - field.axis2[0]

    def diff(f, k, h):
        n = f.shape[0]
        if k == 0:
            return (-3 * f[0] + 4 * f[1] - f[2]) / (2 * h), (0, 1, 2)
        if k == n - 1:
            return (3 * f[k] - 4 * f[k - 1] + f[k - 2]) / (2 * h), (k - 2, k - 1, k)
        return (f[k + 1] - f[k - 1]) / (2 * h), (k - 1, k, k + 1)

    values = np.full((n1, n2, 3), np.nan)
    valid = np.zeros((n1, n2), dtype=bool)
    boundary = np.zeros((n1, n2), dtype=bool)
    for i in range(n1):
        for j in range(n2):
            d1, rows = diff(field.conn[:, j, :, a2], i, h1)
            d2, cols = diff(field.conn[i, :, :, a1], j, h2)
            nodes = [(p, j) for p in rows] + [(i, q) for q in cols]
            boundary[i, j] = i in (0, n1 - 1) or j in (0, n2 - 1)
            valid[i, j] = all(
                not field.singular[node]
                and (field.contacts is None or field.contacts[node] == field.contacts[i, j])
                for node in nodes
            )
            if valid[i, j]:
                c1 = Twist.from_array(field.conn[i, j, :, a1])
                c2 = Twist.from_array(field.conn[i, j, :, a2])
                values[i, j] = d1 - d2 + bracket(c1, c2).to_array()
    return CurvatureField(values=values, valid=valid, boundary=boundary)


def square_loop_gait(a):
    pts = [[-a, -a], [a, -a], [a, a], [-a, a]]
    return WaypointGait(points=pts, times=[0.0, 0.25, 0.5, 0.75, 1.0])


@pytest.fixture(scope="module")
def swimmer_provider():
    return three_link_swimmer().provider()


@pytest.fixture(scope="module")
def swimmer_field(swimmer_provider):
    spec = GridSpec(lo=(-1.5, -1.5), hi=(1.5, 1.5), counts=(33, 33))
    return sample_field(swimmer_provider, spec)


@pytest.fixture(scope="module")
def crawler_field():
    provider = two_leg_crawler().provider()
    return sample_field(provider, GridSpec(lo=(-1, -1), hi=(1, 1), counts=(11, 11)))


class TestSampleField:
    def test_constant_provider_identical_nodes(self):
        field = sample_field(
            ConstantCommuting(), GridSpec(lo=(-1, -1), hi=(1, 1), counts=(5, 7))
        )
        expected = ConstantCommuting().connection_at(np.zeros(2))
        assert field.conn.shape == (5, 7, 3, 2)
        assert np.array_equal(field.conn, np.broadcast_to(expected, (5, 7, 3, 2)))
        assert np.array_equal(field.contacts, np.zeros((5, 7), dtype=int))
        assert not field.singular.any()

    def test_grid_matches_pointwise_evaluation(self, swimmer_provider, swimmer_field):
        # re-evaluating a node through the provider must reproduce the
        # stored entry bit for bit
        rng = np.random.default_rng(7)
        for _ in range(20):
            i = int(rng.integers(0, 33))
            j = int(rng.integers(0, 33))
            shape = np.array([swimmer_field.axis1[i], swimmer_field.axis2[j]])
            direct = swimmer_provider.connection_at(shape)
            assert np.array_equal(direct, swimmer_field.conn[i, j])

    def test_crawler_contact_partition(self, crawler_field):
        # argmax selector: leg 0 stance for r1 > r2, leg 1 for r2 > r1
        for i in range(11):
            for j in range(11):
                r1 = crawler_field.axis1[i]
                r2 = crawler_field.axis2[j]
                label = crawler_field.catalog[crawler_field.contacts[i, j]]
                if r1 > r2:
                    assert label == frozenset({0})
                elif r2 > r1:
                    assert label == frozenset({1})
                else:
                    assert label == frozenset({0})

    def test_singular_nodes_flagged_not_raised(self):
        class SometimesSingular(Pointwise):
            dim = 2

            def connection_at(self, r):
                if abs(float(r[0])) < 1e-12:
                    return np.full((3, 2), np.nan)
                return np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

            def contacts_at(self, r):
                return None

        field = sample_field(
            SometimesSingular(), GridSpec(lo=(-1, -1), hi=(1, 1), counts=(5, 5))
        )
        assert field.singular[2, :].all()
        assert field.singular.sum() == 5
        assert np.array_equal(field.conn[2], np.zeros((5, 3, 2)))
        assert np.isfinite(field.conn[0, 0]).all()

    def test_a_walker_near_the_planted_limit_is_one_call_with_its_singular_nodes_flagged(self):
        # the balance is singular on thin curves of shape space: 16 of the 41 x 41 nodes
        # have no connection, and once made the sweep re-solve every node alone
        walker = mirrored_slip_walker(slip_tangential=1.0e-5, slip_normal=1.0e5, slip_yaw=1.0e-9).provider()
        provider = CountingProvider(walker)
        field = sample_field(provider, GridSpec(lo=(-3.1, -3.1), hi=(3.1, 3.1), counts=(41, 41)))
        assert provider.labels == [None]
        assert provider.rows == 41 * 41
        assert field.singular.sum() == 16
        for i in range(41):
            for j in range(41):
                alone = walker.connection_at(node_shape(field, i, j))
                assert field.singular[i, j] == (not np.isfinite(alone).all()), (i, j)
                want = np.zeros((3, 2)) if field.singular[i, j] else alone
                assert field.conn[i, j].tobytes() == want.tobytes(), (i, j)

    @pytest.mark.parametrize("model", [three_link_swimmer, two_leg_crawler])
    def test_one_batched_call_per_stance_label(self, model):
        provider = CountingProvider(model().provider())
        field = sample_field(provider, GridSpec(lo=(-1, -1), hi=(1, 1), counts=(9, 9)))
        labels = [None] if field.contacts is None else [field.catalog[c] for c in field.contacts.flat]
        assert len(provider.labels) == len(set(provider.labels)) == len(set(labels))
        assert set(provider.labels) == set(labels)
        # every node is passed once: the distinct grid nodes are not deduplicated
        assert provider.rows == 81
        assert provider.single == 0
        # every stored entry is bitwise the node's own evaluation
        inner = provider.inner
        for i in range(9):
            for j in range(9):
                shape = node_shape(field, i, j)
                assert np.array_equal(field.conn[i, j], inner.connection_at(shape)), (i, j)

    def test_singular_constraint_column_flagged(self):
        provider = ConstraintConnection(singular_at_zero_r0, 2)
        field = sample_field(provider, GridSpec(lo=(-1, -1), hi=(1, 1), counts=(5, 5)))
        assert field.axis1[2] == 0.0
        assert field.singular[2, :].all()
        assert field.singular.sum() == 5
        assert np.array_equal(field.conn[2], np.zeros((5, 3, 2)))
        for i in (0, 1, 3, 4):
            for j in range(5):
                shape = node_shape(field, i, j)
                assert np.array_equal(field.conn[i, j], provider.connection_at(shape))

    def test_coincident_pin_nodes_flagged_like_singular_ones(self):
        # both feet swing from one hip, so the pins coincide where r0 == r1
        model = LeggedModel(
            hips=[[0.0, 0.0], [0.0, 0.0]],
            leg_lengths=[1.0, 1.0],
            rest_angles=[0.0, 0.0],
            selector="fixed",
            fixed_contacts=frozenset({0, 1}),
        )
        field = sample_field(model.provider(), GridSpec(lo=(-1, -1), hi=(1, 1), counts=(5, 5)))
        assert np.array_equal(field.singular, np.eye(5, dtype=bool))
        assert np.array_equal(field.conn[field.singular], np.zeros((5, 3, 2)))
        for i, j in zip(*np.nonzero(~field.singular)):
            shape = node_shape(field, i, j)
            assert np.array_equal(field.conn[i, j], model.stance_connection({0, 1}, shape))

    def test_non_finite_nodes_flagged_like_singular_ones(self):
        # only the centre node lies inside the disc the pose map is finite on
        field = sample_field(
            JacobianConnection(nan_past(0.45)), GridSpec(lo=(-1, -1), hi=(1, 1), counts=(5, 5))
        )
        assert field.singular.sum() == 24
        assert not field.singular[2, 2]
        assert np.array_equal(field.conn[field.singular], np.zeros((24, 3, 2)))
        assert np.isfinite(field.conn[2, 2]).all()
        # every stencil touches a flagged node
        assert not curvature(field).valid.any()

    def test_base_fills_the_unswept_coordinates(self):
        class ThreeDim(Pointwise):
            dim = 3

            def connection_at(self, r):
                return np.array(
                    [
                        [float(r[0]), float(r[1]), float(r[2])],
                        [1.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0],
                    ]
                )

            def contacts_at(self, r):
                return None

        spec = GridSpec(
            lo=(-1.0, 0.0),
            hi=(1.0, 2.0),
            counts=(3, 3),
            axes=(0, 2),
            base=(0.0, 0.4, 0.0),
        )
        field = sample_field(ThreeDim(), spec)
        shape = node_shape(field, 1, 2)
        assert shape[1] == 0.4
        assert shape[0] == field.axis1[1]
        assert shape[2] == field.axis2[2]
        assert np.array_equal(field.conn[1, 2], ThreeDim().connection_at(shape))

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(lo=(0, 0), hi=(1, 1), counts=(1, 5))
        with pytest.raises(ValueError):
            GridSpec(lo=(0, 0), hi=(0, 1), counts=(5, 5))
        with pytest.raises(ValueError):
            GridSpec(lo=(0, 0), hi=(1, 1), counts=(5, 5), axes=(1, 1))

    def test_grid_spec_rejects_an_overflowing_span(self):
        # a span past the largest float once gave NaN nodes from np.linspace
        with pytest.raises(ValueError, match="span hi - lo must be finite"):
            GridSpec(lo=(-1.0e308, 0.0), hi=(1.0e308, 1.0), counts=(3, 3))


class TestCurvature:
    def test_commuting_constant_connection_is_flat(self):
        field = sample_field(
            ConstantCommuting(), GridSpec(lo=(-1, -1), hi=(1, 1), counts=(5, 5))
        )
        result = curvature(field)
        assert np.abs(result.values).max() == 0.0
        assert result.valid.all()

    def test_noncommuting_constant_columns(self):
        field = sample_field(
            ConstantNoncommuting(), GridSpec(lo=(-1, -1), hi=(1, 1), counts=(5, 5))
        )
        result = curvature(field)
        # independent oracle: commutator of the hatted column matrices
        def hat3(t):
            vx, vy, om = t
            return np.array([[0.0, -om, vx], [om, 0.0, vy], [0.0, 0.0, 0.0]])

        m = hat3([1, 0, 0]) @ hat3([0, 0, 1]) - hat3([0, 0, 1]) @ hat3([1, 0, 0])
        oracle = np.array([m[0, 2], m[1, 2], m[1, 0]])
        assert np.array_equal(oracle, np.array([0.0, -1.0, 0.0]))
        for i in range(5):
            for j in range(5):
                assert np.abs(result.values[i, j] - oracle).max() <= 1e-15

    def test_linear_curl_field_exact(self):
        # the connection is linear in r, so both the centered and the
        # one-sided stencils are exact: -1 on the boundary ring too
        field = sample_field(
            LinearCurl(), GridSpec(lo=(-1, -1), hi=(1, 1), counts=(9, 9))
        )
        result = curvature(field)
        assert np.abs(result.values - np.array([-1.0, 0.0, 0.0])).max() == 0.0
        assert result.valid.all()
        assert result.boundary[0, 0]
        assert result.boundary[0, 4]
        assert not result.boundary[4, 4]

    def test_interior_second_order_convergence(self):
        # grid spacings halve 11 -> 21 -> 41, so interior errors should
        # drop by about 4x each refinement; measured 2.545e-3, 7.031e-4,
        # 1.837e-4 (ratios 3.62, 3.83)
        errs = []
        for n in (11, 21, 41):
            field = sample_field(
                SmoothSynthetic(),
                GridSpec(lo=(-0.8, -0.8), hi=(0.8, 0.8), counts=(n, n)),
            )
            result = curvature(field)
            worst = 0.0
            for i in range(1, n - 1):
                for j in range(1, n - 1):
                    exact = smooth_synthetic_curvature(
                        field.axis1[i], field.axis2[j]
                    )
                    worst = max(worst, np.abs(result.values[i, j] - exact).max())
            errs.append(worst)
        assert abs(errs[0] - 2.544774387021276e-3) < 1e-12
        assert abs(errs[1] - 7.031186144280666e-4) < 1e-12
        assert abs(errs[2] - 1.8369768893311544e-4) < 1e-12
        assert errs[0] / errs[1] > 3.2
        assert errs[1] / errs[2] > 3.2

    def test_stance_straddling_stencils_invalid(self, crawler_field):
        result = curvature(crawler_field)
        # stencils touching the r1 = r2 stance boundary mix pieces
        assert not result.valid[5, 5]
        assert np.isnan(result.values[5, 5]).all()
        # far from the diagonal the stance is locally constant
        assert result.valid[1, 8]
        assert result.valid[8, 1]
        assert np.isfinite(result.values[result.valid]).all()

    def test_crawler_is_flat_inside_each_stance(self):
        # a planted foot's connection is constant, so every stencil that stays
        # inside one stance sees no curvature
        spec = GridSpec(lo=(-1.1, -0.95), hi=(1.05, 1.12), counts=(41, 41))
        result = curvature(sample_field(two_leg_crawler().provider(), spec))
        assert result.valid.sum() > 1000
        assert np.abs(result.values[result.valid]).max() < 1e-13

    def test_singular_nodes_poison_stencils(self):
        class SometimesSingular(Pointwise):
            dim = 2

            def connection_at(self, r):
                if abs(float(r[0])) < 1e-12:
                    return np.full((3, 2), np.nan)
                return np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

            def contacts_at(self, r):
                return None

        field = sample_field(
            SometimesSingular(), GridSpec(lo=(-1, -1), hi=(1, 1), counts=(7, 7))
        )
        result = curvature(field)
        # singular column sits at i = 3; any stencil touching it dies
        assert not result.valid[3, 3]
        assert not result.valid[2, 3]
        assert not result.valid[4, 0]
        assert result.valid[0, 0]
        assert result.valid[1, 3]
        assert result.valid[5, 5]

    def test_invalid_stencil_is_flagged_and_nan(self, crawler_field):
        result = curvature(crawler_field)
        assert result.valid[1, 8]
        assert np.isfinite(result.values[1, 8]).all()
        assert not result.valid[5, 5]
        assert np.isnan(result.values[5, 5]).all()

    @pytest.mark.parametrize("with_labels", [True, False])
    def test_matches_per_node_reference(self, with_labels):
        rng = np.random.default_rng(20)
        n1, n2 = 9, 7
        field = FieldGrid(
            axis1=np.linspace(-1.0, 0.6, n1),
            axis2=np.linspace(0.2, 1.5, n2),
            axes=(2, 0),
            base=np.zeros(3),
            conn=rng.normal(size=(n1, n2, 3, 3)),
            contacts=(rng.uniform(size=(n1, n2)) < 0.1).astype(int) if with_labels else np.zeros((n1, n2), dtype=int),
            catalog=(frozenset({0}), frozenset({1})) if with_labels else (None,),
            singular=rng.uniform(size=(n1, n2)) < 0.05,
        )
        result = curvature(field)
        ref = per_node_curvature(field)
        assert 0 < result.valid.sum() < n1 * n2
        assert np.array_equal(result.valid, ref.valid)
        assert np.array_equal(result.boundary, ref.boundary)
        assert np.array_equal(result.values, ref.values, equal_nan=True)

    def test_rejects_tiny_grids(self):
        field = sample_field(
            ConstantCommuting(), GridSpec(lo=(0, 0), hi=(1, 1), counts=(2, 3))
        )
        with pytest.raises(ValueError):
            curvature(field)


class TestHolonomyVsArea:
    def test_reciprocal_loop_both_sides_vanish(self, swimmer_provider, swimmer_field):
        out_and_back = WaypointGait(
            points=[[0.0, 0.0], [0.4, 0.2]], times=[0.0, 0.5, 1.0]
        )
        report = holonomy_vs_area(swimmer_provider, out_and_back, swimmer_field)
        assert np.abs(report.holonomy.to_array()).max() <= 1e-12
        assert np.abs(report.area_integral).max() <= 1e-12
        assert np.abs(report.bracket_part).max() <= 1e-12

    def test_constant_commuting_trivial(self):
        provider = ConstantCommuting()
        field = sample_field(
            provider, GridSpec(lo=(-1, -1), hi=(1, 1), counts=(9, 9))
        )
        report = holonomy_vs_area(provider, square_loop_gait(0.5), field)
        assert np.abs(report.holonomy.to_array()).max() <= 1e-12
        assert np.abs(report.area_integral).max() <= 1e-12

    def test_fourier_loop_constant_commuting(self):
        provider = ConstantCommuting()
        field = sample_field(
            provider, GridSpec(lo=(-1, -1), hi=(1, 1), counts=(9, 9))
        )
        circle = FourierGait(1.0, [0.0, 0.0], cos=[[0.5, 0.0]], sin=[[0.0, 0.5]])
        report = holonomy_vs_area(provider, circle, field)
        assert np.abs(report.holonomy.to_array()).max() <= 1e-12
        assert np.abs(report.curl_part).max() <= 1e-12
        assert np.abs(report.bracket_part).max() == 0.0

    def test_swimmer_gap_shrinks_with_amplitude(self, swimmer_provider, swimmer_field):
        """Holonomy and area integral agree only to leading order.

        The defect of the area account is O(amplitude^4) for these square
        loops, so each halving of the amplitude should shrink the gap by
        roughly 16x.  Measured gaps:

            0.4   -> 8.5345e-06
            0.2   -> 2.7509e-06
            0.1   -> 2.0721e-07
            0.05  -> 1.3504e-08
            0.025 -> 8.5269e-10
        """
        gaps = {}
        for a in (0.4, 0.2, 0.1, 0.05, 0.025):
            report = holonomy_vs_area(
                swimmer_provider, square_loop_gait(a), swimmer_field
            )
            gaps[a] = report.gap_norm
        assert abs(gaps[0.4] - 8.534503044783925e-6) < 1e-9
        assert abs(gaps[0.2] - 2.750920493834949e-6) < 1e-9
        assert abs(gaps[0.1] - 2.0721089210966326e-7) < 1e-10
        assert gaps[0.4] > gaps[0.2] > gaps[0.1] > gaps[0.05] > gaps[0.025]
        # asymptotic ratios approach 16; measured 13.3, 15.3, 15.8
        assert gaps[0.2] / gaps[0.1] >= 12.0
        assert gaps[0.1] / gaps[0.05] >= 12.0
        assert gaps[0.05] / gaps[0.025] >= 12.0

    def test_bracket_part_contributes_for_swimmer(
        self, swimmer_provider, swimmer_field
    ):
        report = holonomy_vs_area(
            swimmer_provider, square_loop_gait(0.4), swimmer_field
        )
        assert np.abs(report.bracket_part).max() > 1e-3
        assert np.array_equal(
            report.gap, report.holonomy.to_array() - report.area_integral
        )
        assert np.allclose(
            report.area_integral, report.curl_part + report.bracket_part,
            rtol=0.0, atol=0.0,
        )
        assert report.gap_norm == np.abs(report.gap).max()

    def test_loop_integrals_make_no_single_shape_call(self, swimmer_field):
        for model in (three_link_swimmer, two_leg_crawler):
            provider = CountingProvider(model().provider())
            report = holonomy_vs_area(provider, square_loop_gait(0.4), swimmer_field)
            assert provider.single == 0
            assert np.isfinite(report.gap).all()

    def test_loop_integrals_raise_on_non_finite_connection(self):
        provider = JacobianConnection(nan_past(0.45))
        with pytest.raises(SingularConstraint, match="non-finite connection"):
            _line_integral(provider, square_loop_gait(0.4), 64)
        with pytest.raises(SingularConstraint, match="non-finite connection"):
            _bracket_surface_integral(
                provider, square_loop_gait(0.4).points, (0, 1), np.zeros(2)
            )
        # the same loop inside the disc gives finite integrals
        assert np.isfinite(_line_integral(provider, square_loop_gait(0.2), 64)).all()

    def test_loop_outside_grid_raises(self, swimmer_provider):
        small = sample_field(
            swimmer_provider, GridSpec(lo=(-0.1, -0.1), hi=(0.1, 0.1), counts=(5, 5))
        )
        with pytest.raises(LoopOutsideGrid):
            holonomy_vs_area(swimmer_provider, square_loop_gait(0.4), small)
