"""Gait representations: closure, analytic rates, retiming, reversal."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locomech import FourierGait, WaypointGait, reparameterize, reversed_gait
from locomech.shapespace import SmoothstepGait, smoothstep


def square_loop():
    # (0,0) -> (1,0) -> (1,1) -> back, one second per edge
    return WaypointGait(
        points=[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]],
        times=[0.0, 1.0, 2.0, 3.0],
    )


def test_fourier_single_harmonic_rate_at_zero():
    g = FourierGait(1.0, [0.0], sin=[[0.5]])
    r, rdot = g.evaluate(0.0)
    assert r[0] == 0.0
    assert abs(rdot[0] - math.pi) < 1e-14


def test_fourier_closure_exact():
    g = FourierGait(2.0, [0.1, -0.2], cos=[[0.3, 0.4]], sin=[[0.5, -0.6]])
    r0, _ = g.evaluate(0.0)
    rT, _ = g.evaluate(g.period)
    assert np.array_equal(r0, rT)


def test_periodicity():
    g = FourierGait(1.0, [0.1], cos=[[0.2], [0.05]], sin=[[0.3], [-0.1]])
    w = square_loop()
    # dyadic times survive the float mod exactly
    for t in (0.0, 0.25, 0.5, 1.25):
        for gait in (g, w):
            a = gait.evaluate(t)
            b = gait.evaluate(t + gait.period)
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    rng = np.random.default_rng(0)
    for t in rng.uniform(0, 1, 20):
        a, b = g.evaluate(t), g.evaluate(t + g.period)
        assert np.max(np.abs(a[0] - b[0])) < 1e-12
        assert np.max(np.abs(a[1] - b[1])) < 1e-12


def test_waypoint_interpolation_example():
    r, rdot = square_loop().evaluate(0.5)
    np.testing.assert_allclose(r, [0.5, 0.0], atol=0)
    np.testing.assert_allclose(rdot, [1.0, 0.0], atol=0)


def test_waypoint_closure_exact():
    g = square_loop()
    assert np.array_equal(g.evaluate(0.0)[0], g.evaluate(g.period)[0])
    assert np.array_equal(g.evaluate(g.period)[0], np.array([0.0, 0.0]))


def test_waypoint_knot_sides():
    g = square_loop()
    r_right, v_right = g.evaluate(1.0, side="right")
    r_left, v_left = g.evaluate(1.0, side="left")
    assert np.array_equal(r_right, r_left)
    np.testing.assert_allclose(v_right, [0.0, 1.0], atol=0)
    np.testing.assert_allclose(v_left, [1.0, 0.0], atol=0)
    # t = 0 wraps: the left limit belongs to the closing edge
    _, v0_left = g.evaluate(0.0, side="left")
    np.testing.assert_allclose(v0_left, [-1.0, -1.0], atol=0)
    r0_left, _ = g.evaluate(0.0, side="left")
    assert np.max(np.abs(r0_left)) == 0.0


def test_fourier_rates_fixed_at_construction():
    # evaluate reuses the rates built once; r and rdot are bitwise what the
    # formula gives with the rates computed afresh
    period = 1.7
    gait = FourierGait(
        period, [0.1, -0.2], cos=[[0.3, 0.0], [0.1, 0.2]], sin=[[0.0, 0.4], [0.05, 0.0]]
    )
    w = 2.0 * np.pi * np.arange(1, 3) / period
    assert np.array_equal(gait.angular_rates, w)
    assert not gait.angular_rates.flags.writeable
    for t in np.linspace(-3.0, 5.0, 41):
        ang = w * (float(t) % period)
        r, rdot = gait.evaluate(t)
        assert np.array_equal(r, gait.mean + np.cos(ang) @ gait.cos + np.sin(ang) @ gait.sin)
        assert np.array_equal(rdot, (-w * np.sin(ang)) @ gait.cos + (w * np.cos(ang)) @ gait.sin)
    assert FourierGait(2.0, [0.5]).angular_rates.shape == (0,)


def test_fourier_ignores_side():
    g = FourierGait(1.0, [0.0], sin=[[0.5]])
    a = g.evaluate(0.25, side="right")
    b = g.evaluate(0.25, side="left")
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_fourier_rate_matches_central_difference():
    g = FourierGait(
        1.7,
        [0.1, -0.3],
        cos=[[0.4, -0.2], [0.1, 0.3]],
        sin=[[-0.5, 0.2], [0.2, -0.1]],
    )
    rng = np.random.default_rng(1)
    ts = rng.uniform(0, g.period, 25)
    errs = []
    for h in (1e-3, 1e-4):
        worst = 0.0
        for t in ts:
            fd = (g.evaluate(t + h)[0] - g.evaluate(t - h)[0]) / (2 * h)
            worst = max(worst, np.max(np.abs(fd - g.evaluate(t)[1])))
        errs.append(worst)
    ratio = errs[0] / errs[1]
    assert errs[1] < 1e-5
    assert 60.0 < ratio < 140.0


def test_waypoint_rate_exact_between_knots():
    g = square_loop()
    h = 1e-3
    for t in (0.3, 1.5, 2.75):
        fd = (g.evaluate(t + h)[0] - g.evaluate(t - h)[0]) / (2 * h)
        assert np.max(np.abs(fd - g.evaluate(t)[1])) < 1e-12


def test_malformed_gaits_rejected():
    with pytest.raises(ValueError):
        FourierGait(0.0, [0.0])
    with pytest.raises(ValueError):
        FourierGait(-1.0, [0.0])
    with pytest.raises(ValueError):
        WaypointGait(points=[[0.0], [1.0]], times=[0.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        WaypointGait(points=[[0.0], [1.0]], times=[0.5, 1.0, 2.0])
    with pytest.raises(ValueError):
        WaypointGait(points=[[0.0], [1.0]], times=[0.0, 1.0])
    with pytest.raises(ValueError):
        square_loop().evaluate(float("inf"))


def test_waypoint_gait_rejects_an_empty_point_set():
    with pytest.raises(ValueError, match="at least one waypoint"):
        WaypointGait(points=np.zeros((0, 2)), times=[0.0])


def test_waypoint_gait_rejects_non_finite_points():
    with pytest.raises(ValueError, match="waypoints must be finite"):
        WaypointGait(points=[[0.0, 0.0], [1.0, float("nan")]], times=[0.0, 1.0, 2.0])


def test_waypoint_gait_rejects_an_infinite_knot_time():
    with pytest.raises(ValueError, match="knot times must be finite"):
        WaypointGait(points=[[0.0], [1.0]], times=[0.0, 1.0, float("inf")])


@pytest.mark.parametrize(
    "mean, cos, sin",
    [([math.nan], None, [[0.5]]), ([1.0], None, [[math.inf]]), ([1.0], [[0.5], [-math.inf]], None),
     ([1.0], [[0.5]], [[math.nan]])],
)
def test_fourier_gait_rejects_non_finite_coefficients(mean, cos, sin):
    # FourierGait(1.0, [nan], sin=[[inf]]) once built and evaluated to ([nan], [-inf])
    with pytest.raises(ValueError, match="must be finite"):
        FourierGait(1.0, mean, cos=cos, sin=sin)


@pytest.mark.parametrize("samples", [0, -3])
def test_reparameterize_rejects_fewer_than_one_sample(samples):
    # zero samples made a gait of no points and period 0; negative ones leaked numpy's linspace error
    with pytest.raises(ValueError, match="at least one sample"):
        reparameterize(FourierGait(1.0, [0.0], sin=[[0.5]]), lambda t: t, samples=samples)


def test_reparameterize_rejects_a_warp_to_infinity():
    g = square_loop()
    with pytest.raises(ValueError, match="knot times must be finite"):
        reparameterize(g, lambda t: t if t < g.period else float("inf"))


@pytest.mark.parametrize("side", ["Left", "RIGHT", "", "l"])
def test_misspelled_side_is_rejected(side):
    # a misspelled side was read as "left" at some times and "right" at others
    for gait in (square_loop(), FourierGait(1.0, [0.0], sin=[[0.5]])):
        with pytest.raises(ValueError, match="side"):
            gait.evaluate(0.0, side)
        with pytest.raises(ValueError, match="side"):
            gait.evaluate_many(np.array([0.0, 0.25]), side)


def test_reparameterize_identity_warp():
    g = square_loop()
    out = reparameterize(g, lambda t: t)
    assert np.array_equal(out.points, g.points)
    assert np.array_equal(out.times, g.times)
    f = FourierGait(1.0, [0.0], sin=[[0.5]])
    out_f = reparameterize(f, lambda t: t, samples=256)
    assert out_f.period == f.period
    for i, t in enumerate(out_f.times[:-1]):
        assert np.max(np.abs(out_f.points[i] - f.evaluate(t)[0])) < 1e-14


def test_reparameterize_uniform_speedup():
    g = square_loop()
    out = reparameterize(g, lambda t: 0.5 * t)
    assert out.period == 1.5
    assert np.array_equal(out.points, g.points)
    # affine warps preserve segment fractions, so interior samples match too
    rng = np.random.default_rng(2)
    for t in rng.uniform(0, g.period, 50):
        a = g.evaluate(t)[0]
        b = out.evaluate(0.5 * t)[0]
        assert np.max(np.abs(a - b)) < 1e-12


def _arclength_samples(gait, fractions):
    """Points at given arc-length fractions of a closed polyline loop."""
    pts = np.vstack([gait.points, gait.points[:1]])
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = fractions * cum[-1]
    out = np.empty((len(fractions), pts.shape[1]))
    last = len(seg) - 1
    for i, sarc in enumerate(targets):
        j = min(int(np.searchsorted(cum, sarc, side="right")) - 1, last)
        f = (sarc - cum[j]) / (cum[j + 1] - cum[j])
        out[i] = pts[j] + f * (pts[j + 1] - pts[j])
    return out


def test_reparameterize_cubic_warp_preserves_path():
    # a nonuniform warp changes the pacing but must not move the path:
    # compare the two loops at matched arc-length fractions
    g = square_loop()
    T = g.period

    def warp(t):
        u = t / T
        return T * (3.0 * u * u - 2.0 * u**3)

    out = reparameterize(g, warp)
    assert np.array_equal(out.points, g.points)
    for ti, to in zip(g.times, out.times):
        assert np.max(np.abs(out.evaluate(to)[0] - g.evaluate(ti)[0])) < 1e-12
    fractions = np.linspace(0.0, 1.0, 10_000, endpoint=False)
    a = _arclength_samples(g, fractions)
    b = _arclength_samples(out, fractions)
    assert np.max(np.abs(a - b)) < 1e-12


def test_reparameterize_rejects_bad_warps():
    g = square_loop()
    with pytest.raises(ValueError):
        reparameterize(g, lambda t: t * (3.0 - t))  # folds back past t = 1.5
    with pytest.raises(ValueError):
        reparameterize(g, lambda t: t + 1.0)


def test_smoothstep_fixes_the_ends_and_rises_between():
    period = 2.5
    assert smoothstep(0.0, period) == 0.0 and smoothstep(period, period) == period
    assert np.all(np.diff(smoothstep(np.linspace(0.0, period, 1001), period)) > 0.0)


def test_reversed_fourier():
    g = FourierGait(1.3, [0.2, -0.1], cos=[[0.3, 0.1]], sin=[[-0.2, 0.4]])
    rev = reversed_gait(g)
    assert rev.period == g.period
    rng = np.random.default_rng(3)
    for t in rng.uniform(0, g.period, 40):
        rf, vf = g.evaluate(g.period - t)
        rb, vb = rev.evaluate(t)
        assert np.max(np.abs(rb - rf)) < 1e-12
        assert np.max(np.abs(vb + vf)) < 1e-11
    back = reversed_gait(rev)
    assert np.array_equal(back.sin, g.sin) and np.array_equal(back.cos, g.cos)


def test_reversed_waypoint():
    g = square_loop()
    rev = reversed_gait(g)
    assert rev.period == g.period
    for t in (0.25, 0.5, 1.5, 2.25):
        rf, _ = g.evaluate(g.period - t)
        rb, _ = rev.evaluate(t)
        assert np.max(np.abs(rb - rf)) < 1e-12
    back = reversed_gait(rev)
    assert np.array_equal(back.points, g.points)
    assert np.array_equal(back.times, g.times)


def test_gait_arrays_are_readonly():
    g = square_loop()
    with pytest.raises(ValueError):
        g.points[0, 0] = 5.0
    f = FourierGait(1.0, [0.0], sin=[[0.5]])
    with pytest.raises(ValueError):
        f.mean[0] = 1.0


def test_dim_property():
    assert square_loop().dim == 2
    assert FourierGait(1.0, [0.0, 0.0, 0.0]).dim == 3


GAIT_PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@st.composite
def fourier_gaits(draw):
    k = draw(st.integers(1, 6))
    d = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    period = draw(st.floats(0.1, 10.0))
    return FourierGait(period, rng.uniform(-1, 1, d), rng.uniform(-1, 1, (k, d)), rng.uniform(-1, 1, (k, d)))


@st.composite
def waypoint_gaits(draw):
    m = draw(st.integers(1, 8))
    d = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 2.0, m))])
    return WaypointGait(rng.uniform(-1, 1, (m, d)), times)


def sample_times(gait, seed):
    """Random times, with negative ones, knot times and multiples of the period."""
    rng = np.random.default_rng(seed)
    knots = getattr(gait, "times", np.zeros(0))
    period = gait.period
    return np.concatenate([
        rng.uniform(-5.0 * period, 5.0 * period, 300),
        knots, knots + period, knots - 2.0 * period,
        period * np.arange(-4.0, 5.0),
    ])


@GAIT_PROPERTY
@given(fourier_gaits(), st.integers(0, 2**32 - 1))
def test_fourier_rows_are_the_single_time_sums_bitwise(gait, seed):
    # the reference is the per-time (K,) @ (K, d) sum; a flat (n, K) @ (K, d)
    # product over all rows sums in another order and fails here
    times = sample_times(gait, seed)
    r, rdot = gait.evaluate_many(times)
    w = gait.angular_rates
    for i, t in enumerate(times):
        ang = w * (float(t) % gait.period)
        want_r = gait.mean + np.cos(ang) @ gait.cos + np.sin(ang) @ gait.sin
        want_rdot = (-w * np.sin(ang)) @ gait.cos + (w * np.cos(ang)) @ gait.sin
        assert r[i].tobytes() == want_r.tobytes(), t
        assert rdot[i].tobytes() == want_rdot.tobytes(), t
        one = gait.evaluate(t, "left")
        assert one[0].tobytes() == want_r.tobytes() and one[1].tobytes() == want_rdot.tobytes(), t


@GAIT_PROPERTY
@given(waypoint_gaits(), st.integers(0, 2**32 - 1), st.sampled_from(["right", "left"]))
def test_waypoint_rows_are_single_time_evaluations_bitwise(gait, seed, side):
    times = sample_times(gait, seed)
    r, rdot = gait.evaluate_many(times, side)
    for i, t in enumerate(times):
        one = gait.evaluate(t, side)
        assert r[i].tobytes() == one[0].tobytes() and rdot[i].tobytes() == one[1].tobytes(), t
    # one row at a knot: its segment is the one the side names
    m = len(gait.points)
    for j, t in enumerate(gait.times[1:-1], start=1):
        seg = j if side == "right" else j - 1
        want = (gait.points[(seg + 1) % m] - gait.points[seg]) / (gait.times[seg + 1] - gait.times[seg])
        assert gait.evaluate(t, side)[1].tobytes() == want.tobytes()


@GAIT_PROPERTY
@given(st.one_of(fourier_gaits(), waypoint_gaits()))
def test_loops_close_bitwise(gait):
    # t mod T is exact at 0 and at these multiples of T, so every row is r(0)
    period = gait.period
    r, _ = gait.evaluate_many(np.array([0.0, period, 2.0 * period, -period, 4.0 * period]))
    for row in r[1:]:
        assert row.tobytes() == r[0].tobytes()


@GAIT_PROPERTY
@given(st.one_of(fourier_gaits(), waypoint_gaits()))
def test_reversal_is_an_involution(gait):
    back = reversed_gait(reversed_gait(gait))
    if isinstance(gait, FourierGait):
        # -(-sin) is sin exactly, so the twice-reversed loop is the same gait
        for name in ("mean", "cos", "sin"):
            assert getattr(back, name).tobytes() == getattr(gait, name).tobytes()
        times = np.linspace(-gait.period, 2.0 * gait.period, 41)
        for a, b in zip(gait.evaluate_many(times), back.evaluate_many(times)):
            assert a.tobytes() == b.tobytes()
        return
    assert back.points.tobytes() == gait.points.tobytes()
    # knot times are re-summed from reversed durations twice: each sum and
    # difference rounds by at most half an ulp of the period
    bound = 2.0 * len(gait.times) * np.spacing(gait.period)
    assert np.abs(back.times - gait.times).max() <= bound


@GAIT_PROPERTY
@given(fourier_gaits(), st.integers(0, 2**32 - 1), st.sampled_from(["right", "left"]))
def test_smoothstep_gait_samples_its_base_at_the_warped_time_bitwise(gait, seed, side):
    retimed = SmoothstepGait(gait)
    period = gait.period
    assert (retimed.period, retimed.dim) == (period, gait.dim)
    times = sample_times(gait, seed)
    r, rdot = retimed.evaluate_many(times, side)
    tau = times % period
    want_r, base_rdot = gait.evaluate_many(smoothstep(tau, period))
    assert r.tobytes() == want_r.tobytes()
    u = tau / period
    assert rdot.tobytes() == (base_rdot * (6.0 * u * (1.0 - u))[:, None]).tobytes()
    # the retimed loop starts and ends on the base's first shape, at rest
    for t in (0.0, period):
        shape, rate = retimed.evaluate(t, side)
        assert shape.tobytes() == gait.evaluate(0.0)[0].tobytes()
        assert not rate.any()


@GAIT_PROPERTY
@given(st.one_of(fourier_gaits(), waypoint_gaits()), st.floats(0.0, 0.9), st.floats(0.0, 1.0))
def test_reparameterize_preserves_the_path(gait, bend, fraction):
    period = gait.period

    def warp(t):
        u = t / period
        return period * ((1.0 - bend) * u + bend * u * u)

    out = reparameterize(gait, warp, samples=64)
    if isinstance(gait, FourierGait):
        # the resampled vertices are the gait's own rows at uniform times
        ts = np.linspace(0.0, period, 65)
        assert out.points.tobytes() == gait.evaluate_many(ts[:-1])[0].tobytes()
        old = WaypointGait(out.points, ts)
    else:
        assert out.points.tobytes() == gait.points.tobytes()
        old = gait
    # the same fraction of every segment is the same point of the path
    t_old = old.times[:-1] + fraction * np.diff(old.times)
    t_new = out.times[:-1] + fraction * np.diff(out.times)
    assert np.abs(out.evaluate_many(t_new)[0] - old.evaluate_many(t_old)[0]).max() <= 1e-12
