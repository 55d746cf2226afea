import gc
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locomech import (
    FourierGait,
    GaitFamily,
    JacobianConnection,
    Pose,
    PoseMap,
    amplitude_phase_family,
    fourier_slot_family,
    integrate_gait,
    load_scenario,
    nelder_mead,
    net_displacement,
    objective_displacement,
    optimize,
    three_link_swimmer,
    two_leg_crawler,
)
import locomech.optimizer as optimizer
from locomech import integrator
from locomech.integrator import integrate_gaits
from locomech.optimizer import DIRECTIONS
from pointwise import reference_nelder_mead


def quadratic(p):
    return -float((p[0] - 0.7) ** 2 + (p[1] - 1.3) ** 2)


BOUNDS_LO = np.array([-2.0, -1.0])
BOUNDS_HI = np.array([2.0, 3.0])


class TestNelderMead:
    def test_quadratic_maximum_found(self):
        report = nelder_mead(
            quadratic, BOUNDS_LO, BOUNDS_HI, budget=200, seeds=1, rng_seed=5
        )
        # measured: 193 evaluations, converged, error 2.8e-13
        assert report.termination == "converged"
        assert report.evaluations == 193
        assert np.abs(report.best_params - np.array([0.7, 1.3])).max() <= 1e-10
        assert report.best_value <= 0.0
        assert report.best_value > -1e-20

    def test_deterministic_history(self):
        a = nelder_mead(quadratic, BOUNDS_LO, BOUNDS_HI, budget=150, seeds=2, rng_seed=3)
        b = nelder_mead(quadratic, BOUNDS_LO, BOUNDS_HI, budget=150, seeds=2, rng_seed=3)
        assert len(a.history) == len(b.history)
        for (pa, va), (pb, vb) in zip(a.history, b.history):
            assert np.array_equal(pa, pb)
            assert va == vb
        assert np.array_equal(a.best_params, b.best_params)
        assert a.best_value == b.best_value

    def test_seeded_start_point(self):
        # restart s draws its start from default_rng((rng_seed, s))
        report = nelder_mead(
            quadratic, BOUNDS_LO, BOUNDS_HI, budget=50, seeds=1, rng_seed=5
        )
        rng = np.random.default_rng((5, 0))
        x0 = BOUNDS_LO + (BOUNDS_HI - BOUNDS_LO) * rng.uniform(size=2)
        assert np.array_equal(report.history[0][0], np.clip(x0, BOUNDS_LO, BOUNDS_HI))

    def test_history_tracks_best(self):
        report = nelder_mead(
            quadratic, BOUNDS_LO, BOUNDS_HI, budget=120, seeds=3, rng_seed=11
        )
        values = [v for _, v in report.history]
        assert report.evaluations == len(report.history)
        assert report.evaluations <= 120
        assert report.best_value == max(values)
        assert np.all(report.best_params >= BOUNDS_LO)
        assert np.all(report.best_params <= BOUNDS_HI)

    def test_iterates_stay_inside_box(self):
        report = nelder_mead(
            quadratic, BOUNDS_LO, BOUNDS_HI, budget=150, seeds=2, rng_seed=7
        )
        for p, _ in report.history:
            assert np.all(p >= BOUNDS_LO - 1e-15)
            assert np.all(p <= BOUNDS_HI + 1e-15)

    def test_infeasible_region_avoided(self):
        def half(p):
            if p[0] < 0:
                return float("-inf")
            return -float((p[0] - 0.5) ** 2 + p[1] ** 2)

        report = nelder_mead(
            half, np.array([-1.0, -1.0]), np.array([1.0, 1.0]),
            budget=120, seeds=3, rng_seed=2,
        )
        assert report.best_params[0] >= 0.0
        assert np.isfinite(report.best_value)
        # the search did hit the infeasible half along the way
        assert any(v == float("-inf") for _, v in report.history)

    def test_everywhere_infeasible(self):
        report = nelder_mead(
            lambda p: float("-inf"), np.array([0.0]), np.array([1.0]),
            budget=20, seeds=2, rng_seed=1,
        )
        assert report.best_params is None
        assert report.best_value == float("-inf")
        assert report.evaluations == 20

    def test_budget_too_small(self):
        with pytest.raises(ValueError):
            nelder_mead(quadratic, BOUNDS_LO, BOUNDS_HI, budget=2, seeds=1)
        with pytest.raises(ValueError):
            nelder_mead(quadratic, BOUNDS_LO, BOUNDS_HI, budget=100, seeds=0)


class TestFamilies:
    def test_amplitude_phase_build(self):
        family = amplitude_phase_family()
        a, phi = 0.6, 0.9
        gait = family.build(np.array([a, phi]))
        for t in (0.0, 0.13, 0.4, 0.77):
            r, _ = gait.evaluate(t)
            w = 2.0 * np.pi * t
            assert abs(r[0] - a * np.sin(w)) <= 1e-12
            assert abs(r[1] - a * np.sin(w + phi)) <= 1e-12
        assert np.array_equal(family.lower, np.array([0.1, -np.pi]))
        assert np.array_equal(family.upper, np.array([1.2, np.pi]))
        assert family.names == ("amplitude", "phase")

    def test_fourier_slot_family(self):
        template = FourierGait(
            1.0, [0.1, -0.2], cos=[[0.3, 0.0]], sin=[[0.2, 0.5]]
        )
        family = fourier_slot_family(
            template,
            slots=[("mean", 0), ("cos", 1, 1), ("sin", 1, 0)],
            lower=[-1.0, -1.0, -1.0],
            upper=[1.0, 1.0, 1.0],
        )
        gait = family.build(np.array([0.7, 0.9, -0.4]))
        assert gait.mean[0] == 0.7
        assert gait.mean[1] == -0.2
        assert gait.cos[0, 1] == 0.9
        assert gait.cos[0, 0] == 0.3
        assert gait.sin[0, 0] == -0.4
        assert gait.sin[0, 1] == 0.5
        assert family.names == ("mean_0", "cos_1_1", "sin_1_0")
        assert family.n_params == 3

    def test_slot_validation(self):
        template = FourierGait(1.0, [0.0, 0.0], cos=[[0.1, 0.1]])
        with pytest.raises(ValueError):
            fourier_slot_family(template, [("freq", 0)], [-1], [1])

    @pytest.mark.parametrize(
        "slot, what",
        [
            (("cos", 0, 0), "harmonic"),
            (("sin", 2, 1), "harmonic"),
            (("cos", 1, 2), "coordinate"),
            (("sin", 1, -1), "coordinate"),
            (("mean", 2), "coordinate"),
            (("mean", -1), "coordinate"),
        ],
    )
    def test_slot_indices_outside_the_template(self, slot, what):
        # index 0 or -1 would otherwise edit the last harmonic or coordinate
        template = FourierGait(1.0, [0.0, 0.0], cos=[[0.1, 0.1]])
        with pytest.raises(ValueError, match=what):
            fourier_slot_family(template, [slot], [-1.0], [1.0])

    def test_family_bounds_validation(self):
        with pytest.raises(ValueError):
            GaitFamily(build=lambda p: None, lower=[0.0, 0.0], upper=[1.0])
        with pytest.raises(ValueError):
            GaitFamily(build=lambda p: None, lower=[0.0, 2.0], upper=[1.0, 1.0])


@pytest.fixture(scope="module")
def swimmer():
    return three_link_swimmer().provider()


class TestDisplacementObjective:
    def test_direction_components(self, swimmer):
        gait = amplitude_phase_family().build(np.array([0.6, np.pi / 2]))
        vx = objective_displacement(swimmer, gait, "x")
        vy = objective_displacement(swimmer, gait, "y")
        vtheta = objective_displacement(swimmer, gait, "theta")
        speed = objective_displacement(swimmer, gait, "speed")
        assert vx > 0.05
        assert abs(vtheta) < 1e-10
        assert speed == np.hypot(vx, vy)

    def test_reciprocal_gait_scores_zero(self, swimmer):
        # in-phase sinusoids retrace a segment, so the cycle closes
        gait = amplitude_phase_family().build(np.array([0.6, 0.0]))
        assert abs(objective_displacement(swimmer, gait, "x")) <= 1e-10

    def test_singular_provider_scores_minus_inf(self):
        from locomech import ConnectionProvider, SingularConstraint

        class AlwaysSingular(ConnectionProvider):
            dim = 2

            def connection_many(self, label, shapes):
                raise SingularConstraint("rank-deficient test configuration")

        gait = amplitude_phase_family().build(np.array([0.5, 1.0]))
        value = objective_displacement(AlwaysSingular(), gait, "x")
        assert value == float("-inf")

    def test_non_finite_provider_scores_minus_inf(self):
        from locomech import JacobianConnection, Pose, PoseMap

        def fn(r):
            # NaN once the shape leaves the disc of radius 0.2
            if math.hypot(r[0], r[1]) > 0.2:
                return Pose(math.nan, 0.0, 0.0)
            return Pose(r[0], r[1] * r[0], r[1])

        gait = amplitude_phase_family().build(np.array([0.5, 1.0]))
        value = objective_displacement(JacobianConnection(PoseMap(fn, 2)), gait, "x")
        assert value == float("-inf")

    def test_unknown_direction(self, swimmer):
        gait = amplitude_phase_family().build(np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            objective_displacement(swimmer, gait, "z")

    def test_each_direction_names_its_component(self, swimmer):
        gait = amplitude_phase_family().build(np.array([0.6, 1.0]))
        disp = net_displacement(integrate_gait(swimmer, gait, step=1e-2))
        expected = {"x": disp.vx, "y": disp.vy, "theta": disp.omega, "speed": float(np.hypot(disp.vx, disp.vy))}
        assert {name: component(disp) for name, component in DIRECTIONS.items()} == expected
        assert {name: objective_displacement(swimmer, gait, name) for name in DIRECTIONS} == expected

    @pytest.mark.parametrize("direction", ["z", ["x"], None])
    def test_unknown_direction_message_lists_the_names(self, swimmer, direction):
        gait = amplitude_phase_family().build(np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match=re.escape("one of ('x', 'y', 'theta', 'speed')")):
            objective_displacement(swimmer, gait, direction)

    def test_optimize_finds_propulsive_gait(self, swimmer):
        # coarse step and tiny budget keep the runtime small; measured
        # best 0.2047 at the amplitude bound
        report = optimize(
            swimmer,
            amplitude_phase_family(),
            direction="x",
            step=5e-2,
            budget=40,
            seeds=1,
            rng_seed=9,
        )
        assert report.best_value > 0.15
        assert report.evaluations <= 40
        assert abs(report.best_params[0] - 1.2) <= 1e-9


# -- lockstep restarts: the report of restarts run one after another ----------

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def assert_same_report(got, want):
    assert (got.evaluations, got.termination) == (want.evaluations, want.termination)
    assert [(p.tobytes(), repr(v)) for p, v in got.history] == [(p.tobytes(), repr(v)) for p, v in want.history]
    assert repr(got.best_value) == repr(want.best_value)
    assert (got.best_params is None) == (want.best_params is None)
    if want.best_params is not None:
        assert got.best_params.tobytes() == want.best_params.tobytes()


def make_objective(kind, centre):
    if kind == "linear":
        # maximal at the upper corner, where projection collapses the simplex early
        return lambda p: float(np.dot(centre, p))
    if kind == "half_infeasible":
        return lambda p: float("-inf") if p[0] < centre[0] else -float(np.sum((p - centre) ** 2))
    if kind == "plateaus":
        return lambda p: float(np.round(-np.sum((p - centre) ** 2), 1))
    if kind == "wavy":
        return lambda p: float(np.sin(3.0 * p).sum() + np.dot(centre, p))
    return lambda p: -float(np.sum((p - centre) ** 2))


@st.composite
def searches(draw):
    dim = draw(st.integers(1, 3))
    lower = np.array(draw(st.lists(st.floats(-3.0, 0.0), min_size=dim, max_size=dim)))
    width = draw(st.one_of(st.floats(0.1, 3.0), st.sampled_from([1e-13, 4e-12])))
    centre = lower + width * np.array(draw(st.lists(st.floats(-0.2, 1.2), min_size=dim, max_size=dim)))
    kind = draw(st.sampled_from(["linear", "quadratic", "half_infeasible", "plateaus", "wavy"]))
    budget = draw(st.integers(dim + 1, 220))
    seeds = draw(st.integers(1, 6))
    return kind, centre, lower, lower + width, budget, seeds, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(searches())
@example(("quadratic", np.array([0.3, 0.2]), np.zeros(2), np.ones(2), 5, 4, 0))  # per_seed 1 < dim + 1
@example(("quadratic", np.array([0.3, 0.2]), np.zeros(2), np.ones(2), 47, 4, 3))  # budget not divisible
@example(("linear", np.ones(2), np.zeros(2), np.ones(2), 200, 2, 1))  # an early end lengthens the last
@example(("quadratic", np.zeros(2), np.zeros(2), np.full(2, 1e-13), 40, 3, 2))  # converged simplices
@example(("half_infeasible", np.array([0.5, 0.0]), -np.ones(2), np.ones(2), 120, 3, 2))  # -inf values
def test_lockstep_restarts_give_the_sequential_report(search):
    kind, centre, lower, upper, budget, seeds, rng_seed = search
    objective = make_objective(kind, centre)
    want = reference_nelder_mead(objective, lower, upper, budget, seeds, rng_seed)
    assert_same_report(nelder_mead(objective, lower, upper, budget, seeds, rng_seed), want)


def test_lockstep_examples_reach_early_ends_and_small_budgets():
    # restart 0 converges early, so the last one runs past budget // seeds
    early = reference_nelder_mead(make_objective("linear", np.ones(2)), np.zeros(2), np.ones(2), 200, 2, 1)
    assert early.termination == "converged" and 100 < early.evaluations < 200
    assert nelder_mead(quadratic, [0.0, 0.0], [1.0, 1.0], budget=5, seeds=4).evaluations == 3
    tiny = nelder_mead(quadratic, np.zeros(2), np.full(2, 1e-13), budget=40, seeds=3, rng_seed=2)
    assert (tiny.termination, tiny.evaluations) == ("converged", 9)


def test_optimize_scores_each_round_as_one_batch(monkeypatch, swimmer):
    # the simplices of all four restarts, then one point per restart and
    # round: 48 evaluations in 10 integrate_gaits calls
    sizes = []

    def counted(provider, gaits, *args):
        sizes.append(len(gaits))
        return integrate_gaits(provider, gaits, *args)

    monkeypatch.setattr(optimizer, "integrate_gaits", counted)
    report = optimize(swimmer, amplitude_phase_family(), step=2e-2, budget=48, seeds=4, rng_seed=3)
    assert report.evaluations == sum(sizes) == 48
    assert sizes == [12] + [4] * 9


def test_optimize_split_at_the_step_ceiling_gives_the_same_report(monkeypatch, swimmer):
    # 50-step gaits under a 120-step ceiling: the 12 simplex points in six
    # batches of two, each later round of four in two
    args = (swimmer, amplitude_phase_family(), "x", 2e-2, 1, 48, 4, 3)
    want = optimize(*args)
    sizes, finish = [], integrator._finish

    def counted(provider, plans, *rest):
        sizes.append(len(plans))
        return finish(provider, plans, *rest)

    monkeypatch.setattr(integrator, "_finish", counted)
    monkeypatch.setattr(integrator, "MAX_STEPS", 120)
    assert_same_report(optimize(*args), want)
    assert sizes == [2] * 24


def test_a_round_peaks_like_one_batch_under_the_step_ceiling(monkeypatch, swimmer):
    # budget 3 per restart in 2-D: one round of every restart's simplex.  A
    # round of 24 gaits of 2000 steps, finished two at a time and scored as
    # they come, peaks about like a round of 3, not eight times higher
    monkeypatch.setattr(integrator, "MAX_STEPS", 4000)
    family, peaks = amplitude_phase_family(), []
    optimize(swimmer, family, step=1 / 2000, budget=3, seeds=1)  # one-time caches first
    for seeds in (1, 8):
        gc.collect()
        tracemalloc.start()
        try:
            report = optimize(swimmer, family, step=1 / 2000, budget=3 * seeds, seeds=seeds)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.evaluations == 3 * seeds
    assert peaks[1] < 1.3 * peaks[0]


def nan_outside_a_disc(r):
    # a pose map whose connection is NaN once the shape leaves the disc of radius 0.2
    if math.hypot(r[0], r[1]) > 0.2:
        return Pose(math.nan, 0.0, 0.0)
    return Pose(r[0], r[1] * r[0], r[1])


def test_optimize_scores_a_singular_gait_minus_inf_alone():
    # the larger amplitudes leave the disc where the connection is finite
    provider = JacobianConnection(PoseMap(nan_outside_a_disc, 2))
    family = amplitude_phase_family(amplitude_bounds=(0.02, 0.25))
    want = reference_nelder_mead(
        lambda p: objective_displacement(provider, family.build(p), "x", 5e-2), family.lower, family.upper, 40, 3, 0
    )
    got = optimize(provider, family, "x", 5e-2, budget=40, seeds=3, rng_seed=0)
    assert_same_report(got, want)
    values = [v for _, v in got.history]
    assert float("-inf") in values and any(math.isfinite(v) for v in values)


def test_swimmer_optimize_history_is_the_sequential_search_bitwise(tmp_path):
    # the shipped 500-evaluation search, restarts in lockstep against one
    # after another, each point scored through objective_displacement
    scenario = load_scenario(str(SCENARIOS / "swimmer_optimize.yaml"), overrides={"out": str(tmp_path)})
    block, family = scenario.optimize, scenario.family
    args = (block["direction"], scenario.step, scenario.cycles)
    want = reference_nelder_mead(
        lambda p: objective_displacement(scenario.provider, family.build(p), *args),
        family.lower, family.upper, block["budget"], block["restarts"], scenario.seed,
    )
    got = optimize(scenario.provider, family, *args, block["budget"], block["restarts"], scenario.seed)
    assert got.evaluations == 500
    assert_same_report(got, want)


def test_optimize_scores_at_its_event_tolerance():
    # a crawler's stance switches are bisected to event_tol, so a coarse
    # tolerance moves its scores; each point still scores as objective_displacement
    # does at the same tolerance
    provider, family = two_leg_crawler().provider(), amplitude_phase_family()
    coarse = optimize(provider, family, "y", 0.02, budget=40, seeds=2, event_tol=1e-2)
    want = reference_nelder_mead(
        lambda p: objective_displacement(provider, family.build(p), "y", 0.02, event_tol=1e-2),
        family.lower, family.upper, 40, 2, 0,
    )
    assert_same_report(coarse, want)
    fine = optimize(provider, family, "y", 0.02, budget=40, seeds=2)
    assert [v for _, v in coarse.history] != [v for _, v in fine.history]
