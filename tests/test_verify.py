"""A verify run integrates the scenario's gait once and shares it among its suites."""

from pathlib import Path

import numpy as np
import pytest
import yaml

import locomech.verify as verify
from locomech import integrate_gait, load_scenario, net_displacement, run_verify
from locomech.connection import _balance_scale, _max_abs, connection_by_stance
from locomech.shapespace import SmoothstepGait, smoothstep

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def with_suites(tmp_path, name, suites, cycles):
    doc = yaml.safe_load((SCENARIOS / f"{name}.yaml").read_text())
    doc["verify"]["suites"] = suites
    assert doc["integrator"]["cycles"] == cycles
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(doc))
    return load_scenario(str(path))


def walker_with_every_suite(tmp_path):
    return with_suites(tmp_path, "walker_mirror", list(verify.SUITES), 2)


def crawler_with_every_integrating_suite(tmp_path):
    # its first cycle ends on a switch, which single_piece must count
    return with_suites(tmp_path, "crawler_square", [s for s in verify.SUITES if s != "residual"], 3)


def crawler_square(tmp_path):
    scenario = load_scenario(str(SCENARIOS / "crawler_square.yaml"))
    assert scenario.cycles == 3
    return scenario


def bits(rows):
    return [(r.suite, r.check, r.value.hex(), r.threshold.hex(), r.passed) for r in rows]


def rows_on_a_separate_one_cycle_run(scenario):
    """Every suite's rows, the one-cycle suites reading their own one-cycle integration."""
    rows = []
    for name in scenario.verify["suites"]:
        cycles = scenario.cycles if name == "continuity" else 1
        rows += verify.SUITES[name](scenario, lambda cycles=cycles: verify._integrate(scenario, cycles=cycles))
    return rows


@pytest.mark.parametrize(
    "make, integrations",
    [(crawler_square, 2), (walker_with_every_suite, 3), (crawler_with_every_integrating_suite, 3)],
)
def test_shared_first_cycle_gives_the_rows_of_a_separate_one_cycle_run(tmp_path, monkeypatch, make, integrations):
    # crawler_square runs reversal and continuity; a separate one-cycle base
    # made these 3, 4 and 4 integrations
    scenario = make(tmp_path)
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return integrate_gait(*args, **kwargs)

    monkeypatch.setattr(verify, "integrate_gait", counted)
    rows = run_verify(scenario)
    assert count[0] == integrations
    assert len(rows) == len(rows_on_a_separate_one_cycle_run(scenario)) > 0
    assert bits(rows) == bits(rows_on_a_separate_one_cycle_run(scenario))
    # the events of the one-cycle run, the crawler's last at its cycle end
    counts = [r.value for r in rows if r.check == "event_count"]
    assert counts in ([], [float(len(verify._integrate(scenario, cycles=1).events))])


@pytest.mark.parametrize("make", [crawler_square, walker_with_every_suite])
def test_first_cycle_is_bitwise_the_one_cycle_run(tmp_path, make):
    scenario = make(tmp_path)
    full = verify._integrate(scenario, scenario.cycles)
    alone = verify._integrate(scenario, cycles=1)
    m = full.cycle_indices[1]
    assert alone.cycle_indices == [0, m]
    for name in ("times", "shapes", "twists"):
        assert getattr(full, name)[:m + 1].tobytes() == getattr(alone, name).tobytes(), name
    assert full.pose_array[:, :m + 1].tobytes() == alone.pose_array.tobytes()
    assert full.contacts[:m + 1] == alone.contacts
    first = [e for e in full.events if e.time <= full.times[m]]
    assert [(e.time.hex(), e.window, e.before, e.after, e.shape.tobytes()) for e in first] == [
        (e.time.hex(), e.window, e.before, e.after, e.shape.tobytes()) for e in alone.events
    ]


def test_residual_suite_builds_its_balances_once_and_labels_nothing(monkeypatch):
    scenario = load_scenario(str(SCENARIOS / "walker_mirror.yaml"))
    provider, builder = scenario.provider, scenario.provider.builder
    builds, labels = [], []
    monkeypatch.setattr(provider, "builder", lambda r: builds.append(len(r)) or builder(r))
    monkeypatch.setattr(provider, "contacts_many", lambda shapes: labels.append(len(shapes)))
    (row,) = verify._suite_residual(scenario, None)
    count = scenario.verify["shapes"]
    assert (builds, labels) == ([count], [])
    # the value the provider's own connection rows give, bitwise
    box = scenario.verify["box"]
    shapes = np.random.default_rng(scenario.seed).uniform(-box, box, (count, scenario.dim))
    rows = connection_by_stance(provider, shapes, np.zeros(count, dtype=int))
    system = builder(shapes)
    want = (_max_abs(system.m @ rows + system.n) / _balance_scale(system.m, system.n, rows)).max()
    assert row.value.hex() == float(want).hex()


# the shipped scenarios whose pacing suite retimes a Fourier gait
FOURIER_PACING = ["walker_mirror", "swimmer_circle", "rotate_translate_closure"]


def pacing_gap(scenario):
    (row,) = verify._suite_pacing(scenario, lambda: verify._integrate(scenario, 1))
    return row.value


def displacement(scenario, gait, step):
    return net_displacement(integrate_gait(scenario.provider, gait, 1, step, scenario.event_tol))


@pytest.mark.parametrize("name", FOURIER_PACING)
def test_pacing_gap_is_the_integrators_own_error(name):
    # retiming leaves the displacement unchanged exactly, so the gap is the
    # two runs' step error: within 10x of the base gait's against step/8
    scenario = load_scenario(str(SCENARIOS / f"{name}.yaml"))
    fine = displacement(scenario, scenario.gait, scenario.step / 8)
    base_error = (displacement(scenario, scenario.gait, scenario.step) - fine).norm()
    assert pacing_gap(scenario) <= 10.0 * base_error
    # at step/8 the retimed and base gaits agree closer still
    retimed = displacement(scenario, SmoothstepGait(scenario.gait), scenario.step / 8)
    assert (retimed - fine).norm() <= 1e-12


class SmoothstepGaitWithoutRateFactor(SmoothstepGait):
    """The base's rates at w(t), not scaled by w'(t): the path, but not a retiming of it."""

    def evaluate_many(self, times, side="right"):
        return self.base.evaluate_many(smoothstep(np.asarray(times, dtype=float) % self.period, self.period), side)


@pytest.mark.parametrize("name", FOURIER_PACING)
def test_pacing_fails_a_retiming_that_drops_the_rate_factor(monkeypatch, name):
    scenario = load_scenario(str(SCENARIOS / f"{name}.yaml"))
    monkeypatch.setattr(verify, "SmoothstepGait", SmoothstepGaitWithoutRateFactor)
    assert pacing_gap(scenario) > 1e-7
