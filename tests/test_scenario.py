import inspect
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from locomech import (
    ConstraintConnection,
    GaitFamily,
    GridSpec,
    JacobianConnection,
    PiecewiseConnection,
    ScenarioError,
    build_family,
    load_scenario,
)
from locomech.analysis import MAX_NODES
from locomech.models import mirrored_slip_walker, three_link_swimmer, two_leg_crawler
from locomech.optimizer import amplitude_phase_family
from locomech.scenario import _C_LOADER, _FAMILIES, _MODELS, _PY_LOADER
from fuzzing import SCENARIOS, SHIPPED_DOCS, alias_chain, mutated_documents

SRC = Path(__file__).resolve().parent.parent / "src"



def minimal(**extra):
    doc = {
        "model": {"kind": "swimmer"},
        "gait": {
            "kind": "fourier",
            "period": 1.0,
            "mean": [0.0, 0.0],
            "cos": [[0.0, -0.5]],
            "sin": [[0.5, 0.0]],
        },
    }
    doc.update(extra)
    return doc


class TestLoadScenario:
    def test_defaults(self):
        sc = load_scenario(minimal())
        assert sc.step == 1e-2
        assert sc.event_tol == 1e-10
        assert sc.cycles == 1
        assert sc.seed == 0
        assert sc.out_dir == "out"
        assert sc.raw["model"]["kind"] == "swimmer"
        assert sc.dim == 2
        assert sc.sweep is None and sc.optimize is None and sc.verify is None

    def test_file_loading(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text(
            "model: {kind: crawler}\n"
            "gait:\n"
            "  kind: waypoint\n"
            "  points: [[-0.3, -0.3], [0.3, -0.3], [0.3, 0.3]]\n"
            "  times: [0.0, 0.25, 0.5, 1.0]\n"
            "integrator: {step: 0.005, cycles: 2}\n"
        )
        sc = load_scenario(str(path))
        assert sc.raw["model"]["kind"] == "crawler"
        assert sc.step == 0.005
        assert sc.cycles == 2
        assert sc.gait.period == 1.0

    def test_unparseable_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("model: [unclosed\n")
        with pytest.raises(ScenarioError):
            load_scenario(str(path))

    def test_unknown_keys_rejected_with_path(self):
        with pytest.raises(ScenarioError, match="<root>.colour"):
            load_scenario(minimal(colour="red"))
        doc = minimal()
        doc["model"]["link_len"] = 2.0
        with pytest.raises(ScenarioError, match="model.link_len"):
            load_scenario(doc)
        doc = minimal()
        doc["gait"]["phase"] = 0.3
        with pytest.raises(ScenarioError, match="gait.phase"):
            load_scenario(doc)
        doc = minimal(integrator={"dt": 0.1})
        with pytest.raises(ScenarioError, match="integrator.dt"):
            load_scenario(doc)

    def test_missing_required_blocks(self):
        with pytest.raises(ScenarioError, match="model"):
            load_scenario({"gait": {"kind": "fourier", "mean": [0.0, 0.0]}})
        with pytest.raises(ScenarioError, match="gait"):
            load_scenario({"model": {"kind": "swimmer"}})

    def test_type_errors(self):
        doc = minimal(integrator={"step": "fast"})
        with pytest.raises(ScenarioError, match="integrator.step"):
            load_scenario(doc)
        doc = minimal(integrator={"step": True})
        with pytest.raises(ScenarioError, match="integrator.step"):
            load_scenario(doc)
        doc = minimal(integrator={"cycles": 0})
        with pytest.raises(ScenarioError, match="integrator.cycles"):
            load_scenario(doc)
        doc = minimal(seed=-1)
        with pytest.raises(ScenarioError, match="seed"):
            load_scenario(doc)

    def test_schema_version_checked(self):
        with pytest.raises(ScenarioError, match="schema"):
            load_scenario(minimal(schema=2))
        assert load_scenario(minimal(schema=1)).raw["schema"] == 1

    def test_invalid_gait_wrapped(self):
        doc = minimal()
        doc["gait"] = {
            "kind": "waypoint",
            "points": [[0.0, 0.0], [1.0, 0.0]],
            "times": [0.5, 1.0, 2.0],
        }
        with pytest.raises(ScenarioError, match="gait"):
            load_scenario(doc)

    def test_gait_dimension_must_match_model(self):
        doc = minimal()
        doc["model"] = {
            "kind": "jacobian",
            "map": "arm_com",
            "lengths": [1.0, 0.8, 1.2],
            "masses": [1.0, 0.5, 0.7],
        }
        with pytest.raises(ScenarioError, match="gait.mean"):
            load_scenario(doc)


class TestModelKinds:
    def test_jacobian_maps(self):
        for name in ("rotate_translate", "wavy"):
            doc = minimal()
            doc["model"] = {"kind": "jacobian", "map": name}
            sc = load_scenario(doc)
            assert isinstance(sc.provider, JacobianConnection)
            assert sc.constraint_builder is None

    def test_arm_com_needs_lengths(self):
        doc = minimal()
        doc["model"] = {"kind": "jacobian", "map": "arm_com"}
        with pytest.raises(ScenarioError, match="lengths"):
            load_scenario(doc)

    def test_unknown_map(self):
        doc = minimal()
        doc["model"] = {"kind": "jacobian", "map": "spiral"}
        with pytest.raises(ScenarioError, match="model.map"):
            load_scenario(doc)

    def test_swimmer_and_walker_have_constraints(self):
        sc = load_scenario(minimal())
        assert isinstance(sc.provider, ConstraintConnection)
        system = sc.constraint_builder(np.array([0.2, -0.1]))
        a = sc.provider.connection_at(np.array([0.2, -0.1]))
        assert np.abs(system.m @ a + system.n).max() <= 1e-10

        doc = minimal()
        doc["model"] = {"kind": "slip_walker"}
        sc = load_scenario(doc)
        assert isinstance(sc.provider, ConstraintConnection)
        assert sc.constraint_builder is not None

    def test_crawler_is_piecewise(self):
        doc = minimal()
        doc["model"] = {"kind": "crawler"}
        doc["gait"] = {
            "kind": "waypoint",
            "points": [[-0.3, -0.3], [0.3, -0.3]],
            "times": [0.0, 0.5, 1.0],
        }
        sc = load_scenario(doc)
        assert isinstance(sc.provider, PiecewiseConnection)
        assert sc.constraint_builder is None

    def test_many_legged_surrogate(self):
        doc = minimal()
        doc["model"] = {"kind": "many_legged", "feet": 16}
        sc = load_scenario(doc)
        assert isinstance(sc.provider, ConstraintConnection)
        system = sc.constraint_builder(np.array([0.3, -0.2]))
        assert system.m.shape == (3, 3)
        doc["model"]["feet"] = 1
        with pytest.raises(ScenarioError, match="model.feet"):
            load_scenario(doc)

    def test_bad_model_kind(self):
        doc = minimal()
        doc["model"] = {"kind": "hovercraft"}
        with pytest.raises(ScenarioError, match="model.kind"):
            load_scenario(doc)

    def test_factory_errors_become_scenario_errors(self):
        doc = minimal()
        doc["model"] = {"kind": "swimmer", "link_length": -1.0}
        with pytest.raises(ScenarioError, match="model.link_length"):
            load_scenario(doc)


class TestCommandBlocks:
    def test_sweep_block(self):
        doc = minimal(
            sweep={"lo": [-1, -1], "hi": [1, 1], "counts": [5, 5], "curvature": True}
        )
        sc = load_scenario(doc)
        assert sc.sweep["counts"] == [5, 5]
        assert sc.sweep["curvature"] is True

    def test_sweep_validation(self):
        doc = minimal(sweep={"lo": [-1, -1], "hi": [1, 1]})
        with pytest.raises(ScenarioError, match="sweep"):
            load_scenario(doc)
        doc = minimal(
            sweep={"lo": [-1, -1], "hi": [1, 1], "counts": [5, 5], "curvature": "yes"}
        )
        with pytest.raises(ScenarioError, match="sweep.curvature"):
            load_scenario(doc)

    def test_curvature_grid_size_checked_at_load(self):
        # once the whole grid was sampled before the sweep command failed,
        # and simulate ran the same document
        doc = minimal(sweep={"lo": [-1, -1], "hi": [1, 1], "counts": [2, 5], "curvature": True})
        with pytest.raises(ScenarioError) as exc:
            load_scenario(doc)
        assert str(exc.value) == "sweep.curvature: curvature needs at least a 3x3 grid, got 2x5"
        doc["sweep"]["curvature"] = False
        assert load_scenario(doc).grid.counts == (2, 5)

    def test_sweep_node_ceiling(self):
        # loading only: a grid one node row past the ceiling would still fit
        # in memory, so the check must come before any sampling
        window = {"lo": [-1, -1], "hi": [1, 1]}
        at = load_scenario(minimal(sweep={**window, "counts": [MAX_NODES // 2, 2]}))
        assert at.grid.counts == (MAX_NODES // 2, 2)
        with pytest.raises(ScenarioError, match=r"sweep\.counts: .* exceed 1000000"):
            load_scenario(minimal(sweep={**window, "counts": [2, MAX_NODES // 2 + 1]}))
        with pytest.raises(ValueError, match="exceed"):
            GridSpec(lo=(-1, -1), hi=(1, 1), counts=(MAX_NODES // 2 + 1, 2))

    def test_optimize_block_defaults(self):
        doc = minimal(optimize={"family": "amplitude_phase"})
        sc = load_scenario(doc)
        assert sc.optimize["direction"] == "x"
        assert sc.optimize["budget"] == 500
        assert sc.optimize["restarts"] == 4
        family = build_family(sc)
        assert family is sc.family
        assert family.n_params == 2
        assert np.array_equal(family.lower, np.array([0.1, -np.pi]))

    def test_optimize_slots_family(self):
        doc = minimal(
            optimize={
                "family": "fourier_slots",
                "slots": [["sin", 1, 0], ["cos", 1, 1]],
                "lower": [-1.0, -1.0],
                "upper": [1.0, 1.0],
            }
        )
        sc = load_scenario(doc)
        family = build_family(sc)
        gait = family.build(np.array([0.9, -0.7]))
        assert gait.sin[0, 0] == 0.9
        assert gait.cos[0, 1] == -0.7
        # untouched template slots survive
        assert gait.sin[0, 1] == 0.0
        assert gait.cos[0, 0] == 0.0

    def test_slots_need_fourier_template(self):
        doc = minimal(
            optimize={
                "family": "fourier_slots",
                "slots": [["sin", 1, 0]],
                "lower": [-1.0],
                "upper": [1.0],
            }
        )
        doc["gait"] = {
            "kind": "waypoint",
            "points": [[0.0, 0.0], [0.5, 0.0]],
            "times": [0.0, 0.5, 1.0],
        }
        doc["model"] = {"kind": "crawler"}
        with pytest.raises(ScenarioError, match="optimize"):
            load_scenario(doc)

    def test_optimize_family_and_slot_kind_messages(self):
        with pytest.raises(ScenarioError) as exc:
            load_scenario(minimal(optimize={"family": "grid"}))
        assert str(exc.value) == (
            "optimize.family: expected one of ('amplitude_phase', 'fourier_slots')"
        )
        doc = minimal(
            optimize={
                "family": "fourier_slots",
                "slots": [["tan", 1, 0]],
                "lower": [-1.0],
                "upper": [1.0],
            }
        )
        with pytest.raises(ScenarioError) as exc:
            load_scenario(doc)
        assert str(exc.value) == (
            "optimize.slots[0]: expected [kind, indices...] with kind mean|cos|sin"
        )

    @pytest.mark.parametrize(
        "block, value, field",
        [
            ("model", {"kind": []}, "model.kind"),
            ("optimize", {"family": "amplitude_phase", "direction": ["x"]}, "optimize.direction"),
            ("verify", {"suites": [["reversal"]]}, "verify.suites"),
        ],
    )
    def test_unhashable_names_are_scenario_errors(self, block, value, field):
        # kinds, directions and suites are looked up in tables keyed by name
        with pytest.raises(ScenarioError, match=field):
            load_scenario(minimal(**{block: value}))

    def test_optimize_direction_checked(self):
        doc = minimal(optimize={"family": "amplitude_phase", "direction": "z"})
        with pytest.raises(ScenarioError, match="optimize.direction"):
            load_scenario(doc)

    def test_verify_block(self):
        doc = minimal(verify={"suites": ["reversal", "residual"]})
        sc = load_scenario(doc)
        assert sc.verify["suites"] == ["reversal", "residual"]
        assert sc.verify["shapes"] == 100
        assert sc.verify["box"] == 1.2

    def test_verify_unknown_suite(self):
        doc = minimal(verify={"suites": ["telemetry"]})
        with pytest.raises(ScenarioError, match="verify.suites"):
            load_scenario(doc)

    def test_residual_requires_constraints(self):
        doc = minimal(verify={"suites": ["residual"]})
        doc["model"] = {"kind": "crawler"}
        doc["gait"] = {
            "kind": "waypoint",
            "points": [[-0.3, -0.3], [0.3, -0.3]],
            "times": [0.0, 0.5, 1.0],
        }
        with pytest.raises(ScenarioError, match="verify.suites"):
            load_scenario(doc)


class TestOverridesAndHash:
    def test_overrides_applied(self):
        sc = load_scenario(
            minimal(), overrides={"step": 0.02, "cycles": 5, "seed": 9, "out": "elsewhere"}
        )
        assert sc.step == 0.02
        assert sc.cycles == 5
        assert sc.seed == 9
        assert sc.out_dir == "elsewhere"
        assert sc.raw["integrator"]["step"] == 0.02

    def test_bad_overrides_rejected(self):
        with pytest.raises(ScenarioError):
            load_scenario(minimal(), overrides={"step": -0.1})
        with pytest.raises(ScenarioError):
            load_scenario(minimal(), overrides={"cycles": 0})

    def test_hash_stable_and_sensitive(self):
        a = load_scenario(minimal())
        b = load_scenario(minimal())
        assert a.sha == b.sha
        c = load_scenario(minimal(), overrides={"step": 0.02})
        assert c.sha != a.sha
        d = load_scenario(minimal(), overrides={"seed": 4})
        assert d.sha != a.sha

    def test_hash_ignores_out_dir(self):
        a = load_scenario(minimal(), overrides={"out": "run_a"})
        b = load_scenario(minimal(), overrides={"out": "run_b"})
        assert a.sha == b.sha


class TestTableRows:
    def test_quadrature_bound_is_reported_at_its_key(self):
        doc = minimal()
        doc["model"]["quadrature"] = 1
        with pytest.raises(ScenarioError, match="model.quadrature: must be at least 2"):
            load_scenario(doc)

    def test_quadrature_is_bounded_at_load(self):
        # a q-point rule solves a q x q eigenproblem on the first connection
        # call, so a huge q must stop at load; only the load runs here
        doc = minimal()
        doc["model"]["quadrature"] = 100
        assert load_scenario(doc).raw["model"]["quadrature"] == 100
        for q in (101, 10**12):
            doc["model"]["quadrature"] = q
            with pytest.raises(ScenarioError, match="model.quadrature: must be at most 100"):
                load_scenario(doc)

    def test_residual_draws_are_bounded_at_load(self):
        # the shapes are drawn across [-box, box), a width of 2 * box, one
        # coordinate at a time; only the load runs here
        doc = minimal()
        doc["verify"] = {"suites": ["residual"], "box": sys.float_info.max / 2, "shapes": MAX_NODES}
        assert load_scenario(doc).verify == {"suites": ["residual"], "box": sys.float_info.max / 2, "shapes": MAX_NODES}
        doc["verify"]["box"] = math.nextafter(sys.float_info.max / 2, math.inf)
        with pytest.raises(ScenarioError, match="verify.box: must be at most 8.98846567431157"):
            load_scenario(doc)
        doc["verify"].update(box=1.2, shapes=MAX_NODES + 1)
        with pytest.raises(ScenarioError, match="verify.shapes: must be at most 1000000"):
            load_scenario(doc)

    def test_keys_of_another_map_are_unknown(self):
        doc = minimal()
        doc["model"] = {"kind": "jacobian", "map": "wavy", "lengths": [1.0, 1.0]}
        with pytest.raises(ScenarioError, match="model.lengths: unknown key"):
            load_scenario(doc)

    def test_masses_follow_lengths(self):
        doc = minimal()
        doc["model"] = {
            "kind": "jacobian",
            "map": "arm_com",
            "lengths": [1.0, 0.8],
            "masses": [1.0, 0.5, 0.7],
        }
        with pytest.raises(ScenarioError, match="model.masses: expected 2 entries"):
            load_scenario(doc)

    def test_constraint_builder_is_the_providers(self):
        sc = load_scenario(minimal())
        assert sc.constraint_builder is sc.provider.builder

    def test_many_legged_feet_are_bounded_at_load(self):
        # a 256-row block of the balance holds about 48 bytes per foot; only the load runs here
        doc = minimal(model={"kind": "many_legged", "feet": 10_000})
        assert load_scenario(doc).raw["model"]["feet"] == 10_000
        for feet in (10_001, 10**8):
            doc["model"]["feet"] = feet
            with pytest.raises(ScenarioError, match="^model.feet: must be at most 10000$"):
                load_scenario(doc)

    def test_document_sized_counts_load_up_to_their_maximum(self):
        # a million one-step cycles end at t = 1e6, where the float spacing is 1.2e-10
        integrator = {"step": 1.0, "cycles": 1_000_000, "event_tol": 1e-9}
        doc = minimal(integrator=integrator, optimize={"family": "amplitude_phase", "restarts": 1000})
        doc["gait"]["cos"] = [[0.0, -0.5]] * 100
        assert load_scenario(doc).cycles == 1_000_000
        arm = minimal(model={"kind": "jacobian", "map": "arm_com", "lengths": [0.5] * 4, "masses": [1.0] * 4})
        arm["gait"] = {"kind": "fourier", "mean": [0.0] * 4}
        assert load_scenario(arm).dim == 4

    @pytest.mark.parametrize("kind, given, factory", [
        ("jacobian", {"map": "wavy"}, JacobianConnection),
        ("swimmer", {}, three_link_swimmer),
        ("crawler", {}, two_leg_crawler),
        ("slip_walker", {}, mirrored_slip_walker),
        ("many_legged", {"feet": 3}, three_link_swimmer),
        ("amplitude_phase", {}, amplitude_phase_family),
    ])
    def test_scenario_defaults_are_the_factory_defaults(self, kind, given, factory):
        # the scenario row and the library factory each spell these defaults
        block, table = ("optimize", _FAMILIES) if kind in _FAMILIES else ("model", _MODELS)
        doc = minimal(**{block: {"family" if block == "optimize" else "kind": kind, **given}})
        resolved = load_scenario(doc).raw[block]
        names = {"fd_step": "h", "amplitude": "amplitude_bounds", "phase": "phase_bounds"}
        defaults = {names.get(k, k): resolved[k] for k in table[kind][0] if k not in given}
        params = inspect.signature(factory).parameters.values()
        assert defaults == {p.name: list(p.default) if isinstance(p.default, tuple) else p.default
                            for p in params if p.default is not p.empty}

    def test_command_objects_built_at_load(self):
        doc = minimal(
            sweep={"lo": [-1, -1], "hi": [1, 1], "counts": [5, 4], "axes": [1, 0]},
            optimize={"family": "amplitude_phase"},
        )
        sc = load_scenario(doc)
        assert sc.grid == GridSpec(lo=(-1.0, -1.0), hi=(1.0, 1.0), counts=(5, 4), axes=(1, 0))
        assert isinstance(sc.family, GaitFamily)
        assert sc.family.names == ("amplitude", "phase")
        assert load_scenario(minimal()).grid is None
        assert load_scenario(minimal()).family is None


# Scenario.sha of the shipped scenarios.  A table row that changes a default or
# a key set, or any change to the resolved layout, changes one of these.
SHIPPED_SHA = {
    "crawler_square.yaml": "5752ffe6499a495e7977d72246145f60c088f0081ee7eda447779a5c7072bf9a",
    "rotate_translate_closure.yaml": (
        "6d350ecca36f495c5f3bdf6cb4768df93fabd6a7acc102fe804c75bc66c3ecf5"
    ),
    "swimmer_circle.yaml": "f4c7e57fbe8c948ee6a0018215049fc50039f08c36ad98e7d580b6f1860c65a1",
    "swimmer_optimize.yaml": "db1a01e78e2285437998c9413ff4e3ed18a41acc0bc2fc64e0b82a33d27ae469",
    "walker_mirror.yaml": "a8245eccb80aaee6e9d5fe360e9625e2408a2d675de8e33e5c630953f5c49525",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_SHA))
def test_shipped_scenario_hash_is_pinned(name):
    assert load_scenario(str(SCENARIOS / name)).sha == SHIPPED_SHA[name]


def test_every_shipped_scenario_is_pinned():
    assert sorted(p.name for p in SCENARIOS.glob("*.yaml")) == sorted(SHIPPED_SHA)


def _floats(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for value in node:
            yield from _floats(value)
    elif isinstance(node, float):
        yield node


@settings(
    derandomize=True,
    database=None,
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutated_documents())
def test_mutated_shipped_scenarios_load_or_raise_scenario_error(doc):
    try:
        sc = load_scenario(doc)
    except ScenarioError:
        return
    assert all(math.isfinite(v) for v in _floats(sc.raw))
    if sc.optimize is not None:
        family = build_family(sc)
        family.build(family.lower)


def _outcome(load, *args):
    """load(*args)'s resolved document, or the type and text of what it raised."""
    try:
        return load(*args).raw
    except Exception as exc:
        return type(exc), str(exc)


def _python_parser_load(path):
    """load_scenario of the file as the package's pure-Python loader reads it."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = yaml.load(handle, _PY_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError("<file>", f"not parseable as YAML: {exc}") from exc
    return load_scenario(doc)


# characters that YAML treats apart: whitespace and line breaks, characters it
# rejects (NUL, BEL, U+FFFF), the byte order mark, quotes, indicators, number parts
_EDIT_CHARS = st.one_of(
    st.sampled_from(list("\t\x00\x07\x85\ufeff\uffff\u2028 \r\n'\":-?,[]{}#&*!|>%@`\\.e+0")),
    st.characters(),
)


@st.composite
def edited_yaml(draw):
    """yaml.safe_dump of a shipped document, with characters inserted, deleted or replaced."""
    text = yaml.safe_dump(draw(st.sampled_from(SHIPPED_DOCS)), sort_keys=draw(st.booleans()))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        new = "" if edit == "delete" else draw(_EDIT_CHARS)
        text = text[:at] + new + text[at + (edit != "insert"):]
    return text


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(edited_yaml())
# a float without a dot, which YAML 1.1 reads as a string
@example(yaml.safe_dump(yaml.safe_load((SCENARIOS / "swimmer_circle.yaml").read_text()))
         .replace("event_tol: 1.0e-10", "event_tol: 1e-10"))
def test_the_libyaml_parser_reads_every_text_as_the_python_parser(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        path.write_bytes(text.encode())
        assert _outcome(load_scenario, str(path)) == _outcome(_python_parser_load, str(path))


def _cli(command, path, tmp_path, *extra, preexec_fn=None):
    """The completed `python -m locomech.cli command path --out tmp_path/out *extra` of this checkout, as text."""
    return subprocess.run(
        [sys.executable, "-m", "locomech.cli", command, str(path), "--out", str(tmp_path / "out"), *extra],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        preexec_fn=preexec_fn,
    )


def test_a_file_that_is_not_utf8_exits_two(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_bytes(b'schema: 1\nmodel: {kind: swimmer}\ngait: "\xff"\n')
    with pytest.raises(ScenarioError, match=r"^<file>: not UTF-8 text: byte 40 of .*bad\.yaml \(invalid start byte\)$"):
        load_scenario(str(path))
    proc = _cli("simulate", path, tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == f"scenario error: <file>: not UTF-8 text: byte 40 of {path} (invalid start byte)\n"


# (line of swimmer_circle.yaml, its replacement, the start of the one stderr line); a date is a string
_UNBUILDABLE = {
    "impossible_date": ("seed: 0", "seed: 2001-02-30", "<root>.seed: expected an integer"),
    "offset_past_a_day": ("seed: 0", "seed: 2001-12-14t21:59:43.10-25:00", "<root>.seed: expected an integer"),
    "5000_digits": ("seed: 0", "seed: " + "7" * 5000, "<file>: not loadable as YAML: Exceeds the limit (4300 digits)"),
    "flow_list_30000_deep": ("seed: 0", "seed: " + "[" * 30000 + "1" + "]" * 30000, "<file>: nested more than 200 levels deep"),
    "flow_map_30000_deep": ("seed: 0", "seed: " + "{a: " * 30000 + "1" + "}" * 30000, "<file>: nested more than 200 levels deep"),
    "block_list_30000_deep": ("seed: 0", "seed:\n  " + "- " * 30000 + "1", "<file>: nested more than 200 levels deep"),
    "seed_25000_deep": ("seed: 0", "seed: " + "[" * 25000 + "1" + "]" * 25000, "<file>: nested more than 200 levels deep"),
    # a tab sends the text to PyYAML's Python parser
    "tab_and_500_deep": ("seed: 0", "seed: " + "[" * 500 + "1" + "]" * 500 + '\nout: "a\tb"', "<file>: nested more than 200"),
    "suite_alias_chain": ("suites: [reversal, pacing, continuity, residual]", "suites: [reversal, " + alias_chain(5) + "]",
                          "verify.suites: unknown suite [['lol', 'lol', 'lol', ...], [[...], [...], [...], ...], "),
    "schema_alias_chain": ("schema: 1", "schema: " + alias_chain(3), "schema: unsupported schema version [['lol', 'lol', 'lol', ...], "),
}


@pytest.mark.parametrize("name", _UNBUILDABLE)
def test_a_document_yaml_cannot_build_or_quote_exits_two_with_one_short_line(tmp_path, name):
    old, new, message = _UNBUILDABLE[name]
    text = (SCENARIOS / "swimmer_circle.yaml").read_text()
    assert old in text
    path = tmp_path / "scenario.yaml"
    path.write_text(text.replace(old, new))
    proc = _cli("simulate", path, tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"scenario error: {message}")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n") and len(proc.stderr.encode()) <= 1024


@pytest.mark.parametrize("tab", ["", '\nout: "a\tb"'])
@pytest.mark.parametrize("opener, closer, levels", [("[", "]", 1), ("{a: ", "}", 1), ("[a: ", "]", 2), ("[? ", "]", 2)])
def test_a_document_over_200_levels_deep_is_refused_at_either_parser(tmp_path, tab, opener, closer, levels):
    # "[a: " opens a sequence and a single-pair mapping, the most one counted character can start
    text = (SCENARIOS / "swimmer_circle.yaml").read_text()
    path = tmp_path / "scenario.yaml"
    for count in (199 // levels, 199 // levels + 1):
        # the root mapping is one level, the seed's collections the rest
        path.write_text(text.replace("seed: 0", f"seed: {opener * count}1{closer * count}{tab}"))
        with pytest.raises(ScenarioError) as caught:
            load_scenario(str(path))
        assert (str(caught.value) == "<file>: nested more than 200 levels deep") == (1 + count * levels > 200)


def test_a_recursion_error_while_loading_is_a_scenario_error(tmp_path):
    # PyYAML's Python composer recurses per level; a nearly full stack stands in for a deep document
    path = tmp_path / "scenario.yaml"
    path.write_text("schema: 1\nseed: " + "[" * 150 + "1" + "]" * 150 + '\nout: "a\tb"\n')
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        with pytest.raises(ScenarioError, match="^<file>: not loadable as YAML: maximum recursion depth exceeded"):
            load_scenario(str(path))
    finally:
        sys.setrecursionlimit(limit)


def _base_60(value: int) -> str:
    """A positive integer as a YAML 1.1 base-60 literal."""
    parts = []
    while value >= 60:
        value, part = divmod(value, 60)
        parts.append(part)
    return ":".join(map(str, [value, *reversed(parts)]))


# "1" and 2700 ":0" parts, a YAML 1.1 base-60 spelling of about 4800 digits, which YAML 1.2 reads as a string
_LONG_BASE_60 = "1" + ":0" * 2700

# (shipped scenario, command, the line whose value is replaced by _LONG_BASE_60, the one stderr line)
_BASE_60_INPUTS = {
    "schema": ("swimmer_circle.yaml", "simulate", "schema: 1",
               "schema: unsupported schema version '1:0:0:0:0:0:...0:0:0:0:0:0:0'"),
    "seed": ("swimmer_circle.yaml", "simulate", "seed: 0", "<root>.seed: expected an integer"),
    "restarts": ("swimmer_optimize.yaml", "optimize", "restarts: 4", "optimize.restarts: expected an integer"),
    "budget": ("swimmer_optimize.yaml", "optimize", "budget: 500", "optimize.budget: expected an integer"),
    "cycles": ("swimmer_circle.yaml", "simulate", "cycles: 1", "integrator.cycles: expected an integer"),
}


@pytest.mark.parametrize("name", _BASE_60_INPUTS)
def test_a_base_60_integer_past_the_digit_limit_exits_two_with_one_line(tmp_path, name):
    scenario, command, line, message = _BASE_60_INPUTS[name]
    text = (SCENARIOS / scenario).read_text()
    assert text.count(line) == 1
    path = tmp_path / "scenario.yaml"
    path.write_text(text.replace(line, f"{line.split(':')[0]}: {_LONG_BASE_60}"))
    proc = _cli(command, path, tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"scenario error: {message}\n"


@pytest.mark.parametrize("tab", ["", '\nout: "a\tb"'])
def test_a_base_60_spelling_is_a_string_at_either_parser(tmp_path, tab):
    text = (SCENARIOS / "swimmer_circle.yaml").read_text()
    path = tmp_path / "scenario.yaml"
    limit = sys.get_int_max_str_digits()
    for seed in ("1:30", _base_60(10**limit - 1), _base_60(10**limit), "1" + ":0" * limit, "1" + ":0" * 100_000):
        path.write_text(text.replace("seed: 0", f"seed: {seed}{tab}"))
        with pytest.raises(ScenarioError, match=r"^<root>\.seed: expected an integer$"):
            load_scenario(str(path))


_NOT_YAML = "<file>: not parseable as YAML: "
_NO_CONSTRUCTOR = _NOT_YAML + "could not determine a constructor for the tag"

# (line of swimmer_circle.yaml, its replacement, the value at a key of the loaded scenario's raw document,
# or the ScenarioError): YAML 1.2's core scalars without octal and hex, and no YAML 1.1 type
_CORE_SCALARS = {
    "exponent_without_a_dot": ("event_tol: 1.0e-10", "event_tol: 1e-9", ("integrator", "event_tol"), 1e-9),
    "exponent_without_a_sign": ("step: 1.0e-3", "step: 1E-3", ("integrator", "step"), 1e-3),
    "leading_zero_is_decimal": ("seed: 0", "seed: 010", ("seed",), 10),
    "signed_integer": ("seed: 0", "seed: +7", ("seed",), 7),
    "dotted_float": ("box: 1.2", "box: .5", ("verify", "box"), 0.5),
    "true_in_capitals": ("curvature: true", "curvature: TRUE", ("sweep", "curvature"), True),
    "tilde_is_null": ("seed: 0", "seed: ~", None, "<root>.seed: missing value"),
    "null_in_capitals": ("seed: 0", "seed: NULL", None, "<root>.seed: missing value"),
    "empty_is_null": ("seed: 0", "seed:", None, "<root>.seed: missing value"),
    "hex": ("seed: 0", "seed: 0x1f", None, "<root>.seed: expected an integer"),
    "octal": ("seed: 0", "seed: 0o17", None, "<root>.seed: expected an integer"),
    "underscores": ("seed: 0", "seed: 1_000", None, "<root>.seed: expected an integer"),
    "base_60": ("seed: 0", "seed: 1:30", None, "<root>.seed: expected an integer"),
    "date": ("seed: 0", "seed: 2002-12-14", None, "<root>.seed: expected an integer"),
    "yes": ("curvature: true", "curvature: yes", None, "sweep.curvature: expected true or false"),
    "no": ("curvature: true", "curvature: no", None, "sweep.curvature: expected true or false"),
    "on": ("curvature: true", "curvature: on", None, "sweep.curvature: expected true or false"),
    "off": ("curvature: true", "curvature: off", None, "sweep.curvature: expected true or false"),
    "float_underscores": ("box: 1.2", "box: 1_0.5", None, "verify.box: expected a number"),
    "nan_without_a_dot": ("box: 1.2", "box: nan", None, "verify.box: expected a number"),
    "merge_key": ("seed: 0", "<<: {seed: 1}", None, "<root>.<<: unknown key"),
    "set_tag": ("seed: 0", "seed: !!set {a, b}", None, _NO_CONSTRUCTOR),
    "timestamp_tag": ("seed: 0", "seed: !!timestamp 2001-12-14", None, _NO_CONSTRUCTOR),
    "binary_tag": ("seed: 0", "seed: !!binary aGVsbG8=", None, _NO_CONSTRUCTOR),
    "explicit_merge_key": ("seed: 0", "!!merge <<: {seed: 1}", None, _NO_CONSTRUCTOR),
    "int_tag_on_hex": ("seed: 0", "seed: !!int 0x1f", None, f"{_NOT_YAML}'0x1f' is not a tag:yaml.org,2002:int"),
    "bool_tag_on_yes": ("curvature: true", "curvature: !!bool yes", None,
                        f"{_NOT_YAML}'yes' is not a tag:yaml.org,2002:bool"),
    "float_tag_on_base_60": ("box: 1.2", "box: !!float " + _LONG_BASE_60, None,
                             f"{_NOT_YAML}'1:0:0:0:0:0:...0:0:0:0:0:0:0' is not a tag:yaml.org,2002:float"),
    "int_tag_on_an_int": ("seed: 0", "seed: !!int 12", ("seed",), 12),
    "float_tag_on_an_int": ("box: 1.2", "box: !!float 1", ("verify", "box"), 1.0),
    "str_tag_on_an_int": ("seed: 0", "seed: !!str 12", None, "<root>.seed: expected an integer"),
}


@pytest.mark.parametrize("tab", ["", '\nout: "a\tb"'])
@pytest.mark.parametrize("name", _CORE_SCALARS)
def test_the_loaders_read_the_core_scalars_only_at_either_parser(tmp_path, name, tab):
    old, new, keys, expected = _CORE_SCALARS[name]
    path = tmp_path / "scenario.yaml"
    # the tab line goes last, past the indented blocks
    path.write_text(_edited("swimmer_circle.yaml", old, new) + tab)
    if keys is None:
        with pytest.raises(ScenarioError) as caught:
            load_scenario(str(path))
        assert str(caught.value).startswith(expected)
    else:
        value = load_scenario(str(path)).raw
        for key in keys:
            value = value[key]
        assert value == expected and type(value) is type(expected)


@pytest.mark.parametrize("tab", ["", '\nout: "a\tb"'])
def test_an_int_tag_past_the_digit_limit_exits_two_at_either_parser(tmp_path, tab):
    path = tmp_path / "scenario.yaml"
    path.write_text(_edited("swimmer_circle.yaml", "seed: 0", "seed: !!int " + "7" * 5000 + tab))
    proc = _cli("simulate", path, tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("scenario error: <file>: not loadable as YAML: Exceeds the limit (4300 digits)")
    assert proc.stderr.count("\n") == 1 and len(proc.stderr.encode()) <= 1024


def _edited(scenario: str, old: str, new: str) -> str:
    """The text of a shipped scenario with its one line old replaced by new."""
    text = (SCENARIOS / scenario).read_text()
    assert text.count(old) == 1
    return text.replace(old, new)


# a 100,000-link arm held still: np.eye of its one distinct stage row's probes would take 74.5 GiB
_ONES = "[%s]" % ", ".join(["1.0"] * 100_000)
_ARM = f"model: {{kind: jacobian, map: arm_com, lengths: {_ONES}, masses: {_ONES}}}\n" \
       f"gait: {{kind: fourier, mean: {_ONES}}}\n"
_HARMONICS = "cos: [%s]" % ", ".join(["[0.0, -0.5]"] * 20_000)

# (command, scenario text with one count past its maximum, extra arguments, the one stderr line)
_COUNTS_PAST_THEIR_MAXIMUM = {
    "cycles": ("simulate", lambda: _edited("swimmer_circle.yaml", "cycles: 1", "cycles: " + "7" * 4000), [],
               "integrator.cycles: must be at most 1000000"),
    "cycles_flag": ("simulate", (SCENARIOS / "swimmer_circle.yaml").read_text, ["--cycles", "7" * 4000],
                    "integrator.cycles: must be at most 1000000"),
    "arm_links": ("simulate", lambda: _ARM, [], "model.lengths: expected at most 4 entries"),
    "harmonic_rows": ("simulate", lambda: _edited("swimmer_circle.yaml", "cos: [[0.0, -0.5]]", _HARMONICS), [],
                      "gait.cos: expected at most 100 rows"),
    "restarts": ("optimize", lambda: _edited("swimmer_optimize.yaml", "restarts: 4", "restarts: 1001"), [],
                 "optimize.restarts: must be at most 1000"),
}


def _two_gigabytes() -> None:
    """Cap this process's address space, so a count that escaped its check fails in it, not on the host."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("name", _COUNTS_PAST_THEIR_MAXIMUM)
def test_a_count_past_its_maximum_exits_two_with_one_short_line(tmp_path, name):
    command, text, extra, message = _COUNTS_PAST_THEIR_MAXIMUM[name]
    path = tmp_path / "scenario.yaml"
    path.write_text(text())
    proc = _cli(command, path, tmp_path, *extra, preexec_fn=_two_gigabytes)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"scenario error: {message}\n")
    assert len(proc.stderr.encode()) <= 1024


def test_an_arm_of_the_most_links_runs_the_most_steps_in_two_gigabytes(tmp_path):
    # a million steps of a 4-link arm peak near 0.85 GB RSS; 64 links would need about 12 GB
    path = tmp_path / "scenario.yaml"
    path.write_text(
        "schema: 1\n"
        "model: {kind: jacobian, map: arm_com, lengths: [1.0, 0.7, 0.5, 0.3], masses: [1.0, 1.0, 1.0, 1.0]}\n"
        "gait: {kind: fourier, mean: [0.1, 0.1, 0.1, 0.1], cos: [[0.3, 0.3, 0.3, 0.3]], sin: [[0.2, 0.2, 0.2, 0.2]]}\n"
        "integrator: {step: 1.0e-6}\n"
        "verify: {suites: [loop_closure]}\n"
    )
    proc = _cli("verify", path, tmp_path, preexec_fn=_two_gigabytes)
    assert (proc.returncode, proc.stderr) == (0, "")


# JSON's values, with strings of the basic multilingual plane but no surrogates or DEL: json.dumps writes a DEL
# as it is, and YAML does not allow one in a stream.  A key is at most 100 characters, 602 once escaped,
# since YAML reads an implicit key of at most 1024
_BMP_TEXT = st.characters(max_codepoint=0xFFFF, exclude_categories=("Cs",), exclude_characters="\x7f")
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-10**30, 10**30)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(_BMP_TEXT),
    lambda children: st.lists(children) | st.dictionaries(st.text(_BMP_TEXT, max_size=100), children),
    max_leaves=30,
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from([0.0, -0.0]) | _JSON_VALUES)
def test_both_loaders_read_json_text_as_json_does(value):
    text = json.dumps(value, ensure_ascii=True)
    # json.dumps of each side tells 1 from 1.0 and 0.0 from -0.0
    expected = json.dumps(json.loads(text))
    assert json.dumps(yaml.load(text, _C_LOADER)) == expected
    assert json.dumps(yaml.load(text, _PY_LOADER)) == expected
