import contextlib
import copy
import io
import json
import math
import subprocess
import sys
import tempfile
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import locomech.cli as cli
import locomech.scenario as scenario_module
from locomech import (
    GridSpec,
    Pose,
    PoseMap,
    SingularConstraint,
    integrate_gait,
    load_scenario,
    sample_field,
)
from locomech.cli import load_field_csv, load_trajectory_csv, main
from fuzzing import SCENARIOS, SHIPPED_DOCS, document_values, mutated_documents, table_documents, time_limit


def write_scenario(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def swimmer_doc(**extra):
    doc = {
        "model": {"kind": "swimmer"},
        "gait": {
            "kind": "fourier",
            "period": 1.0,
            "mean": [0.0, 0.0],
            "cos": [[0.0, -0.5]],
            "sin": [[0.5, 0.0]],
        },
        "integrator": {"step": 0.01},
    }
    doc.update(extra)
    return doc


def crawler_doc(**extra):
    doc = {
        "model": {"kind": "crawler"},
        "gait": {
            "kind": "waypoint",
            "points": [
                [-0.375, -0.375],
                [0.375, -0.375],
                [0.375, 0.375],
                [-0.375, 0.375],
            ],
            "times": [0.0, 0.25, 0.5, 0.75, 1.0],
        },
        "integrator": {"step": 0.01, "cycles": 3},
    }
    doc.update(extra)
    return doc


class TestSimulate:
    def test_summary_counts_stage_shapes(self, tmp_path):
        # 100 steps of one smooth cycle: 100 row shapes and 100 midpoints
        # (the cycle end is the shape at t = 0)
        path = write_scenario(tmp_path, swimmer_doc())
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["meta"]["steps_per_cycle"] == 100
        assert summary["meta"]["stage_shapes"] == 200

    def test_zero_gait_identity_column(self, tmp_path):
        doc = swimmer_doc()
        doc["gait"] = {"kind": "fourier", "period": 1.0, "mean": [0.1, -0.3]}
        path = write_scenario(tmp_path, doc)
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == 0
        got = load_trajectory_csv(str(tmp_path / "run" / "trajectory.csv"))
        assert np.abs(got["poses"]).max() == 0.0
        assert np.abs(got["twists"]).max() == 0.0
        assert np.array_equal(
            got["shapes"], np.broadcast_to([0.1, -0.3], got["shapes"].shape)
        )

    def test_crawler_event_count(self, tmp_path):
        path = write_scenario(tmp_path, crawler_doc())
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        # two stance switches per cycle across three cycles
        assert len(summary["events"]) == 6
        assert len(summary["per_cycle"]) == 3
        assert summary["events"][0]["before"] == "0"
        assert summary["events"][0]["after"] == "1"
        got = load_trajectory_csv(str(tmp_path / "run" / "trajectory.csv"))
        assert got["contacts"][0] == frozenset({0})
        assert frozenset({1}) in got["contacts"]

    def test_trajectory_roundtrip_exact(self, tmp_path):
        path = write_scenario(tmp_path, swimmer_doc())
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == 0
        got = load_trajectory_csv(str(tmp_path / "run" / "trajectory.csv"))

        sc = load_scenario(swimmer_doc())
        traj = integrate_gait(
            sc.provider, sc.gait, cycles=sc.cycles, step=sc.step, event_tol=sc.event_tol
        )
        poses = np.array([[p.x, p.y, p.theta] for p in traj.poses])
        assert np.array_equal(got["times"], traj.times)
        assert np.array_equal(got["poses"], poses)
        assert np.array_equal(got["shapes"], traj.shapes)
        assert np.array_equal(got["twists"], traj.twists)
        assert got["contacts"] == [None] * len(traj.times)

    def test_summary_net_matches_trajectory(self, tmp_path):
        path = write_scenario(tmp_path, swimmer_doc())
        main(["simulate", path, "--out", str(tmp_path / "run")])
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["schema"] == 1
        assert summary["scenario"].startswith("sha256:")
        assert len(summary["per_cycle"]) == 1
        assert summary["net_displacement"] == summary["per_cycle"][0]
        assert summary["meta"]["scheme"] == "rkmk4"


class TestSweep:
    def test_swimmer_grid_reloadable(self, tmp_path):
        doc = swimmer_doc(
            sweep={
                "lo": [-1.5, -1.5],
                "hi": [1.5, 1.5],
                "counts": [33, 33],
                "curvature": False,
            }
        )
        path = write_scenario(tmp_path, doc)
        assert main(["sweep", path, "--out", str(tmp_path / "run")]) == 0
        got = load_field_csv(str(tmp_path / "run" / "field.csv"))
        assert got["conn"].shape == (33, 33, 3, 2)
        assert got["conn"].shape[0] * got["conn"].shape[1] == 1089
        assert not got["singular"].any()
        assert got["curvature"] is None

        sc = load_scenario(doc)
        field = sample_field(
            sc.provider, GridSpec(lo=(-1.5, -1.5), hi=(1.5, 1.5), counts=(33, 33))
        )
        assert np.array_equal(got["conn"], field.conn)
        assert np.array_equal(got["axis1"], field.axis1)
        assert np.array_equal(got["axis2"], field.axis2)

    def test_crawler_contacts_and_flags(self, tmp_path):
        doc = crawler_doc(
            sweep={
                "lo": [-1.0, -1.0],
                "hi": [1.0, 1.0],
                "counts": [5, 5],
                "curvature": False,
            }
        )
        path = write_scenario(tmp_path, doc)
        assert main(["sweep", path, "--out", str(tmp_path / "run")]) == 0
        text = (tmp_path / "run" / "field.csv").read_text()
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert "contact_set" in header.split(",")
        assert "singular" in header.split(",")
        got = load_field_csv(str(tmp_path / "run" / "field.csv"))
        assert got["contacts"][4, 0] == frozenset({0})
        assert got["contacts"][0, 4] == frozenset({1})

    def test_curvature_columns(self, tmp_path):
        doc = swimmer_doc(
            sweep={
                "lo": [-1.0, -1.0],
                "hi": [1.0, 1.0],
                "counts": [9, 9],
                "curvature": True,
            }
        )
        path = write_scenario(tmp_path, doc)
        assert main(["sweep", path, "--out", str(tmp_path / "run")]) == 0
        got = load_field_csv(str(tmp_path / "run" / "field.csv"))
        assert got["curvature"].shape == (9, 9, 3)
        assert np.isfinite(got["curvature"]).all()

    def test_sweep_needs_block(self, tmp_path):
        path = write_scenario(tmp_path, swimmer_doc())
        assert main(["sweep", path, "--out", str(tmp_path / "run")]) == 2


class TestOptimize:
    def test_report_content(self, tmp_path):
        doc = swimmer_doc(
            optimize={
                "family": "amplitude_phase",
                "direction": "x",
                "budget": 40,
                "restarts": 1,
            },
            integrator={"step": 0.05},
            seed=9,
        )
        path = write_scenario(tmp_path, doc)
        assert main(["optimize", path, "--out", str(tmp_path / "run")]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["evaluations"] <= 40
        assert len(report["history"]) == report["evaluations"]
        assert report["best_value"] > 0.15
        assert report["parameter_names"] == ["amplitude", "phase"]
        best = max(h["value"] for h in report["history"])
        assert report["best_value"] == best

    def test_optimize_needs_block(self, tmp_path):
        path = write_scenario(tmp_path, swimmer_doc())
        assert main(["optimize", path, "--out", str(tmp_path / "run")]) == 2


class TestVerify:
    def test_passing_suites_exit_zero(self, tmp_path, capsys):
        doc = {
            "model": {"kind": "jacobian", "map": "rotate_translate"},
            "gait": {
                "kind": "fourier",
                "period": 1.0,
                "mean": [0.1, -0.2],
                "cos": [[0.4, 0.2]],
                "sin": [[-0.3, 0.5]],
            },
            "integrator": {"step": 0.001},
            "verify": {"suites": ["loop_closure", "reversal", "pacing"]},
        }
        path = write_scenario(tmp_path, doc)
        assert main(["verify", path, "--out", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out
        rows = [
            l
            for l in (tmp_path / "run" / "verify.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert rows[0] == "suite,check,value,threshold,passed"
        assert all(r.endswith(",1") for r in rows[1:])

    def test_failing_suite_exit_one(self, tmp_path, capsys):
        # a propulsive swimmer loop genuinely violates loop closure
        doc = swimmer_doc(verify={"suites": ["loop_closure"]})
        path = write_scenario(tmp_path, doc)
        assert main(["verify", path, "--out", str(tmp_path / "run")]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        rows = (tmp_path / "run" / "verify.csv").read_text().splitlines()
        assert rows[-1].endswith(",0")

    def test_crawler_single_piece_suite(self, tmp_path):
        doc = crawler_doc(verify={"suites": ["single_piece"]})
        # keep the loop inside the leg-0 stance half-plane
        doc["gait"] = {
            "kind": "waypoint",
            "points": [[0.5, -0.5], [0.8, 0.0], [0.2, -0.2]],
            "times": [0.0, 0.3, 0.6, 1.0],
        }
        path = write_scenario(tmp_path, doc)
        assert main(["verify", path, "--out", str(tmp_path / "run")]) == 0

    def test_swimmer_residual_and_reversal(self, tmp_path):
        doc = swimmer_doc(verify={"suites": ["reversal", "continuity", "residual"]})
        path = write_scenario(tmp_path, doc)
        assert main(["verify", path, "--out", str(tmp_path / "run")]) == 0


class TestExitCodes:
    def test_validation_error_is_two(self, tmp_path, capsys):
        doc = swimmer_doc()
        doc["model"]["paddle"] = True
        path = write_scenario(tmp_path, doc)
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == 2
        assert "model.paddle" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["a", True])
    @pytest.mark.parametrize("key", ["cos", "sin"])
    def test_malformed_harmonic_entry_is_two(self, tmp_path, capsys, key, bad):
        doc = swimmer_doc()
        doc["gait"][key] = [[0.0, bad]]
        path = write_scenario(tmp_path, doc)
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == 2
        assert f"gait.{key}[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["x", False])
    def test_malformed_waypoint_entry_is_two(self, tmp_path, capsys, bad):
        doc = crawler_doc()
        doc["gait"]["points"][0] = [-0.375, bad]
        path = write_scenario(tmp_path, doc)
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == 2
        assert "gait.points[0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "window, field",
        [
            ({"lo": [1.0, -1.0], "hi": [1.0, 1.0]}, "sweep.hi"),
            ({"lo": [-1.0, 0.5], "hi": [1.0, 0.2]}, "sweep.hi"),
            ({"counts": [5, 1]}, "sweep.counts"),
            ({"axes": [1, 1]}, "sweep.axes"),
            ({"axes": [0, 2]}, "sweep.axes"),
            ({"axes": [-1, 0]}, "sweep.axes"),
            # a span past the largest float once gave NaN nodes and a traceback
            ({"lo": [-1.0e308, -1.0e308], "hi": [1.0e308, 1.0e308]}, "sweep.hi: the span hi - lo must be finite"),
        ],
    )
    def test_malformed_sweep_window_is_two(self, tmp_path, capsys, window, field):
        sweep = {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "counts": [5, 5], **window}
        path = write_scenario(tmp_path, swimmer_doc(sweep=sweep))
        assert main(["sweep", path, "--out", str(tmp_path / "run")]) == 2
        assert field in capsys.readouterr().err

    def test_overflowing_sweep_node_count_is_two(self, tmp_path, capsys):
        # 1e30 nodes once overflowed np.linspace into a traceback; the node
        # ceiling rejects the grid at load, before any node is allocated
        sweep = {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "counts": [10**30, 2]}
        path = write_scenario(tmp_path, swimmer_doc(sweep=sweep))
        assert main(["sweep", path, "--out", str(tmp_path / "run")]) == 2
        assert "sweep.counts" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "block, field",
        [
            ({"slots": [["cos", 0, 0]]}, "optimize.slots"),
            ({"slots": [["sin", 2, 0]]}, "optimize.slots"),
            ({"slots": [["cos", 1, 2]]}, "optimize.slots"),
            ({"slots": [["mean", 2]]}, "optimize.slots"),
            ({"slots": [["mean", -1]]}, "optimize.slots"),
            ({"lower": [1.0], "upper": [-1.0]}, "optimize.upper"),
            ({"family": "amplitude_phase", "amplitude": [1.2, 0.1]}, "optimize.amplitude"),
            ({"family": "amplitude_phase", "phase": [1.0, -1.0]}, "optimize.phase"),
            ({"family": "amplitude_phase", "budget": 2}, "optimize.budget"),
            (
                {
                    "budget": 2,
                    "slots": [["sin", 1, 0], ["cos", 1, 1]],
                    "lower": [-1.0, -1.0],
                    "upper": [1.0, 1.0],
                },
                "optimize.budget",
            ),
        ],
    )
    def test_malformed_optimize_block_is_two(self, tmp_path, capsys, block, field):
        optimize = {
            "family": "fourier_slots",
            "budget": 20,
            "restarts": 1,
            "slots": [["sin", 1, 0]],
            "lower": [-1.0],
            "upper": [1.0],
            **block,
        }
        if optimize["family"] == "amplitude_phase":
            for key in ("slots", "lower", "upper"):
                del optimize[key]
        path = write_scenario(tmp_path, swimmer_doc(optimize=optimize))
        assert main(["optimize", path, "--out", str(tmp_path / "run")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["gait.mean", "gait.cos[0]", "gait.points[1]", "sweep.base"])
    def test_non_finite_list_entry_is_two(self, tmp_path, capsys, field, bad):
        command = "simulate"
        if field == "gait.points[1]":
            doc = crawler_doc()
            doc["gait"]["points"][1] = [bad, -0.375]
        else:
            doc = swimmer_doc()
            doc["model"] = {"kind": "jacobian", "map": "wavy"}
            if field == "gait.mean":
                doc["gait"]["mean"] = [0.0, bad]
            elif field == "gait.cos[0]":
                doc["gait"]["cos"] = [[bad, -0.5]]
            else:
                command = "sweep"
                doc["sweep"] = {
                    "lo": [-1.0, -1.0],
                    "hi": [1.0, 1.0],
                    "counts": [3, 3],
                    "base": [bad, 0.0],
                }
        path = write_scenario(tmp_path, doc)
        assert main([command, path, "--out", str(tmp_path / "run")]) == 2
        assert f"{field}: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["last_knot", "fourier_period", "optimize_period", "tiny_step"])
    def test_step_count_above_the_ceiling_is_two(self, tmp_path, capsys, where):
        # about 1e12 steps at step 1e-3: rejected at load, before any planning
        command = "simulate"
        if where == "last_knot":
            doc = crawler_doc()
            doc["gait"]["times"][-1] = 1.0e9
        elif where in ("fourier_period", "tiny_step"):
            doc = swimmer_doc()
            doc["gait"]["period"] = 1.0e9 if where == "fourier_period" else 1.0
        else:
            command = "optimize"
            doc = swimmer_doc(optimize={"family": "amplitude_phase", "budget": 4, "period": 1.0e9})
        # a subnormal step makes period / step overflow to inf
        doc["integrator"]["step"] = 1.0e-320 if where == "tiny_step" else 1.0e-3
        path = write_scenario(tmp_path, doc)
        assert main([command, path, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "integrator.step" in err and "1000000 steps" in err

    @pytest.mark.parametrize("period, code", [(1.0e-13, 0), (5.0e-324, 3)])
    def test_period_below_the_knot_merge_tolerance_keeps_one_step(self, tmp_path, capsys, period, code):
        # a period under the 1e-12 merge tolerance once emptied the step grid
        # (an IndexError traceback); at 5e-324 the rate 2 pi / period overflows
        doc = swimmer_doc()
        doc["gait"]["period"] = period
        path = write_scenario(tmp_path, doc)
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == code
        assert "Traceback" not in capsys.readouterr().err

    def test_event_tolerance_below_the_float_spacing_is_two(self, tmp_path, capsys):
        # one ulp at t = 3 (three unit cycles) is 4.4e-16: no bisection can
        # bracket a switch time to 1e-17
        doc = yaml.safe_load((SCENARIOS / "crawler_square.yaml").read_text())
        doc["integrator"]["event_tol"] = 1.0e-17
        path = write_scenario(tmp_path, doc)
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "integrator.event_tol: 1e-17 is below the float spacing 4.440892098500626e-16 at t = 3.0" in err

    def test_event_tolerance_spacing_follows_the_cycles_flag(self, tmp_path, capsys):
        # 3e-16 lies between one ulp at t = 1 (2.2e-16) and at t = 2 (4.4e-16)
        doc = crawler_doc()
        doc["integrator"].update(cycles=1, event_tol=3.0e-16)
        path = write_scenario(tmp_path, doc)
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == 0
        assert main(["simulate", path, "--out", str(tmp_path / "run"), "--cycles", "2"]) == 2
        assert "integrator.event_tol" in capsys.readouterr().err

    def test_event_tolerance_spacing_at_the_optimize_period(self, tmp_path, capsys):
        # the amplitude/phase search integrates its own period: one ulp at
        # t = 1000 is 1.1e-13
        doc = swimmer_doc(optimize={"family": "amplitude_phase", "budget": 4, "period": 1000.0})
        doc["integrator"]["event_tol"] = 1.0e-13
        path = write_scenario(tmp_path, doc)
        assert main(["optimize", path, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "integrator.event_tol: 1e-13 is below the float spacing 1.1368683772161603e-13" in err

    @pytest.mark.parametrize(
        "last, step, tol, message, advice",
        [
            ("1.0", "1.0e-2", "1e-9", "integrator.event_tol: expected a number; YAML 1.1", "write 1.0e-9"),
            ("1.0", "1e-2", "1.0e-10", "integrator.step: expected a number; YAML 1.1", "write 1.0e-2"),
            ("1e0", "1.0e-2", "1.0e-10", "gait.times: expected a list of numbers; YAML 1.1", "write 1.0e+0"),
        ],
    )
    def test_yaml_exponent_without_a_dot_names_the_rule(self, tmp_path, capsys, last, step, tol, message, advice):
        # YAML 1.1 reads 1e-9 (no dot) as the string '1e-9'; the message says how to write it
        path = tmp_path / "scenario.yaml"
        path.write_text(
            "model: {kind: crawler}\n"
            "gait:\n"
            "  kind: waypoint\n"
            "  points: [[-0.375, -0.375], [0.375, -0.375], [0.375, 0.375], [-0.375, 0.375]]\n"
            f"  times: [0.0, 0.25, 0.5, 0.75, {last}]\n"
            f"integrator: {{step: {step}, event_tol: {tol}}}\n"
        )
        assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert message in err and advice in err

    @pytest.mark.parametrize("schema", [True, 1.0, "1"])
    def test_schema_must_be_the_integer_version(self, tmp_path, capsys, schema):
        path = write_scenario(tmp_path, swimmer_doc(schema=schema))
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == 2
        assert "schema" in capsys.readouterr().err

    def test_missing_file_is_two(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.yaml")]) == 2

    def test_numerical_abort_is_three(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise SingularConstraint("fabricated abort for the exit-code path")

        monkeypatch.setattr(cli, "integrate_gait", boom)
        path = write_scenario(tmp_path, swimmer_doc())
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == 3
        assert "abort" in capsys.readouterr().err

    @pytest.mark.parametrize("amplitude, what", [(1.0e160, "twist norm"), (1.0e110, "step exponent")])
    def test_overflowing_combine_is_three(self, tmp_path, capsys, amplitude, what):
        # finite stage twists that overflow in the combine once wrote NaN
        # poses and an infinite max_twist_norm, and exited 0
        doc = swimmer_doc()
        doc["gait"].update(cos=[[0.0, -amplitude]], sin=[[amplitude, 0.0]])
        path = write_scenario(tmp_path, doc)
        assert main(["simulate", path, "--out", str(tmp_path / "run"), "--step", "0.05"]) == 3
        # the checked overflow prints the abort line and no numpy warning
        assert capsys.readouterr().err == f"numerical abort: non-finite {what} at t=0.0, shape [0.0, {-amplitude!r}]\n"
        assert not (tmp_path / "run" / "trajectory.csv").exists()

    @pytest.mark.parametrize("stage", ["sample_field", "curvature"])
    def test_sweep_abort_writes_no_field(self, tmp_path, monkeypatch, capsys, stage):
        # everything that can abort runs before field.csv is opened
        def boom(*args, **kwargs):
            raise SingularConstraint(f"fabricated abort in {stage}")

        monkeypatch.setattr(cli, stage, boom)
        doc = swimmer_doc(sweep={"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "counts": [5, 5], "curvature": True})
        path = write_scenario(tmp_path, doc)
        assert main(["sweep", path, "--out", str(tmp_path / "run")]) == 3
        assert capsys.readouterr().err == f"numerical abort: fabricated abort in {stage}\n"
        assert not (tmp_path / "run" / "field.csv").exists()

    def test_non_finite_connection_is_three(self, tmp_path, monkeypatch, capsys):
        def nan_outside_disc():
            def fn(r):
                if math.hypot(r[0], r[1]) > 0.45:
                    return Pose(math.nan, 0.0, 0.0)
                return Pose(r[0], r[1], 0.0)

            return PoseMap(fn, 2)

        monkeypatch.setitem(scenario_module._POSE_MAPS, "wavy", ({}, nan_outside_disc))
        doc = swimmer_doc()
        doc["model"] = {"kind": "jacobian", "map": "wavy"}
        path = write_scenario(tmp_path, doc)
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == 3
        assert "non-finite connection at t=" in capsys.readouterr().err


class TestDeterminismAndOverrides:
    def test_byte_identical_reruns(self, tmp_path):
        path = write_scenario(tmp_path, crawler_doc())
        assert main(["simulate", path, "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", path, "--out", str(tmp_path / "b")]) == 0
        for name in ("trajectory.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_sweep_and_optimize_reruns(self, tmp_path):
        doc = swimmer_doc(
            sweep={
                "lo": [-1.0, -1.0],
                "hi": [1.0, 1.0],
                "counts": [7, 7],
                "curvature": True,
            },
            optimize={"family": "amplitude_phase", "budget": 20, "restarts": 1},
            integrator={"step": 0.05},
        )
        path = write_scenario(tmp_path, doc)
        for cmd, name in (("sweep", "field.csv"), ("optimize", "report.json")):
            assert main([cmd, path, "--out", str(tmp_path / "a")]) == 0
            assert main([cmd, path, "--out", str(tmp_path / "b")]) == 0
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_flag_overrides(self, tmp_path):
        path = write_scenario(tmp_path, swimmer_doc())
        out = tmp_path / "run"
        assert (
            main(
                [
                    "simulate",
                    path,
                    "--out",
                    str(out),
                    "--step",
                    "0.02",
                    "--cycles",
                    "2",
                    "--seed",
                    "7",
                ]
            )
            == 0
        )
        summary = json.loads((out / "summary.json").read_text())
        assert summary["meta"]["step_nominal"] == 0.02
        assert len(summary["per_cycle"]) == 2

        # overridden settings participate in the scenario hash
        assert main(["simulate", path, "--out", str(tmp_path / "base")]) == 0
        base = json.loads((tmp_path / "base" / "summary.json").read_text())
        assert base["scenario"] != summary["scenario"]

    def test_module_entry_point(self, tmp_path):
        doc = swimmer_doc()
        doc["gait"] = {"kind": "fourier", "period": 1.0, "mean": [0.0, 0.0]}
        path = write_scenario(tmp_path, doc)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "locomech.cli",
                "simulate",
                path,
                "--out",
                str(tmp_path / "run"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "run" / "summary.json").exists()


def _small_search(doc):
    """doc with its gait search cut to a few evaluations."""
    doc = copy.deepcopy(doc)
    if "optimize" in doc:
        doc["optimize"].update(budget=8, restarts=1)
    return doc


# Each mutated shipped document runs simulate or a command whose block it
# has, at --cycles 1 and --step 0.05, with the search cut to 8 evaluations.
# Integers stay in [-3, 40] and finite floats in [-60, 60] or at the sampled
# extremes, so no mutation can ask for much work: a sweep has at most
# 40 x 40 nodes and a cycle at most 2400 steps.
_CLI_DOCS = [_small_search(doc) for doc in SHIPPED_DOCS]
_CLI_VALUES = document_values(
    st.integers(-3, 40),
    st.one_of(st.floats(-60.0, 60.0), st.sampled_from([1e300, -1e300, 5e-324, 1e-17])),
)


@settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=5000,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutated_documents(_CLI_VALUES, _CLI_DOCS), st.data())
def test_main_keeps_the_exit_code_contract_on_mutated_documents(doc, data):
    # simulate, or a command whose block the document has
    blocks = [c for c in ("sweep", "optimize", "verify") if c in doc]
    command = data.draw(st.sampled_from(["simulate"] + blocks))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, time_limit(30.0):
        path = Path(tmp) / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        argv = [command, str(path), "--out", str(Path(tmp) / "run"), "--cycles", "1", "--step", "0.05"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


def _run_main(doc, command):
    """main()'s exit code, stderr and written files for doc at --cycles 1 and --step 0.05, within 30 s."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, time_limit(30.0):
        path = Path(tmp) / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        argv = [command, str(path), "--out", str(Path(tmp) / "run"), "--cycles", "1", "--step", "0.05"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, err.getvalue(), {p.name: p.read_text() for p in Path(tmp).glob("run/*")}


# Documents read off the scenario tables, run as simulate or a command whose
# block they have: random rows, random subsets of their keys, values those
# keys take in the shipped documents (search cut to 8 evaluations) or bounded
# fuzz values.  A trajectory that is written holds finite numbers only.
@settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=5000,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(table_documents(_CLI_VALUES, _CLI_DOCS), st.data())
def test_main_keeps_the_exit_code_contract_on_table_documents(doc, data):
    command = data.draw(st.sampled_from(["simulate"] + [c for c in ("sweep", "optimize", "verify") if c in doc]))
    code, err, written = _run_main(doc, command)
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
    if "trajectory.csv" in written:
        rows = [line.split(",") for line in written["trajectory.csv"].splitlines() if not line.startswith("#")]
        assert all(math.isfinite(float(v)) for row in rows[1:] for v in row[:-1])
        assert "NaN" not in written["summary.json"] and "Infinity" not in written["summary.json"]


# The per-cell CSV writer that the row-template writer replaced, kept as the
# byte reference: one format(float(x), ".17g") per float cell and one join
# over every line of the file.
def _reference_fmt(x) -> str:
    return format(float(x), ".17g")


def _reference_trajectory_text(meta, traj) -> str:
    dim = traj.shapes.shape[1]
    header = (
        ["t", "x", "y", "theta"]
        + [f"r{k + 1}" for k in range(dim)]
        + ["xi_vx", "xi_vy", "xi_omega", "contact_set"]
    )
    lines = meta + [f"# dim={dim}", ",".join(header)]
    for k, t in enumerate(traj.times):
        pose = traj.poses[k]
        cells = [_reference_fmt(t), _reference_fmt(pose.x), _reference_fmt(pose.y), _reference_fmt(pose.theta)]
        cells.extend(_reference_fmt(v) for v in traj.shapes[k])
        cells.extend(_reference_fmt(v) for v in traj.twists[k])
        cells.append(cli._contact_str(traj.contacts[k]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _reference_field_text(meta, field, curv) -> str:
    n1, n2 = field.conn.shape[:2]
    dim = field.conn.shape[3]
    header = ["i", "j", "r1", "r2"]
    for axis in ("vx", "vy", "om"):
        header.extend(f"A_{axis}_{k + 1}" for k in range(dim))
    header.extend(["contact_set", "singular"])
    if curv is not None:
        header.extend(["D_vx", "D_vy", "D_omega"])
    lines = meta + [f"# counts={n1}x{n2}", f"# dim={dim}", f"# curvature={int(curv is not None)}", ",".join(header)]
    for i in range(n1):
        for j in range(n2):
            cells = [str(i), str(j), _reference_fmt(field.axis1[i]), _reference_fmt(field.axis2[j])]
            cells.extend(_reference_fmt(v) for v in field.conn[i, j].reshape(-1))
            contact = field.contacts[i, j] if field.contacts is not None else None
            cells.append(cli._contact_str(contact))
            cells.append(str(int(field.singular[i, j])))
            if curv is not None:
                cells.extend(_reference_fmt(v) for v in curv.values[i, j])
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# every float spelling the writers meet: NaN (either sign), infinities,
# signed zeros, subnormals, the largest finite magnitudes, integer values
# and exponent forms, beside arbitrary doubles
_CELL_FLOATS = st.one_of(
    st.floats(width=64),
    st.sampled_from(
        [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308,
         1.7e308, -1.7e308, 1.7976931348623157e308, 1e-05, 1.0000000000000001e-05, 1e16, 1e22]
    ),
    st.integers(-(2**60), 2**60).map(float),
)
_LABELS = st.one_of(st.none(), st.frozensets(st.integers(0, 11), min_size=1, max_size=3))
_WRITER = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def _float_arrays(data, shape):
    size = math.prod(shape)
    return np.array(data.draw(st.lists(_CELL_FLOATS, min_size=size, max_size=size)), dtype=float).reshape(shape)


def _same_floats(got, want) -> bool:
    """Equal values with NaN equal to NaN and -0.0 apart from 0.0 (a NaN's sign is not kept)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    signs = [np.signbit(a) & ~np.isnan(a) for a in (got, want)]
    return np.array_equal(got, want, equal_nan=True) and np.array_equal(*signs)


@_WRITER
@given(st.data())
def test_trajectory_writer_matches_the_per_cell_writer(data):
    n = data.draw(st.integers(0, 9))
    dim = data.draw(st.integers(1, 3))
    poses = _float_arrays(data, (n, 3))
    traj = types.SimpleNamespace(
        times=_float_arrays(data, (n,)),
        poses=[types.SimpleNamespace(x=x, y=y, theta=th) for x, y, th in poses.tolist()],
        shapes=_float_arrays(data, (n, dim)),
        twists=_float_arrays(data, (n, 3)),
        contacts=data.draw(st.lists(_LABELS, min_size=n, max_size=n)),
    )
    meta = ["# schema=1", "# command=simulate"]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_SLAB_ROWS", data.draw(st.integers(1, 4))):
        path = Path(tmp) / "trajectory.csv"
        cli._write_trajectory(str(path), meta, traj)
        assert path.read_bytes() == _reference_trajectory_text(meta, traj).encode()
        got = load_trajectory_csv(str(path))
    assert _same_floats(got["times"], traj.times)
    assert _same_floats(got["poses"], poses)
    assert _same_floats(got["shapes"], traj.shapes)
    assert _same_floats(got["twists"], traj.twists)
    assert got["contacts"] == traj.contacts


@_WRITER
@given(st.data())
def test_field_writer_matches_the_per_cell_writer(data):
    n1, n2, dim = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    contacts = None
    if data.draw(st.booleans()):
        labels = data.draw(st.lists(_LABELS, min_size=n1 * n2, max_size=n1 * n2).filter(lambda c: any(c)))
        contacts = np.fromiter(labels, dtype=object).reshape(n1, n2)
    field = types.SimpleNamespace(
        axis1=_float_arrays(data, (n1,)),
        axis2=_float_arrays(data, (n2,)),
        conn=_float_arrays(data, (n1, n2, 3, dim)),
        contacts=contacts,
        singular=np.array(data.draw(st.lists(st.booleans(), min_size=n1 * n2, max_size=n1 * n2))).reshape(n1, n2),
    )
    curv = types.SimpleNamespace(values=_float_arrays(data, (n1, n2, 3))) if data.draw(st.booleans()) else None
    meta = ["# schema=1", "# command=sweep"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.csv"
        cli._write_field(str(path), meta, field, curv)
        assert path.read_bytes() == _reference_field_text(meta, field, curv).encode()
        got = load_field_csv(str(path))
    assert _same_floats(got["axis1"], field.axis1)
    assert _same_floats(got["axis2"], field.axis2)
    assert _same_floats(got["conn"], field.conn)
    assert np.array_equal(got["singular"], field.singular)
    if contacts is None:
        assert got["contacts"] is None
    else:
        assert got["contacts"].tolist() == contacts.tolist()
    if curv is None:
        assert got["curvature"] is None
    else:
        assert _same_floats(got["curvature"], curv.values)
