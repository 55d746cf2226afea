import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import types
import warnings
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
    curvature,
    integrate_gait,
    load_scenario,
    sample_field,
)
from locomech.cli import main
from locomech.verify import VerifyCheck
from fuzzing import (
    SCENARIOS,
    SHIPPED_DOCS,
    alias_chain,
    document_values,
    mutated_documents,
    table_documents,
    time_limit,
)


def read_csv(path):
    """A CSV artifact's `# key=value` head, its header and its rows, each split on ','."""
    lines = Path(path).read_text().splitlines()
    meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    header, *rows = (line.split(",") for line in lines if not line.startswith("# "))
    return meta, header, rows


def float_columns(rows, lo, hi):
    """Cells lo..hi-1 of every row parsed with float(), as an (n, hi - lo) array."""
    return np.array([[float(v) for v in row[lo:hi]] for row in rows]).reshape(len(rows), hi - lo)


def contact_set(cell):
    return frozenset(int(i) for i in cell.split("+")) if cell else None


def read_trajectory(path):
    meta, header, rows = read_csv(path)
    dim = int(meta["dim"])
    assert len(header) == 8 + dim
    return {
        "times": float_columns(rows, 0, 1)[:, 0],
        "poses": float_columns(rows, 1, 4),
        "shapes": float_columns(rows, 4, 4 + dim),
        "twists": float_columns(rows, 4 + dim, 7 + dim),
        "contacts": [contact_set(row[7 + dim]) for row in rows],
    }


def read_field(path):
    """field.csv as grid arrays; its rows are the grid nodes in row-major order."""
    meta, header, rows = read_csv(path)
    n1, n2 = (int(v) for v in meta["counts"].split("x"))
    dim = int(meta["dim"])
    axes = float_columns(rows, 2, 4).reshape(n1, n2, 2)
    contacts = np.fromiter((contact_set(row[4 + 3 * dim]) for row in rows), dtype=object).reshape(n1, n2)
    return {
        "axis1": axes[:, 0, 0],
        "axis2": axes[0, :, 1],
        "conn": float_columns(rows, 4, 4 + 3 * dim).reshape(n1, n2, 3, dim),
        "contacts": None if all(c is None for c in contacts.flat) else contacts,
        "singular": np.array([row[5 + 3 * dim] == "1" for row in rows]).reshape(n1, n2),
        "curvature": float_columns(rows, 6 + 3 * dim, 9 + 3 * dim).reshape(n1, n2, 3)
        if meta["curvature"] == "1"
        else None,
    }


SRC = Path(__file__).resolve().parent.parent / "src"


def run_in_a_process(tmp_path, text, *args):
    """Run the CLI with args in a fresh process in tmp_path, beside scenario.yaml of the given text; exit code, stderr."""
    (tmp_path / "scenario.yaml").write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "locomech.cli", *args],
        cwd=tmp_path,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return proc.returncode, proc.stderr


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

    def test_multi_switch_steps_warn_for_the_first_cycle_only(self, tmp_path):
        # each one-step cycle holds several stance switches; a warning per
        # switch per cycle once wrote 2000 stderr lines at 1000 cycles
        text = (
            "model: {kind: crawler}\n"
            "gait: {kind: fourier, period: 1.0, mean: [0.0, 0.0], sin: [[0.4, 0.0]], cos: [[0.0, 0.4]]}\n"
            "integrator: {step: 1.0, cycles: 1000}\n"
        )
        code, err = run_in_a_process(tmp_path, text, "simulate", "scenario.yaml", "--out", "out")
        assert code == 0 and b"multiple stance switches" in err
        assert len(err) <= 1024
        # one line per warning, naming no source file
        lines = err.decode().splitlines()
        assert lines and all(line.startswith("warning: ") for line in lines)
        assert b".py" not in err

    def test_warnings_print_once_each_in_the_order_raised_before_the_error(self, tmp_path, monkeypatch, capsys):
        def command(scenario):
            warnings.warn("first", UserWarning)
            warnings.warn("second", UserWarning)
            warnings.warn("first", UserWarning)
            raise SingularConstraint("stop")

        monkeypatch.setitem(cli._COMMANDS, "simulate", command)
        path = write_scenario(tmp_path, swimmer_doc())
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == 3
        assert capsys.readouterr().err == "warning: first\nwarning: second\nnumerical abort: stop\n"

    def test_zero_gait_identity_column(self, tmp_path):
        doc = swimmer_doc()
        doc["gait"] = {"kind": "fourier", "period": 1.0, "mean": [0.1, -0.3]}
        path = write_scenario(tmp_path, doc)
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == 0
        got = read_trajectory(str(tmp_path / "run" / "trajectory.csv"))
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
        got = read_trajectory(str(tmp_path / "run" / "trajectory.csv"))
        assert got["contacts"][0] == frozenset({0})
        assert frozenset({1}) in got["contacts"]

    def test_trajectory_roundtrip_exact(self, tmp_path):
        path = write_scenario(tmp_path, swimmer_doc())
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == 0
        got = read_trajectory(str(tmp_path / "run" / "trajectory.csv"))

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
        got = read_field(str(tmp_path / "run" / "field.csv"))
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
        got = read_field(str(tmp_path / "run" / "field.csv"))
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
        got = read_field(str(tmp_path / "run" / "field.csv"))
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

    def test_verify_needs_block(self, tmp_path, capsys):
        path = write_scenario(tmp_path, swimmer_doc())
        assert main(["verify", path, "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == "scenario error: verify: scenario has no verify block\n"

    def test_residual_suite_is_scale_free(self, tmp_path, capsys):
        # a balance with 1e300 drag is solved to roundoff of its own size,
        # though its absolute residual is near 1e284
        doc = yaml.safe_load((SCENARIOS / "swimmer_circle.yaml").read_text())
        doc["model"].update(drag_tangential=1e300, drag_normal=1e300)
        path = write_scenario(tmp_path, doc)
        assert main(["verify", path, "--out", str(tmp_path / "run")]) == 0
        out, err = capsys.readouterr()
        assert err == "" and "residual/constraint_balance: PASS" in out


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

    def test_optimize_integrates_at_the_event_tolerance(self, tmp_path):
        # a crawler's stance switches are located to integrator.event_tol, so
        # a coarse tolerance moves the search's scores
        histories = []
        for tol in (1.0e-10, 1.0e-2):
            doc = crawler_doc(optimize={"family": "amplitude_phase", "direction": "y", "budget": 40, "restarts": 2})
            doc["integrator"].update(step=0.02, cycles=1, event_tol=tol)
            out = tmp_path / f"run_{tol}"
            assert main(["optimize", write_scenario(tmp_path, doc), "--out", str(out)]) == 0
            histories.append([entry["value"] for entry in json.loads((out / "report.json").read_text())["history"]])
        assert histories[0] != histories[1]

    @pytest.mark.parametrize(
        "last, step, tol, message",
        [
            ("1.0", "1.0e-2", "1e-20", "integrator.event_tol: 1e-20 is below the float spacing"),
            ("1.0", "1e-9", "1.0e-10", "integrator.step: 1 cycle(s) of period 1.0 at step 1e-09 exceed"),
            ("1e5", "1.0e-2", "1.0e-10", "integrator.step: 1 cycle(s) of period 100000.0 at step 0.01 exceed"),
        ],
        ids=["event_tol", "step", "times"],
    )
    def test_an_exponent_without_a_dot_is_a_number(self, tmp_path, capsys, last, step, tol, message):
        # YAML 1.2 reads 1e-9 as a number, so each value reaches the range check that quotes it
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
        assert err.startswith(f"scenario error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("schema", [True, 1.0, "1"])
    def test_schema_must_be_the_integer_version(self, tmp_path, capsys, schema):
        path = write_scenario(tmp_path, swimmer_doc(schema=schema))
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == 2
        assert "schema" in capsys.readouterr().err

    def test_missing_file_is_two(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.yaml")]) == 2

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_that_cannot_be_a_directory_is_two(self, tmp_path, capsys, out):
        (tmp_path / "file").write_text("not a directory\n")
        doc = swimmer_doc(sweep={"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "counts": [3, 3]})
        path = write_scenario(tmp_path, doc)
        assert main(["sweep", path, "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: out: cannot create ") and "Traceback" not in err
        assert (tmp_path / "file").read_text() == "not a directory\n"

    @pytest.mark.parametrize(
        ("out", "flag", "message"),
        [
            # a null byte once escaped as a ValueError traceback with exit 1,
            # and 100,000 characters as a 100 KB line
            ('"a\\0b"', False, "cannot create 'a\\x00b': embedded null byte"),
            ("x" * 100_000, False, "cannot create 'xxxxxxxxxxxx...xxxxxxxxxxxxx': File name too long"),
            ("x" * 100_000, True, "cannot create 'xxxxxxxxxxxx...xxxxxxxxxxxxx': File name too long"),
            # a short printable path is quoted as it is
            ("file/sub", False, "cannot create file/sub: Not a directory"),
            ("file/sub", True, "cannot create file/sub: Not a directory"),
        ],
        ids=["null_byte", "long", "long_flag", "short", "short_flag"],
    )
    def test_out_that_cannot_be_made_is_one_short_line(self, tmp_path, out, flag, message):
        (tmp_path / "file").write_text("not a directory\n")
        text = yaml.safe_dump(swimmer_doc())
        args = ["simulate", "scenario.yaml"]
        if flag:
            args += ["--out", out]
        else:
            text += f"out: {out}\n"
        code, err = run_in_a_process(tmp_path, text, *args)
        assert (code, err) == (2, f"scenario error: out: {message}\n".encode())
        assert len(err) <= 1024

    def test_artifact_that_cannot_be_opened_is_two(self, tmp_path, capsys):
        (tmp_path / "run" / "field.csv").mkdir(parents=True)
        doc = swimmer_doc(sweep={"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "counts": [3, 3]})
        path = write_scenario(tmp_path, doc)
        assert main(["sweep", path, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: out: cannot write ") and "field.csv" in err
        assert "Traceback" not in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("artifact", ["trajectory.csv", "summary.json"])
    def test_artifact_that_cannot_be_written_is_two(self, tmp_path, capsys, artifact):
        # a write or close that fails (here ENOSPC) once escaped as a traceback with exit 1
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / artifact).symlink_to("/dev/full")
        path = write_scenario(tmp_path, swimmer_doc())
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == 2
        target = tmp_path / "run" / artifact
        assert capsys.readouterr().err == f"scenario error: out: cannot write {target}: No space left on device\n"

    @staticmethod
    def _verify_to(stdout, tmp_path):
        """Run verify on a shipped scenario in a fresh process with the given stdout; its exit code and stderr."""
        scenario = Path(__file__).resolve().parent.parent / "scenarios" / "rotate_translate_closure.yaml"
        proc = subprocess.run(
            [sys.executable, "-m", "locomech.cli", "verify", str(scenario), "--out", str(tmp_path / "run")],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
        )
        return proc.returncode, proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_stdout_that_cannot_be_written_is_two(self, tmp_path):
        # the verdict lines once escaped as a traceback with exit 1, the verify-failure code
        with open("/dev/full", "w") as full:
            code, err = self._verify_to(full, tmp_path)
        assert (code, err) == (2, "scenario error: out: cannot write stdout: No space left on device\n")

    def test_stdout_on_a_closed_pipe_is_two(self, tmp_path):
        read, write = os.pipe()
        os.close(read)
        try:
            code, err = self._verify_to(write, tmp_path)
        finally:
            os.close(write)
        assert (code, err) == (2, "scenario error: out: cannot write stdout: Broken pipe\n")

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


def singular_walker_doc():
    """A slipping walker near the planted limit: its balance is singular on thin curves of shape space."""
    doc = yaml.safe_load((SCENARIOS / "walker_mirror.yaml").read_text())
    doc["model"].update(slip_tangential=1.0e-5, slip_normal=1.0e5, slip_yaw=1.0e-9)
    doc["gait"] = {"kind": "fourier", "mean": [-2.17, 1.86], "sin": [[0.1, 0.0]]}
    doc["integrator"] = {"step": 0.01}
    doc["verify"] = {"suites": ["residual"], "shapes": 200, "box": 3.1}
    return doc


def _cli_process(tmp_path, *args):
    """Run the CLI in a fresh process on this checkout's source; its exit code, stdout and stderr."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "locomech.cli", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestSingularWalker:
    def test_simulate_through_a_singular_shape_is_three_naming_it(self, tmp_path, capsys):
        # the gait starts on a shape with no connection; the abort once named only a condition number
        path = write_scenario(tmp_path, singular_walker_doc())
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert err == "numerical abort: non-finite connection at t=0.0, shape [-2.17, 1.86]\n"
        assert not (tmp_path / "run" / "trajectory.csv").exists()

    def test_residual_verify_on_singular_shapes_is_three(self, tmp_path):
        write_scenario(tmp_path, singular_walker_doc())
        code, out, err = _cli_process(tmp_path, "verify", "scenario.yaml", "--out", "run")
        assert (code, out) == (3, "")
        assert re.fullmatch(r"numerical abort: non-finite connection at shape \[\S+, \S+\]\n", err)
        assert not (tmp_path / "run" / "verify.csv").exists()


@pytest.mark.parametrize("flag, kind, digit", [("--cycles", "int", "7"), ("--seed", "int", "7"), ("--step", "float", "x")])
def test_a_flag_value_argparse_refuses_is_quoted_short(tmp_path, flag, kind, digit):
    # argparse once echoed the whole value: four lines of more than 5 KB
    value = digit * 5000
    write_scenario(tmp_path, swimmer_doc())
    code, out, err = _cli_process(tmp_path, "simulate", "scenario.yaml", "--out", "run", flag, value)
    assert (code, out) == (2, "")
    assert len(err.encode()) < 1024
    usage, message = err.split("locomech simulate: error: ")
    assert usage.startswith("usage: locomech simulate [-h]")
    assert message == f"argument {flag}: invalid {kind} value: '{value[:12]}...{value[-13:]}'\n"


class TestHugeDrag:
    """A balance with huge finite entries is as well conditioned as its unit-scale twin.

    Scaling both drag coefficients scales the balance and leaves A(r) alone;
    the 1-norm condition is scale-free, so it must not overflow into a
    numpy warning or a singular verdict.
    """

    def run(self, tmp_path, command, drag):
        doc = swimmer_doc(sweep={"lo": [-1.5, -1.5], "hi": [1.5, 1.5], "counts": [3, 3]})
        doc["model"] = {"kind": "swimmer", "drag_tangential": drag, "drag_normal": drag}
        out = tmp_path / f"{command}_{drag}"
        assert main([command, write_scenario(tmp_path, doc, f"{drag}.yaml"), "--out", str(out)]) == 0
        return out

    def test_sweep_flags_no_node_singular(self, tmp_path, capsys):
        huge = read_field(self.run(tmp_path, "sweep", 1.0e300) / "field.csv")
        unit = read_field(self.run(tmp_path, "sweep", 1.0) / "field.csv")
        assert capsys.readouterr().err == ""
        assert not huge["singular"].any()
        np.testing.assert_allclose(huge["conn"], unit["conn"], rtol=1e-12, atol=1e-15)

    def test_simulate_does_not_abort(self, tmp_path, capsys):
        huge = read_trajectory(self.run(tmp_path, "simulate", 1.0e300) / "trajectory.csv")
        unit = read_trajectory(self.run(tmp_path, "simulate", 1.0) / "trajectory.csv")
        assert capsys.readouterr().err == ""
        np.testing.assert_allclose(huge["twists"], unit["twists"], rtol=1e-12, atol=1e-15)


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


@pytest.mark.parametrize(
    "command, help_text",
    [
        ("simulate", "integrate the gait and write trajectory + summary"),
        ("sweep", "tabulate the connection (and optionally curvature) over a grid"),
        ("optimize", "search a gait family for maximal displacement"),
        ("verify", "run invariant suites; nonzero exit on failure"),
    ],
)
def test_subcommand_help_lines(monkeypatch, capsys, command, help_text):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exited:
        main(["--help"])
    assert exited.value.code == 0
    assert [command, help_text] in [line.split(None, 1) for line in capsys.readouterr().out.splitlines()]


# Loads every shipped scenario, then runs each command its blocks allow and
# prints the modules the commands imported and the numpy subpackages loaded.
_IMPORT_GUARD = """
import contextlib, io, json, os, sys
from pathlib import Path
import locomech.cli as cli
from locomech.scenario import load_scenario
out, scenarios = Path(sys.argv[1]), sorted(Path(sys.argv[2]).glob("*.yaml"))
loaded = {p.stem: load_scenario(str(p), overrides={"out": str(out / p.stem)}) for p in scenarios}
before = set(sys.modules)
for name, scenario in loaded.items():
    os.makedirs(scenario.out_dir)
    for command in ("simulate", "sweep", "optimize", "verify"):
        if command == "simulate" or getattr(scenario, command) is not None:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli._COMMANDS[command](scenario) == 0, (name, command)
print(json.dumps({"added": sorted(set(sys.modules) - before),
                  "lazy": [m for m in ("numpy.random", "numpy.polynomial") if m in sys.modules]}))
"""


def test_commands_import_nothing_after_load(tmp_path):
    # a module imported inside a command is timed as part of it in every fresh process
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD, str(tmp_path), str(SCENARIOS)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"added": [], "lazy": []}


# Loads one shipped scenario, then runs each command its blocks allow and
# prints the modules the commands imported.
_ONE_DOCUMENT_IMPORT_GUARD = """
import contextlib, io, json, os, sys
import locomech.cli as cli
from locomech.scenario import load_scenario
scenario = load_scenario(sys.argv[2], overrides={"out": sys.argv[1]})
os.makedirs(scenario.out_dir)
before = set(sys.modules)
for command in ("simulate", "sweep", "optimize", "verify"):
    if command == "simulate" or getattr(scenario, command) is not None:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli._COMMANDS[command](scenario) == 0, command
print(json.dumps({"added": sorted(set(sys.modules) - before), "dataclasses": "dataclasses" in sys.modules}))
"""


@pytest.mark.parametrize("name", sorted(path.stem for path in SCENARIOS.glob("*.yaml")))
def test_commands_import_nothing_after_loading_their_document(tmp_path, name):
    # a document's blocks import their modules at load, so no command of that
    # document imports one, whatever the other documents load; the records are
    # plain classes, so no module imports dataclasses
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_DOCUMENT_IMPORT_GUARD, str(tmp_path / "out"), str(SCENARIOS / f"{name}.yaml")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"added": [], "dataclasses": False}


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


# The values of a shipped scenario file that a splice may replace: every
# `key: value` line but out (the --out flag replaces it) and period and
# times, which set the step count.
_SPLICE_SITE = re.compile(r"^( *)(?!out:|period:|times:)[a-z_]+: (\S.*)$", re.M)

# tags, dates and times that yaml.safe_dump never writes
_TAGGED = [
    "!!timestamp 2001-12-14t21:59:43.10-05:00", "2001-12-14 21:59:43.10 -5", "2002-12-14", "2001-02-30",
    "2001-12-14t21:59:43.10-25:00", "!!binary aGVsbG8=", "!!set {a, b}", "!!omap [a: 1, b: 2]",
    "!!python/tuple [1, 2]", "!!str 3", "!!float 1", "!!int '0x1f'", "1:30", "!!null ''", "&a [*a]",
]


@st.composite
def _construct(draw, indent: str, old: str) -> str:
    """A tag, date or time, an integer near the digit limit, nesting near the depth limit, an anchor or an alias."""
    kind = draw(st.sampled_from(["tagged", "decimal", "base60", "flow", "map", "block", "anchor", "alias", "chain"]))
    if kind == "tagged":
        return draw(st.sampled_from(_TAGGED))
    if kind == "decimal":
        return draw(st.sampled_from(["", "-"])) + "7" * draw(st.integers(4290, 4310))
    if kind == "base60":
        # a YAML 1.1 base-60 spelling of about 4300 digits (2418 ':0' parts), which is a string
        return "1" + ":0" * draw(st.integers(2410, 2430))
    if kind == "chain":
        return alias_chain(draw(st.integers(1, 5)))
    if kind in ("anchor", "alias"):
        return f"&a {old}" if kind == "anchor" else "*a"
    depth = draw(st.integers(1, 205))
    if kind == "block":
        return f"\n{indent}  " + "- " * depth + "1"
    opener, closer = ("[", "]") if kind == "flow" else ("{a: ", "}")
    return opener * depth + "1" + closer * depth


@st.composite
def spliced_yaml(draw):
    """A shipped scenario file with one to three values replaced by YAML constructs, sometimes with a tab."""
    text = draw(st.sampled_from([path.read_text() for path in sorted(SCENARIOS.glob("*.yaml"))]))
    sites = list(_SPLICE_SITE.finditer(text))
    chosen = draw(st.lists(st.sampled_from(sites), min_size=1, max_size=3, unique_by=lambda m: m.start()))
    for m in sorted(chosen, key=lambda m: -m.start()):
        text = text[:m.start(2)] + draw(_construct(m[1], m[2])) + text[m.end(2):]
    # a tab sends the text to PyYAML's Python parser
    return text + ('out: "a\tb"\n' if draw(st.booleans()) else "")


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(spliced_yaml())
def test_main_keeps_the_exit_code_contract_on_spliced_text(text):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, time_limit(30.0):
        path = Path(tmp) / "scenario.yaml"
        path.write_text(text)
        argv = ["simulate", str(path), "--out", str(Path(tmp) / "run"), "--cycles", "1", "--step", "0.05"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
    if code == 2:
        assert err.count("\n") == 1 and err.endswith("\n") and len(err.encode()) <= 1024, err[:2000]


# The per-cell CSV writer that the table writer replaced, kept as the byte
# reference: one format(float(x), ".17g") per float cell and one join over
# every line of the file.
def _reference_fmt(x) -> str:
    return format(float(x), ".17g")


def _reference_meta(header) -> list[str]:
    return [f"# {key}={value}" for key, value in header.items()]


def _reference_trajectory_text(header, traj) -> str:
    dim = traj.shapes.shape[1]
    columns = (
        ["t", "x", "y", "theta"]
        + [f"r{k + 1}" for k in range(dim)]
        + ["xi_vx", "xi_vy", "xi_omega", "contact_set"]
    )
    lines = _reference_meta(header) + [f"# dim={dim}", ",".join(columns)]
    for k, t in enumerate(traj.times):
        cells = [_reference_fmt(t)]
        cells.extend(_reference_fmt(v) for v in traj.pose_array[:, k])
        cells.extend(_reference_fmt(v) for v in traj.shapes[k])
        cells.extend(_reference_fmt(v) for v in traj.twists[k])
        cells.append(cli._contact_str(traj.contacts[k]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _reference_field_text(header, field, curv) -> str:
    n1, n2 = field.conn.shape[:2]
    dim = field.conn.shape[3]
    columns = ["i", "j", "r1", "r2"]
    for axis in ("vx", "vy", "om"):
        columns.extend(f"A_{axis}_{k + 1}" for k in range(dim))
    columns.extend(["contact_set", "singular"])
    if curv is not None:
        columns.extend(["D_vx", "D_vy", "D_omega"])
    lines = _reference_meta(header) + [f"# counts={n1}x{n2}", f"# dim={dim}", f"# curvature={int(curv is not None)}"]
    lines.append(",".join(columns))
    for i in range(n1):
        for j in range(n2):
            cells = [str(i), str(j), _reference_fmt(field.axis1[i]), _reference_fmt(field.axis2[j])]
            cells.extend(_reference_fmt(v) for v in field.conn[i, j].reshape(-1))
            contact = field.catalog[field.contacts[i, j]] if field.contacts is not None else None
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
        pose_array=poses.T,
        shapes=_float_arrays(data, (n, dim)),
        twists=_float_arrays(data, (n, 3)),
        contacts=data.draw(st.lists(_LABELS, min_size=n, max_size=n)),
    )
    header = {"schema": 1, "command": "simulate"}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_SLAB_ROWS", data.draw(st.integers(1, 4))):
        path = Path(tmp) / "trajectory.csv"
        cli._write_trajectory(str(path), header, traj)
        assert path.read_bytes() == _reference_trajectory_text(header, traj).encode()
        got = read_trajectory(str(path))
    assert _same_floats(got["times"], traj.times)
    assert _same_floats(got["poses"], poses)
    assert _same_floats(got["shapes"], traj.shapes)
    assert _same_floats(got["twists"], traj.twists)
    assert got["contacts"] == traj.contacts


@_WRITER
@given(st.data())
def test_field_writer_matches_the_per_cell_writer(data):
    n1, n2, dim = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    labels, codes, catalog = None, np.zeros((n1, n2), dtype=int), (None,)
    if data.draw(st.booleans()):
        labels = data.draw(st.lists(_LABELS, min_size=n1 * n2, max_size=n1 * n2).filter(lambda c: any(c)))
        # a catalog in first-seen order, with one label that no node carries
        catalog = tuple(dict.fromkeys(labels + [frozenset({12})]))
        codes = np.array([catalog.index(c) for c in labels]).reshape(n1, n2)
    field = types.SimpleNamespace(
        axis1=_float_arrays(data, (n1,)),
        axis2=_float_arrays(data, (n2,)),
        conn=_float_arrays(data, (n1, n2, 3, dim)),
        contacts=codes,
        catalog=catalog,
        singular=np.array(data.draw(st.lists(st.booleans(), min_size=n1 * n2, max_size=n1 * n2))).reshape(n1, n2),
    )
    curv = types.SimpleNamespace(values=_float_arrays(data, (n1, n2, 3))) if data.draw(st.booleans()) else None
    header = {"schema": 1, "command": "sweep"}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_SLAB_ROWS", data.draw(st.integers(1, 5))):
        path = Path(tmp) / "field.csv"
        cli._write_field(str(path), header, field, curv)
        assert path.read_bytes() == _reference_field_text(header, field, curv).encode()
        got = read_field(str(path))
    assert _same_floats(got["axis1"], field.axis1)
    assert _same_floats(got["axis2"], field.axis2)
    assert _same_floats(got["conn"], field.conn)
    assert np.array_equal(got["singular"], field.singular)
    if labels is None:
        assert got["contacts"] is None
    else:
        assert got["contacts"].ravel().tolist() == labels
    if curv is None:
        assert got["curvature"] is None
    else:
        assert _same_floats(got["curvature"], curv.values)


# Bit patterns a repeated column may hold: both zeros (which a pool keyed
# by value would merge into one spelling), NaN of either sign, subnormals,
# infinities and the largest magnitudes.
_POOL_FLOATS = [math.nan, -math.nan, 5e-324, -5e-324, 2.2250738585072e-308, math.inf, -math.inf,
                1.7976931348623157e308, -1.7976931348623157e308, 1e-05, 0.1, 1e22]


def _pools(values):
    """The pool plan of each column of a (rows, k) array."""
    return [cli._pool_column(column) for column in values.T]


def _pooled_column(data, rng, n):
    """n cells drawn from -0.0, 0.0 and a few _POOL_FLOATS, or n distinct doubles."""
    if not data.draw(st.booleans()):
        return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n), False
    pool = [-0.0, 0.0] + data.draw(st.lists(st.sampled_from(_POOL_FLOATS), max_size=4))
    return np.array(pool)[rng.integers(0, len(pool), n)], True


@_WRITER
@given(st.data())
def test_field_writer_spells_repeated_columns_by_bit_pattern(data):
    # grids large enough that a column of at most six patterns is pooled
    n1, n2, dim = data.draw(st.integers(2, 12)), data.draw(st.integers(8, 40)), data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    conn, conn_pooled = zip(*(_pooled_column(data, rng, n1 * n2) for _ in range(3 * dim)))
    curv, curv_pooled = zip(*(_pooled_column(data, rng, n1 * n2) for _ in range(3)))
    field = types.SimpleNamespace(
        axis1=np.linspace(-1.0, 1.0, n1),
        axis2=np.linspace(-1.0, 1.0, n2),
        conn=np.column_stack(conn).reshape(n1, n2, 3, dim),
        contacts=np.zeros((n1, n2), dtype=int),
        catalog=(None,),
        singular=rng.random((n1, n2)) < 0.1,
    )
    curv = types.SimpleNamespace(values=np.column_stack(curv).reshape(n1, n2, 3))
    pools = _pools(field.conn.reshape(n1 * n2, 3 * dim)) + _pools(curv.values.reshape(-1, 3))
    assert [pool is not None for pool in pools] == [*conn_pooled, *curv_pooled]
    header = {"schema": 1, "command": "sweep"}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_SLAB_ROWS", data.draw(st.integers(1, 64))):
        path = Path(tmp) / "field.csv"
        cli._write_field(str(path), header, field, curv)
        assert path.read_bytes() == _reference_field_text(header, field, curv).encode()


class TestPooledField:
    """The crawler's piecewise-constant stance connections are spelled once per distinct cell."""

    def field_of(self, tmp_path, doc):
        path = write_scenario(tmp_path, doc)
        assert main(["sweep", path, "--out", str(tmp_path / "run")]) == 0
        sc = load_scenario(path)
        field = sample_field(sc.provider, sc.grid)
        return sc, field, curvature(field)

    def test_crawler_sweep_matches_the_per_cell_writer(self, tmp_path):
        # a 97 x 97 window that straddles the r1 = r2 stance boundary
        sweep = {"lo": [-1.1, -0.95], "hi": [0.9, 1.05], "counts": [97, 97], "curvature": True}
        doc = crawler_doc(sweep=sweep)
        doc["model"].update(hip_spacing=1.0, leg_length=1.0)
        sc, field, curv = self.field_of(tmp_path, doc)
        text = _reference_field_text(cli._header(sc, "sweep"), field, curv)
        assert (tmp_path / "run" / "field.csv").read_bytes() == text.encode()
        # 9 float columns of 9409 cells each, spelled from a few hundred strings
        pools = _pools(field.conn.reshape(-1, 6)) + _pools(curv.values.reshape(-1, 3))
        assert all(pool is not None for pool in pools)
        assert sum(len(spelled) for spelled, _ in pools) < 2000
        assert all(index.dtype == np.uint8 for _, index in pools)

    def test_swimmer_columns_take_the_direct_path(self, tmp_path):
        sweep = {"lo": [-1.5, -1.5], "hi": [1.5, 1.5], "counts": [41, 41], "curvature": True}
        _, field, curv = self.field_of(tmp_path, swimmer_doc(sweep=sweep))
        assert _pools(field.conn.reshape(-1, 6)) == [None] * 6
        assert _pools(curv.values.reshape(-1, 3)) == [None] * 3


def _reference_verify_text(header, rows) -> str:
    lines = _reference_meta(header) + ["suite,check,value,threshold,passed"]
    for row in rows:
        cells = [row.suite, row.check, _reference_fmt(row.value), _reference_fmt(row.threshold), str(int(row.passed))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# thresholds repeat across a suite's checks, so their column is often pooled
_THRESHOLDS = st.sampled_from([1e-8, 1e-10, 1e-12, 0.0, -0.0, math.nan])


@_WRITER
@given(st.data())
def test_verify_writer_matches_the_per_cell_writer(data):
    n = data.draw(st.integers(0, 40))
    rows = [
        VerifyCheck(data.draw(st.sampled_from(["reversal", "pacing", "continuity"])), f"check{k}",
                    data.draw(_CELL_FLOATS), data.draw(_THRESHOLDS), data.draw(st.booleans()))
        for k in range(n)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        scenario = types.SimpleNamespace(sha="0" * 64, out_dir=tmp)
        with (mock.patch.object(cli, "run_verify", lambda sc: rows),
              mock.patch.object(cli, "_SLAB_ROWS", data.draw(st.integers(1, 8))),
              contextlib.redirect_stdout(io.StringIO())):
            assert cli.cmd_verify(scenario) == int(not all(row.passed for row in rows))
        text = Path(tmp, "verify.csv").read_text()
    assert text == _reference_verify_text(cli._header(scenario, "verify"), rows)


def test_crawler_square_trajectory_pools_its_repeated_columns(tmp_path):
    # the crawler's stance twists are piecewise constant and its square gait
    # holds one shape coordinate at a time, so those columns are spelled from a pool
    path = str(SCENARIOS / "crawler_square.yaml")
    assert main(["simulate", path, "--out", str(tmp_path)]) == 0
    sc = load_scenario(path)
    traj = integrate_gait(sc.provider, sc.gait, sc.cycles, sc.step, sc.event_tol)
    text = _reference_trajectory_text(cli._header(sc, "simulate"), traj)
    assert (tmp_path / "trajectory.csv").read_bytes() == text.encode()
    pools = _pools(np.column_stack([traj.times, traj.pose_array.T, traj.shapes, traj.twists]))
    assert [pool is not None for pool in pools] == [False] * 4 + [True, False] + [True] * 3
