"""Declarative scenario files for the command-line front end.

A scenario is a small YAML mapping naming a model, a gait, integrator
settings, and per-command blocks.  Parsing is strict: unknown keys anywhere
are errors, every diagnostic carries the dotted path of the offending field,
and the fully resolved document (defaults filled in, command-line overrides
applied) is hashed so output files can state exactly what produced them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np
import yaml

from .connection import ConstraintConnection, JacobianConnection, PiecewiseConnection
from .models import (
    arm_com_pose_map,
    build_drag_constraints,
    build_slip_constraints,
    many_legged_drag_surrogate,
    mirrored_slip_walker,
    rotate_translate_map,
    three_link_swimmer,
    two_leg_crawler,
    wavy_pose_map,
)
from .optimizer import DIRECTIONS, amplitude_phase_family, fourier_slot_family
from .shapespace import FourierGait, WaypointGait
from .verify import _SUITES

SCHEMA_VERSION = 1

MODEL_KINDS = ("jacobian", "swimmer", "crawler", "slip_walker", "many_legged")
GAIT_KINDS = ("fourier", "waypoint")
VERIFY_SUITES = tuple(_SUITES)


class ScenarioError(Exception):
    """Validation failure with the dotted path of the offending field."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


@dataclass
class Scenario:
    raw: dict
    seed: int
    out_dir: str
    model_kind: str
    provider: object
    constraint_builder: Callable[[np.ndarray], object] | None
    gait: object
    step: float
    event_tol: float
    cycles: int
    sweep: dict | None = None
    optimize: dict | None = None
    verify: dict | None = None

    @property
    def dim(self) -> int:
        return self.provider.dim

    @property
    def sha(self) -> str:
        # the output directory is delivery plumbing, not configuration:
        # the same run must hash identically wherever it lands
        doc = {k: v for k, v in self.raw.items() if k != "out"}
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(path, "expected a mapping")
    return value


def _check_keys(block: dict, path: str, allowed, required=()) -> None:
    for key in block:
        if key not in allowed:
            raise ScenarioError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in block:
            raise ScenarioError(path, f"missing required key {key!r}")


def _as_float(block: dict, path: str, key: str, default=None, positive=False):
    value = block.get(key, default)
    if value is None:
        raise ScenarioError(f"{path}.{key}", "missing value")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}.{key}", "expected a number")
    value = float(value)
    if not np.isfinite(value):
        raise ScenarioError(f"{path}.{key}", "must be finite")
    if positive and value <= 0.0:
        raise ScenarioError(f"{path}.{key}", "must be positive")
    return value


def _as_int(block: dict, path: str, key: str, default=None, minimum=None):
    value = block.get(key, default)
    if value is None:
        raise ScenarioError(f"{path}.{key}", "missing value")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}.{key}", "expected an integer")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{path}.{key}", f"must be at least {minimum}")
    return int(value)


def _number_row(value, path: str, message: str, length=None) -> list[float]:
    """Floats of a list of plain numbers (bools excluded), else ScenarioError(path, message)."""
    if (
        not isinstance(value, list)
        or (length is not None and len(value) != length)
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        raise ScenarioError(path, message)
    return [float(v) for v in value]


def _as_float_list(block: dict, path: str, key: str, length=None, default=None):
    value = block.get(key, default)
    if value is None:
        raise ScenarioError(f"{path}.{key}", "missing value")
    floats = _number_row(value, f"{path}.{key}", "expected a list of numbers")
    if length is not None and len(floats) != length:
        raise ScenarioError(f"{path}.{key}", f"expected {length} entries")
    return floats


def _as_matrix(block: dict, path: str, key: str, width: int):
    value = block.get(key)
    if value is None:
        return None
    if not isinstance(value, list):
        raise ScenarioError(f"{path}.{key}", "expected a list of rows")
    return [
        _number_row(row, f"{path}.{key}[{idx}]", f"expected a row of {width} numbers", width)
        for idx, row in enumerate(value)
    ]


def _build_model(block: dict):
    """Return (resolved_block, provider, constraint_builder)."""
    path = "model"
    _expect_mapping(block, path)
    kind = block.get("kind")
    if kind not in MODEL_KINDS:
        raise ScenarioError(f"{path}.kind", f"expected one of {MODEL_KINDS}")

    if kind == "jacobian":
        _check_keys(block, path, ("kind", "map", "lengths", "masses", "fd_step"), ("map",))
        name = block.get("map")
        fd_step = _as_float(block, path, "fd_step", default=1e-5, positive=True)
        resolved = {"kind": kind, "map": name, "fd_step": fd_step}
        if name == "rotate_translate":
            pose_map = rotate_translate_map()
        elif name == "wavy":
            pose_map = wavy_pose_map()
        elif name == "arm_com":
            lengths = _as_float_list(block, path, "lengths")
            masses = _as_float_list(block, path, "masses", length=len(lengths))
            resolved["lengths"] = lengths
            resolved["masses"] = masses
            try:
                pose_map = arm_com_pose_map(lengths, masses)
            except ValueError as exc:
                raise ScenarioError(path, str(exc)) from exc
        else:
            raise ScenarioError(
                f"{path}.map", "expected one of ('rotate_translate', 'wavy', 'arm_com')"
            )
        return resolved, JacobianConnection(pose_map, h=fd_step), None

    if kind == "swimmer":
        _check_keys(
            block,
            path,
            ("kind", "link_length", "drag_tangential", "drag_normal", "quadrature"),
        )
        params = {
            "link_length": _as_float(block, path, "link_length", 1.0, positive=True),
            "drag_tangential": _as_float(
                block, path, "drag_tangential", 1.0, positive=True
            ),
            "drag_normal": _as_float(block, path, "drag_normal", 2.0, positive=True),
            "quadrature": _as_int(block, path, "quadrature", 8, minimum=1),
        }
        try:
            model = three_link_swimmer(**params)
        except ValueError as exc:
            raise ScenarioError(path, str(exc)) from exc
        builder = lambda r: build_drag_constraints(model, r)
        return {"kind": kind, **params}, model.provider(), builder

    if kind == "crawler":
        _check_keys(block, path, ("kind", "hip_spacing", "leg_length"))
        params = {
            "hip_spacing": _as_float(block, path, "hip_spacing", 1.0, positive=True),
            "leg_length": _as_float(block, path, "leg_length", 1.0, positive=True),
        }
        try:
            model = two_leg_crawler(**params)
        except ValueError as exc:
            raise ScenarioError(path, str(exc)) from exc
        return {"kind": kind, **params}, model.provider(), None

    if kind == "slip_walker":
        _check_keys(
            block,
            path,
            (
                "kind",
                "hip_offset",
                "half_width",
                "leg_length",
                "slip_tangential",
                "slip_normal",
                "slip_yaw",
            ),
        )
        params = {
            "hip_offset": _as_float(block, path, "hip_offset", 0.3),
            "half_width": _as_float(block, path, "half_width", 0.4, positive=True),
            "leg_length": _as_float(block, path, "leg_length", 1.0, positive=True),
            "slip_tangential": _as_float(
                block, path, "slip_tangential", 1.0, positive=True
            ),
            "slip_normal": _as_float(block, path, "slip_normal", 3.0, positive=True),
            "slip_yaw": _as_float(block, path, "slip_yaw", 0.5, positive=True),
        }
        try:
            model = mirrored_slip_walker(**params)
        except ValueError as exc:
            raise ScenarioError(path, str(exc)) from exc
        contacts = model.geometry.fixed_contacts
        builder = lambda r: build_slip_constraints(model, contacts, r)
        return {"kind": kind, **params}, model.provider(), builder

    # many_legged: drag chain probed through the m-footed surrogate
    _check_keys(
        block,
        path,
        ("kind", "feet", "link_length", "drag_tangential", "drag_normal", "quadrature"),
    )
    feet = _as_int(block, path, "feet", minimum=2)
    params = {
        "link_length": _as_float(block, path, "link_length", 1.0, positive=True),
        "drag_tangential": _as_float(block, path, "drag_tangential", 1.0, positive=True),
        "drag_normal": _as_float(block, path, "drag_normal", 2.0, positive=True),
        "quadrature": _as_int(block, path, "quadrature", 8, minimum=1),
    }
    try:
        model = three_link_swimmer(**params)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from exc
    builder = lambda r: many_legged_drag_surrogate(model, feet, r)
    provider = ConstraintConnection(builder, dim=2)
    return {"kind": kind, "feet": feet, **params}, provider, builder


def _build_gait(block: dict, dim: int):
    path = "gait"
    _expect_mapping(block, path)
    kind = block.get("kind")
    if kind not in GAIT_KINDS:
        raise ScenarioError(f"{path}.kind", f"expected one of {GAIT_KINDS}")

    if kind == "fourier":
        _check_keys(block, path, ("kind", "period", "mean", "cos", "sin"), ("mean",))
        period = _as_float(block, path, "period", 1.0, positive=True)
        mean = _as_float_list(block, path, "mean")
        if len(mean) != dim:
            raise ScenarioError(
                f"{path}.mean", f"gait dimension {len(mean)} != model dimension {dim}"
            )
        cos = _as_matrix(block, path, "cos", len(mean))
        sin = _as_matrix(block, path, "sin", len(mean))
        resolved = {"kind": kind, "period": period, "mean": mean}
        if cos is not None:
            resolved["cos"] = cos
        if sin is not None:
            resolved["sin"] = sin
        try:
            gait = FourierGait(period, mean, cos=cos, sin=sin)
        except ValueError as exc:
            raise ScenarioError(path, str(exc)) from exc
        return resolved, gait

    _check_keys(block, path, ("kind", "points", "times"), ("points", "times"))
    points = block.get("points")
    if not isinstance(points, list) or not points:
        raise ScenarioError(f"{path}.points", "expected a non-empty list of shapes")
    pts = [
        _number_row(row, f"{path}.points[{idx}]", f"expected a shape with {dim} coordinates", dim)
        for idx, row in enumerate(points)
    ]
    times = _as_float_list(block, path, "times", length=len(pts) + 1)
    try:
        gait = WaypointGait(points=pts, times=times)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from exc
    return {"kind": kind, "points": pts, "times": times}, gait


def _build_sweep(block: dict, dim: int):
    path = "sweep"
    _expect_mapping(block, path)
    _check_keys(
        block, path, ("lo", "hi", "counts", "axes", "base", "curvature"), ("lo", "hi", "counts")
    )
    lo = _as_float_list(block, path, "lo", length=2)
    hi = _as_float_list(block, path, "hi", length=2)
    counts_raw = block.get("counts")
    if (
        not isinstance(counts_raw, list)
        or len(counts_raw) != 2
        or any(isinstance(v, bool) or not isinstance(v, int) for v in counts_raw)
    ):
        raise ScenarioError(f"{path}.counts", "expected two integers")
    counts = [int(v) for v in counts_raw]
    resolved = {"lo": lo, "hi": hi, "counts": counts}
    axes = block.get("axes")
    if axes is not None:
        if (
            not isinstance(axes, list)
            or len(axes) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in axes)
        ):
            raise ScenarioError(f"{path}.axes", "expected two integers")
        resolved["axes"] = [int(v) for v in axes]
    if block.get("base") is not None:
        resolved["base"] = _as_float_list(block, path, "base", length=dim)
    curvature = block.get("curvature", False)
    if not isinstance(curvature, bool):
        raise ScenarioError(f"{path}.curvature", "expected true or false")
    resolved["curvature"] = curvature
    return resolved


def _build_optimize(block: dict, gait_block: dict):
    path = "optimize"
    _expect_mapping(block, path)
    family = block.get("family")
    if family not in ("amplitude_phase", "fourier_slots"):
        raise ScenarioError(
            f"{path}.family", "expected one of ('amplitude_phase', 'fourier_slots')"
        )
    direction = block.get("direction", "x")
    if direction not in DIRECTIONS:
        raise ScenarioError(f"{path}.direction", f"expected one of {DIRECTIONS}")
    budget = _as_int(block, path, "budget", 500, minimum=2)
    restarts = _as_int(block, path, "restarts", 4, minimum=1)

    if family == "amplitude_phase":
        _check_keys(
            block,
            path,
            ("family", "direction", "budget", "restarts", "period", "amplitude", "phase"),
        )
        resolved = {
            "family": family,
            "direction": direction,
            "budget": budget,
            "restarts": restarts,
            "period": _as_float(block, path, "period", 1.0, positive=True),
            "amplitude": _as_float_list(block, path, "amplitude", 2, default=[0.1, 1.2]),
            "phase": _as_float_list(
                block, path, "phase", 2, default=[-float(np.pi), float(np.pi)]
            ),
        }
        return resolved

    _check_keys(
        block, path, ("family", "direction", "budget", "restarts", "slots", "lower", "upper"),
        ("slots", "lower", "upper"),
    )
    if gait_block.get("kind") != "fourier":
        raise ScenarioError(path, "fourier_slots requires a fourier gait template")
    slots_raw = block.get("slots")
    if not isinstance(slots_raw, list) or not slots_raw:
        raise ScenarioError(f"{path}.slots", "expected a non-empty list of slots")
    slots = []
    for idx, slot in enumerate(slots_raw):
        if not isinstance(slot, list) or not slot or slot[0] not in ("mean", "cos", "sin"):
            raise ScenarioError(
                f"{path}.slots[{idx}]",
                "expected [kind, indices...] with kind mean|cos|sin",
            )
        want = 2 if slot[0] == "mean" else 3
        if len(slot) != want or any(
            isinstance(v, bool) or not isinstance(v, int) for v in slot[1:]
        ):
            raise ScenarioError(f"{path}.slots[{idx}]", f"expected {want} entries")
        slots.append([slot[0]] + [int(v) for v in slot[1:]])
    lower = _as_float_list(block, path, "lower", length=len(slots))
    upper = _as_float_list(block, path, "upper", length=len(slots))
    return {
        "family": family,
        "direction": direction,
        "budget": budget,
        "restarts": restarts,
        "slots": slots,
        "lower": lower,
        "upper": upper,
    }


def _build_verify(block: dict, has_constraints: bool):
    path = "verify"
    _expect_mapping(block, path)
    _check_keys(block, path, ("suites", "shapes", "box"), ("suites",))
    suites_raw = block.get("suites")
    if not isinstance(suites_raw, list) or not suites_raw:
        raise ScenarioError(f"{path}.suites", "expected a non-empty list")
    suites = []
    for name in suites_raw:
        if name not in VERIFY_SUITES:
            raise ScenarioError(f"{path}.suites", f"unknown suite {name!r}")
        if name == "residual" and not has_constraints:
            raise ScenarioError(
                f"{path}.suites",
                "residual suite needs a constraint-based model",
            )
        suites.append(name)
    return {
        "suites": suites,
        "shapes": _as_int(block, path, "shapes", 100, minimum=1),
        "box": _as_float(block, path, "box", 1.2, positive=True),
    }


def load_scenario(source, overrides: dict | None = None) -> Scenario:
    """Parse, validate, and resolve a scenario.

    source may be a path to a YAML file or an already-parsed mapping.
    overrides carries command-line flag values (step, cycles, seed, out)
    that replace the corresponding scenario fields before hashing.
    """
    if isinstance(source, dict):
        doc = source
    else:
        try:
            with open(source, "r") as handle:
                doc = yaml.safe_load(handle)
        except OSError as exc:
            raise ScenarioError("<file>", str(exc)) from exc
        except yaml.YAMLError as exc:
            raise ScenarioError("<file>", f"not parseable as YAML: {exc}") from exc
    doc = _expect_mapping(doc, "<root>")
    _check_keys(
        doc,
        "<root>",
        ("schema", "seed", "out", "model", "gait", "integrator", "sweep", "optimize", "verify"),
        ("model", "gait"),
    )
    overrides = dict(overrides or {})

    schema = doc.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ScenarioError("schema", f"unsupported schema version {schema!r}")

    seed = _as_int(doc, "<root>", "seed", default=0, minimum=0)
    if overrides.get("seed") is not None:
        seed = int(overrides["seed"])
        if seed < 0:
            raise ScenarioError("seed", "must be at least 0")

    out_dir = doc.get("out", "out")
    if overrides.get("out") is not None:
        out_dir = overrides["out"]
    if not isinstance(out_dir, str) or not out_dir:
        raise ScenarioError("out", "expected a non-empty string")

    model_block, provider, constraint_builder = _build_model(doc.get("model"))
    gait_block, gait = _build_gait(doc.get("gait"), provider.dim)

    integ = doc.get("integrator", {})
    _expect_mapping(integ, "integrator")
    _check_keys(integ, "integrator", ("step", "event_tol", "cycles"))
    step = _as_float(integ, "integrator", "step", 1e-2, positive=True)
    if overrides.get("step") is not None:
        step = float(overrides["step"])
        if not (np.isfinite(step) and step > 0.0):
            raise ScenarioError("integrator.step", "must be positive")
    event_tol = _as_float(integ, "integrator", "event_tol", 1e-10, positive=True)
    cycles = _as_int(integ, "integrator", "cycles", 1, minimum=1)
    if overrides.get("cycles") is not None:
        cycles = int(overrides["cycles"])
        if cycles < 1:
            raise ScenarioError("integrator.cycles", "must be at least 1")

    resolved = {
        "schema": SCHEMA_VERSION,
        "seed": seed,
        "out": out_dir,
        "model": model_block,
        "gait": gait_block,
        "integrator": {"step": step, "event_tol": event_tol, "cycles": cycles},
    }

    sweep = optimize = verify = None
    if "sweep" in doc:
        sweep = _build_sweep(doc["sweep"], provider.dim)
        resolved["sweep"] = sweep
    if "optimize" in doc:
        optimize = _build_optimize(doc["optimize"], gait_block)
        resolved["optimize"] = optimize
    if "verify" in doc:
        verify = _build_verify(doc["verify"], constraint_builder is not None)
        resolved["verify"] = verify

    return Scenario(
        raw=resolved,
        seed=seed,
        out_dir=out_dir,
        model_kind=model_block["kind"],
        provider=provider,
        constraint_builder=constraint_builder,
        gait=gait,
        step=step,
        event_tol=event_tol,
        cycles=cycles,
        sweep=sweep,
        optimize=optimize,
        verify=verify,
    )


def build_family(scenario: Scenario):
    """Materialize the optimize block's gait family."""
    block = scenario.optimize
    if block is None:
        raise ScenarioError("optimize", "scenario has no optimize block")
    if block["family"] == "amplitude_phase":
        return amplitude_phase_family(
            period=block["period"],
            amplitude_bounds=tuple(block["amplitude"]),
            phase_bounds=tuple(block["phase"]),
        )
    slots = [tuple(s) for s in block["slots"]]
    return fourier_slot_family(
        scenario.gait, slots=slots, lower=block["lower"], upper=block["upper"]
    )
