"""Declarative scenario files for the command-line front end.

A scenario is a small YAML mapping naming a model, a gait, integrator
settings, and per-command blocks.  Parsing is strict: unknown keys anywhere
are errors, every diagnostic carries the dotted path of the offending field,
and the fully resolved document (defaults filled in, command-line overrides
applied) is hashed so output files can state exactly what produced them.
Every library object a command needs is built and checked at load, so a
malformed scenario fails before any command runs.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np
import yaml

from .analysis import MAX_NODES, GridSpec
from .connection import ConstraintConnection, JacobianConnection
from .integrator import steps_per_cycle
from .models import (
    arm_com_pose_map,
    many_legged_drag_surrogate,
    mirrored_slip_walker,
    rotate_translate_map,
    three_link_swimmer,
    two_leg_crawler,
    wavy_pose_map,
)
from .optimizer import DIRECTIONS, FAMILIES, SLOT_KINDS, GaitFamily, amplitude_phase_family, fourier_slot_family
from .shapespace import FourierGait, WaypointGait
from .verify import _SUITES

SCHEMA_VERSION = 1

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
    gait: object
    step: float
    event_tol: float
    cycles: int
    sweep: dict | None = None
    optimize: dict | None = None
    verify: dict | None = None
    grid: GridSpec | None = None
    family: GaitFamily | None = None

    @property
    def dim(self) -> int:
        return self.provider.dim

    @property
    def constraint_builder(self) -> Callable[[np.ndarray], object] | None:
        """The provider's balance builder r -> ConstraintSystem, None for pose-map models."""
        if isinstance(self.provider, ConstraintConnection):
            return self.provider.builder
        return None

    @property
    def sha(self) -> str:
        # the output directory is delivery plumbing, not configuration:
        # the same run must hash identically wherever it lands
        doc = {k: v for k, v in self.raw.items() if k != "out"}
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


@contextlib.contextmanager
def _errors_at(path: str):
    """Report a library constructor's ValueError as a ScenarioError at path."""
    try:
        yield
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from exc


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


def _finite(value, path: str) -> float:
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(path, "must be finite")
    return value


# YAML 1.1 reads exponent notation as a number only with a dot in the mantissa
# and a sign on the exponent: 1e-9 and 1.0e9 load as strings
_YAML_EXPONENT = re.compile(r"([-+]?[0-9][0-9_]*)(\.[0-9_]*)?[eE]([-+]?)([0-9]+)")


def _yaml_hint(value) -> str:
    """How to write a string such as 1e-9 that YAML 1.1 did not read as a number, else ''."""
    m = _YAML_EXPONENT.fullmatch(value) if isinstance(value, str) else None
    if m is None:
        return ""
    spelled = f"{m[1]}{m[2] or '.0'}e{m[3] or '+'}{m[4]}"
    return f"; YAML 1.1 reads {value!r} as a string (exponents need a dot and a sign), write {spelled}"


def _as_float(block: dict, path: str, key: str, default=None, positive=False):
    value = block.get(key, default)
    if value is None:
        raise ScenarioError(f"{path}.{key}", "missing value")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}.{key}", "expected a number" + _yaml_hint(value))
    value = _finite(value, f"{path}.{key}")
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
    """Finite floats of a list of plain numbers (bools excluded), else ScenarioError at path."""
    if (
        not isinstance(value, list)
        or (length is not None and len(value) != length)
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        hints = map(_yaml_hint, value) if isinstance(value, list) else ()
        raise ScenarioError(path, message + next(filter(None, hints), ""))
    return [_finite(v, path) for v in value]


def _as_float_list(block: dict, path: str, key: str, length=None, default=None):
    value = block.get(key, default)
    if value is None:
        raise ScenarioError(f"{path}.{key}", "missing value")
    floats = _number_row(value, f"{path}.{key}", "expected a list of numbers")
    if length is not None and len(floats) != length:
        raise ScenarioError(f"{path}.{key}", f"expected {length} entries")
    return floats


def _as_interval(block: dict, path: str, key: str, default) -> list[float]:
    lo, hi = _as_float_list(block, path, key, length=2, default=default)
    if not lo < hi:
        raise ScenarioError(f"{path}.{key}", "need lower < upper")
    return [lo, hi]


def _as_int_pair(block: dict, path: str, key: str) -> list[int]:
    value = block.get(key)
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, int) for v in value)
    ):
        raise ScenarioError(f"{path}.{key}", "expected two integers")
    return [int(v) for v in value]


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


# Typed readers, each called as reader(block, path, key, resolved) where
# resolved holds the keys of its row that were read before it.
def _number(default=None, positive=False):
    return lambda block, path, key, resolved: _as_float(block, path, key, default, positive)


_positive = functools.partial(_number, positive=True)


def _integer(default=None, minimum=None):
    return lambda block, path, key, resolved: _as_int(block, path, key, default, minimum)


def _numbers(same_length_as=None):
    return lambda block, path, key, resolved: _as_float_list(
        block, path, key, length=len(resolved[same_length_as]) if same_length_as else None
    )


# A table row is (readers, factory) or (readers, factory, (key, table)).  The
# nested selector names a row of another table whose keys live in the same
# block; the object it builds is the factory's first argument.
_POSE_MAPS = {
    "rotate_translate": ({}, rotate_translate_map),
    "wavy": ({}, wavy_pose_map),
    "arm_com": ({"lengths": _numbers(), "masses": _numbers("lengths")}, arm_com_pose_map),
}

_DRAG_CHAIN = {
    "link_length": _positive(1.0),
    "drag_tangential": _positive(1.0),
    "drag_normal": _positive(2.0),
    "quadrature": _integer(8, minimum=2),
}


def _many_legged(feet: int, **chain) -> ConstraintConnection:
    """Swimmer drag chain probed through `feet` slipping point contacts per link."""
    model = three_link_swimmer(**chain)
    return ConstraintConnection(
        lambda r: many_legged_drag_surrogate(model, feet, r), model.shape_dim
    )


_MODELS = {
    "jacobian": (
        {"fd_step": _positive(1e-5)},
        lambda pose_map, fd_step: JacobianConnection(pose_map, h=fd_step),
        ("map", _POSE_MAPS),
    ),
    "swimmer": (_DRAG_CHAIN, lambda **p: three_link_swimmer(**p).provider()),
    "crawler": (
        {"hip_spacing": _positive(1.0), "leg_length": _positive(1.0)},
        lambda **p: two_leg_crawler(**p).provider(),
    ),
    "slip_walker": (
        {
            "hip_offset": _number(0.3),
            "half_width": _positive(0.4),
            "leg_length": _positive(1.0),
            "slip_tangential": _positive(1.0),
            "slip_normal": _positive(3.0),
            "slip_yaw": _positive(0.5),
        },
        lambda **p: mirrored_slip_walker(**p).provider(),
    ),
    "many_legged": ({"feet": _integer(minimum=2), **_DRAG_CHAIN}, _many_legged),
}

MODEL_KINDS = tuple(_MODELS)


def _read_row(block: dict, path: str, key: str, table: dict):
    """(resolved keys, built object) of the row that block[key] names in table."""
    name = block.get(key)
    if not isinstance(name, str) or name not in table:
        raise ScenarioError(f"{path}.{key}", f"expected one of {tuple(table)}")
    readers, factory, *nested = table[name]
    resolved, args = {key: name}, []
    for selector in nested:
        sub, built = _read_row(block, path, *selector)
        resolved.update(sub)
        args.append(built)
    for k, read in readers.items():
        resolved[k] = read(block, path, k, resolved)
    with _errors_at(path):
        return resolved, factory(*args, **{k: resolved[k] for k in readers})


def _build_gait(block: dict, dim: int):
    path = "gait"
    _expect_mapping(block, path)
    kind = block.get("kind")
    if kind not in GAIT_KINDS:
        raise ScenarioError(f"{path}.kind", f"expected one of {GAIT_KINDS}")

    if kind == "fourier":
        _check_keys(block, path, ("kind", "period", "mean", "cos", "sin"), ("mean",))
        period = _as_float(block, path, "period", 1.0, positive=True)
        mean = _as_float_list(block, path, "mean", length=dim)
        cos = _as_matrix(block, path, "cos", len(mean))
        sin = _as_matrix(block, path, "sin", len(mean))
        resolved = {"kind": kind, "period": period, "mean": mean}
        if cos is not None:
            resolved["cos"] = cos
        if sin is not None:
            resolved["sin"] = sin
        with _errors_at(path):
            return resolved, FourierGait(period, mean, cos=cos, sin=sin)

    _check_keys(block, path, ("kind", "points", "times"), ("points", "times"))
    points = block.get("points")
    if not isinstance(points, list) or not points:
        raise ScenarioError(f"{path}.points", "expected a non-empty list of shapes")
    pts = [
        _number_row(row, f"{path}.points[{idx}]", f"expected a shape with {dim} coordinates", dim)
        for idx, row in enumerate(points)
    ]
    times = _as_float_list(block, path, "times", length=len(pts) + 1)
    with _errors_at(path):
        return {"kind": kind, "points": pts, "times": times}, WaypointGait(points=pts, times=times)


def _build_sweep(block: dict, dim: int):
    """Return (resolved_block, GridSpec)."""
    path = "sweep"
    _expect_mapping(block, path)
    _check_keys(
        block, path, ("lo", "hi", "counts", "axes", "base", "curvature"), ("lo", "hi", "counts")
    )
    lo = _as_float_list(block, path, "lo", length=2)
    hi = _as_float_list(block, path, "hi", length=2)
    if not (lo[0] < hi[0] and lo[1] < hi[1]):
        raise ScenarioError(f"{path}.hi", "must exceed sweep.lo on both axes")
    counts = _as_int_pair(block, path, "counts")
    if min(counts) < 2:
        raise ScenarioError(f"{path}.counts", "need at least 2 nodes per axis")
    if counts[0] * counts[1] > MAX_NODES:
        raise ScenarioError(f"{path}.counts", f"{counts[0]} x {counts[1]} nodes exceed {MAX_NODES}")
    resolved = {"lo": lo, "hi": hi, "counts": counts}
    axes = [0, 1]
    if block.get("axes") is not None:
        axes = resolved["axes"] = _as_int_pair(block, path, "axes")
    if axes[0] == axes[1] or not all(0 <= a < dim for a in axes):
        raise ScenarioError(
            f"{path}.axes", f"expected two different model coordinates in 0..{dim - 1}"
        )
    base = None
    if block.get("base") is not None:
        base = resolved["base"] = _as_float_list(block, path, "base", length=dim)
    curvature = block.get("curvature", False)
    if not isinstance(curvature, bool):
        raise ScenarioError(f"{path}.curvature", "expected true or false")
    resolved["curvature"] = curvature
    with _errors_at(path):
        grid = GridSpec(
            lo=tuple(lo),
            hi=tuple(hi),
            counts=tuple(counts),
            axes=tuple(axes),
            base=None if base is None else tuple(base),
        )
    return resolved, grid


def _build_optimize(block: dict, gait_block: dict):
    path = "optimize"
    _expect_mapping(block, path)
    family = block.get("family")
    if family not in FAMILIES:
        raise ScenarioError(f"{path}.family", f"expected one of {FAMILIES}")
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
        return {
            "family": family,
            "direction": direction,
            "budget": budget,
            "restarts": restarts,
            "period": _as_float(block, path, "period", 1.0, positive=True),
            "amplitude": _as_interval(block, path, "amplitude", [0.1, 1.2]),
            "phase": _as_interval(block, path, "phase", [-float(np.pi), float(np.pi)]),
        }

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
        if not isinstance(slot, list) or not slot or slot[0] not in SLOT_KINDS:
            raise ScenarioError(
                f"{path}.slots[{idx}]",
                f"expected [kind, indices...] with kind {'|'.join(SLOT_KINDS)}",
            )
        want = 2 if slot[0] == "mean" else 3
        if len(slot) != want or any(
            isinstance(v, bool) or not isinstance(v, int) for v in slot[1:]
        ):
            raise ScenarioError(f"{path}.slots[{idx}]", f"expected {want} entries")
        slots.append([slot[0]] + [int(v) for v in slot[1:]])
    lower = _as_float_list(block, path, "lower", length=len(slots))
    upper = _as_float_list(block, path, "upper", length=len(slots))
    if not all(lo < hi for lo, hi in zip(lower, upper)):
        raise ScenarioError(f"{path}.upper", "need lower < upper in every slot")
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
    # command-line flags replace the fields they name before validation
    flags = {k: v for k, v in (overrides or {}).items() if v is not None}
    doc = {**doc, **{k: flags[k] for k in ("seed", "out") if k in flags}}

    schema = doc.get("schema", SCHEMA_VERSION)
    # True == 1 and 1.0 == 1 in Python; only the integer names a version
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ScenarioError("schema", f"unsupported schema version {schema!r}")
    seed = _as_int(doc, "<root>", "seed", default=0, minimum=0)
    out_dir = doc.get("out", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ScenarioError("out", "expected a non-empty string")

    model = _expect_mapping(doc.get("model"), "model")
    model_block, provider = _read_row(model, "model", "kind", _MODELS)
    # a row resolves every key it reads, so its resolved keys are the allowed ones
    _check_keys(model, "model", model_block)
    gait_block, gait = _build_gait(doc.get("gait"), provider.dim)

    integ = _expect_mapping(doc.get("integrator", {}), "integrator")
    _check_keys(integ, "integrator", ("step", "event_tol", "cycles"))
    integ = {**integ, **{k: flags[k] for k in ("step", "cycles") if k in flags}}
    step = _as_float(integ, "integrator", "step", 1e-2, positive=True)
    event_tol = _as_float(integ, "integrator", "event_tol", 1e-10, positive=True)
    cycles = _as_int(integ, "integrator", "cycles", 1, minimum=1)
    _check_time_axis(gait.period, step, event_tol, cycles)

    resolved = {
        "schema": SCHEMA_VERSION,
        "seed": seed,
        "out": out_dir,
        "model": model_block,
        "gait": gait_block,
        "integrator": {"step": step, "event_tol": event_tol, "cycles": cycles},
    }
    scenario = Scenario(
        raw=resolved,
        seed=seed,
        out_dir=out_dir,
        model_kind=model_block["kind"],
        provider=provider,
        gait=gait,
        step=step,
        event_tol=event_tol,
        cycles=cycles,
    )

    if "sweep" in doc:
        scenario.sweep, scenario.grid = _build_sweep(doc["sweep"], provider.dim)
        resolved["sweep"] = scenario.sweep
    if "optimize" in doc:
        scenario.optimize = resolved["optimize"] = _build_optimize(doc["optimize"], gait_block)
        _check_time_axis(scenario.optimize.get("period", gait.period), step, event_tol, cycles)
        # bounds are checked above, so only a slot can still be rejected
        with _errors_at("optimize.slots"):
            scenario.family = build_family(scenario)
        simplex = scenario.family.n_params + 1
        if scenario.optimize["budget"] < simplex:
            raise ScenarioError("optimize.budget", f"must be at least {simplex}, one simplex")
    if "verify" in doc:
        has_constraints = isinstance(provider, ConstraintConnection)
        scenario.verify = resolved["verify"] = _build_verify(doc["verify"], has_constraints)
    return scenario


def _check_time_axis(period: float, step: float, event_tol: float, cycles: int) -> None:
    """Reject a run past MAX_STEPS, or an event tolerance below the float spacing at its end time."""
    with _errors_at("integrator.step"):
        steps_per_cycle(period, step, cycles)
    spacing = math.ulp(period * cycles)
    if event_tol < spacing:
        raise ScenarioError(
            "integrator.event_tol",
            f"{event_tol!r} is below the float spacing {spacing!r} at t = {period * cycles!r}"
            " (period times cycles); a switch time cannot be located that finely",
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
