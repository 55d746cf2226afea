"""Declarative scenario files for the command-line front end.

A scenario is a small YAML mapping naming a model, a gait, integrator
settings, and per-command blocks.  Every block is one row of a parameter
table (a block with a kind names its row): the row's readers fill in each
key's default and check it, and its factory builds the block's library
object, so every object a command needs is built and checked at load.
Parsing is strict: a block may hold only the keys its row reads, every
diagnostic carries the dotted path of the offending field, and the fully
resolved document (defaults filled in, command-line overrides applied) is
hashed so output files can state exactly what produced them.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import hashlib
import json
import math
import re
import reprlib
import sys
from typing import TYPE_CHECKING, Callable

import numpy as np
import yaml

from ._record import Record
from .connection import MAX_NODES, ConstraintConnection, JacobianConnection
from .integrator import MAX_STEPS, steps_per_cycle
from .models import (
    arm_com_pose_map,
    many_legged_drag_surrogate,
    mirrored_slip_walker,
    rotate_translate_map,
    three_link_swimmer,
    two_leg_crawler,
    wavy_pose_map,
)
from .shapespace import FourierGait, WaypointGait

if TYPE_CHECKING:
    from .analysis import GridSpec
    from .optimizer import GaitFamily

SCHEMA_VERSION = 1


class ScenarioError(Exception):
    """Validation failure with the dotted path of the offending field."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class Scenario(Record):
    def __init__(self, raw: dict, seed: int, out_dir: str, provider: object, gait: object, step: float,
                 event_tol: float, cycles: int, sweep: dict | None = None, optimize: dict | None = None,
                 verify: dict | None = None, grid: GridSpec | None = None, family: GaitFamily | None = None) -> None:
        self.raw = raw
        self.seed = seed
        self.out_dir = out_dir
        self.provider = provider
        self.gait = gait
        self.step = step
        self.event_tol = event_tol
        self.cycles = cycles
        self.sweep = sweep
        self.optimize = optimize
        self.verify = verify
        self.grid = grid
        self.family = family

    @property
    def dim(self) -> int:
        return self.provider.dim

    @property
    def constraint_builder(self) -> Callable[[np.ndarray], object] | None:
        """The provider's balance builder r -> ConstraintSystem, None for pose-map and contact models."""
        return self.provider.builder

    def block(self, name: str) -> dict:
        """The resolved block a command needs; ScenarioError at name if the scenario has none."""
        resolved = getattr(self, name)
        if resolved is None:
            raise ScenarioError(name, f"scenario has no {name} block")
        return resolved

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


# quotes a value in a message: at most three entries of a list or mapping, two
# levels deep and 30 characters a leaf, without building its whole repr
_QUOTE = reprlib.Repr()
_QUOTE.maxlevel = 2
_QUOTE.maxlist = _QUOTE.maxtuple = _QUOTE.maxdict = _QUOTE.maxset = 3
_QUOTE.maxlong = 30


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


def _floats(value, path: str, length=None) -> list[float]:
    """Finite floats of a list of length plain numbers (bools excluded), else ScenarioError at path."""
    if not isinstance(value, list) or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value):
        raise ScenarioError(path, "expected a list of numbers")
    if length is not None and len(value) != length:
        raise ScenarioError(path, f"expected {length} entries")
    return [_finite(v, path) for v in value]


# A reader is called as read(block, path, key, seen), where seen holds the
# keys of its row read before it and, by block name, the objects built by the
# blocks read before its block.  It returns the key's resolved value, or None
# for an absent optional key.
def _reader(convert, default=None):
    """Reader of block[key], else default, through convert(value, path.key, seen)."""

    def read(block, path, key, seen):
        value = block.get(key, default)
        if value is None:
            raise ScenarioError(f"{path}.{key}", "missing value")
        return convert(value, f"{path}.{key}", seen)

    return read


def _optional(read):
    """read, for a key that may be absent (or null) and then resolves to None."""
    return lambda block, path, key, seen: None if block.get(key) is None else read(block, path, key, seen)


def _choice(names, default=None):
    def read(block, path, key, seen):
        value = block.get(key, default)
        if not isinstance(value, str) or value not in names:
            raise ScenarioError(f"{path}.{key}", f"expected one of {tuple(names)}")
        return value

    return read


def _number(default=None, positive=False, maximum=None):
    def convert(value, where, seen):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(where, "expected a number")
        value = _finite(value, where)
        if positive and value <= 0.0:
            raise ScenarioError(where, "must be positive")
        if maximum is not None and value > maximum:
            raise ScenarioError(where, f"must be at most {maximum!r}")
        return value

    return _reader(convert, default)


_positive = functools.partial(_number, positive=True)


def _integer(default=None, minimum=None, maximum=None):
    def convert(value, where, seen):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(where, "expected an integer")
        if minimum is not None and value < minimum:
            raise ScenarioError(where, f"must be at least {minimum}")
        if maximum is not None and value > maximum:
            raise ScenarioError(where, f"must be at most {maximum}")
        return int(value)

    return _reader(convert, default)


def _numbers(length=None, default=None, most=None):
    """Reader of a list of numbers; length is a count, or a function of seen, and most bounds any other length."""
    count = length if callable(length) else lambda seen: length

    def convert(value, where, seen):
        if most is not None and isinstance(value, list) and len(value) > most:
            raise ScenarioError(where, f"expected at most {most} entries")
        return _floats(value, where, count(seen))

    return _reader(convert, default)


def _interval(default):
    def convert(value, where, seen):
        lo, hi = _floats(value, where, 2)
        if not lo < hi:
            raise ScenarioError(where, "need lower < upper")
        return [lo, hi]

    return _reader(convert, default)


def _rows(width, what: str, nonempty=False, most=None):
    """Reader of a list of at most `most` rows (what, in messages) of width(seen) numbers each, row i at path.key[i]."""

    def convert(value, where, seen):
        if not isinstance(value, list) or (nonempty and not value):
            raise ScenarioError(where, f"expected a {'non-empty ' if nonempty else ''}list of {what}")
        if most is not None and len(value) > most:
            raise ScenarioError(where, f"expected at most {most} {what}")
        return [_floats(row, f"{where}[{i}]", width(seen)) for i, row in enumerate(value)]

    return _reader(convert)


def _int_pair(value, where, seen) -> list[int]:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, int) for v in value)
    ):
        raise ScenarioError(where, "expected two integers")
    return [int(v) for v in value]


def _dim(seen) -> int:
    return seen["model"].dim


# A table row is (readers, factory, *inputs).  An input is the name of a block
# read before, whose built object it passes, or a (key, table) selector:
# block[key] names a row of table whose keys live in the same block and are
# read first.  The factory takes the inputs' objects in order, then the
# readers' values by key.  A block with a kind is itself a selector.
_POSE_MAPS = {
    "rotate_translate": ({}, rotate_translate_map),
    "wavy": ({}, wavy_pose_map),
    "arm_com": (
        # a run of MAX_STEPS steps holds about 0.25 + 0.17 d KB a step at d links: verify (all three
        # suites) peaked at 0.67, 1.0 and 1.7 GB RSS at d = 2, 4 and 8, so 64 links would need about
        # 12 GB.  A sweep of MAX_NODES nodes peaked at 0.17, 0.26 and 0.47 GB
        {"lengths": _numbers(most=4), "masses": _numbers(lambda seen: len(seen["lengths"]))},
        arm_com_pose_map,
    ),
}

_DRAG_CHAIN = {
    "link_length": _positive(1.0),
    "drag_tangential": _positive(1.0),
    "drag_normal": _positive(2.0),
    # a q-point rule solves a q x q eigenproblem; numpy's leggauss, which the
    # rule reproduces, is tested to q = 100
    "quadrature": _integer(8, minimum=2, maximum=100),
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
    # a 256-row block of the balance peaks near 48 bytes per foot (4.9 MB at 100,000 feet); at
    # 10,000 it stays under a megabyte, far past the 64 feet that come within 1e-3 of the drag integral
    "many_legged": ({"feet": _integer(minimum=2, maximum=10_000), **_DRAG_CHAIN}, _many_legged),
}

# sampling holds about 25 bytes per time and harmonic row at d = 2 (tracemalloc, 10 to 1000 rows
# over 2001 times), and a step samples two times: 100 rows add about 5 KB a step
_harmonics = _optional(_rows(lambda seen: len(seen["mean"]), "rows", most=100))

_GAITS = {
    "fourier": (
        {"period": _positive(1.0), "mean": _numbers(_dim), "cos": _harmonics, "sin": _harmonics},
        FourierGait,
    ),
    "waypoint": (
        {
            "points": _rows(_dim, "shapes", nonempty=True),
            "times": _numbers(lambda seen: len(seen["points"]) + 1),
        },
        WaypointGait,
    ),
}


def _check_time_axis(period: float, step: float, event_tol: float, cycles: int) -> dict:
    """A run's settings, once it fits MAX_STEPS at period and event_tol is at least the float spacing at its end."""
    with _errors_at("integrator.step"):
        steps_per_cycle(period, step, cycles)
    spacing = math.ulp(period * cycles)
    if event_tol < spacing:
        raise ScenarioError(
            "integrator.event_tol",
            f"{event_tol!r} is below the float spacing {spacing!r} at t = {period * cycles!r}"
            " (period times cycles); a switch time cannot be located that finely",
        )
    return {"step": step, "event_tol": event_tol, "cycles": cycles}


_INTEGRATOR = (
    # a cycle takes a step at least, so more than MAX_STEPS cycles can never run
    {"step": _positive(1e-2), "event_tol": _positive(1e-10), "cycles": _integer(1, minimum=1, maximum=MAX_STEPS)},
    lambda gait, **settings: _check_time_axis(gait.period, **settings),
    "gait",
)


def _sweep_hi(value, where, seen) -> list[float]:
    lo, hi = seen["lo"], _floats(value, where, 2)
    if not (lo[0] < hi[0] and lo[1] < hi[1]):
        raise ScenarioError(where, "must exceed sweep.lo on both axes")
    if not all(math.isfinite(b - a) for a, b in zip(lo, hi)):
        raise ScenarioError(where, "the span hi - lo must be finite on both axes")
    return hi


def _sweep_counts(value, where, seen) -> list[int]:
    counts = _int_pair(value, where, seen)
    if min(counts) < 2:
        raise ScenarioError(where, "need at least 2 nodes per axis")
    if counts[0] * counts[1] > MAX_NODES:
        raise ScenarioError(where, f"{counts[0]} x {counts[1]} nodes exceed {MAX_NODES}")
    return counts


def _sweep_curvature(value, where, seen) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(where, "expected true or false")
    n1, n2 = seen["counts"]
    if value and min(n1, n2) < 3:
        raise ScenarioError(where, f"curvature needs at least a 3x3 grid, got {n1}x{n2}")
    return value


def _grid(model, lo, hi, counts, axes, base, curvature) -> GridSpec:
    from .analysis import GridSpec
    # the default axes must name model coordinates too
    a, b = axes or (0, 1)
    if a == b or not (0 <= a < model.dim and 0 <= b < model.dim):
        raise ScenarioError("sweep.axes", f"expected two different model coordinates in 0..{model.dim - 1}")
    return GridSpec(tuple(lo), tuple(hi), tuple(counts), (a, b), None if base is None else tuple(base))


_SWEEP = (
    {
        "lo": _numbers(2),
        "hi": _reader(_sweep_hi),
        "counts": _reader(_sweep_counts),
        "axes": _optional(_reader(_int_pair)),
        "base": _optional(_numbers(_dim)),
        "curvature": _reader(_sweep_curvature, False),
    },
    _grid,
    "model",
)


def _slot_list(value, where, seen) -> list[list]:
    from .optimizer import SLOT_KINDS
    if not isinstance(value, list) or not value:
        raise ScenarioError(where, "expected a non-empty list of slots")
    slots = []
    for idx, slot in enumerate(value):
        if not isinstance(slot, list) or not slot or slot[0] not in SLOT_KINDS:
            raise ScenarioError(f"{where}[{idx}]", f"expected [kind, indices...] with kind {'|'.join(SLOT_KINDS)}")
        want = 2 if slot[0] == "mean" else 3
        if len(slot) != want or any(isinstance(v, bool) or not isinstance(v, int) for v in slot[1:]):
            raise ScenarioError(f"{where}[{idx}]", f"expected {want} entries")
        slots.append([slot[0]] + [int(v) for v in slot[1:]])
    return slots


def _slot_upper(value, where, seen) -> list[float]:
    upper = _floats(value, where, len(seen["slots"]))
    if not all(lo < hi for lo, hi in zip(seen["lower"], upper)):
        raise ScenarioError(where, "need lower < upper in every slot")
    return upper


def _slot_family(gait, slots, lower, upper) -> GaitFamily:
    from .optimizer import fourier_slot_family
    if not isinstance(gait, FourierGait):
        raise ScenarioError("optimize", "fourier_slots requires a fourier gait template")
    # the bounds are checked by their readers, so only a slot can still be rejected
    with _errors_at("optimize.slots"):
        return fourier_slot_family(gait, [tuple(s) for s in slots], lower, upper)


def _amplitude_phase(integrator, period, amplitude, phase) -> GaitFamily:
    from .optimizer import amplitude_phase_family
    # the search integrates at its own period
    _check_time_axis(period, **integrator)
    return amplitude_phase_family(period, tuple(amplitude), tuple(phase))


_FAMILIES = {
    "amplitude_phase": (
        {"period": _positive(1.0), "amplitude": _interval([0.1, 1.2]), "phase": _interval([-math.pi, math.pi])},
        _amplitude_phase,
        "integrator",
    ),
    "fourier_slots": (
        {
            "slots": _reader(_slot_list),
            "lower": _numbers(lambda seen: len(seen["slots"])),
            "upper": _reader(_slot_upper),
        },
        _slot_family,
        "gait",
    ),
}


def _search(family: GaitFamily, direction, budget, restarts) -> GaitFamily:
    """The family, once the budget buys at least one simplex of its parameters."""
    simplex = family.n_params + 1
    if budget < simplex:
        raise ScenarioError("optimize.budget", f"must be at least {simplex}, one simplex")
    return family


def _direction(block, path, key, seen) -> str:
    from .optimizer import DIRECTIONS
    return _choice(DIRECTIONS, "x")(block, path, key, seen)


_OPTIMIZE = (
    {
        "direction": _direction,
        "budget": _integer(500, minimum=2),
        # a restart's lockstep state holds about 2.7 KB and costs 0.6-0.9 ms beside its evaluations
        # (tracemalloc, 10 to 10,000 restarts of a free objective): 2.7 MB at 1000
        "restarts": _integer(4, minimum=1, maximum=1000),
    },
    _search,
    ("family", _FAMILIES),
)


def _suite_list(value, where, seen) -> list[str]:
    from .verify import SUITES
    if not isinstance(value, list) or not value:
        raise ScenarioError(where, "expected a non-empty list")
    for name in value:
        if not isinstance(name, str) or name not in SUITES:
            raise ScenarioError(where, f"unknown suite {_QUOTE.repr(name)}")
        if name == "residual" and seen["model"].builder is None:
            raise ScenarioError(where, "residual suite needs a constraint-based model")
    return list(value)


_VERIFY = (
    {
        "suites": _reader(_suite_list),
        # the residual shapes are drawn in Python, about a microsecond per
        # coordinate, and span [-box, box), whose width must be finite
        "shapes": _integer(100, minimum=1, maximum=MAX_NODES),
        "box": _positive(1.2, maximum=sys.float_info.max / 2),
    },
    dict,
)


# every block in reading order; model and gait are required
_BLOCKS = {
    "model": ("kind", _MODELS),
    "gait": ("kind", _GAITS),
    "integrator": _INTEGRATOR,
    "sweep": _SWEEP,
    "optimize": _OPTIMIZE,
    "verify": _VERIFY,
}


def _read_row(block: dict, path: str, row: tuple, built: dict):
    """(resolved keys, built object) of a table row, or a selector's row, read from block.

    An absent optional key resolves to None.
    """
    if isinstance(row[0], str):
        key, table = row
        name = _choice(table)(block, path, key, built)
        resolved, obj = _read_row(block, path, table[name], built)
        return {key: name, **resolved}, obj
    readers, factory, *inputs = row
    resolved, args = {}, []
    for source in inputs:
        if isinstance(source, str):
            args.append(built[source])
        else:
            sub, obj = _read_row(block, path, source, built)
            resolved.update(sub)
            args.append(obj)
    seen = collections.ChainMap(resolved, built)
    for key, read in readers.items():
        resolved[key] = read(block, path, key, seen)
    with _errors_at(path):
        return resolved, factory(*args, **{k: resolved[k] for k in readers})


def _read_block(value, path: str, built: dict):
    """(resolved block, built object) of the block named path."""
    block = _expect_mapping(value, path)
    resolved, obj = _read_row(block, path, _BLOCKS[path], built)
    # a row resolves every key it reads, so its resolved keys are the allowed ones
    _check_keys(block, path, resolved)
    return {k: v for k, v in resolved.items() if v is not None}, obj


# far deeper than a scenario (4 levels) and far below the depth at which a
# composer overruns its stack: libyaml's crashes near 25,000, PyYAML's raises
# RecursionError near 480
_MAX_DEPTH = 200


def _too_deep(text: str, loader) -> bool:
    """Whether the YAML text nests collections more than _MAX_DEPTH deep, as the loader's parser reads it.

    A collection starts at a '[', '{', '-', '?' or line break, or is a compact
    mapping right inside one that does, so a text nests at most twice their
    count plus one deep; only a text past that is parsed.  One that does not
    parse counts as shallow, so loading it words the error as before.
    """
    if 2 * sum(map(text.count, "[{-?\n")) < _MAX_DEPTH:
        return False
    depth = 0
    with contextlib.suppress(yaml.YAMLError):
        for event in yaml.parse(text, loader):
            depth += isinstance(event, yaml.CollectionStartEvent) - isinstance(event, yaml.CollectionEndEvent)
            if depth > _MAX_DEPTH:
                return True
    return False


# YAML 1.2's core scalars, without octal and hex: (tag, spelling, first characters, value of the text).  Any
# other plain scalar is a string, and a scalar tagged with a row's tag must be spelled as the row says
_CORE_SCALARS = (
    ("null", "~|null|Null|NULL|", ["~", "n", "N", ""], lambda text: None),
    ("bool", "true|True|TRUE|false|False|FALSE", "tTfF", lambda text: text[0] in "tT"),
    ("int", "[-+]?[0-9]+", "-+0123456789", int),
    ("float", r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?|[-+]?\.(inf|Inf|INF)|\.(nan|NaN|NAN)",
     "-+.0123456789", lambda text: float(text.replace(".", "") if text[-1] in "fFnN" else text)),
)


def _core_scalar(spelling, value, loader, node):
    """A row's constructor: value(text) of a scalar spelled as the row says, else a YAML error."""
    text = loader.construct_scalar(node)
    if not spelling.match(text):
        raise yaml.constructor.ConstructorError(None, None, f"{_QUOTE.repr(text)} is not a {node.tag}", node.start_mark)
    return value(text)


def _core_loader(base):
    """A subclass of the safe loader base that builds strings, lists, mappings (no << merge) and _CORE_SCALARS only."""
    core, safe = "tag:yaml.org,2002:", yaml.SafeLoader
    loader = type(base.__name__, (base,), {
        "yaml_implicit_resolvers": {},
        "yaml_constructors": {None: safe.construct_undefined, core + "str": safe.construct_yaml_str,
                              core + "seq": safe.construct_yaml_seq, core + "map": safe.construct_yaml_map},
        "construct_mapping": yaml.constructor.BaseConstructor.construct_mapping,
    })
    for tag, pattern, first, value in _CORE_SCALARS:
        spelling = re.compile(rf"(?:{pattern})\Z")
        loader.add_implicit_resolver(core + tag, spelling, first)
        loader.add_constructor(core + tag, functools.partial(_core_scalar, spelling, value))
    return loader


_PY_LOADER, _C_LOADER = _core_loader(yaml.SafeLoader), _core_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


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
            with open(source, encoding="utf-8") as handle:
                text = handle.read()
                # libyaml parses for the core-scalar constructors; a text with a tab (PyYAML rejects one after a plain
                # scalar, libyaml reads it) goes to the Python parser, which also rereads the file to word any error
                loader = _PY_LOADER if "\t" in text else _C_LOADER
                if _too_deep(text, loader):
                    raise ScenarioError("<file>", f"nested more than {_MAX_DEPTH} levels deep")
                try:
                    doc = yaml.load(text, loader)
                except yaml.YAMLError:
                    handle.seek(0)
                    doc = yaml.load(handle, _PY_LOADER)
        except OSError as exc:
            raise ScenarioError("<file>", str(exc)) from exc
        except UnicodeDecodeError as exc:
            raise ScenarioError("<file>", f"not UTF-8 text: byte {exc.start} of {handle.name} ({exc.reason})") from exc
        except (ValueError, RecursionError) as exc:
            # int() holds Python's digit limit; PyYAML's Python composer recurses
            raise ScenarioError("<file>", f"not loadable as YAML: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ScenarioError("<file>", f"not parseable as YAML: {exc}") from exc
    doc = _expect_mapping(doc, "<root>")
    _check_keys(doc, "<root>", ("schema", "seed", "out", *_BLOCKS), ("model", "gait"))
    # command-line flags replace the fields they name before validation
    flags = {k: v for k, v in (overrides or {}).items() if v is not None}
    integ = _expect_mapping(doc.get("integrator", {}), "integrator")
    doc = {
        **doc,
        **{k: flags[k] for k in ("seed", "out") if k in flags},
        "integrator": {**integ, **{k: flags[k] for k in ("step", "cycles") if k in flags}},
    }

    schema = doc.get("schema", SCHEMA_VERSION)
    # True == 1 and 1.0 == 1 in Python; only the integer names a version
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ScenarioError("schema", f"unsupported schema version {_QUOTE.repr(schema)}")
    seed = _integer(0, minimum=0)(doc, "<root>", "seed", {})
    out_dir = doc.get("out", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ScenarioError("out", "expected a non-empty string")

    resolved, built = {"schema": SCHEMA_VERSION, "seed": seed, "out": out_dir}, {}
    for name in _BLOCKS:
        if name in doc:
            resolved[name], built[name] = _read_block(doc[name], name, built)
    return Scenario(
        raw=resolved,
        seed=seed,
        out_dir=out_dir,
        provider=built["model"],
        gait=built["gait"],
        **resolved["integrator"],
        **{name: resolved.get(name) for name in ("sweep", "optimize", "verify")},
        grid=built.get("sweep"),
        family=built.get("optimize"),
    )


def build_family(scenario: Scenario) -> GaitFamily:
    """The optimize block's gait family, as load_scenario built it."""
    scenario.block("optimize")
    return scenario.family
