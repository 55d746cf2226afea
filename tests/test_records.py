"""The package's records: construction, repr, equality, hashing and assignment, pinned field by field.

Each record compares as the tuple of its fields, only against its own
class; a frozen record hashes that tuple and refuses every assignment, and
a mutable one is unhashable.
"""

import copy
import inspect
from typing import NamedTuple

import numpy as np
import pytest

from locomech import (
    ChainModel,
    ConstraintSystem,
    CurvatureField,
    DragModel,
    EventRecord,
    FieldGrid,
    FourierGait,
    GaitFamily,
    GridSpec,
    HolonomyAreaReport,
    LeggedModel,
    OptimizationReport,
    Pose,
    PoseMap,
    Scenario,
    SlipModel,
    Trajectory,
    Twist,
    VerifyCheck,
    WaypointGait,
)


def _pose_of(r):
    return Pose()


def _poses_of(shapes):
    return np.zeros((3, len(shapes)))


def _gait_of(p):
    return None


class Case(NamedTuple):
    cls: type
    names: tuple  # the constructor's parameters, in positional order
    args: tuple  # a value for every parameter
    required: int  # parameters without a default
    text: str  # repr of cls(*args)
    default_text: str  # repr of cls(*args[:required])
    frozen: bool
    # a field and a value that makes a shallow copy compare unequal, or None
    differ: tuple | None


_CHAIN = ChainModel([1.0])
_LEGS = LeggedModel([[0.0, 0.5]], [1.0], [0.0], "fixed", frozenset({0}))
_CHAIN_TEXT = "ChainModel(lengths=array([1.]))"
_LEGS_TEXT = (
    "LeggedModel(hips=array([[0. , 0.5]]), leg_lengths=array([1.]), rest_angles=array([0.]), "
    "selector='fixed', fixed_contacts=frozenset({0}))"
)
_TRAJECTORY_ARGS = (
    np.array([0.0]), np.zeros((3, 1)), np.zeros((1, 2)), np.zeros((1, 3)), [frozenset({0})], [], [0], {"k": 1}
)
_TRAJECTORY_TEXT = (
    "Trajectory(times=array([0.]), pose_array=array([[0.],\n       [0.],\n       [0.]]), "
    "shapes=array([[0., 0.]]), twists=array([[0., 0., 0.]]), contacts=[frozenset({0})], events=[], "
    "cycle_indices=[0], meta={%s})"
)
_SCENARIO_TEXT = (
    "Scenario(raw={'a': 1}, seed=3, out_dir='out', provider='provider', gait='gait', step=0.01, "
    "event_tol=1e-09, cycles=2, sweep=%s, optimize=%s, verify=%s, grid=%s, family=%s)"
)

CASES = [
    Case(
        Pose, ("x", "y", "theta"), (1.0, 2.0, 3.0), 0,
        "Pose(x=1.0, y=2.0, theta=3.0)", "Pose(x=0.0, y=0.0, theta=0.0)", True, ("theta", 0.5),
    ),
    Case(
        Twist, ("vx", "vy", "omega"), (1.0, 2.0, 3.0), 0,
        "Twist(vx=1.0, vy=2.0, omega=3.0)", "Twist(vx=0.0, vy=0.0, omega=0.0)", True, ("omega", 0.5),
    ),
    Case(
        PoseMap, ("fn", "dim", "many"), (_pose_of, 2, _poses_of), 2,
        f"PoseMap(fn={_pose_of!r}, dim=2, many={_poses_of!r})", f"PoseMap(fn={_pose_of!r}, dim=2, many=None)",
        True, ("dim", 3),
    ),
    Case(
        ConstraintSystem, ("m", "n"), (np.eye(3), np.ones((3, 2))), 2,
        "ConstraintSystem(m=array([[1., 0., 0.],\n       [0., 1., 0.],\n       [0., 0., 1.]]), "
        "n=array([[1., 1.],\n       [1., 1.],\n       [1., 1.]]))",
        "ConstraintSystem(m=array([[1., 0., 0.],\n       [0., 1., 0.],\n       [0., 0., 1.]]), "
        "n=array([[1., 1.],\n       [1., 1.],\n       [1., 1.]]))",
        True, None,
    ),
    Case(
        EventRecord, ("time", "before", "after", "shape", "window"),
        (0.25, frozenset({0}), frozenset({1}), np.array([0.5, -0.5]), (0.2, 0.25)), 5,
        "EventRecord(time=0.25, before=frozenset({0}), after=frozenset({1}), shape=array([ 0.5, -0.5]), "
        "window=(0.2, 0.25))",
        "EventRecord(time=0.25, before=frozenset({0}), after=frozenset({1}), shape=array([ 0.5, -0.5]), "
        "window=(0.2, 0.25))",
        True, ("time", 0.5),
    ),
    Case(
        Trajectory, ("times", "pose_array", "shapes", "twists", "contacts", "events", "cycle_indices", "meta"),
        _TRAJECTORY_ARGS, 7, _TRAJECTORY_TEXT % "'k': 1", _TRAJECTORY_TEXT % "", False, ("cycle_indices", [0, 2]),
    ),
    Case(ChainModel, ("lengths",), ([1.0],), 1, _CHAIN_TEXT, _CHAIN_TEXT, True, ("lengths", np.array([2.0]))),
    Case(
        DragModel, ("chain", "drag_tangential", "drag_normal", "quadrature"), (_CHAIN, 1.0, 2.0, 4), 3,
        f"DragModel(chain={_CHAIN_TEXT}, drag_tangential=1.0, drag_normal=2.0, quadrature=4)",
        f"DragModel(chain={_CHAIN_TEXT}, drag_tangential=1.0, drag_normal=2.0, quadrature=8)",
        True, ("quadrature", 6),
    ),
    Case(
        LeggedModel, ("hips", "leg_lengths", "rest_angles", "selector", "fixed_contacts"),
        ([[0.0, 0.5]], [1.0], [0.0], "fixed", frozenset({0})), 3, _LEGS_TEXT,
        "LeggedModel(hips=array([[0. , 0.5]]), leg_lengths=array([1.]), rest_angles=array([0.]), "
        "selector='argmax', fixed_contacts=None)",
        True, ("selector", "argmax"),
    ),
    Case(
        SlipModel, ("geometry", "slip_tangential", "slip_normal", "slip_yaw"), (_LEGS, 1.0, 2.0, 3.0), 4,
        f"SlipModel(geometry={_LEGS_TEXT}, slip_tangential=array([1.]), slip_normal=array([2.]), "
        "slip_yaw=array([3.]))",
        f"SlipModel(geometry={_LEGS_TEXT}, slip_tangential=array([1.]), slip_normal=array([2.]), "
        "slip_yaw=array([3.]))",
        True, ("slip_yaw", np.array([4.0])),
    ),
    Case(
        Scenario,
        ("raw", "seed", "out_dir", "provider", "gait", "step", "event_tol", "cycles",
         "sweep", "optimize", "verify", "grid", "family"),
        ({"a": 1}, 3, "out", "provider", "gait", 0.01, 1e-9, 2, {"s": 1}, {"o": 1}, {"v": 1}, "grid", "family"), 8,
        _SCENARIO_TEXT % ("{'s': 1}", "{'o': 1}", "{'v': 1}", "'grid'", "'family'"),
        _SCENARIO_TEXT % (("None",) * 5),
        False, ("seed", 4),
    ),
    Case(
        FourierGait, ("period", "mean", "cos", "sin"), (2.0, [0.1], [[0.2]], [[0.3]]), 2,
        "FourierGait(period=2.0, mean=array([0.1]), cos=array([[0.2]]), sin=array([[0.3]]))",
        "FourierGait(period=2.0, mean=array([0.1]), cos=array([], shape=(0, 1), dtype=float64), "
        "sin=array([], shape=(0, 1), dtype=float64))",
        True, ("period", 3.0),
    ),
    Case(
        WaypointGait, ("points", "times"), ([[0.5]], [0.0, 1.0]), 2,
        "WaypointGait(points=array([[0.5]]), times=array([0., 1.]))",
        "WaypointGait(points=array([[0.5]]), times=array([0., 1.]))",
        True, ("points", np.array([[0.7]])),
    ),
    Case(
        GridSpec, ("lo", "hi", "counts", "axes", "base"), ((0.0, 0.0), (1.0, 1.0), (3, 3), (1, 0), np.array([0.5, 0.5])),
        3,
        "GridSpec(lo=(0.0, 0.0), hi=(1.0, 1.0), counts=(3, 3), axes=(1, 0), base=array([0.5, 0.5]))",
        "GridSpec(lo=(0.0, 0.0), hi=(1.0, 1.0), counts=(3, 3), axes=(0, 1), base=None)",
        True, ("counts", (4, 4)),
    ),
    Case(
        FieldGrid, ("axis1", "axis2", "axes", "base", "conn", "contacts", "catalog", "singular"),
        (np.array([0.0]), np.array([1.0]), (0, 1), np.array([0.5]), np.array([2.0]), np.array([0], np.uint8),
         (frozenset({0}),), np.array([False])),
        8,
        "FieldGrid(axis1=array([0.]), axis2=array([1.]), axes=(0, 1), base=array([0.5]), conn=array([2.]), "
        "contacts=array([0], dtype=uint8), catalog=(frozenset({0}),), singular=array([False]))",
        "FieldGrid(axis1=array([0.]), axis2=array([1.]), axes=(0, 1), base=array([0.5]), conn=array([2.]), "
        "contacts=array([0], dtype=uint8), catalog=(frozenset({0}),), singular=array([False]))",
        False, ("catalog", (frozenset({1}),)),
    ),
    Case(
        CurvatureField, ("values", "valid", "boundary"), (np.array([1.0]), np.array([True]), np.array([False])), 3,
        "CurvatureField(values=array([1.]), valid=array([ True]), boundary=array([False]))",
        "CurvatureField(values=array([1.]), valid=array([ True]), boundary=array([False]))",
        False, ("values", np.array([2.0])),
    ),
    Case(
        HolonomyAreaReport, ("holonomy", "area_integral", "curl_part", "bracket_part", "gap"),
        (Twist(1.0, 0.0, 0.0), np.array([1.0]), np.array([2.0]), np.array([3.0]), np.array([4.0])), 5,
        "HolonomyAreaReport(holonomy=Twist(vx=1.0, vy=0.0, omega=0.0), area_integral=array([1.]), "
        "curl_part=array([2.]), bracket_part=array([3.]), gap=array([4.]))",
        "HolonomyAreaReport(holonomy=Twist(vx=1.0, vy=0.0, omega=0.0), area_integral=array([1.]), "
        "curl_part=array([2.]), bracket_part=array([3.]), gap=array([4.]))",
        False, ("holonomy", Twist(0.0, 0.0, 1.0)),
    ),
    Case(
        GaitFamily, ("build", "lower", "upper", "names"), (_gait_of, [0.0], [1.0], ("a",)), 3,
        f"GaitFamily(build={_gait_of!r}, lower=array([0.]), upper=array([1.]), names=('a',))",
        f"GaitFamily(build={_gait_of!r}, lower=array([0.]), upper=array([1.]), names=())",
        True, ("names", ("b",)),
    ),
    Case(
        OptimizationReport, ("best_params", "best_value", "evaluations", "history", "termination"),
        (np.array([0.5]), 1.5, 7, [(np.array([0.5]), 1.5)], "budget"), 5,
        "OptimizationReport(best_params=array([0.5]), best_value=1.5, evaluations=7, "
        "history=[(array([0.5]), 1.5)], termination='budget')",
        "OptimizationReport(best_params=array([0.5]), best_value=1.5, evaluations=7, "
        "history=[(array([0.5]), 1.5)], termination='budget')",
        False, ("evaluations", 8),
    ),
    Case(
        VerifyCheck, ("suite", "check", "value", "threshold", "passed"), ("loop", "closure", 1e-9, 1e-8, True), 5,
        "VerifyCheck(suite='loop', check='closure', value=1e-09, threshold=1e-08, passed=True)",
        "VerifyCheck(suite='loop', check='closure', value=1e-09, threshold=1e-08, passed=True)",
        True, ("passed", False),
    ),
]
_IDS = [case.cls.__name__ for case in CASES]


def _record(case):
    return case.cls(*case.args)


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def _variant(record, name, value):
    """A shallow copy of record with one field replaced, so every other field is the same object."""
    twin = copy.copy(record)
    object.__setattr__(twin, name, value)
    return twin


def test_the_cases_cover_every_record_once():
    assert len(CASES) == 20 and len(set(_IDS)) == 20


@pytest.mark.parametrize("case", CASES, ids=_IDS)
def test_positional_and_keyword_construction_agree(case):
    params = inspect.signature(case.cls).parameters.values()
    assert [p.name for p in params] == list(case.names)
    assert sum(p.default is inspect.Parameter.empty for p in params) == case.required
    assert repr(case.cls(*case.args)) == case.text
    assert repr(case.cls(**dict(zip(case.names, case.args)))) == case.text
    half = len(case.args) // 2
    assert repr(case.cls(*case.args[:half], **dict(zip(case.names[half:], case.args[half:])))) == case.text


@pytest.mark.parametrize("case", CASES, ids=_IDS)
def test_defaults(case):
    assert repr(case.cls(*case.args[: case.required])) == case.default_text


@pytest.mark.parametrize("case", CASES, ids=_IDS)
def test_equality_compares_fields_within_one_class(case):
    record = _record(case)
    twin = copy.copy(record)
    assert record == twin and not record != twin
    assert record == record
    if case.differ is not None:
        other = _variant(record, *case.differ)
        assert record != other and not record == other
        assert other != record


@pytest.mark.parametrize("case, other", zip(CASES, CASES[1:] + CASES[:1]), ids=_IDS)
def test_records_of_two_classes_never_compare_equal(case, other):
    record, foreign = _record(case), _record(other)
    assert record != foreign and not record == foreign
    assert record.__eq__(foreign) is NotImplemented


def test_equal_fields_of_two_classes_are_unequal():
    assert Pose(1.0, 2.0, 3.0) != Twist(1.0, 2.0, 3.0)
    assert not Twist(1.0, 2.0, 3.0) == Pose(1.0, 2.0, 3.0)


@pytest.mark.parametrize("case", CASES, ids=_IDS)
def test_frozen_records_hash_their_fields_and_mutable_ones_are_unhashable(case):
    record = _record(case)
    fields = tuple(getattr(record, name) for name in case.names)
    if case.frozen:
        assert _hash_or_error(record) == _hash_or_error(fields)
    else:
        assert case.cls.__hash__ is None
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


def test_hashable_records_hash_their_field_tuples():
    assert hash(Pose(1.0, 2.0, 3.0)) == hash((1.0, 2.0, 3.0))
    assert hash(Twist(1.0, 2.0, 3.0)) == hash((1.0, 2.0, 3.0))
    assert hash(VerifyCheck("a", "b", 1.0, 2.0, True)) == hash(("a", "b", 1.0, 2.0, True))
    assert len({Pose(1.0, 2.0, 3.0), Pose(1, 2, 3), Pose()}) == 2


@pytest.mark.parametrize("case", CASES, ids=_IDS)
def test_frozen_records_refuse_assignment(case):
    record = _record(case)
    name = case.names[0]
    if case.frozen:
        before = repr(record)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
            record.extra = 1
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert repr(record) == before
    else:
        setattr(record, name, "changed")
        assert getattr(record, name) == "changed"


def test_each_trajectory_gets_a_fresh_meta():
    args = _TRAJECTORY_ARGS[:7]
    first, second = Trajectory(*args), Trajectory(*args)
    assert first.meta == {} and second.meta == {}
    first.meta["k"] = 1
    assert second.meta == {}
    assert first.meta is not second.meta


def test_trajectory_pose_array_is_a_read_only_float_view():
    source = np.zeros((3, 2), dtype=int)
    traj = Trajectory(np.zeros(2), source, np.zeros((2, 1)), np.zeros((2, 3)), [], [], [0])
    assert traj.pose_array.dtype == float and not traj.pose_array.flags.writeable
    assert source.flags.writeable


def test_fourier_angular_rates_stay_out_of_init_repr_and_equality():
    gait = FourierGait(2.0, [0.1], [[0.2], [0.4]])
    assert "angular_rates" not in inspect.signature(FourierGait).parameters
    assert "angular_rates" not in repr(gait)
    assert np.array_equal(gait.angular_rates, [np.pi, 2.0 * np.pi])
    other = _variant(gait, "angular_rates", np.array([1.0]))
    assert gait == other
    assert _hash_or_error(gait) == _hash_or_error(other)
