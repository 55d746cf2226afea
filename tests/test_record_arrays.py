"""== on records whose fields hold arrays of several entries: equal arrays compare equal, and nothing raises."""

import numpy as np
import pytest

from locomech import (
    ChainModel,
    ConstraintSystem,
    EventRecord,
    FieldGrid,
    FourierGait,
    LeggedModel,
    SlipModel,
    Trajectory,
    WaypointGait,
)


def _legs(x):
    return LeggedModel([[0.0, 0.5], [0.0, -0.5]], [1.0, x], [0.0, 0.0], "fixed", frozenset({0}))


def _event(x):
    return EventRecord(0.25, frozenset({0}), frozenset({1}), np.array([0.5, x]), (0.2, 0.25))


# each builds a record from fresh arrays, with x as one entry of one of them
_BUILDERS = {
    "ChainModel": lambda x: ChainModel([1.0, x, 1.0]),
    "LeggedModel": _legs,
    "SlipModel": lambda x: SlipModel(_legs(1.0), [1.0, 1.0], [2.0, x], [3.0, 3.0]),
    "FourierGait": lambda x: FourierGait(1.0, [0.0, 0.0], [[0.1, x]], [[0.3, 0.4]]),
    "WaypointGait": lambda x: WaypointGait([[0.0, 0.0], [1.0, x]], [0.0, 0.5, 1.0]),
    "ConstraintSystem": lambda x: ConstraintSystem(np.eye(3), np.array([[1.0, x], [1.0, 1.0], [1.0, 1.0]])),
    "EventRecord": _event,
    "Trajectory": lambda x: Trajectory(
        np.array([0.0, 1.0]), np.zeros((3, 2)), np.array([[0.0, 0.0], [x, 0.0]]), np.zeros((2, 3)),
        [frozenset({0})] * 2, [_event(-0.5)], [0, 1],
    ),
    "FieldGrid": lambda x: FieldGrid(
        np.array([0.0, 1.0]), np.array([1.0, 2.0]), (0, 1), np.array([0.5, 0.5]), np.full((2, 2, 3, 2), x),
        np.zeros((2, 2), np.uint8), (frozenset({0}),), np.zeros((2, 2), bool),
    ),
}


@pytest.mark.parametrize("name", _BUILDERS)
def test_records_built_from_equal_distinct_arrays_compare_equal(name):
    build = _BUILDERS[name]
    first, second, changed = build(2.0), build(2.0), build(3.0)
    assert first == second and not first != second
    assert first != changed and not first == changed
    assert changed != second
