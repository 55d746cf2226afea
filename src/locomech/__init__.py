"""Planar geometric-mechanics engine for shape-driven locomotion.

One equation covers every model here: the body twist is a shape-dependent
linear map of the shape rate.  The package builds that map for holonomic pose
maps, contact-switching legged stances, viscous swimmers, and slipping-foot
walkers, integrates it along periodic gaits on the planar rigid-motion group,
and layers field diagnostics, gait optimization, and a scenario CLI on top.
The analysis, optimizer and verify modules are imported on the first access
to one of their names, or when a scenario with their block is loaded.
"""

import importlib
from types import ModuleType as _ModuleType

from .connection import (
    ConnectionMatrix,
    ConnectionProvider,
    ConstraintConnection,
    ConstraintSystem,
    JacobianConnection,
    PiecewiseConnection,
    PoseMap,
    SingularConstraint,
    jacobian_connection_eval,
    linear_constraint_connection,
)
from .integrator import EventRecord, Trajectory, integrate_gait, net_displacement, per_cycle_displacements
from .liegroup import Pose, Twist, adjoint, bracket, compose, exp, hat, inverse, log, normalize_angle, vee
from .models import (
    ChainModel,
    DragModel,
    LeggedModel,
    SlipModel,
    arm_com_pose_map,
    build_contact_map,
    build_drag_constraints,
    build_slip_constraints,
    crawler_slip_model,
    foot_position,
    many_legged_drag_surrogate,
    mirrored_slip_walker,
    rotate_translate_map,
    three_link_swimmer,
    two_leg_crawler,
    wavy_pose_map,
)
from .scenario import Scenario, ScenarioError, build_family, load_scenario
from .shapespace import FourierGait, Gait, WaypointGait, reparameterize, reversed_gait

# each name exported from a module that a scenario block loads -> that module
_LAZY = {name: module for module, names in (
    ("analysis", "CurvatureField FieldGrid GridSpec HolonomyAreaReport LoopOutsideGrid curvature holonomy_vs_area "
                 "sample_field"),
    ("optimizer", "GaitFamily OptimizationReport amplitude_phase_family fourier_slot_family nelder_mead "
                  "objective_displacement optimize"),
    ("verify", "VerifyCheck run_verify"),
) for name in names.split()}
__all__ = sorted([k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _ModuleType)] + [*_LAZY])


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name))


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
