"""Planar geometric-mechanics engine for shape-driven locomotion.

One equation covers every model here: the body twist is a shape-dependent
linear map of the shape rate.  The package builds that map for holonomic pose
maps, contact-switching legged stances, viscous swimmers, and slipping-foot
walkers, integrates it along periodic gaits on the planar rigid-motion group,
and layers field diagnostics, gait optimization, and a scenario CLI on top.
"""

from .analysis import (
    CurvatureField,
    FieldGrid,
    GridSpec,
    HolonomyAreaReport,
    LoopOutsideGrid,
    curvature,
    holonomy_vs_area,
    sample_field,
)
from .connection import (
    ConnectionMatrix,
    ConnectionProvider,
    ConstraintConnection,
    ConstraintSystem,
    JacobianConnection,
    PiecewiseConnection,
    PoseMap,
    SingularConstraint,
    connection_rows,
    jacobian_connection_eval,
    linear_constraint_connection,
)
from .integrator import (
    EventRecord,
    Trajectory,
    integrate_gait,
    net_displacement,
    per_cycle_displacements,
)
from .liegroup import (
    Pose,
    Twist,
    adjoint,
    bracket,
    compose,
    exp,
    hat,
    inverse,
    log,
    normalize_angle,
    vee,
)
from .models import (
    ChainModel,
    DegenerateStance,
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
from .optimizer import (
    GaitFamily,
    OptimizationReport,
    amplitude_phase_family,
    fourier_slot_family,
    nelder_mead,
    objective_displacement,
    optimize,
)
from .scenario import (
    Scenario,
    ScenarioError,
    build_family,
    load_scenario,
)
from .shapespace import (
    FourierGait,
    Gait,
    WaypointGait,
    reparameterize,
    reversed_gait,
)
from .verify import VerifyCheck, run_verify

__version__ = "0.1.0"
