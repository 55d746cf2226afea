"""The package's public surface: adding or removing a name is a deliberate edit here."""

import types

import pytest

import locomech

PUBLIC_NAMES = """
    ChainModel ConnectionMatrix ConnectionProvider ConstraintConnection ConstraintSystem CurvatureField
    DragModel EventRecord FieldGrid FourierGait Gait GaitFamily GridSpec HolonomyAreaReport
    JacobianConnection LeggedModel LoopOutsideGrid OptimizationReport PiecewiseConnection Pose PoseMap Scenario
    ScenarioError SingularConstraint SlipModel Trajectory Twist VerifyCheck WaypointGait
    adjoint amplitude_phase_family arm_com_pose_map bracket build_contact_map build_drag_constraints build_family
    build_slip_constraints compose crawler_slip_model curvature exp foot_position
    fourier_slot_family hat holonomy_vs_area integrate_gait inverse jacobian_connection_eval
    linear_constraint_connection load_scenario log many_legged_drag_surrogate mirrored_slip_walker nelder_mead
    net_displacement normalize_angle objective_displacement optimize per_cycle_displacements reparameterize
    reversed_gait rotate_translate_map run_verify sample_field three_link_swimmer two_leg_crawler vee
    wavy_pose_map
""".split()


def test_public_names_are_the_listed_ones():
    assert sorted(locomech.__all__) == sorted(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(dir(locomech))
    # the names of the modules a scenario block loads are bound on first access,
    # so every listed name is looked up before the namespace is read
    for name in PUBLIC_NAMES:
        getattr(locomech, name)
    # submodules become package attributes once imported, so they are not names the package exports
    exported = {
        name
        for name, value in vars(locomech).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == set(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == len(exported)
    with pytest.raises(AttributeError, match="no attribute 'Exported'"):
        locomech.Exported
