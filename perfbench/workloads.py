"""Scenario documents and command lists for each benchmark workload.

A workload is generated from its seed alone: the same seed gives the same
YAML documents, and the program under test only ever sees those documents.

Why these three workloads:

- ``optimize`` runs the amplitude/phase gait search on the viscous swimmer.
  It makes many short (50-step) smooth integrations, so the integrator's
  per-call overhead and its connection evaluations per step dominate.
- ``field`` sweeps the connection and its curvature over fine grids on the
  swimmer (constraint solves) and the crawler (stance pieces whose
  boundaries invalidate stencils).  It never integrates, so it is the
  workload on which an integrator change must show no effect.
- ``contact`` simulates and verifies the stance-switching crawler and the
  slipping walker: few long integrations with event bisection, waypoint
  knots (the walker's pacing suite integrates a 4096-knot gait) and
  finite-difference piece Jacobians.  It uses the integrator the opposite
  way from ``optimize``.
"""

from __future__ import annotations

import random

SCHEMA = 1

# The shipped swimmer_optimize.yaml search, with a budget that fits several
# fresh-process repetitions into one timed run.
OPTIMIZE_BUDGET = 48
OPTIMIZE_RESTARTS = 4
OPTIMIZE_STEP = 2e-2

FIELD_COUNTS = [97, 97]

CRAWLER_CYCLES = 3
CRAWLER_STEP = 2e-3
WALKER_CYCLES = 2
WALKER_STEP = 4e-3

CRAWLER_SUITES = ["reversal", "continuity"]
WALKER_SUITES = ["reversal", "pacing", "continuity", "residual"]

# (command, scenario name) in the order one repetition runs them
COMMANDS = {
    "optimize": [("optimize", "swimmer")],
    "field": [("sweep", "swimmer"), ("sweep", "crawler")],
    "contact": [
        ("simulate", "crawler"),
        ("verify", "crawler"),
        ("simulate", "walker"),
        ("verify", "walker"),
    ],
}

WORKLOADS = tuple(COMMANDS)

# files each command writes into the scenario's output directory
ARTIFACTS = {
    "simulate": ("trajectory.csv", "summary.json"),
    "sweep": ("field.csv",),
    "optimize": ("report.json",),
    "verify": ("verify.csv",),
}


def _swimmer_circle_gait() -> dict:
    return {
        "kind": "fourier",
        "period": 1.0,
        "mean": [0.0, 0.0],
        "cos": [[0.0, -0.5]],
        "sin": [[0.5, 0.0]],
    }


def _square_gait(a1: float, a2: float) -> dict:
    return {
        "kind": "waypoint",
        "points": [[-a1, -a2], [a1, -a2], [a1, a2], [-a1, a2]],
        "times": [0.0, 0.25, 0.5, 0.75, 1.0],
    }


def _optimize(rng: random.Random, seed: int) -> dict:
    return {
        "swimmer": {
            "schema": SCHEMA,
            # the scenario seed drives the optimizer's restart simplices
            "seed": seed,
            "model": {"kind": "swimmer"},
            "gait": _swimmer_circle_gait(),
            "integrator": {"step": OPTIMIZE_STEP, "cycles": 1},
            "optimize": {
                "family": "amplitude_phase",
                "direction": "x",
                "budget": OPTIMIZE_BUDGET,
                "restarts": OPTIMIZE_RESTARTS,
            },
        }
    }


def _window(rng: random.Random, half: float, jitter: float) -> tuple[list, list]:
    lo = [-half + rng.uniform(-jitter, jitter) for _ in range(2)]
    hi = [half + rng.uniform(-jitter, jitter) for _ in range(2)]
    return lo, hi


def _field(rng: random.Random, seed: int) -> dict:
    s_lo, s_hi = _window(rng, 1.5, 0.2)
    # the crawler window always straddles the r1 = r2 stance boundary
    c_lo, c_hi = _window(rng, 1.0, 0.15)
    return {
        "swimmer": {
            "schema": SCHEMA,
            "seed": seed,
            "model": {"kind": "swimmer"},
            "gait": _swimmer_circle_gait(),
            "sweep": {"lo": s_lo, "hi": s_hi, "counts": FIELD_COUNTS, "curvature": True},
        },
        "crawler": {
            "schema": SCHEMA,
            "seed": seed,
            "model": {"kind": "crawler", "hip_spacing": 1.0, "leg_length": 1.0},
            "gait": _square_gait(0.375, 0.375),
            "sweep": {"lo": c_lo, "hi": c_hi, "counts": FIELD_COUNTS, "curvature": True},
        },
    }


def _contact(rng: random.Random, seed: int) -> dict:
    # Amplitude ranges inside which every shipped verify suite passes; unequal
    # half-widths put the crawler's two stance switches inside segments.
    a1, a2 = rng.uniform(0.3, 0.45), rng.uniform(0.3, 0.45)
    b1, b2 = rng.uniform(0.3, 0.4), rng.uniform(0.3, 0.4)
    return {
        "crawler": {
            "schema": SCHEMA,
            "seed": seed,
            "model": {"kind": "crawler", "hip_spacing": 1.0, "leg_length": 1.0},
            "gait": _square_gait(a1, a2),
            "integrator": {"step": CRAWLER_STEP, "event_tol": 1e-10, "cycles": CRAWLER_CYCLES},
            "verify": {"suites": CRAWLER_SUITES},
        },
        "walker": {
            "schema": SCHEMA,
            "seed": seed,
            "model": {
                "kind": "slip_walker",
                "hip_offset": 0.3,
                "half_width": 0.4,
                "leg_length": 1.0,
                "slip_tangential": 1.0,
                "slip_normal": 3.0,
                "slip_yaw": 0.5,
            },
            "gait": {
                "kind": "fourier",
                "period": 1.0,
                "mean": [0.0, 0.0],
                "cos": [[0.0, b2]],
                "sin": [[b1, 0.0]],
            },
            "integrator": {"step": WALKER_STEP, "cycles": WALKER_CYCLES},
            "verify": {"suites": WALKER_SUITES, "shapes": 100, "box": 1.2},
        },
    }


_GENERATORS = {"optimize": _optimize, "field": _field, "contact": _contact}


def scenario_documents(workload: str, seed: int) -> dict[str, dict]:
    """Scenario name -> YAML-ready mapping for one workload and seed."""
    scenario_seed = seed % (2**31)
    return _GENERATORS[workload](random.Random(seed), scenario_seed)
