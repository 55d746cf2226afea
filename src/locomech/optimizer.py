"""Derivative-free gait search over bounded parametric families.

A GaitFamily maps a small parameter vector inside a box onto a closed gait;
the objective is a component of the per-cycle displacement exponent.  Search
is Nelder-Mead with fixed coefficients (reflection 1, expansion 2,
contraction 0.5, shrink 0.5), restarted from seeded random simplices, with
bounds enforced by projection.  Runs are deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .connection import SingularConstraint
from .integrator import integrate_gait, net_displacement
from .models import DegenerateStance
from .shapespace import FourierGait

# search direction -> the component of the displacement exponent it maximizes
DIRECTIONS = {
    "x": lambda disp: disp.vx,
    "y": lambda disp: disp.vy,
    "theta": lambda disp: disp.omega,
    "speed": lambda disp: float(np.hypot(disp.vx, disp.vy)),
}
SLOT_KINDS = ("mean", "cos", "sin")


@dataclass(frozen=True)
class GaitFamily:
    """Bounded parameterization of closed gaits.

    build(p) must return a valid gait for every p inside [lower, upper];
    Fourier templates make closure automatic.
    """

    build: Callable[[np.ndarray], object]
    lower: np.ndarray
    upper: np.ndarray
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("bounds must be two equal-length vectors")
        if not np.all(lower < upper):
            raise ValueError("need lower < upper in every coordinate")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n_params(self) -> int:
        return self.lower.shape[0]


def fourier_slot_family(template: FourierGait, slots, lower, upper) -> GaitFamily:
    """Family varying chosen Fourier coefficient slots of a template gait.

    Slots are ("mean", i), ("cos", k, i), or ("sin", k, i) with harmonic index
    k in 1..K of the template and coordinate i in 0..d-1.
    """
    slots = tuple(slots)
    harmonics, d = template.cos.shape
    for s in slots:
        if s[0] not in SLOT_KINDS:
            raise ValueError(f"unknown slot kind {s[0]!r}")
        if s[0] != "mean" and not 1 <= s[1] <= harmonics:
            raise ValueError(f"slot {s}: harmonic index must be in 1..{harmonics}")
        if not 0 <= s[-1] < d:
            raise ValueError(f"slot {s}: coordinate must be in 0..{d - 1}")

    def build(p: np.ndarray) -> FourierGait:
        mean = template.mean.copy()
        cos = template.cos.copy()
        sin = template.sin.copy()
        for value, slot in zip(p, slots):
            if slot[0] == "mean":
                mean[slot[1]] = value
            elif slot[0] == "cos":
                cos[slot[1] - 1, slot[2]] = value
            else:
                sin[slot[1] - 1, slot[2]] = value
        return FourierGait(template.period, mean, cos, sin)

    names = tuple("_".join(str(x) for x in s) for s in slots)
    return GaitFamily(build=build, lower=lower, upper=upper, names=names)


def amplitude_phase_family(
    period: float = 1.0,
    amplitude_bounds: tuple[float, float] = (0.1, 1.2),
    phase_bounds: tuple[float, float] = (-np.pi, np.pi),
) -> GaitFamily:
    """Two-coordinate sinusoid family: equal amplitudes, relative phase.

    r1 = a sin(w t), r2 = a sin(w t + phi).
    """

    def build(p: np.ndarray) -> FourierGait:
        a, phi = float(p[0]), float(p[1])
        return FourierGait(
            period,
            mean=np.zeros(2),
            cos=np.array([[0.0, a * np.sin(phi)]]),
            sin=np.array([[a, a * np.cos(phi)]]),
        )

    return GaitFamily(
        build=build,
        lower=np.array([amplitude_bounds[0], phase_bounds[0]]),
        upper=np.array([amplitude_bounds[1], phase_bounds[1]]),
        names=("amplitude", "phase"),
    )


def objective_displacement(
    provider,
    gait,
    direction: str = "x",
    step: float = 1e-2,
    cycles: int = 1,
) -> float:
    """Chosen component of the per-cycle displacement exponent.

    Singular configurations score -inf so the search simply avoids them.
    """
    if not isinstance(direction, str) or direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {tuple(DIRECTIONS)}, got {direction!r}")
    try:
        traj = integrate_gait(provider, gait, cycles=cycles, step=step)
        disp = net_displacement(traj)
    except (SingularConstraint, DegenerateStance):
        return float("-inf")
    return DIRECTIONS[direction](disp)


@dataclass
class OptimizationReport:
    """Search outcome with the full, deterministic evaluation history."""

    best_params: np.ndarray
    best_value: float
    evaluations: int
    history: list[tuple[np.ndarray, float]]
    termination: str


def nelder_mead(
    objective: Callable[[np.ndarray], float],
    lower: np.ndarray,
    upper: np.ndarray,
    budget: int = 500,
    seeds: int = 4,
    rng_seed: int = 0,
) -> OptimizationReport:
    """Maximize a bounded objective with restarted projected Nelder-Mead.

    The budget counts objective evaluations across all restarts; the best
    point ever evaluated is returned even if a later restart wanders off.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    dim = lower.shape[0]
    if budget < dim + 1:
        raise ValueError(f"budget {budget} cannot even build one simplex in {dim} dims")
    if seeds < 1:
        raise ValueError("need at least one restart seed")
    span = upper - lower

    history: list[tuple[np.ndarray, float]] = []
    best_p: np.ndarray | None = None
    best_v = float("-inf")
    used = 0
    termination = "budget"

    def project(p: np.ndarray) -> np.ndarray:
        return np.clip(p, lower, upper)

    def evaluate(p: np.ndarray) -> float:
        nonlocal used, best_p, best_v
        v = float(objective(p))
        used += 1
        history.append((p.copy(), v))
        if v > best_v:
            best_v, best_p = v, p.copy()
        return v

    per_seed = budget // seeds
    for s in range(seeds):
        remaining = budget - used
        if remaining < dim + 1:
            break
        allowance = min(per_seed if s < seeds - 1 else remaining, remaining)
        rng = np.random.default_rng((rng_seed, s))
        x0 = lower + span * rng.uniform(size=dim)
        simplex = [project(x0)]
        for i in range(dim):
            step = np.zeros(dim)
            step[i] = 0.1 * span[i] * (1.0 if x0[i] + 0.1 * span[i] <= upper[i] else -1.0)
            simplex.append(project(x0 + step))
        simplex = np.stack(simplex)
        values = np.array([evaluate(p) for p in simplex])
        spent = dim + 1

        while spent < allowance:
            order = np.argsort(values)[::-1]  # descending: maximizing
            simplex, values = simplex[order], values[order]
            if np.max(np.abs(simplex - simplex[0])) < 1e-12:
                termination = "converged"
                break
            centroid = simplex[:-1].mean(axis=0)
            worst = simplex[-1]
            reflected = project(centroid + (centroid - worst))
            fr = evaluate(reflected)
            spent += 1
            if fr > values[0]:
                if spent < allowance:
                    expanded = project(centroid + 2.0 * (centroid - worst))
                    fe = evaluate(expanded)
                    spent += 1
                    if fe > fr:
                        simplex[-1], values[-1] = expanded, fe
                        continue
                simplex[-1], values[-1] = reflected, fr
                continue
            if fr > values[-2]:
                simplex[-1], values[-1] = reflected, fr
                continue
            contracted = project(centroid + 0.5 * (worst - centroid))
            if spent >= allowance:
                break
            fc = evaluate(contracted)
            spent += 1
            if fc > values[-1]:
                simplex[-1], values[-1] = contracted, fc
                continue
            for i in range(1, dim + 1):
                if spent >= allowance:
                    break
                simplex[i] = project(simplex[0] + 0.5 * (simplex[i] - simplex[0]))
                values[i] = evaluate(simplex[i])
                spent += 1

    return OptimizationReport(
        best_params=best_p,
        best_value=best_v,
        evaluations=used,
        history=history,
        termination=termination,
    )


def optimize(
    provider,
    family: GaitFamily,
    direction: str = "x",
    step: float = 1e-2,
    cycles: int = 1,
    budget: int = 500,
    seeds: int = 4,
    rng_seed: int = 0,
) -> OptimizationReport:
    """Search a gait family for the largest displacement objective."""

    def objective(p: np.ndarray) -> float:
        return objective_displacement(
            provider, family.build(p), direction=direction, step=step, cycles=cycles
        )

    return nelder_mead(
        objective,
        family.lower,
        family.upper,
        budget=budget,
        seeds=seeds,
        rng_seed=rng_seed,
    )
