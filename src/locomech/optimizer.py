"""Derivative-free gait search over bounded parametric families.

A GaitFamily maps a small parameter vector inside a box onto a closed gait;
the objective is a component of the per-cycle displacement exponent.  Search
is projected Nelder-Mead (reflection 1, expansion 2, contraction 0.5, shrink
0.5) from seeded random simplices, its restarts in lockstep, so optimize
integrates each round's gaits as one batch.  The start points are numpy's
default_rng stream (PCG64), computed in-package and bitwise, so runs are
deterministic per seed whatever numpy is installed.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from ._numerics import _uniforms
from ._record import FrozenRecord, Record
from .connection import SingularConstraint
from .integrator import integrate_gait, integrate_gaits, net_displacement
from .shapespace import FourierGait

# search direction -> the component of the displacement exponent it maximizes
DIRECTIONS = {
    "x": lambda disp: disp.vx,
    "y": lambda disp: disp.vy,
    "theta": lambda disp: disp.omega,
    "speed": lambda disp: float(np.hypot(disp.vx, disp.vy)),
}
SLOT_KINDS = ("mean", "cos", "sin")


class GaitFamily(FrozenRecord):
    """Bounded parameterization of closed gaits.

    build(p) must return a valid gait for every p inside [lower, upper];
    Fourier templates make closure automatic.
    """

    def __init__(self, build: Callable[[np.ndarray], object], lower: np.ndarray, upper: np.ndarray,
                 names: tuple[str, ...] = ()) -> None:
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("bounds must be two equal-length vectors")
        if not np.all(lower < upper):
            raise ValueError("need lower < upper in every coordinate")
        self.__dict__.update(build=build, lower=lower, upper=upper, names=names)

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
    event_tol: float = 1e-10,
) -> float:
    """Chosen component of the per-cycle displacement exponent, integrated as integrate_gait does.

    Singular configurations score -inf so the search simply avoids them.
    """
    score = _scorer(direction)
    try:
        return score(integrate_gait(provider, gait, cycles, step, event_tol))
    except SingularConstraint:
        return float("-inf")


def _scorer(direction: str) -> Callable[[object], float]:
    """The objective's score of a trajectory: the direction's component of its first cycle's displacement."""
    if not isinstance(direction, str) or direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {tuple(DIRECTIONS)}, got {direction!r}")
    return lambda traj: DIRECTIONS[direction](net_displacement(traj))


class OptimizationReport(Record):
    """Search outcome with the full, deterministic evaluation history."""

    def __init__(self, best_params: np.ndarray, best_value: float, evaluations: int,
                 history: list[tuple[np.ndarray, float]], termination: str) -> None:
        self.best_params = best_params
        self.best_value = best_value
        self.evaluations = evaluations
        self.history = history
        self.termination = termination


def _restart(simplex: np.ndarray, project):
    """One projected Nelder-Mead restart, a generator that yields the (k, dim) points it needs and is sent their values.

    It asks for its simplex, then one point per reflection, expansion or
    contraction, or the dim points of a shrink; an empty request means it has
    converged.  A request cut short by the allowance ends the restart.
    """
    values = np.array((yield simplex))
    while True:
        order = np.argsort(values)[::-1]  # descending: maximizing
        simplex, values = simplex[order], values[order]
        if np.max(np.abs(simplex - simplex[0])) < 1e-12:
            yield simplex[:0]
        centroid, worst = simplex[:-1].mean(axis=0), simplex[-1]
        reflected = project(centroid + (centroid - worst))
        (fr,) = yield reflected[None]
        if fr > values[0]:
            expanded = project(centroid + 2.0 * (centroid - worst))
            (fe,) = yield expanded[None]
            simplex[-1], values[-1] = (expanded, fe) if fe > fr else (reflected, fr)
        elif fr > values[-2]:
            simplex[-1], values[-1] = reflected, fr
        else:
            contracted = project(centroid + 0.5 * (worst - centroid))
            (fc,) = yield contracted[None]
            if fc > values[-1]:
                simplex[-1], values[-1] = contracted, fc
            else:
                simplex[1:] = project(simplex[0] + 0.5 * (simplex[1:] - simplex[0]))
                values[1:] = yield simplex[1:]


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
    return _lockstep(lambda points: [objective(p) for p in points], lower, upper, budget, seeds, rng_seed)


def _lockstep(evaluate, lower, upper, budget: int, seeds: int, rng_seed: int) -> OptimizationReport:
    """nelder_mead with its restarts in lockstep: each round scores their pending points in one evaluate(points).

    Restart s starts from a simplex about lower + span * u, u the first dim
    draws of default_rng((rng_seed, s)).random computed in-package, and
    may spend budget // seeds evaluations, or its dim + 1 simplex points if
    more; the last may spend what the others left, so past budget // seeds it
    waits for them to end.  History is in restart order, as if they ran in turn.
    """
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    dim = lower.shape[0]
    if budget < dim + 1:
        raise ValueError(f"budget {budget} cannot even build one simplex in {dim} dims")
    if seeds < 1:
        raise ValueError("need at least one restart seed")
    span = upper - lower
    project = partial(np.clip, a_min=lower, a_max=upper)
    per_seed = budget // seeds
    # with per_seed <= dim every restart spends just its simplex, and the last never runs
    runs = seeds if per_seed > dim else min(seeds, budget // (dim + 1))
    restarts = []
    for s in range(runs):
        x0 = lower + span * _uniforms((rng_seed, s), dim)
        # x0 and a tenth of the span along each axis, backwards where forwards leaves the box
        steps = np.diag(0.1 * span * np.where(x0 + 0.1 * span <= upper, 1.0, -1.0))
        restarts.append(_restart(project(np.vstack([x0, x0 + steps])), project))
    requests = [next(r) for r in restarts]
    # the last restart's allowance is a floor of per_seed until the others end
    allowance, waiting = [per_seed] * runs, runs == seeds
    histories, live, converged = [[] for _ in restarts], list(range(runs)), False
    while live:
        if waiting and live == [seeds - 1]:
            allowance[-1], waiting = budget - sum(map(len, histories[:-1])), False
        take = {}
        for s in live:
            points, spent, cap = requests[s], len(histories[s]), allowance[s]
            if waiting and s == seeds - 1 and spent + max(len(points), 1) > cap:
                continue
            take[s] = max(0, min(len(points), cap - spent)) if spent else len(points)
            converged |= not len(points) and spent < cap
        batch = [p for s, k in take.items() for p in requests[s][:k]]
        values = iter(evaluate(batch) if batch else ())
        for s, k in take.items():
            got = [float(next(values)) for _ in range(k)]
            histories[s].extend((p.copy(), v) for p, v in zip(requests[s], got))
            if k and k == len(requests[s]):
                requests[s] = restarts[s].send(got)
            else:
                live.remove(s)
    history = [entry for h in histories for entry in h]
    best_p, best_v = None, float("-inf")
    for p, v in history:
        if v > best_v:
            best_p, best_v = p.copy(), v
    return OptimizationReport(best_p, best_v, len(history), history, "converged" if converged else "budget")


def optimize(
    provider,
    family: GaitFamily,
    direction: str = "x",
    step: float = 1e-2,
    cycles: int = 1,
    budget: int = 500,
    seeds: int = 4,
    rng_seed: int = 0,
    event_tol: float = 1e-10,
) -> OptimizationReport:
    """Search a gait family for the largest displacement objective.

    Each round's gaits are integrated together, each scored as it is finished;
    a singular round is rescored gait by gait, so a singular gait scores -inf alone.
    """
    score = _scorer(direction)

    def evaluate(points) -> list:
        gaits = [family.build(p) for p in points]
        try:
            return [score(traj) for traj in integrate_gaits(provider, gaits, cycles, step, event_tol)]
        except SingularConstraint:
            return [objective_displacement(provider, gait, direction, step, cycles, event_tol) for gait in gaits]

    return _lockstep(evaluate, family.lower, family.upper, budget, seeds, rng_seed)
