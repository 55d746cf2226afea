"""Per-layer spans and counters for a traced benchmark repetition.

The tracer wraps the library's public functions at the module attribute or
class attribute through which their callers look them up (for example
``locomech.integrator.exp`` and ``locomech.scenario.build_drag_constraints``),
so nothing under ``src/`` changes.  Each wrapper records one span: call count,
inclusive time, and self time (inclusive minus the wrapped calls it made).
A call nested directly inside another call of the same group (for example
``connection_at`` delegating to ``connection_for``) adds to self time but not
to the group's call count or inclusive time.

A target that no longer exists is recorded in ``missing`` instead of raising,
and the metrics that depend on it read 0.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np

# (group, module, attribute path) for every wrapped lookup site
TARGETS = (
    ("connection", "locomech.connection", "JacobianConnection.connection_at"),
    ("connection", "locomech.connection", "ConstraintConnection.connection_at"),
    ("connection", "locomech.connection", "PiecewiseConnection.connection_at"),
    ("connection", "locomech.connection", "PiecewiseConnection.connection_for"),
    ("select", "locomech.connection", "JacobianConnection.contacts_at"),
    ("select", "locomech.connection", "ConstraintConnection.contacts_at"),
    ("select", "locomech.connection", "PiecewiseConnection.contacts_at"),
    ("solve", "locomech.connection", "linear_constraint_connection"),
    ("fd", "locomech.connection", "jacobian_connection_eval"),
    ("assemble", "locomech.models", "build_drag_constraints"),
    ("assemble", "locomech.models", "build_slip_constraints"),
    ("assemble", "locomech.scenario", "build_drag_constraints"),
    ("assemble", "locomech.scenario", "build_slip_constraints"),
    ("evaluate", "locomech.shapespace", "FourierGait.evaluate"),
    ("evaluate", "locomech.shapespace", "WaypointGait.evaluate"),
    ("integrate", "locomech.cli", "integrate_gait"),
    ("integrate", "locomech.optimizer", "integrate_gait"),
    ("integrate", "locomech.verify", "integrate_gait"),
    ("integrate", "locomech.analysis", "integrate_gait"),
    ("exp", "locomech.integrator", "exp"),
    ("compose", "locomech.integrator", "compose"),
    ("sample", "locomech.cli", "sample_field"),
    ("curvature", "locomech.cli", "curvature"),
    ("optimize", "locomech.cli", "run_optimize"),
    ("nelder_mead", "locomech.optimizer", "nelder_mead"),
    ("objective", "locomech.optimizer", "objective_displacement"),
    ("verify", "locomech.cli", "run_verify"),
    # library calls made by the cmd_* functions, so cli self time is writing
    ("cli_lib", "locomech.cli", "net_displacement"),
    ("cli_lib", "locomech.cli", "per_cycle_displacements"),
    ("cli_lib", "locomech.cli", "build_family"),
)

# name -> (unit, kind); "count" values are deterministic and must repeat
# exactly between traced repetitions, "time" values are reported as medians.
PER_LAYER = {
    "scenario.load_s": ("s", "time"),
    "connection.calls": ("count", "count"),
    "connection.us_per_call": ("us", "time"),
    "connection.self_s": ("s", "time"),
    "connection.solve_s": ("s", "time"),
    "connection.fd_s": ("s", "time"),
    "connection.singular": ("count", "count"),
    "models.assemble_calls": ("count", "count"),
    "models.assemble_s": ("s", "time"),
    "models.select_calls": ("count", "count"),
    "shapespace.evaluate_calls": ("count", "count"),
    "shapespace.evaluate_s": ("s", "time"),
    "integrator.calls": ("count", "count"),
    "integrator.steps": ("count", "count"),
    "integrator.self_s": ("s", "time"),
    "integrator.us_per_step": ("us", "time"),
    "integrator.conn_per_step": ("calls/step", "count"),
    "integrator.unique_stage_ratio": ("ratio", "count"),
    "integrator.events": ("count", "count"),
    "integrator.contacts_calls": ("count", "count"),
    "liegroup.exp_calls": ("count", "count"),
    "liegroup.compose_calls": ("count", "count"),
    "analysis.nodes": ("count", "count"),
    "analysis.sample_s": ("s", "time"),
    "analysis.us_per_node": ("us", "time"),
    "analysis.curvature_s": ("s", "time"),
    "analysis.invalid_nodes": ("count", "count"),
    "optimizer.evals": ("count", "count"),
    "optimizer.ms_per_eval": ("ms", "time"),
    "optimizer.self_s": ("s", "time"),
    "optimizer.unique_eval_ratio": ("ratio", "count"),
    "optimizer.evals_to_best": ("count", "count"),
    "optimizer.neg_inf_evals": ("count", "count"),
    "verify.s": ("s", "time"),
    "verify.integrations": ("count", "count"),
    "cli.write_s": ("s", "time"),
    "cli.bytes_written": ("B", "count"),
    "trace.overhead_s": ("s", "time"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _last_arg(args, kwargs, name: str):
    return kwargs[name] if name in kwargs else args[-1]


class Tracer:
    """Span and counter store for one process; install() wraps the targets."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.raised: dict[str, int] = defaultdict(int)
        self.active: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[list] = []
        # work attributed inside integrate_gait / run_verify
        self.conn_in_integrator = 0
        self.select_in_integrator = 0
        self.integrations_in_verify = 0
        self.distinct_stages = 0
        self._stage_shapes: set[bytes] = set()
        self.steps = 0
        self.events = 0
        self.nodes = 0
        self.invalid_nodes = 0
        self.histories: list = []

    # -- wrapping -------------------------------------------------------
    def span(self, group: str, fn, on_call=None, on_result=None):
        """Return fn wrapped in a span of `group`."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            nested = bool(stack) and stack[-1][0] == group
            if on_call is not None:
                on_call(nested, args, kwargs)
            frame = [group, 0.0]
            stack.append(frame)
            tracer.active[group] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.raised[f"{group}:{type(exc).__name__}"] += 1
                raise
            finally:
                dur = perf_counter() - t0
                stack.pop()
                tracer.active[group] -= 1
                tracer.self_time[group] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if not nested:
                    tracer.calls[group] += 1
                    tracer.incl[group] += dur
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def install(self) -> None:
        hooks = {
            "connection": (self._on_connection, None),
            "select": (self._on_select, None),
            "integrate": (self._on_integrate, self._after_integrate),
            "sample": (None, self._after_sample),
            "curvature": (None, self._after_curvature),
            "nelder_mead": (None, self.histories.append),
        }
        for group, module_name, path in TARGETS:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path.split(".") if owner_path else ():
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            on_call, on_result = hooks.get(group, (None, None))
            setattr(owner, attr, self.span(group, fn, on_call, on_result))

    # -- hooks ----------------------------------------------------------
    def _on_connection(self, nested, args, kwargs) -> None:
        if nested or not self.active["integrate"]:
            return
        self.conn_in_integrator += 1
        r = _last_arg(args, kwargs, "r")
        self._stage_shapes.add(np.asarray(r, dtype=float).tobytes())

    def _on_select(self, nested, args, kwargs) -> None:
        if self.active["integrate"]:
            self.select_in_integrator += 1

    def _on_integrate(self, nested, args, kwargs) -> None:
        self._stage_shapes.clear()
        if self.active["verify"]:
            self.integrations_in_verify += 1

    def _after_integrate(self, traj) -> None:
        self.distinct_stages += len(self._stage_shapes)
        self._stage_shapes.clear()
        self.steps += len(traj.times) - 1
        self.events += len(traj.events)

    def _after_sample(self, field) -> None:
        self.nodes += int(field.conn.shape[0] * field.conn.shape[1])

    def _after_curvature(self, cfield) -> None:
        self.invalid_nodes += int((~cfield.valid).sum())

    # -- results --------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer values measured in this process (times in seconds)."""
        calls, incl, self_t = self.calls, self.incl, self.self_time
        evals = calls["objective"]
        n_hist = distinct = evals_to_best = neg_inf = 0
        for report in self.histories:
            values = [v for _, v in report.history]
            n_hist += len(values)
            distinct += len({p.tobytes() for p, _ in report.history})
            neg_inf += sum(1 for v in values if v == float("-inf"))
            if values:
                evals_to_best += values.index(report.best_value) + 1
        return {
            "connection.calls": calls["connection"],
            "connection.us_per_call": 1e6 * _ratio(incl["connection"], calls["connection"]),
            "connection.self_s": self_t["connection"],
            "connection.solve_s": incl["solve"],
            "connection.fd_s": incl["fd"],
            "connection.singular": self.raised["solve:SingularConstraint"],
            "models.assemble_calls": calls["assemble"],
            "models.assemble_s": incl["assemble"],
            "models.select_calls": calls["select"],
            "shapespace.evaluate_calls": calls["evaluate"],
            "shapespace.evaluate_s": incl["evaluate"],
            "integrator.calls": calls["integrate"],
            "integrator.steps": self.steps,
            "integrator.self_s": self_t["integrate"],
            "integrator.us_per_step": 1e6 * _ratio(incl["integrate"], self.steps),
            "integrator.conn_per_step": _ratio(self.conn_in_integrator, self.steps),
            "integrator.unique_stage_ratio": _ratio(self.distinct_stages, self.conn_in_integrator),
            "integrator.events": self.events,
            "integrator.contacts_calls": self.select_in_integrator,
            "liegroup.exp_calls": calls["exp"],
            "liegroup.compose_calls": calls["compose"],
            "analysis.nodes": self.nodes,
            "analysis.sample_s": incl["sample"],
            "analysis.us_per_node": 1e6 * _ratio(incl["sample"], self.nodes),
            "analysis.curvature_s": incl["curvature"],
            "analysis.invalid_nodes": self.invalid_nodes,
            "optimizer.evals": evals,
            "optimizer.ms_per_eval": 1e3 * _ratio(incl["objective"], evals),
            "optimizer.self_s": incl["nelder_mead"] - incl["objective"],
            "optimizer.unique_eval_ratio": _ratio(distinct, n_hist),
            "optimizer.evals_to_best": evals_to_best,
            "optimizer.neg_inf_evals": neg_inf,
            "verify.s": incl["verify"],
            "verify.integrations": self.integrations_in_verify,
            "cli.write_s": self_t["cmd"],
        }
