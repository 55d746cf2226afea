"""Scenario-driven command line front end.

Four subcommands share one scenario format: simulate integrates the gait
and writes the trajectory, sweep tabulates the connection over a shape
grid, optimize searches a gait family, and verify runs invariant suites.
All output is plain CSV or JSON with a short metadata header (schema
version and scenario hash, never timestamps), floats printed as %.17g so
files reparse to the exact in-memory doubles and reruns are byte-identical.
A field.csv column whose values repeat is formatted once per distinct bit
pattern, which gives the same bytes.  CSV files are written row by row from
arrays computed before the file is opened, so an abort leaves no partial
file.

Exit codes: 0 success, 1 invariant failure, 2 scenario validation error
(including an output location that cannot be created or written), 3
numerical abort (singular constraint or degenerate stance).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import repeat

import numpy as np

from .analysis import curvature, sample_field
from .connection import SingularConstraint
from .integrator import integrate_gait, net_displacement, per_cycle_displacements
from .optimizer import optimize as run_optimize
from .scenario import SCHEMA_VERSION, Scenario, ScenarioError, load_scenario
from .verify import run_verify

_TWIST_AXES = ("vx", "vy", "om")

# trajectory.csv rows per slab, each one .tolist() and one write, so the
# Python floats held at once stay bounded however long the run
_SLAB_ROWS = 4096

# cells in the strided sample that decides whether a float column is worth
# spelling once per distinct value (see _pool_columns)
_PROBE_CELLS = 256


def _contact_str(contacts) -> str:
    if contacts is None:
        return ""
    return "+".join(str(i) for i in sorted(contacts))


def _spell_contacts(labels: list) -> list[str]:
    """The contact-set cell of each label; each distinct label is spelled once."""
    spelled = {label: _contact_str(label) for label in set(labels)}
    return [spelled[label] for label in labels]


def _header(scenario: Scenario, command: str) -> dict:
    """The schema version, scenario hash and command that head every artifact."""
    return {"schema": SCHEMA_VERSION, "scenario": f"sha256:{scenario.sha}", "command": command}


def _meta_lines(scenario: Scenario, command: str) -> list[str]:
    """The header as CSV comment lines."""
    return [f"# {key}={value}" for key, value in _header(scenario, command).items()]


def _pool_columns(values: np.ndarray) -> list:
    """Per column of `values` (rows x k): None, or its spelled pool and each row's index into it.

    A column is pooled when a strided sample of fewer than _PROBE_CELLS of
    its cells holds at most half as many distinct bit patterns; otherwise
    it is left to %.17g cell by cell.  A pool holds the %.17g string of each
    distinct bit pattern (not value, so -0.0, 0.0 and NaN payloads stay
    apart), and the index has the narrowest unsigned dtype that reaches it.
    """
    bits = values.view(np.int64)
    sample = bits[:: len(bits) // _PROBE_CELLS + 1].T.copy()
    sample.sort()
    distinct = 1 + np.count_nonzero(sample[:, 1:] != sample[:, :-1], axis=1)
    pools = []
    for column, count in zip(bits.T, distinct.tolist()):
        if 2 * count > sample.shape[1]:
            pools.append(None)
            continue
        patterns, index = np.unique(column, return_inverse=True)
        spelled = np.array(["%.17g" % v for v in patterns.view(np.float64).tolist()], dtype=object)
        pools.append((spelled, index.astype(np.min_scalar_type(max(len(patterns) - 1, 0)))))
    return pools


def _float_slots(pools: list) -> list[str]:
    """The template slot of each column planned by _pool_columns: %s for a pool, else %.17g."""
    return ["%.17g" if pool is None else "%s" for pool in pools]


def _float_cells(values: np.ndarray, pools: list, lo: int, hi: int) -> list[list]:
    """The cells of rows lo:hi of `values`, column by column: floats, or pooled strings."""
    if not any(pools):
        return values[lo:hi].T.tolist()
    return [
        values[lo:hi, k].tolist() if pool is None else pool[0].take(pool[1][lo:hi]).tolist()
        for k, pool in enumerate(pools)
    ]


def _open_artifact(path: str):
    """Open an output file for writing; a path that cannot be written is a bad `out`."""
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ScenarioError("out", f"cannot write {path}: {exc.strerror or exc}") from None


def _write_csv(path: str, head: list[str], template: str, slabs) -> None:
    """Write the head lines, then `template % row` for every row of every slab.

    A slab is an iterable of row tuples of plain Python values; template
    ends in a newline and spells each float %.17g, which gives the bytes of
    format(x, ".17g").  A repeated value may come already spelled so, once
    per distinct bit pattern (_pool_columns), and then fills a %s slot with
    the same bytes.  Slabs only format values computed before the call, so
    nothing that can abort runs once the file is open.
    """
    with _open_artifact(path) as handle:
        handle.write("\n".join(head) + "\n")
        for rows in slabs:
            handle.write("".join(map(template.__mod__, rows)))


def _write_json(path: str, payload: dict) -> None:
    with _open_artifact(path) as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _write_trajectory(path: str, meta: list[str], traj) -> None:
    """Write trajectory.csv: one row per trajectory sample, in slabs of _SLAB_ROWS rows."""
    dim = traj.shapes.shape[1]
    header = (
        ["t", "x", "y", "theta"]
        + [f"r{k + 1}" for k in range(dim)]
        + ["xi_vx", "xi_vy", "xi_omega", "contact_set"]
    )
    values = np.column_stack([traj.times, traj.pose_array.T, traj.shapes, traj.twists])
    contacts = _spell_contacts(traj.contacts)
    slabs = (
        zip(*values[k : k + _SLAB_ROWS].T.tolist(), contacts[k : k + _SLAB_ROWS])
        for k in range(0, len(contacts), _SLAB_ROWS)
    )
    template = "%.17g," * (7 + dim) + "%s\n"
    _write_csv(path, meta + [f"# dim={dim}", ",".join(header)], template, slabs)


def _write_field(path: str, meta: list[str], field, curv) -> None:
    """Write field.csv: one row per grid node in row-major order, one grid row per slab.

    Each axis value is spelled once, not once per node, and so is each
    distinct cell of a connection or curvature column that repeats
    (_pool_columns), such as the piecewise-constant stance connections of a
    legged model.
    """
    n1, n2, _, dim = field.conn.shape
    header = ["i", "j", "r1", "r2"]
    for axis in _TWIST_AXES:
        header.extend(f"A_{axis}_{k + 1}" for k in range(dim))
    header.extend(["contact_set", "singular"])
    conn = field.conn.reshape(n1 * n2, 3 * dim)
    conn_pools = _pool_columns(conn)
    slots = ["%d", "%d", "%s", "%s", *_float_slots(conn_pools), "%s", "%d"]
    if curv is not None:
        header.extend(["D_vx", "D_vy", "D_omega"])
        curv_values = curv.values.reshape(n1 * n2, 3)
        curv_pools = _pool_columns(curv_values)
        slots.extend(_float_slots(curv_pools))
    template = ",".join(slots) + "\n"
    head = meta + [f"# counts={n1}x{n2}", f"# dim={dim}", f"# curvature={int(curv is not None)}", ",".join(header)]
    axis1 = ["%.17g" % v for v in field.axis1.tolist()]
    axis2 = ["%.17g" % v for v in field.axis2.tolist()]
    spelled = [_contact_str(c) for c in field.catalog]
    contacts = [""] * (n1 * n2) if field.contacts is None else [spelled[c] for c in field.contacts.ravel().tolist()]

    def slab(i: int):
        lo, hi = i * n2, (i + 1) * n2
        columns = [repeat(i), range(n2), repeat(axis1[i]), axis2, *_float_cells(conn, conn_pools, lo, hi)]
        columns.extend([contacts[lo:hi], field.singular[i].tolist()])
        if curv is not None:
            columns.extend(_float_cells(curv_values, curv_pools, lo, hi))
        return zip(*columns)

    _write_csv(path, head, template, map(slab, range(n1)))


_COMMANDS = {}


def _command(name: str, help: str):
    """Register the decorated handler in _COMMANDS as subcommand name, with its --help line."""

    def register(handler):
        handler.help = help
        _COMMANDS[name] = handler
        return handler

    return register


@_command("simulate", "integrate the gait and write trajectory + summary")
def cmd_simulate(scenario: Scenario) -> int:
    traj = integrate_gait(scenario.provider, scenario.gait, scenario.cycles, scenario.step, scenario.event_tol)
    _write_trajectory(os.path.join(scenario.out_dir, "trajectory.csv"), _meta_lines(scenario, "simulate"), traj)

    net = net_displacement(traj)
    summary = {
        **_header(scenario, "simulate"),
        "net_displacement": [net.vx, net.vy, net.omega],
        "per_cycle": [[d.vx, d.vy, d.omega] for d in per_cycle_displacements(traj)],
        "events": [
            {"time": e.time, "before": _contact_str(e.before), "after": _contact_str(e.after),
             "shape": e.shape.tolist()}
            for e in traj.events
        ],
        "meta": dict(traj.meta),
    }
    _write_json(os.path.join(scenario.out_dir, "summary.json"), summary)
    return 0


@_command("sweep", "tabulate the connection (and optionally curvature) over a grid")
def cmd_sweep(scenario: Scenario) -> int:
    block = scenario.block("sweep")
    field = sample_field(scenario.provider, scenario.grid)
    curv = curvature(field) if block["curvature"] else None

    _write_field(os.path.join(scenario.out_dir, "field.csv"), _meta_lines(scenario, "sweep"), field, curv)
    return 0


@_command("optimize", "search a gait family for maximal displacement")
def cmd_optimize(scenario: Scenario) -> int:
    block = scenario.block("optimize")
    family = scenario.family
    report = run_optimize(scenario.provider, family, block["direction"], scenario.step, scenario.cycles,
                          block["budget"], block["restarts"], scenario.seed)
    payload = {
        **_header(scenario, "optimize"),
        "direction": block["direction"],
        "budget": block["budget"],
        "restarts": block["restarts"],
        "parameter_names": list(family.names),
        "best_params": None if report.best_params is None else [float(v) for v in report.best_params],
        "best_value": report.best_value,
        "evaluations": report.evaluations,
        "termination": report.termination,
        "history": [{"params": [float(v) for v in p], "value": v} for p, v in report.history],
    }
    _write_json(os.path.join(scenario.out_dir, "report.json"), payload)
    return 0


@_command("verify", "run invariant suites; nonzero exit on failure")
def cmd_verify(scenario: Scenario) -> int:
    rows = run_verify(scenario)
    _write_csv(
        os.path.join(scenario.out_dir, "verify.csv"),
        _meta_lines(scenario, "verify") + ["suite,check,value,threshold,passed"],
        "%s,%s,%.17g,%.17g,%d\n",
        [[(row.suite, row.check, row.value, row.threshold, row.passed) for row in rows]],
    )
    for row in rows:
        verdict = "PASS" if row.passed else "FAIL"
        print("%s/%s: %s value=%.17g threshold=%.17g" % (row.suite, row.check, verdict, row.value, row.threshold))
    return 0 if all(row.passed for row in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="locomech",
        description="Scenario-driven shape-space locomotion runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        cmd = sub.add_parser(name, help=handler.help)
        cmd.add_argument("scenario", help="path to a scenario YAML file")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--step", type=float, default=None, help="integrator step override")
        cmd.add_argument("--cycles", type=int, default=None, help="cycle count override")
        cmd.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)

    try:
        overrides = {key: getattr(args, key) for key in ("out", "step", "cycles", "seed")}
        scenario = load_scenario(args.scenario, overrides=overrides)
        try:
            os.makedirs(scenario.out_dir, exist_ok=True)
        except OSError as exc:
            raise ScenarioError("out", f"cannot create {scenario.out_dir}: {exc.strerror or exc}") from None
        return _COMMANDS[args.command](scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except SingularConstraint as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
