"""Scenario-driven command line front end.

Four subcommands share one scenario format: simulate integrates the gait
and writes the trajectory, sweep tabulates the connection over a shape
grid, optimize searches a gait family, and verify runs invariant suites.
All output is plain CSV or JSON with a short metadata header (schema
version and scenario hash, never timestamps), floats printed as %.17g so
files reparse to the exact in-memory doubles and reruns are byte-identical.
CSV files are written row by row from arrays computed before the file is
opened, so an abort leaves no partial file.

Exit codes: 0 success, 1 invariant failure, 2 scenario validation error,
3 numerical abort (singular constraint or degenerate stance).
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
from .models import DegenerateStance
from .optimizer import optimize as run_optimize
from .scenario import SCHEMA_VERSION, Scenario, ScenarioError, load_scenario
from .verify import run_verify

_TWIST_AXES = ("vx", "vy", "om")

# trajectory.csv rows per slab, each one .tolist() and one write, so the
# Python floats held at once stay bounded however long the run
_SLAB_ROWS = 4096


def _contact_str(contacts) -> str:
    if contacts is None:
        return ""
    return "+".join(str(i) for i in sorted(contacts))


def _spell_contacts(labels: list) -> list[str]:
    """The contact-set cell of each label; each distinct label is spelled once."""
    spelled = {label: _contact_str(label) for label in set(labels)}
    return [spelled[label] for label in labels]


def _parse_contacts(text: str):
    if text == "":
        return None
    return frozenset(int(part) for part in text.split("+"))


def _meta_lines(scenario: Scenario, command: str) -> list[str]:
    return [
        f"# schema={SCHEMA_VERSION}",
        f"# scenario=sha256:{scenario.sha}",
        f"# command={command}",
    ]


def _write_csv(path: str, head: list[str], template: str, slabs) -> None:
    """Write the head lines, then `template % row` for every row of every slab.

    A slab is an iterable of row tuples of plain Python values; template
    ends in a newline and spells each float %.17g, which gives the bytes of
    format(x, ".17g").  Slabs only format values computed before the call,
    so nothing that can abort runs once the file is open.
    """
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(head) + "\n")
        for rows in slabs:
            handle.write("".join(map(template.__mod__, rows)))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _read_meta_and_rows(path: str):
    meta: dict[str, str] = {}
    rows: list[list[str]] = []
    header: list[str] | None = None
    with open(path, "r", newline="") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path} has no header row")
    return meta, header, rows


def _write_trajectory(path: str, meta: list[str], traj) -> None:
    """Write trajectory.csv: one row per trajectory sample, in slabs of _SLAB_ROWS rows."""
    dim = traj.shapes.shape[1]
    header = (
        ["t", "x", "y", "theta"]
        + [f"r{k + 1}" for k in range(dim)]
        + ["xi_vx", "xi_vy", "xi_omega", "contact_set"]
    )
    poses = [(p.x, p.y, p.theta) for p in traj.poses]
    values = np.column_stack([traj.times, poses, traj.shapes, traj.twists])
    contacts = _spell_contacts(traj.contacts)
    slabs = (
        zip(*values[k : k + _SLAB_ROWS].T.tolist(), contacts[k : k + _SLAB_ROWS])
        for k in range(0, len(contacts), _SLAB_ROWS)
    )
    template = "%.17g," * (7 + dim) + "%s\n"
    _write_csv(path, meta + [f"# dim={dim}", ",".join(header)], template, slabs)


def _write_field(path: str, meta: list[str], field, curv) -> None:
    """Write field.csv: one row per grid node in row-major order, one grid row per slab.

    Each axis value is spelled once, not once per node.
    """
    n1, n2, _, dim = field.conn.shape
    header = ["i", "j", "r1", "r2"]
    for axis in _TWIST_AXES:
        header.extend(f"A_{axis}_{k + 1}" for k in range(dim))
    header.extend(["contact_set", "singular"])
    if curv is not None:
        header.extend(["D_vx", "D_vy", "D_omega"])
    template = "%d,%d,%s,%s," + "%.17g," * (3 * dim) + "%s,%d" + ",%.17g" * (3 * (curv is not None)) + "\n"
    head = meta + [f"# counts={n1}x{n2}", f"# dim={dim}", f"# curvature={int(curv is not None)}", ",".join(header)]
    axis1 = ["%.17g" % v for v in field.axis1.tolist()]
    axis2 = ["%.17g" % v for v in field.axis2.tolist()]
    contacts = [""] * (n1 * n2) if field.contacts is None else _spell_contacts(field.contacts.ravel().tolist())
    conn = field.conn.reshape(n1, n2, 3 * dim)

    def slab(i: int):
        columns = [repeat(i), range(n2), repeat(axis1[i]), axis2, *conn[i].T.tolist()]
        columns.extend([contacts[i * n2 : (i + 1) * n2], field.singular[i].tolist()])
        if curv is not None:
            columns.extend(curv.values[i].T.tolist())
        return zip(*columns)

    _write_csv(path, head, template, map(slab, range(n1)))


def cmd_simulate(scenario: Scenario) -> int:
    traj = integrate_gait(
        scenario.provider,
        scenario.gait,
        cycles=scenario.cycles,
        step=scenario.step,
        event_tol=scenario.event_tol,
    )
    _write_trajectory(os.path.join(scenario.out_dir, "trajectory.csv"), _meta_lines(scenario, "simulate"), traj)

    net = net_displacement(traj)
    summary = {
        "schema": SCHEMA_VERSION,
        "scenario": f"sha256:{scenario.sha}",
        "command": "simulate",
        "net_displacement": [net.vx, net.vy, net.omega],
        "per_cycle": [[d.vx, d.vy, d.omega] for d in per_cycle_displacements(traj)],
        "events": [
            {
                "time": e.time,
                "before": _contact_str(e.before),
                "after": _contact_str(e.after),
                "shape": [float(v) for v in e.shape],
            }
            for e in traj.events
        ],
        "meta": {k: v for k, v in traj.meta.items()},
    }
    _write_json(os.path.join(scenario.out_dir, "summary.json"), summary)
    return 0


def cmd_sweep(scenario: Scenario) -> int:
    if scenario.sweep is None:
        raise ScenarioError("sweep", "scenario has no sweep block")
    field = sample_field(scenario.provider, scenario.grid)
    curv = curvature(field) if scenario.sweep["curvature"] else None

    _write_field(os.path.join(scenario.out_dir, "field.csv"), _meta_lines(scenario, "sweep"), field, curv)
    return 0


def cmd_optimize(scenario: Scenario) -> int:
    if scenario.optimize is None:
        raise ScenarioError("optimize", "scenario has no optimize block")
    block = scenario.optimize
    family = scenario.family
    report = run_optimize(
        scenario.provider,
        family,
        direction=block["direction"],
        step=scenario.step,
        cycles=scenario.cycles,
        budget=block["budget"],
        seeds=block["restarts"],
        rng_seed=scenario.seed,
    )
    payload = {
        "schema": SCHEMA_VERSION,
        "scenario": f"sha256:{scenario.sha}",
        "command": "optimize",
        "direction": block["direction"],
        "budget": block["budget"],
        "restarts": block["restarts"],
        "parameter_names": list(family.names),
        "best_params": None
        if report.best_params is None
        else [float(v) for v in report.best_params],
        "best_value": report.best_value,
        "evaluations": report.evaluations,
        "termination": report.termination,
        "history": [
            {"params": [float(v) for v in p], "value": v} for p, v in report.history
        ],
    }
    _write_json(os.path.join(scenario.out_dir, "report.json"), payload)
    return 0


def cmd_verify(scenario: Scenario) -> int:
    if scenario.verify is None:
        raise ScenarioError("verify", "scenario has no verify block")
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


def load_trajectory_csv(path: str):
    """Parse a trajectory.csv back into arrays; exact float round-trip."""
    meta, header, rows = _read_meta_and_rows(path)
    dim = int(meta["dim"])
    expected = 4 + dim + 3 + 1
    if len(header) != expected:
        raise ValueError(f"{path}: expected {expected} columns, found {len(header)}")
    n = len(rows)
    times = np.empty(n)
    poses = np.empty((n, 3))
    shapes = np.empty((n, dim))
    twists = np.empty((n, 3))
    contacts = []
    for k, row in enumerate(rows):
        times[k] = float(row[0])
        poses[k] = [float(v) for v in row[1:4]]
        shapes[k] = [float(v) for v in row[4 : 4 + dim]]
        twists[k] = [float(v) for v in row[4 + dim : 7 + dim]]
        contacts.append(_parse_contacts(row[7 + dim]))
    return {
        "meta": meta,
        "times": times,
        "poses": poses,
        "shapes": shapes,
        "twists": twists,
        "contacts": contacts,
    }


def load_field_csv(path: str):
    """Parse a field.csv back into grid arrays; exact float round-trip."""
    meta, header, rows = _read_meta_and_rows(path)
    n1, n2 = (int(v) for v in meta["counts"].split("x"))
    dim = int(meta["dim"])
    has_curv = meta["curvature"] == "1"
    axis1 = np.empty(n1)
    axis2 = np.empty(n2)
    conn = np.empty((n1, n2, 3, dim))
    contacts = np.empty((n1, n2), dtype=object)
    singular = np.zeros((n1, n2), dtype=bool)
    curv = np.empty((n1, n2, 3)) if has_curv else None
    any_contacts = False
    for row in rows:
        i, j = int(row[0]), int(row[1])
        axis1[i] = float(row[2])
        axis2[j] = float(row[3])
        flat = [float(v) for v in row[4 : 4 + 3 * dim]]
        conn[i, j] = np.array(flat).reshape(3, dim)
        contact = _parse_contacts(row[4 + 3 * dim])
        contacts[i, j] = contact
        any_contacts = any_contacts or contact is not None
        singular[i, j] = row[5 + 3 * dim] == "1"
        if has_curv:
            curv[i, j] = [float(v) for v in row[6 + 3 * dim : 9 + 3 * dim]]
    return {
        "meta": meta,
        "axis1": axis1,
        "axis2": axis2,
        "conn": conn,
        "contacts": contacts if any_contacts else None,
        "singular": singular,
        "curvature": curv,
    }


_COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "optimize": cmd_optimize,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="locomech",
        description="Scenario-driven shape-space locomotion runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "integrate the gait and write trajectory + summary"),
        ("sweep", "tabulate the connection (and optionally curvature) over a grid"),
        ("optimize", "search a gait family for maximal displacement"),
        ("verify", "run invariant suites; nonzero exit on failure"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("scenario", help="path to a scenario YAML file")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--step", type=float, default=None, help="integrator step override")
        cmd.add_argument("--cycles", type=int, default=None, help="cycle count override")
        cmd.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)

    try:
        scenario = load_scenario(
            args.scenario,
            overrides={
                "out": args.out,
                "step": args.step,
                "cycles": args.cycles,
                "seed": args.seed,
            },
        )
        os.makedirs(scenario.out_dir, exist_ok=True)
        return _COMMANDS[args.command](scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (SingularConstraint, DegenerateStance) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
