"""Scenario-driven command line front end.

Four subcommands share one scenario format: simulate integrates the gait
and writes the trajectory, sweep tabulates the connection over a shape
grid, optimize searches a gait family, and verify runs invariant suites.
All output is plain CSV or JSON with a short metadata header (schema
version and scenario hash, never timestamps), floats printed as %.17g so
files reparse to the exact in-memory doubles and reruns are byte-identical.
Every CSV is one _write_table call: header keys and named columns.  A float
column of any CSV whose values repeat is formatted once per distinct bit
pattern, which gives the same bytes.  CSV files are written row by row from
arrays computed before the file is opened, so an abort leaves no partial
file.

Exit codes: 0 success, 1 invariant failure, 2 scenario validation error
(including an output location that cannot be created, an artifact that
fails to open, write or close, and a stdout that cannot be written), 3
numerical abort (a shape with no connection, or a non-finite value).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import warnings

import numpy as np

from .connection import SingularConstraint
from .integrator import integrate_gait, net_displacement, per_cycle_displacements
from .scenario import _QUOTE, SCHEMA_VERSION, Scenario, ScenarioError, load_scenario

_TWIST_AXES = ("vx", "vy", "om")

# rows per slab of a CSV table, each one .tolist() per column and one write,
# so the Python objects held at once stay bounded however long the table
_SLAB_ROWS = 512

# cells in the strided sample that decides whether a float column is worth
# spelling once per distinct value (see _pool_column)
_PROBE_CELLS = 256

# sweep, optimize and verify call these as attributes of this module, where a tracer can wrap them;
# each resolves (PEP 562) to the package's name, in the module that the command's block loaded
_LIBRARY = dict(sample_field="sample_field", curvature="curvature", run_optimize="optimize", run_verify="run_verify")
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LIBRARY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], _LIBRARY[name])


def _contact_str(contacts) -> str:
    return "+".join(str(i) for i in sorted(contacts or ()))


def _header(scenario: Scenario, command: str) -> dict:
    """The schema version, scenario hash and command that head every artifact."""
    return {"schema": SCHEMA_VERSION, "scenario": f"sha256:{scenario.sha}", "command": command}


def _pool_column(cells: np.ndarray):
    """None, or the spelled pool of a float column and each cell's index into it.

    A column is pooled when a strided sample of fewer than _PROBE_CELLS of
    its cells holds at most half as many distinct bit patterns; otherwise
    it is left to %.17g cell by cell.  A pool holds the %.17g string of each
    distinct bit pattern (not value, so -0.0, 0.0 and NaN payloads stay
    apart), and the index has the narrowest unsigned dtype that reaches it.
    """
    bits = cells.view(np.int64)
    sample = np.sort(bits[:: len(bits) // _PROBE_CELLS + 1])
    if 2 * (1 + np.count_nonzero(sample[1:] != sample[:-1])) > len(sample):
        return None
    patterns, index = np.unique(bits, return_inverse=True)
    spelled = np.array(["%.17g" % v for v in patterns.view(np.float64).tolist()], dtype=object)
    return spelled, index.astype(np.min_scalar_type(len(patterns) - 1))


def _column_plan(cells):
    """The template slot of a table column and a function from a row slice to its plain Python cells."""
    if isinstance(cells, list):
        return "%s", cells.__getitem__
    pool = _pool_column(cells) if cells.dtype.kind == "f" else None
    if pool is None:
        return ("%.17g" if cells.dtype.kind == "f" else "%d"), lambda rows: cells[rows].tolist()
    spelled, index = pool
    return "%s", lambda rows: spelled.take(index[rows]).tolist()


def _bad_out(verb: str, path: str, exc: Exception) -> ScenarioError:
    """The error for an `out` path that cannot be used, quoting the path in full only if it is short and printable."""
    named = path if len(path) <= 200 and path.isprintable() else _QUOTE.repr(path)
    return ScenarioError("out", f"cannot {verb} {named}: {getattr(exc, 'strerror', None) or exc}")


@contextlib.contextmanager
def _artifact(path: str):
    """An output file open for writing; an OSError from opening, writing or closing it is a bad `out`."""
    try:
        with open(path, "w", newline="") as handle:
            yield handle
    except OSError as exc:
        raise _bad_out("write", path, exc) from None


def _write_table(path: str, header: dict, columns: dict) -> None:
    """Write header as `# key=value` lines, the column names, then one CSV row per cell index.

    columns maps each name to its cells in row order: a float array, spelled
    %.17g (the bytes of format(x, ".17g")) or, when its values repeat, once
    per distinct bit pattern (_pool_column); an int or bool array, spelled
    %d; or a list of cells that are already strings.  Rows go out in slabs
    of _SLAB_ROWS.  Every cell is computed before the call, so nothing that
    can abort runs once the file is open.
    """
    slots, cuts = zip(*map(_column_plan, columns.values()))
    template = ",".join(slots) + "\n"
    with _artifact(path) as handle:
        handle.write("".join(f"# {key}={value}\n" for key, value in header.items()) + ",".join(columns) + "\n")
        for lo in range(0, len(next(iter(columns.values()))), _SLAB_ROWS):
            rows = slice(lo, lo + _SLAB_ROWS)
            handle.write("".join(map(template.__mod__, zip(*(cut(rows) for cut in cuts)))))


def _write_json(path: str, payload: dict) -> None:
    with _artifact(path) as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _write_trajectory(path: str, header: dict, traj) -> None:
    """Write trajectory.csv: one row per trajectory sample."""
    dim = traj.shapes.shape[1]
    columns = dict(zip(("t", "x", "y", "theta"), [traj.times, *traj.pose_array]))
    columns.update((f"r{k + 1}", traj.shapes[:, k]) for k in range(dim))
    columns.update(zip(("xi_vx", "xi_vy", "xi_omega"), traj.twists.T))
    spelled = {label: _contact_str(label) for label in set(traj.contacts)}
    columns["contact_set"] = [spelled[label] for label in traj.contacts]
    _write_table(path, {**header, "dim": dim}, columns)


def _write_field(path: str, header: dict, field, curv) -> None:
    """Write field.csv: one row per grid node in row-major order."""
    n1, n2, _, dim = field.conn.shape
    i, j = np.indices((n1, n2), dtype=np.int32).reshape(2, n1 * n2)
    columns = {"i": i, "j": j, "r1": field.axis1[i], "r2": field.axis2[j]}
    names = [f"A_{axis}_{k + 1}" for axis in _TWIST_AXES for k in range(dim)]
    columns.update(zip(names, field.conn.reshape(n1 * n2, 3 * dim).T))
    spelled = np.array([_contact_str(label) for label in field.catalog], dtype=object)
    columns["contact_set"] = spelled.take(field.contacts.ravel()).tolist()
    columns["singular"] = field.singular.ravel()
    if curv is not None:
        columns.update(zip(("D_vx", "D_vy", "D_omega"), curv.values.reshape(n1 * n2, 3).T))
    header = {**header, "counts": f"{n1}x{n2}", "dim": dim, "curvature": int(curv is not None)}
    _write_table(path, header, columns)


def cmd_simulate(scenario: Scenario) -> int:
    """integrate the gait and write trajectory + summary"""
    traj = integrate_gait(scenario.provider, scenario.gait, scenario.cycles, scenario.step, scenario.event_tol)
    _write_trajectory(os.path.join(scenario.out_dir, "trajectory.csv"), _header(scenario, "simulate"), traj)

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


def cmd_sweep(scenario: Scenario) -> int:
    """tabulate the connection (and optionally curvature) over a grid"""
    block = scenario.block("sweep")
    field = _cli.sample_field(scenario.provider, scenario.grid)
    curv = _cli.curvature(field) if block["curvature"] else None

    _write_field(os.path.join(scenario.out_dir, "field.csv"), _header(scenario, "sweep"), field, curv)
    return 0


def cmd_optimize(scenario: Scenario) -> int:
    """search a gait family for maximal displacement"""
    block = scenario.block("optimize")
    family = scenario.family
    report = _cli.run_optimize(scenario.provider, family, block["direction"], scenario.step, scenario.cycles,
                               block["budget"], block["restarts"], scenario.seed, scenario.event_tol)
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


def cmd_verify(scenario: Scenario) -> int:
    """run invariant suites; nonzero exit on failure"""
    rows = _cli.run_verify(scenario)
    columns = {
        "suite": [row.suite for row in rows],
        "check": [row.check for row in rows],
        "value": np.array([row.value for row in rows], dtype=float),
        "threshold": np.array([row.threshold for row in rows], dtype=float),
        "passed": np.array([row.passed for row in rows], dtype=bool),
    }
    _write_table(os.path.join(scenario.out_dir, "verify.csv"), _header(scenario, "verify"), columns)
    lines = "".join(
        "%s/%s: %s value=%.17g threshold=%.17g\n"
        % (row.suite, row.check, "PASS" if row.passed else "FAIL", row.value, row.threshold)
        for row in rows
    )
    try:
        sys.stdout.write(lines)
        sys.stdout.flush()
    except OSError as exc:
        # what stays buffered goes to the null device when the interpreter exits
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ScenarioError("out", f"cannot write stdout: {exc.strerror or exc}") from None
    return 0 if all(row.passed for row in rows) else 1


def _flag_type(convert):
    """An argparse type converting with convert, whose error quotes a bounded prefix and suffix of the value."""

    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {_QUOTE.repr(text)}") from None

    return parse


# each subcommand's handler, whose docstring is its --help line
_COMMANDS = {"simulate": cmd_simulate, "sweep": cmd_sweep, "optimize": cmd_optimize, "verify": cmd_verify}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="locomech",
        description="Scenario-driven shape-space locomotion runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        cmd = sub.add_parser(name, help=handler.__doc__)
        cmd.add_argument("scenario", help="path to a scenario YAML file")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--step", type=_flag_type(float), default=None, help="integrator step override")
        cmd.add_argument("--cycles", type=_flag_type(int), default=None, help="cycle count override")
        cmd.add_argument("--seed", type=_flag_type(int), default=None, help="seed override")
    args = parser.parse_args(argv)

    # a library warning is one line, without its source file and line, once per distinct message
    shown = set()

    def show(message, *_) -> None:
        if str(message) not in shown:
            shown.add(str(message))
            print(f"warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show
        try:
            overrides = {key: getattr(args, key) for key in ("out", "step", "cycles", "seed")}
            scenario = load_scenario(args.scenario, overrides=overrides)
            try:
                os.makedirs(scenario.out_dir, exist_ok=True)
            except (OSError, ValueError) as exc:
                # ValueError: a path with an embedded null byte
                raise _bad_out("create", scenario.out_dir, exc) from None
            return _COMMANDS[args.command](scenario)
        except ScenarioError as exc:
            # a YAML syntax error spans lines, and so may a path: the report is one line
            print("scenario error:", " ".join(part.strip() for part in str(exc).splitlines()), file=sys.stderr)
            return 2
        except SingularConstraint as exc:
            print(f"numerical abort: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
