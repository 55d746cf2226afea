"""Scenario-driven command line front end.

Four subcommands share one scenario format: simulate integrates the gait
and writes the trajectory, sweep tabulates the connection over a shape
grid, optimize searches a gait family, and verify runs invariant suites.
All output is plain CSV or JSON with a short metadata header (schema
version and scenario hash, never timestamps), floats printed as %.17g so
files reparse to the exact in-memory doubles and reruns are byte-identical.
Every CSV is one _write_table call, from arrays computed before the file is
opened, so an abort leaves no partial file.  A CSV float of exponent -4 to
16 is spelled by an exact array kernel, any other by '%.17g': the same bytes.

Exit codes: 0 success, 1 invariant failure, 2 scenario validation error
(including an output location that cannot be created, an artifact that
fails to open, write or close, and a stdout that is closed or cannot be
written), 3 numerical abort (a shape with no connection, or a non-finite
value).  A stderr line that cannot be written is dropped, so it leaves the
exit code as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import os
import sys
import warnings

import numpy as np

from .connection import SingularConstraint
from .integrator import integrate_gait, net_displacement, per_cycle_displacements
from .scenario import _QUOTE, SCHEMA_VERSION, Scenario, ScenarioError, load_scenario

_TWIST_AXES = ("vx", "vy", "om")

# rows per slab of a CSV table, each built as one byte matrix and written
# with one write, so the memory held at once stays bounded however long the table
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


@functools.cache
def _layout():
    """The tables of _spell_floats, built on first use: 10**k for k = -4..20 as doubles, each the first double not
    below it; the bytes "d.d.d.d." of each four-digit group, then "-0.000d." of each lead digit d; and, by
    (X + 4) * 17 + last, the mask of the bytes kept."""
    digit = 0x2E30 + np.arange(10, dtype=np.uint64)  # a digit's byte, then "."
    pairs = (digit[:, None] | digit << 16).ravel()
    words = np.concatenate([(pairs[:, None] | pairs << 32).ravel(), int.from_bytes(b"-0.000", "little") | digit << 48])
    words = words.astype("<u8")  # so that its bytes read in this order on any host
    x, last, d = np.arange(-4, 17)[:, None, None], np.arange(17)[:, None], np.arange(17)
    keep = np.zeros((21, 17, 40), dtype=bool)
    keep[..., 6::2] = d <= np.maximum(x, last)  # slot 6 + 2d holds digit d
    keep[..., 7::2] = (d == x) & (last > x)  # and the slot after it a point
    keep[..., 1:6] = x < [0, 0, -1, -2, -3]  # "0." and -X-1 zeros
    return np.array([float(f"1e{k}") for k in range(-4, 21)]), words, keep.reshape(-1, 40)


def _byte_rows(strings, width=None):
    """The UTF-8 bytes of each string as a zero-padded row (width wide, if given) and the mask of its length."""
    encoded = [s.encode() for s in strings]
    rows, lengths = np.array(encoded, dtype=f"S{width or ''}"), np.fromiter(map(len, encoded), np.intp, len(encoded))
    return rows.view(np.uint8).reshape(len(encoded), rows.itemsize), np.arange(rows.itemsize) < lengths[:, None]


def _spell_floats(x: np.ndarray):
    """The bytes of '%.17g' % v of each double v of x, in a 40-byte window each, and the mask of those kept.

    A finite v of exponent X in [-4, 16] is spelled without dtoa: X by bisection of the powers of ten, then
    |v| * 10**(16 - X), exact by Dekker's two-product, rounds half to even to v's 17 digits.  The window holds
    "-0.000" and each digit then a point; it keeps the sign if v < 0, "0." and -X-1 zeros if X < 0, the digits
    through the units and the last nonzero one, and the point if a kept digit follows it.  Every other v is
    spelled by '%.17g'.  The last byte, kept, is left for a separator."""
    if len(x) < 64:  # numpy's cost per call exceeds dtoa's on so few doubles
        spelled, keep = _byte_rows(["%.17g" % v for v in x.tolist()], 40)
        return spelled, keep | (np.arange(40) == 39)
    powers, words, keep = _layout()
    a = np.abs(x)
    exponent = np.searchsorted(powers[:22], a, side="right") - 5  # the exact X, or -5 or 17 out of range
    ok = (exponent >= -4) & (exponent <= 16)
    a, exponent = np.where(ok, a, 1.0), np.where(ok, exponent, 0)  # 1.0 scales to 1e16 at X = 0
    scale = powers[20 - exponent]
    product = a * scale
    a1, s1 = (v * 134217729.0 - (v * 134217729.0 - v) for v in (a, scale))  # Veltkamp's 26-bit high parts
    error = ((a1 * s1 - product) + a1 * (scale - s1) + (a - a1) * s1) + (a - a1) * (scale - s1)  # Dekker's
    # product is an even integer (>= 2**53), so rounding error half to even rounds the exact product so; no
    # double of the range is within 5e-18 of 10**(X + 1), relatively, so n never rounds up to 10**17
    n = product.astype(np.int64) + np.rint(error).astype(np.int64)
    groups = np.empty((len(x), 5), dtype=np.intp)  # the lead digit, then the last 16 digits four to a group
    for k in (4, 3, 2, 1):
        n, groups[:, k] = np.divmod(n, 10**4)
    groups[:, 0] = n + 10**4
    spelled = words.take(groups).view(np.uint8)
    last = 16 - (spelled[:, 38:5:-2] != ord("0")).argmax(1)  # the last nonzero digit
    keep = keep.take((exponent + 4) * 17 + last, axis=0)
    keep[:, 0], keep[:, -1] = x < 0, True
    bad = np.flatnonzero(~ok)
    if bad.size:
        spelled[bad, :-1], keep[bad, :-1] = _byte_rows(["%.17g" % v for v in x[bad].tolist()], 39)
    return spelled, keep


def _pool_column(cells: np.ndarray):
    """None, or the spelled pool of a float column and each cell's index into it.

    A column is pooled when a strided sample of fewer than _PROBE_CELLS of
    its cells holds at most half as many distinct bit patterns; otherwise
    it is left to _spell_floats slab by slab.  A pool holds the %.17g string
    of each distinct bit pattern (not value, so -0.0, 0.0 and NaN payloads
    stay apart), and the index has the narrowest unsigned dtype that reaches it.
    """
    bits = cells.view(np.int64)
    sample = np.sort(bits[:: len(bits) // _PROBE_CELLS + 1])
    if 2 * (1 + np.count_nonzero(sample[1:] != sample[:-1])) > len(sample):
        return None
    patterns, index = np.unique(bits, return_inverse=True)
    spelled, keep = _spell_floats(patterns.view(np.float64))
    spelled[:, -1] = ord(" ")
    return spelled.compress(keep.ravel()).tobytes().decode().split(), index.astype(np.min_scalar_type(index.max()))


def _bad_out(verb: str, path: str, exc: Exception) -> ScenarioError:
    """The error for an `out` path that cannot be used, quoting the path in full only if it is short and printable."""
    named = path if len(path) <= 200 and path.isprintable() else _QUOTE.repr(path)
    return ScenarioError("out", f"cannot {verb} {named}: {getattr(exc, 'strerror', None) or exc}")


@contextlib.contextmanager
def _artifact(path: str):
    """An output file open for writing bytes; an OSError from opening, writing or closing it is a bad `out`."""
    try:
        with open(path, "wb") as handle:
            yield handle
    except OSError as exc:
        raise _bad_out("write", path, exc) from None


def _put(stream, text: str) -> None:
    """Write text to a standard stream and flush it; OSError if it cannot, or if the stream is None (closed at
    start).  A stream that failed is sent to the null device, so what stays buffered does not fail again at exit."""
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        raise


def _say(line: str) -> None:
    """Write one line to stderr; a line that cannot be written is dropped, so the exit code stays the run's."""
    with contextlib.suppress(OSError):
        _put(sys.stderr, line + "\n")


def _write_table(path: str, header: dict, columns: dict) -> None:
    """Write header as `# key=value` lines, the column names, then one CSV row per cell index.

    columns maps each name to its cells in row order: a float array, spelled
    %.17g (the bytes of format(x, ".17g")) by _spell_floats's kernel in its
    range and by '%.17g' outside it, once per distinct bit pattern if its
    values repeat (_pool_column); or a pair of a list of strings and an int
    or bool array of each cell's index into it.  Each slab of _SLAB_ROWS
    rows is one byte matrix, each cell and its separator in its column's
    window, written by its kept bytes.  Every cell is computed before the
    call, so nothing that can abort runs once the file is open."""
    seps = [","] * (len(columns) - 1) + ["\n"]
    pools = [cells if isinstance(cells, tuple) else _pool_column(cells) for cells in columns.values()]
    windows = [pool and (*_byte_rows([cell + sep for cell in pool[0]]), pool[1]) for pool, sep in zip(pools, seps)]
    floats = [cells for cells, pool in zip(columns.values(), pools) if pool is None]
    with _artifact(path) as handle:
        handle.write(("".join(f"# {k}={v}\n" for k, v in header.items()) + ",".join(columns) + "\n").encode())
        for lo in range(0, len(windows[0][2]) if windows[0] else len(floats[0]), _SLAB_ROWS):
            rows = slice(lo, lo + _SLAB_ROWS)
            if floats:  # the slab's cells of every float column left unpooled, row by row, in one call
                stacked = np.column_stack([cells[rows] for cells in floats]).ravel()
                spelled, keep = (m.reshape(-1, len(floats), 40) for m in _spell_floats(stacked))
                spelled[:, :, -1] = [ord(sep) for sep, pool in zip(seps, pools) if pool is None]
                found = zip(spelled.swapaxes(0, 1), keep.swapaxes(0, 1))
            parts = [[m.take(w[2][rows], axis=0) for m in w[:2]] if w else next(found) for w in windows]
            spelled, keep = (np.concatenate(part, axis=1) for part in zip(*parts))
            # 64 rows a call, so that compress's index array (8 bytes a kept byte) stays small
            handle.write(b"".join(spelled[c:c + 64].compress(keep[c:c + 64].ravel()) for c in range(0, len(keep), 64)))


def _write_json(path: str, payload: dict) -> None:
    with _artifact(path) as handle:
        handle.write((json.dumps(payload, sort_keys=True, indent=2) + "\n").encode())


def _write_trajectory(path: str, header: dict, traj) -> None:
    """Write trajectory.csv: one row per trajectory sample."""
    dim = traj.shapes.shape[1]
    columns = dict(zip(("t", "x", "y", "theta"), [traj.times, *traj.pose_array]))
    columns.update((f"r{k + 1}", traj.shapes[:, k]) for k in range(dim))
    columns.update(zip(("xi_vx", "xi_vy", "xi_omega"), traj.twists.T))
    codes = {label: code for code, label in enumerate(dict.fromkeys(traj.contacts))}
    columns["contact_set"] = (list(map(_contact_str, codes)), np.fromiter(map(codes.get, traj.contacts), np.intp))
    _write_table(path, {**header, "dim": dim}, columns)


def _write_field(path: str, header: dict, field, curv) -> None:
    """Write field.csv: one row per grid node in row-major order."""
    n1, n2, _, dim = field.conn.shape
    i, j = np.indices((n1, n2), dtype=np.int32).reshape(2, n1 * n2)
    columns = {"i": (list(map(str, range(n1))), i), "j": (list(map(str, range(n2))), j),
               "r1": field.axis1[i], "r2": field.axis2[j]}
    names = [f"A_{axis}_{k + 1}" for axis in _TWIST_AXES for k in range(dim)]
    columns.update(zip(names, field.conn.reshape(n1 * n2, 3 * dim).T))
    columns["contact_set"] = ([_contact_str(label) for label in field.catalog], field.contacts.ravel())
    columns["singular"] = (["0", "1"], field.singular.ravel())
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
        "suite": ([row.suite for row in rows], np.arange(len(rows))),
        "check": ([row.check for row in rows], np.arange(len(rows))),
        "value": np.array([row.value for row in rows], dtype=float),
        "threshold": np.array([row.threshold for row in rows], dtype=float),
        "passed": (["0", "1"], np.array([row.passed for row in rows], dtype=bool)),
    }
    _write_table(os.path.join(scenario.out_dir, "verify.csv"), _header(scenario, "verify"), columns)
    lines = "".join(
        "%s/%s: %s value=%.17g threshold=%.17g\n"
        % (row.suite, row.check, "PASS" if row.passed else "FAIL", row.value, row.threshold)
        for row in rows
    )
    try:
        _put(sys.stdout, lines)
    except OSError as exc:
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
            _say(f"warning: {message}")

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
            _say("scenario error: " + " ".join(part.strip() for part in str(exc).splitlines()))
            return 2
        except SingularConstraint as exc:
            _say(f"numerical abort: {exc}")
            return 3


if __name__ == "__main__":
    sys.exit(main())
