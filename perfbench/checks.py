"""Output checks for every benchmark command.

Each check reads the artifacts a command wrote and compares them with a
reference computed here, independently of the code path that produced them:

- ``simulate``: the net displacement in summary.json against an SE(2) log
  written out here, taken of the trajectory row at the end of the first
  cycle; the crawler switches stance exactly twice per cycle, the walker
  never.
- ``sweep``: connection entries at sampled nodes against a least-squares
  solve of the assembled ``ConstraintSystem`` (swimmer) or the closed-form
  single-stance connection (crawler); the curvature validity mask against
  stencil comparisons of the written contact sets; curvature values against
  ``numpy.gradient`` plus the se(2) bracket of the written columns.
- ``optimize``: best_value is the best of the history, and re-evaluating the
  best parameters through ``objective_displacement`` reproduces it exactly.
- ``verify``: exit code 0, every row of verify.csv passes with value below
  threshold, one printed PASS line per row.

Every check also returns deterministic counters of the command's output
(bytes, content hash, rows, events, evaluations, nodes), which the runner
compares across repetitions.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

import numpy as np

from workloads import ARTIFACTS

# model kind -> stance switches per gait cycle on the benchmark's loops
EVENTS_PER_CYCLE = {"crawler": 2, "slip_walker": 0}
CHECKS_PER_SUITE = {
    "loop_closure": 1,
    "single_piece": 2,
    "reversal": 1,
    "pacing": 1,
    "continuity": 1,
    "residual": 1,
}
SAMPLED_NODES = 24


class CheckFailed(Exception):
    """An artifact disagrees with its reference."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_table(path: str) -> tuple[dict, list[str], list[list[str]]]:
    """Comment metadata, header and rows of a locomech CSV artifact."""
    meta, header, rows = {}, None, []
    with open(path, newline="") as handle:
        for line in handle.read().splitlines():
            if not line:
                continue
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    _require(header is not None, f"{os.path.basename(path)} has no header")
    _require(all(len(row) == len(header) for row in rows), "ragged CSV rows")
    return meta, header, rows


def se2_log(x: float, y: float, theta: float) -> np.ndarray:
    """Exponential coordinates (vx, vy, omega) of a planar pose."""
    if abs(theta) < 1e-9:
        a = 1.0 - theta * theta / 6.0
        b = theta / 2.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta
    det = a * a + b * b
    return np.array([(a * x + b * y) / det, (-b * x + a * y) / det, theta])


def se2_bracket(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Lie bracket of twists stacked along the last axis (vx, vy, omega)."""
    out = np.zeros(np.broadcast_shapes(u.shape, v.shape))
    out[..., 0] = v[..., 2] * u[..., 1] - u[..., 2] * v[..., 1]
    out[..., 1] = u[..., 2] * v[..., 0] - v[..., 2] * u[..., 0]
    return out


def artifact_counters(command: str, out_dir: str) -> dict:
    digest = hashlib.sha256()
    size = 0
    for name in ARTIFACTS[command]:
        with open(os.path.join(out_dir, name), "rb") as handle:
            data = handle.read()
        digest.update(name.encode() + b"\0" + data)
        size += len(data)
    return {"bytes": size, "sha256": digest.hexdigest()}


def _check_simulate(doc, scenario, out_dir, record) -> dict:
    _, _, rows = read_table(os.path.join(out_dir, "trajectory.csv"))
    with open(os.path.join(out_dir, "summary.json")) as handle:
        summary = json.load(handle)
    cycles, period = scenario.cycles, scenario.gait.period
    times = [float(row[0]) for row in rows]
    _require(times[0] == 0.0, "trajectory does not start at t = 0")
    _require(abs(times[-1] - cycles * period) <= 1e-12 * cycles * period, "trajectory end time")
    _require(all(b > a for a, b in zip(times, times[1:])), "trajectory times not increasing")
    _require(len(summary["per_cycle"]) == cycles, "per-cycle displacement count")

    end_of_cycle = times.index(period)
    pose = [float(v) for v in rows[end_of_cycle][1:4]]
    _require(rows[0][1:4] == ["0", "0", "0"], "trajectory does not start at the identity")
    reference = se2_log(*pose)
    net = np.array(summary["net_displacement"], dtype=float)
    _require(
        np.max(np.abs(net - reference)) <= 1e-12 * max(1.0, np.max(np.abs(reference))),
        f"net displacement {net.tolist()} != log of cycle-end pose {reference.tolist()}",
    )

    events = summary["events"]
    expected = EVENTS_PER_CYCLE[doc["model"]["kind"]] * cycles
    _require(len(events) == expected, f"{len(events)} stance switches, expected {expected}")
    for before, after in zip(events, events[1:]):
        _require(before["after"] == after["before"], "stance switches do not chain")
    return {"rows": len(rows), "events": len(events)}


def _node_sample(n1: int, n2: int, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    corners = [(0, 0), (n1 - 1, n2 - 1)]
    return corners + [(rng.randrange(n1), rng.randrange(n2)) for _ in range(SAMPLED_NODES - 2)]


def _stencil_rows(n: int) -> list[np.ndarray]:
    """Per position, three consecutive positions covering its 1-D derivative
    stencil: centred inside, one-sided three-point at either end."""
    start = np.clip(np.arange(n) - 1, 0, n - 3)
    return [start, start + 1, start + 2]


def _reference_connection(doc, scenario, r: np.ndarray) -> tuple[np.ndarray, str]:
    kind = doc["model"]["kind"]
    if kind == "crawler":
        # the planted foot is the one with the larger leg angle (ties: lower
        # index); a single planted flat foot at hip (hx, 0) moves the body
        # with twist (0, hx, -1) per unit rate of that leg and ignores the other
        foot = int(np.argmax(r))
        hip_x = (foot - 0.5) * doc["model"]["hip_spacing"]
        a = np.zeros((3, 2))
        a[:, foot] = (0.0, hip_x, -1.0)
        return a, str(foot)
    system = scenario.constraint_builder(r)
    return np.linalg.lstsq(system.m, -system.n, rcond=None)[0], ""


def _check_sweep(doc, scenario, out_dir, record) -> dict:
    meta, _, rows = read_table(os.path.join(out_dir, "field.csv"))
    sweep = doc["sweep"]
    n1, n2 = sweep["counts"]
    dim = scenario.dim
    _require(meta.get("counts") == f"{n1}x{n2}", "field counts header")
    _require(len(rows) == n1 * n2, f"{len(rows)} field rows, expected {n1 * n2}")
    cells = np.array(rows, dtype=object)
    idx = cells[:, :2].astype(int)
    _require(
        np.array_equal(idx, np.indices((n1, n2)).reshape(2, -1).T), "field rows not row-major"
    )
    axis1 = cells[::n2, 2].astype(float)
    axis2 = cells[:n2, 3].astype(float)
    for k, (axis, n) in enumerate(((axis1, n1), (axis2, n2))):
        expected_axis = np.linspace(sweep["lo"][k], sweep["hi"][k], n)
        _require(np.allclose(axis, expected_axis, rtol=0.0, atol=1e-12), "grid axis")
    conn = cells[:, 4 : 4 + 3 * dim].astype(float).reshape(n1, n2, 3, dim)
    contact = cells[:, 4 + 3 * dim].reshape(n1, n2)
    singular = cells[:, 5 + 3 * dim].astype(int).reshape(n1, n2).astype(bool)
    curv = cells[:, 6 + 3 * dim : 9 + 3 * dim].astype(float).reshape(n1, n2, 3)
    _require(not singular.any(), "singular nodes on a regular window")

    for i, j in _node_sample(n1, n2, doc["seed"]):
        r = np.array([axis1[i], axis2[j]])
        reference, stance = _reference_connection(doc, scenario, r)
        tol = 1e-7 if stance else 1e-9 * max(1.0, np.abs(reference).max())
        _require(contact[i, j] == stance, f"stance at node ({i}, {j})")
        err = np.abs(conn[i, j] - reference).max()
        _require(err <= tol, f"connection at node ({i}, {j}) off by {err:.3e}")

    # validity: the node and every stencil point share a stance, none singular
    valid = ~singular
    for axis, picks in ((0, _stencil_rows(n1)), (1, _stencil_rows(n2))):
        for pick in picks:
            other = np.take(contact, pick, axis=axis)
            other_singular = np.take(singular, pick, axis=axis)
            valid &= (other == contact) & ~other_singular
    written_valid = ~np.isnan(curv).any(axis=2)
    _require(np.array_equal(written_valid, valid), "curvature validity mask")

    col1, col2 = conn[..., 0], conn[..., 1]
    d1_col2 = np.gradient(col2, axis1[1] - axis1[0], axis=0, edge_order=2)
    d2_col1 = np.gradient(col1, axis2[1] - axis2[0], axis=1, edge_order=2)
    reference = d1_col2 - d2_col1 + se2_bracket(col1, col2)
    scale = max(1.0, np.abs(reference[valid]).max(initial=0.0))
    err = np.abs(curv[valid] - reference[valid]).max(initial=0.0)
    _require(err <= 1e-9 * scale, f"curvature off by {err:.3e}")
    return {"nodes": n1 * n2, "invalid": int((~valid).sum())}


def _check_optimize(doc, scenario, out_dir, record) -> dict:
    from locomech.optimizer import objective_displacement
    from locomech.scenario import build_family

    with open(os.path.join(out_dir, "report.json")) as handle:
        report = json.load(handle)
    block = doc["optimize"]
    history = report["history"]
    _require(report["evaluations"] == block["budget"], "evaluation count != budget")
    _require(len(history) == report["evaluations"], "history length != evaluations")
    values = [entry["value"] for entry in history]
    best = report["best_value"]
    _require(math.isfinite(best) and best == max(values), "best_value is not the history maximum")
    family = build_family(scenario)
    params = np.array(report["best_params"], dtype=float)
    _require(bool(np.all((family.lower <= params) & (params <= family.upper))), "best params out of bounds")
    again = objective_displacement(
        scenario.provider,
        family.build(params),
        direction=block["direction"],
        step=scenario.step,
        cycles=scenario.cycles,
    )
    _require(again == best, f"re-evaluated best {again!r} != reported {best!r}")
    return {"evaluations": len(history)}


def _check_verify(doc, scenario, out_dir, record) -> dict:
    _require(record["exit_code"] == 0, f"verify exit code {record['exit_code']}")
    _, header, rows = read_table(os.path.join(out_dir, "verify.csv"))
    _require(header == ["suite", "check", "value", "threshold", "passed"], "verify header")
    suites = doc["verify"]["suites"]
    expected = sum(CHECKS_PER_SUITE[name] for name in suites)
    _require(len(rows) == expected, f"{len(rows)} verify rows, expected {expected}")
    _require([row[0] for row in rows] == [s for s in suites for _ in range(CHECKS_PER_SUITE[s])], "suite order")
    for suite, check, value, threshold, passed in rows:
        _require(passed == "1" and float(value) <= float(threshold), f"{suite}/{check} failed")
    printed = record["stdout"].splitlines()
    _require(len(printed) == len(rows), "one printed line per verify row")
    _require(all(": PASS " in line for line in printed), "a printed verify line is not PASS")
    return {"rows": len(rows)}


_CHECKS = {
    "simulate": _check_simulate,
    "sweep": _check_sweep,
    "optimize": _check_optimize,
    "verify": _check_verify,
}


def check_command(command: str, doc: dict, scenario, out_dir: str, record: dict) -> tuple[str | None, dict]:
    """(problem or None, output counters) for one command of one repetition."""
    if record.get("error"):
        return "raised: " + record["error"].strip().splitlines()[-1], {}
    if record.get("exit_code") != 0:
        return f"exit code {record.get('exit_code')}", {}
    try:
        counters = artifact_counters(command, out_dir)
        counters.update(_CHECKS[command](doc, scenario, out_dir, record))
    except CheckFailed as exc:
        return f"check failed: {exc}", {}
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}", {}
    return None, counters
