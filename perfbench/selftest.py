"""Smoke test of the benchmark itself; takes about a minute.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that:

- every workload in BENCHMARK.json, untraced and traced, runs briefly and
  prints as its last line a result in which every named metric appears with
  its unit and no command failed;
- a deliberately corrupted artifact of each command is counted as a failed
  command;
- in a directory that holds only BENCHMARK.json and the benchmark's own
  files, the runner exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED = 1


def _invoke(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=180)


def check_printed_metrics(bench: dict) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, units in expected.items():
            proc = _invoke(run.ROOT, workload, trace)
            if proc.returncode != 0:
                raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                raise AssertionError(f"result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                raise AssertionError(f"{workload} trace={trace} failed: {proc.stderr}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != units:
                raise AssertionError(f"{workload} trace={trace} printed {printed}, expected {units}")
            print(f"ok   {workload} trace={trace}: {len(printed)} metrics")


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _bump_first_connection_entry(path: Path) -> None:
    lines = path.read_text().splitlines()
    first = next(k for k, line in enumerate(lines) if line.startswith("0,0,"))
    cells = lines[first].split(",")
    cells[4] = repr(float(cells[4]) + 1e-3)
    lines[first] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _fail_last_verify_row(path: Path) -> None:
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1][:-1] + "0"
    path.write_text("\n".join(lines) + "\n")


def _bump(key: str):
    def edit(doc: dict) -> None:
        if isinstance(doc[key], list):
            doc[key][0] += 1e-3
        else:
            doc[key] += 1e-3

    return edit


CORRUPTIONS = {
    "simulate": lambda out: _edit_json(out / "summary.json", _bump("net_displacement")),
    "sweep": lambda out: _bump_first_connection_entry(out / "field.csv"),
    "optimize": lambda out: _edit_json(out / "report.json", _bump("best_value")),
    "verify": lambda out: _fail_last_verify_row(out / "verify.csv"),
}


def check_corruption_counted(bench: dict) -> None:
    for workload in (w["name"] for w in bench["workloads"]):
        result, _ = run.measure(
            workload, SEED, 0.0, False,
            corrupt=lambda command, out_dir: CORRUPTIONS[command](Path(out_dir)),
        )
        if result["correct"] or result["failed"] != result["attempted"]:
            raise AssertionError(f"{workload}: corrupted artifacts not all counted: {result}")
        print(f"ok   {workload}: {result['failed']}/{result['attempted']} corrupted commands counted")


def check_bare_directory_fails() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _invoke(bare, "optimize", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError(f"bare directory run exited {proc.returncode} printing {proc.stdout!r}")
    print(f"ok   bare directory: exit {proc.returncode}, nothing printed")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_printed_metrics(bench)
    check_corruption_counted(bench)
    check_bare_directory_fails()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
