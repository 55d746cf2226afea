"""locomech benchmark runner.

Usage (from the repository root):

    python3 perfbench/run.py --workload {optimize,field,contact} \
        --seed N --seconds S --trace {0,1}

The seed generates the workload's scenario documents (see workloads.py).
The runner is one closed-loop client: it starts fresh interpreters one after
another (child.py), each of which imports locomech from ``src/``, loads every
scenario of the workload and runs its commands back to back, until the next
repetition would end after ``--seconds``.  Artifacts go to a scratch
directory under ``.perfbench_work/`` in the checkout, are checked by
checks.py, and are removed afterwards.

Machine speed on a shared host switches between levels within seconds (a
fixed loop's CPU time follows its wall time, and the slow level is up to 1.7x
the fast one), so raw times spread more than any run length can average
away.  Each repetition therefore samples its speed with a short timer-driven
probe (child.SpeedProbe), and every reported time is the measured time,
less the probes' own time, multiplied by the mean speed the probes saw
during it relative to child.PROBE_REFERENCE_S.  Raw medians are printed in
the sample statistics.  Per-layer times are scaled by the repetition's mean
speed and include the probes' share (about 3%).

With ``--trace 0`` every repetition is untraced and the result carries the
end-to-end metrics:

- ``wall_s``: median time of the workload's commands, writing included;
- ``setup_s``: median time from interpreter start to all scenarios loaded;
- ``peak_rss_mb``: median peak resident memory of a repetition's process;
- ``success_rate``: commands that passed over commands attempted, that is
  1 - error rate (a command fails when it raises, exits nonzero, fails its
  output check, or its output counters differ from the first repetition).

With ``--trace 1`` untraced and traced repetitions alternate; the result
carries the per-layer metrics of tracing.py, and ``trace.overhead_s`` is the
traced minus the untraced median ``wall_s``.  Traced output must equal
untraced output byte for byte, and traced counters must repeat exactly.

Lines before the last one give provenance and sample statistics; the last
line is the JSON result.  Exit code 2 means there is no locomech source tree
to measure, 1 that no repetition produced a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402
from workloads import COMMANDS, WORKLOADS, scenario_documents  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio"}
BLAS_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# every run must finish within 180 s, whatever --seconds asks for
CHILD_TIMEOUT_S = 150.0
# extra repetitions that only set up, after each untraced one: set-up is a
# small share of a repetition, and its median needs more samples
SETUP_ONLY_PER_ROUND = 2


class BenchmarkError(RuntimeError):
    """The benchmark could not measure anything."""


@dataclass
class Repetition:
    """One fresh-interpreter execution of the workload's commands."""

    traced: bool
    result: dict | None = None
    problems: list = field(default_factory=list)  # per command: str or None
    counters: list = field(default_factory=list)  # per command: dict

    @property
    def speed(self) -> float:
        """Mean machine speed over the repetition, relative to the reference."""
        return self.result["speed"]

    def _measured(self, interval: dict) -> float:
        return interval["seconds"] - interval["probe_s"]

    def _at_reference(self, interval: dict) -> float:
        return self._measured(interval) * (interval["speed"] or self.speed)

    @property
    def raw_wall_s(self) -> float:
        return sum(self._measured(rec) for rec in self.result["commands"])

    @property
    def wall_s(self) -> float:
        return sum(self._at_reference(rec) for rec in self.result["commands"])

    @property
    def raw_setup_s(self) -> float:
        return self._measured(self.result["setup"])

    @property
    def setup_s(self) -> float:
        return self._at_reference(self.result["setup"])


def _child_env() -> dict:
    env = dict(os.environ)
    for name in BLAS_THREAD_ENV:
        env.setdefault(name, "1")
    return env


def _git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "locomech").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import numpy
    import yaml

    env = _child_env()
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": {name: env[name] for name in BLAS_THREAD_ENV},
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
    }


def _import_locomech() -> None:
    sys.path.insert(0, str(SRC))
    import locomech

    if Path(locomech.__file__).resolve().parent != (SRC / "locomech").resolve():
        raise BenchmarkError(f"imported locomech from {locomech.__file__}, not {SRC}")


class Runner:
    """Runs and checks repetitions of one workload for one seed."""

    def __init__(self, workload: str, seed: int, run_dir: Path, corrupt=None):
        import yaml

        from checks import check_command
        from locomech.scenario import load_scenario

        self.workload = workload
        self.commands = COMMANDS[workload]
        self.docs = scenario_documents(workload, seed)
        self.run_dir = run_dir
        self.corrupt = corrupt
        self._check = check_command
        self.paths = {}
        run_dir.mkdir(parents=True)
        for name, doc in self.docs.items():
            path = run_dir / f"{name}.yaml"
            path.write_text(yaml.safe_dump(doc, sort_keys=False))
            self.paths[name] = str(path)
        # the parent's own copies, used only as references by the checks
        self.references = {name: load_scenario(path) for name, path in self.paths.items()}
        self.env = _child_env()

    def run(self, index: int, traced: bool, setup_only: bool = False) -> Repetition:
        rep_dir = self.run_dir / f"rep{index:04d}"
        outs = {name: str(rep_dir / name) for name in self.docs}
        commands = [] if setup_only else self.commands
        spec = {
            "src": str(SRC),
            "scenarios": {n: {"path": self.paths[n], "out": outs[n]} for n in self.docs},
            "commands": commands,
        }
        rep_dir.mkdir()
        spec_path, result_path = rep_dir / "spec.json", rep_dir / "result.json"
        spec_path.write_text(json.dumps(spec))
        argv = [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)]
        t_spawn = time.monotonic()
        argv.append(repr(t_spawn))
        if traced:
            argv.append("--trace")
        stderr = ""
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            stderr = proc.stderr
        except subprocess.TimeoutExpired:
            stderr = f"repetition exceeded {CHILD_TIMEOUT_S} s and was killed"
        rep = Repetition(traced=traced)
        try:
            rep.result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            tail = stderr.strip().splitlines()[-1:] or ["no result"]
            rep.problems = [f"repetition crashed: {tail[0]}"] * len(commands)
            rep.counters = [{} for _ in commands]
            shutil.rmtree(rep_dir, ignore_errors=True)
            return rep
        if Path(rep.result["locomech_file"]).resolve().parent != (SRC / "locomech").resolve():
            raise BenchmarkError(f"repetition imported {rep.result['locomech_file']}")
        for (command, name), record in zip(commands, rep.result["commands"]):
            if self.corrupt is not None:
                self.corrupt(command, outs[name])
            problem, counters = self._check(
                command, self.docs[name], self.references[name], outs[name], record
            )
            rep.problems.append(problem)
            rep.counters.append(counters)
        shutil.rmtree(rep_dir, ignore_errors=True)
        return rep


def _guard(reps: list[Repetition], n_commands: int) -> None:
    """Mark as failed any output or traced counter that differs from the first."""
    first_counters: list[dict | None] = [None] * n_commands
    for rep in reps:
        for k in range(n_commands):
            if rep.problems[k] is not None:
                continue
            if first_counters[k] is None:
                first_counters[k] = rep.counters[k]
            elif rep.counters[k] != first_counters[k]:
                rep.problems[k] = f"output counters {rep.counters[k]} != first {first_counters[k]}"
    traced = [r for r in reps if r.traced and r.result is not None]
    counts = [n for n, (_, kind) in PER_LAYER.items() if kind == "count" and n != "cli.bytes_written"]
    for rep in traced[1:]:
        differ = [n for n in counts if rep.result["layers"][n] != traced[0].result["layers"][n]]
        if differ:
            rep.problems = [p or f"traced counters differ: {differ}" for p in rep.problems]


def _quartiles(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    # the highest percentile with at least ten samples beyond it
    if len(values) >= 20:
        pct = int(100 * (1 - 10 / len(values)))
        out[f"p{pct}"] = sorted(values)[math.ceil(pct * len(values) / 100) - 1]
    return out


def measure(workload: str, seed: int, seconds: float, traced: bool, corrupt=None) -> tuple[dict, dict]:
    """Run repetitions for `seconds`; return (result line, sample statistics)."""
    _import_locomech()
    run_dir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        runner = Runner(workload, seed, run_dir, corrupt)
        # a round is one untraced repetition, then one traced repetition or
        # the set-up-only ones; stop before a round would end past `seconds`
        reps: list[Repetition] = []
        setups: list[Repetition] = []
        rounds: list[float] = []
        start = time.monotonic()
        while not rounds or time.monotonic() - start + statistics.median(rounds) <= seconds:
            t0 = time.monotonic()
            index = len(reps) + len(setups)
            reps.append(runner.run(index, traced=False))
            if traced:
                reps.append(runner.run(index + 1, traced=True))
            else:
                for k in range(SETUP_ONLY_PER_ROUND):
                    setups.append(runner.run(index + 1 + k, traced=False, setup_only=True))
            rounds.append(time.monotonic() - t0)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    n_commands = len(COMMANDS[workload])
    _guard(reps, n_commands)
    attempted = n_commands * len(reps)
    problems = [p for r in reps for p in r.problems if p is not None]
    failed = len(problems)
    plain = [r for r in reps if not r.traced and r.result is not None]
    if not plain:
        raise BenchmarkError("no repetition produced a result: " + "; ".join(problems[:1]))
    wall = [r.wall_s for r in plain]
    setup = [r.setup_s for r in plain + setups if r.result is not None]
    stats = {
        "repetitions": {
            "untraced": len(plain),
            "traced": sum(r.traced for r in reps),
            "setup_only": len(setups),
        },
        "wall_s": _quartiles(wall),
        "setup_s": _quartiles(setup),
        "raw_wall_s": _quartiles([r.raw_wall_s for r in plain]),
        "raw_setup_s": _quartiles([r.raw_setup_s for r in plain + setups if r.result is not None]),
        "speed": _quartiles([r.speed for r in plain]),
        "error_rate": failed / attempted,
        "problems": problems[:5],
    }
    if traced:
        tr = [r for r in reps if r.traced and r.result is not None]
        if not tr:
            raise BenchmarkError("no traced repetition produced a result")
        stats["trace_missing"] = tr[0].result["missing"]
        values = {}
        for name, (unit, kind) in PER_LAYER.items():
            if name == "scenario.load_s":
                value = statistics.median(r.result["load_s"] * r.speed for r in tr)
            elif name == "cli.bytes_written":
                value = sum(c.get("bytes", 0) for c in tr[0].counters)
            elif name == "trace.overhead_s":
                value = statistics.median(r.wall_s for r in tr) - statistics.median(wall)
            elif kind == "count":
                value = tr[0].result["layers"][name]
            else:
                value = statistics.median(r.result["layers"][name] * r.speed for r in tr)
            values[name] = {"value": value, "unit": unit}
    else:
        values = {
            "wall_s": statistics.median(wall),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r.result["peak_rss_mb"] for r in plain),
            "success_rate": 1.0 - failed / attempted,
        }
        values = {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": values}
    return result, stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="locomech benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "locomech" / "__init__.py").is_file():
        print(f"perfbench: no locomech sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result, stats = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for problem in stats["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args.workload, args.seed, args.seconds, bool(args.trace))}))
    print(json.dumps({"samples": stats}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
