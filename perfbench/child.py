"""One repetition of a workload in a fresh interpreter.

Usage: python3 child.py SPEC.json RESULT.json SPAWN_TIME [--trace]

SPEC.json names the locomech source directory, the scenario files with their
output directories, and the commands to run.  SPAWN_TIME is the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide on Linux), so set-up time covers interpreter start, the locomech
import and every ``load_scenario``.  The commands run back to back through
the CLI's ``cmd_*`` functions, exactly as ``locomech <command>`` would after
loading; their exit codes, printed output, timings and any traceback are
written to RESULT.json.  Output checks are made by the parent afterwards.

Every interval is also reported at a reference machine speed (see
SpeedProbe): ``speed`` is the mean of reference/probe time over the probes
that fired inside it, and ``probe_s`` the time those probes took.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import signal
import sys
import time
import traceback

import numpy as np

PROBE_INTERVAL_S = 0.02
PROBE_ITERATIONS = 64
# probe time that defines the reference machine speed
PROBE_REFERENCE_S = 5e-4


class SpeedProbe:
    """Samples machine speed while the process works.

    On a shared host the speed of a core switches between levels within
    seconds, as neighbours load its sibling threads, so a calibration made
    before or after the work misses what happened during it.  Every
    PROBE_INTERVAL_S of wall time a timer signal runs a short fixed loop of
    small dense solves and float arithmetic (shaped like locomech's inner
    loops but independent of its code) and records its start and duration.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        self._b = np.array([1.0, 2.0, 3.0])

    def _probe(self, signum, frame) -> None:
        acc = 0.0
        t0 = time.perf_counter()
        for i in range(PROBE_ITERATIONS):
            x = np.linalg.solve(self._a, self._b + i)
            y = np.cos(x) @ self._a
            acc += math.sin(float(y[0])) + float(x.sum())
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def interval(self, start: float, end: float) -> dict:
        """Probe time and mean relative speed over [start, end) of perf_counter."""
        inside = [d for t, d in self.samples if start <= t < end]
        return {
            "probe_s": sum(inside),
            "speed": sum(PROBE_REFERENCE_S / d for d in inside) / len(inside) if inside else None,
        }


def main(argv: list[str]) -> int:
    spec_path, result_path, t_spawn = argv[0], argv[1], float(argv[2])
    traced = "--trace" in argv[3:]
    with open(spec_path) as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    probe = SpeedProbe()
    probe.start()
    # interpreter start and the numpy import ran before the first probe
    t_probed = time.perf_counter()

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
    import locomech
    import locomech.cli as cli
    from locomech.scenario import load_scenario

    if tracer is not None:
        tracer.install()

    scenarios = {}
    load_s = 0.0
    for name, entry in spec["scenarios"].items():
        t0 = time.perf_counter()
        scenarios[name] = load_scenario(entry["path"], overrides={"out": entry["out"]})
        load_s += time.perf_counter() - t0
        os.makedirs(entry["out"], exist_ok=True)
    setup = {"seconds": time.monotonic() - t_spawn}
    setup.update(probe.interval(t_probed, time.perf_counter()))

    records = []
    for command, name in spec["commands"]:
        fn = getattr(cli, f"cmd_{command}")
        if tracer is not None:
            fn = tracer.span("cmd", fn)
        printed = io.StringIO()
        error = None
        code = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(printed):
                code = fn(scenarios[name])
        except Exception:
            error = traceback.format_exc()
        t1 = time.perf_counter()
        record = {
            "command": command,
            "scenario": name,
            "exit_code": code,
            "seconds": t1 - t0,
            "stdout": printed.getvalue(),
            "error": error,
        }
        record.update(probe.interval(t0, t1))
        records.append(record)
    probe.stop()

    result = {
        "setup": setup,
        "speed": probe.interval(-math.inf, math.inf)["speed"],
        "load_s": load_s,
        "commands": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "locomech_file": locomech.__file__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
