"""Print one digest line per CLI run, so two checkouts' outputs can be diffed.

The runs are every shipped scenario under every command, every perfbench
workload document at the given seeds under the commands its workload runs,
a sweep of a slipping walker near the planted limit whose grid holds
singular nodes, a crawler whose one-step cycles each hold several stance
switches, simulated for 1000 cycles and verified by every suite that
integrates (one batch of a 1000-cycle run and two one-cycle runs), a swimmer sweep over a window of +-2e-4,
which straddles 1e-4, the low end of the CSV float kernel's range, and a
fixed set of runs that must fail: an unknown key, a malformed sweep
window, an amplitude/phase search whose period takes more than the most
steps, an ``--out`` that is a file, a document that is not UTF-8, a seed
spelled as an impossible date, a list nested 25,000 deep, a seed and a
schema spelled as YAML 1.1 base-60 numbers of about 4800 digits (the date
and the base-60 spellings are strings, so each is a field type error), a
cycle count of 4000 digits, an arm of 100,000 links, an ``out`` with a
null byte and one of 100,000 characters (exit 2), and a gait whose stage
twists overflow and that walker's gait through a singular shape (exit 3).
Each run is a fresh ``python -m locomech.cli`` process on the chosen source
tree, in its own scratch directory, with only relative paths on its command
line, and a 4 GB address space, so a count that escapes its check fails in
the run.
The first line names what the digests depend on: the Python, numpy and
PyYAML versions, whether PyYAML has libyaml, and the platform.  Then each
run prints

    <run> exit=<code> <artifact>=<sha256> ... stdout=<sha256> stderr=<sha256>

with the artifacts in name order (only those the run wrote).  The digests
of this checkout are committed as ``tools/digests.txt``, so a change to an
output shows as a diff of that file, and

    python tools/artifact_digests.py | diff tools/digests.txt -

checks every run.  The perfbench documents are read through
``perfbench/workloads.py`` of this checkout, so both sides of a comparison
of two source trees run the same documents:

    python tools/artifact_digests.py --src ../parent/src > parent.txt
    python tools/artifact_digests.py | diff parent.txt -
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy  # noqa: E402
import yaml  # noqa: E402
from workloads import ARTIFACTS, COMMANDS, WORKLOADS, scenario_documents  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# the arguments after the command: the document, and out/ beside it
_ARGS = ["scenario.yaml", "--out", "out"]


def _dump(doc: dict) -> str:
    return yaml.safe_dump(doc, sort_keys=False)


def _runs(seeds):
    """(label, YAML text, CLI arguments) of every run: shipped scenarios, perfbench documents, failures.

    The text is a str, written as UTF-8, or the bytes of a document that is not UTF-8.
    """
    for path in sorted((ROOT / "scenarios").glob("*.yaml")):
        for command in ARTIFACTS:
            yield f"{path.stem}/{command}", path.read_text(), [command, *_ARGS]
    for workload in WORKLOADS:
        for seed in seeds:
            docs = scenario_documents(workload, seed)
            for command, name in COMMANDS[workload]:
                yield f"{workload}/{seed}/{name}/{command}", _dump(docs[name]), [command, *_ARGS]
    # a walker near the planted limit, whose balance is singular on thin curves of shape space
    walker = yaml.safe_load((ROOT / "scenarios" / "walker_mirror.yaml").read_text())
    walker["model"].update(slip_tangential=1.0e-5, slip_normal=1.0e+5, slip_yaw=1.0e-9)
    walker["sweep"] = {"lo": [-3.1, -3.1], "hi": [3.1, 3.1], "counts": [41, 41], "curvature": True}
    yield "singular_walker/sweep", _dump(walker), ["sweep", *_ARGS]
    multi = {"model": {"kind": "crawler"},
             "gait": {"kind": "fourier", "period": 1.0, "mean": [0.0, 0.0], "sin": [[0.4, 0.0]], "cos": [[0.0, 0.4]]},
             "integrator": {"step": 1.0, "cycles": 1000}}
    yield "multi_switch/simulate", _dump(multi), ["simulate", *_ARGS]
    # one batch of the 1000-cycle run and the one-cycle reversed and retimed runs, each plan warning
    suites = ["loop_closure", "single_piece", "reversal", "pacing", "continuity"]
    yield "multi_switch/verify", _dump({**multi, "verify": {"suites": suites}}), ["verify", *_ARGS]
    doc = yaml.safe_load((ROOT / "scenarios" / "swimmer_circle.yaml").read_text())
    tiny = {**doc, "sweep": {"lo": [-2.0e-4, -2.0e-4], "hi": [2.0e-4, 2.0e-4], "counts": [41, 41], "curvature": True}}
    yield "tiny_window/sweep", _dump(tiny), ["sweep", *_ARGS]
    window = {**doc, "sweep": {**doc["sweep"], "lo": [-1.0, 0.5], "hi": [1.0, 0.2]}}
    overflow = {**doc, "gait": {**doc["gait"], "cos": [[0.0, -1.0e160]], "sin": [[1.0e160, 0.0]]}}
    yield "error/unknown_key/simulate", _dump({**doc, "colour": "red"}), ["simulate", *_ARGS]
    yield "error/sweep_window/sweep", _dump(window), ["sweep", *_ARGS]
    search = yaml.safe_load((ROOT / "scenarios" / "swimmer_optimize.yaml").read_text())
    search["optimize"]["period"] = 1.0e9
    yield "error/search_period/optimize", _dump(search), ["optimize", *_ARGS]
    yield "error/out_is_a_file/sweep", _dump(doc), ["sweep", "scenario.yaml", "--out", "scenario.yaml"]
    yield "error/overflow/simulate", _dump(overflow), ["simulate", *_ARGS, "--step", "0.05"]
    stuck = {**walker, "gait": {"kind": "fourier", "mean": [-2.17, 1.86], "sin": [[0.1, 0.0]]}}
    yield "error/singular_walker/simulate", _dump(stuck), ["simulate", *_ARGS, "--step", "0.01"]
    yield "error/not_utf8/simulate", b'schema: 1\nmodel: {kind: swimmer}\ngait: "\xff"\n', ["simulate", *_ARGS]
    # a 100,000-link arm held still: np.eye of one shape's probes would take 74.5 GiB.  It is written
    # in flow style, which safe_dump would take seconds to emit
    ones = "[%s]" % ", ".join(["1.0"] * 100_000)
    arm = f"model: {{kind: jacobian, map: arm_com, lengths: {ones}, masses: {ones}}}\n" \
          f"gait: {{kind: fourier, mean: {ones}}}\n"
    yield "error/arm_links/simulate", arm, ["simulate", *_ARGS]
    cycles = {**doc, "integrator": {**doc["integrator"], "cycles": int("7" * 4000)}}
    yield "error/cycles_digits/simulate", _dump(cycles), ["simulate", *_ARGS]
    yield "error/out_nul/simulate", _dump({**doc, "out": "a\0b"}), ["simulate", "scenario.yaml"]
    yield "error/out_long/simulate", _dump({**doc, "out": "x" * 100_000}), ["simulate", "scenario.yaml"]
    # YAML that safe_dump never writes, in place of the seed or the schema.  The date and the YAML 1.1 base-60
    # number (about 4800 digits) are strings in YAML 1.2, so each exits 2 as a field type error
    base_60 = "1" + ":0" * 2700
    for name, old, new in (
        ("bad_date", "seed: 0", "seed: 2001-02-30"),
        ("deep_list", "seed: 0", "seed: " + "[" * 25000 + "1" + "]" * 25000),
        ("base_60_seed", "seed: 0", f"seed: {base_60}"),
        ("base_60_schema", "schema: 1", f"schema: {base_60}"),
    ):
        yield f"error/{name}/simulate", _dump(doc).replace(f"{old}\n", f"{new}\n"), ["simulate", *_ARGS]


def header() -> str:
    """The first output line: the versions and the platform that the digests depend on."""
    return (
        f"# python {platform.python_version()} numpy {numpy.__version__} pyyaml {yaml.__version__}"
        f" libyaml {'yes' if yaml.__with_libyaml__ else 'no'} platform {platform.system()}-{platform.machine()}"
    )


def _four_gigabytes() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


def run(src: Path, text: str | bytes, args: list[str]) -> tuple[int, dict[str, bytes]]:
    """Run the CLI with args on one document in a scratch directory: its exit code and outputs.

    The outputs are the artifacts the run wrote, in name order, then stdout
    and stderr.
    """
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "scenario.yaml").write_bytes(text if isinstance(text, bytes) else text.encode())
        proc = subprocess.run(
            [sys.executable, "-m", "locomech.cli", *args],
            cwd=tmp,
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            preexec_fn=_four_gigabytes,
        )
        out = Path(tmp, "out")
        outputs = {f.name: f.read_bytes() for f in (sorted(out.iterdir()) if out.is_dir() else [])}
    outputs.update(stdout=proc.stdout, stderr=proc.stderr)
    return proc.returncode, outputs


def digest(src: Path, label: str, text: str | bytes, args: list[str]) -> str:
    """Run the CLI with args on one document in a scratch directory; its digest line."""
    code, outputs = run(src, text, args)
    return " ".join([label, f"exit={code}", *(f"{name}={_sha(data)}" for name, data in outputs.items())])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree to run (default: this checkout's)")
    parser.add_argument("--seeds", type=int, default=8, help="perfbench seeds 0..N-1 (default 8)")
    args = parser.parse_args(argv)
    print(header(), flush=True)
    for run in _runs(range(args.seeds)):
        print(digest(args.src.resolve(), *run), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
