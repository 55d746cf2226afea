"""The committed digests of tools/digests.txt hold for this source tree."""

import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from artifact_digests import _runs, digest, header  # noqa: E402


def test_every_run_but_the_perfbench_documents_matches_its_committed_digest():
    committed = (ROOT / "tools" / "digests.txt").read_text().splitlines()
    assert committed[0] == header(), f"tools/digests.txt was written under {committed[0]!r}, this is {header()!r}"
    lines = {line.split(" ", 1)[0]: line for line in committed[1:]}
    runs = list(_runs(range(0)))
    # each run is its own CLI process; four at a time
    with ThreadPoolExecutor(4) as pool:
        fresh = list(pool.map(lambda run: digest(ROOT / "src", *run), runs))
    assert len(runs) == 37
    assert fresh == [lines[label] for label, *_ in runs]
