"""Name every changed value of the runs whose outputs differ between two source trees.

The runs are those of ``artifact_digests.py`` at its default seeds.  Each
run is made on both trees; for each run whose exit code or outputs differ,
it prints the exit codes, then one line per changed quantity:

    <run> exit=<parent> -> <change>
      <output> <quantity> changed=<cells>/<cells in all> max_abs=<largest change>

A quantity is a CSV column or ``# key`` header line, a JSON key path (list
indices written ``[]``), or a stdout or stderr line label (the text before
its first ``: ``, whose cells are the numbers after it).  ``max_abs`` is the
largest absolute change over the changed cells that are numbers on both
sides, ``-`` if none are.  A quantity of one cell also shows both values,
and one whose cell count differs prints ``cells=<parent> -> <change>``
instead.  A last block gives, per output and quantity, the changed cells
and largest change over every changed run:

    python tools/artifact_changes.py ../parent/src src
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

from artifact_digests import _runs, run

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")


def _cells(name: str, data: bytes) -> dict[str, list]:
    """Each quantity of one output, in order of first appearance, and its cells in order."""
    text = data.decode()
    cells: dict[str, list] = {}
    if name.endswith(".json"):

        def walk(path: str, value) -> None:
            if isinstance(value, dict):
                for key, item in value.items():
                    walk(f"{path}.{key}" if path else key, item)
            elif isinstance(value, list):
                for item in value:
                    walk(f"{path}[]", item)
            else:
                cells.setdefault(path, []).append(value)

        walk("", json.loads(text))
    elif name.endswith(".csv"):
        lines = text.splitlines()
        meta = [line for line in lines if line.startswith("# ")]
        for line in meta:
            key, _, value = line[2:].partition("=")
            cells[f"# {key}"] = [value]
        names, *rows = lines[len(meta):]
        for column, column_cells in zip(names.split(","), zip(*(row.split(",") for row in rows))):
            cells[column] = list(column_cells)
    else:
        for line in text.splitlines():
            label, _, rest = line.partition(": ")
            cells.setdefault(label, []).extend(_NUMBER.findall(rest) if rest else [line])
    return cells


def _number(cell):
    """A cell as a float, or None if it is not a number."""
    if isinstance(cell, bool):
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _compare(a: list, b: list):
    """(changed cells, largest absolute change or None) of two equally long cell lists."""
    changed, largest = 0, None
    for x, y in zip(a, b):
        if x == y or (isinstance(x, float) and isinstance(y, float) and x.hex() == y.hex()):
            continue
        changed += 1
        fx, fy = _number(x), _number(y)
        if fx is not None and fy is not None and math.isfinite(fx) and math.isfinite(fy):
            largest = max(largest or 0.0, abs(fx - fy))
    return changed, largest


def _spell(largest) -> str:
    return "-" if largest is None else f"{largest:.3g}"


def main(argv=None) -> int:
    parent, change = (Path(arg).resolve() for arg in (sys.argv[1:] if argv is None else argv))
    totals: dict[tuple[str, str], list] = {}
    for label, text, args in _runs(range(8)):
        (code_a, outputs_a), (code_b, outputs_b) = run(parent, text, args), run(change, text, args)
        if code_a == code_b and outputs_a == outputs_b:
            continue
        print(f"{label} exit={code_a} -> {code_b}")
        for name in dict.fromkeys([*outputs_a, *outputs_b]):
            if outputs_a.get(name) == outputs_b.get(name):
                continue
            if name not in outputs_a or name not in outputs_b:
                print(f"  {name} written by {'change' if name in outputs_b else 'parent'} only")
                continue
            cells_a, cells_b = _cells(name, outputs_a[name]), _cells(name, outputs_b[name])
            for key in dict.fromkeys([*cells_a, *cells_b]):
                a, b = cells_a.get(key, []), cells_b.get(key, [])
                if len(a) != len(b):
                    print(f"  {name} {key} cells={len(a)} -> {len(b)}")
                    continue
                changed, largest = _compare(a, b)
                if changed:
                    # a lone cell, such as a count, is shown on both sides
                    both = f" ({a[0]} -> {b[0]})" if len(a) == 1 else ""
                    print(f"  {name} {key} changed={changed}/{len(a)} max_abs={_spell(largest)}{both}")
                    total = totals.setdefault((name, key), [0, None])
                    total[0] += changed
                    total[1] = largest if total[1] is None else max(total[1], largest or 0.0)
    print("all changed runs")
    for (name, key), (changed, largest) in totals.items():
        print(f"  {name} {key} changed={changed} max_abs={_spell(largest)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
