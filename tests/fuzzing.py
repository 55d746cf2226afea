"""Mutated and table-built scenario documents, an alias chain and a wall-time limit for property tests."""

import collections
import contextlib
import copy
import math
import signal
from pathlib import Path

import yaml
from hypothesis import strategies as st

from locomech.scenario import _BLOCKS

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SHIPPED_DOCS = [yaml.safe_load(path.read_text()) for path in sorted(SCENARIOS.glob("*.yaml"))]

# every key the scenario format knows, for the "add a key" mutation
SCENARIO_KEYS = """
    schema seed out model gait integrator sweep optimize verify
    kind map lengths masses fd_step feet quadrature link_length drag_tangential drag_normal
    hip_spacing leg_length hip_offset half_width slip_tangential slip_normal slip_yaw
    period mean cos sin points times step event_tol cycles
    lo hi counts axes base curvature family direction budget restarts amplitude phase
    slots lower upper suites shapes box
""".split()


def document_values(integers, floats):
    """Leaf values for a mutation: small and special numbers, the given integers and floats, words, lists."""
    numbers = st.one_of(
        st.integers(-3, 40),
        st.floats(-3.0, 3.0),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        floats,
    )
    scalars = st.one_of(
        numbers,
        st.none(),
        st.booleans(),
        integers,
        st.sampled_from(["x", "mean", "cos", "fourier", "swimmer", "residual"]),
    )
    return st.one_of(
        numbers,
        scalars,
        st.lists(numbers, min_size=1, max_size=3),
        st.lists(scalars, max_size=3),
        st.lists(st.lists(numbers, min_size=1, max_size=3), max_size=3),
    )


# any integer and any float: for loading, which does no work proportional to them
ANY_VALUES = document_values(st.integers(), st.floats())


def _positions(node):
    """(container, key) of every entry below node, mappings and lists alike."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _positions(value)


@st.composite
def mutated_documents(draw, values=ANY_VALUES, docs=SHIPPED_DOCS):
    """One of docs with one or two leaves replaced, keys deleted or keys added."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(1, 2))):
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "replace":
            leaves = [
                (c, k) for c, k in _positions(doc) if not isinstance(c[k], (dict, list))
            ]
            container, key = draw(st.sampled_from(leaves))
            container[key] = draw(values)
        elif op == "delete":
            keyed = [(c, k) for c, k in _positions(doc) if isinstance(c, dict)]
            container, key = draw(st.sampled_from(keyed))
            del container[key]
        else:
            blocks = [doc] + [c[k] for c, k in _positions(doc) if isinstance(c[k], dict)]
            block = draw(st.sampled_from(blocks))
            block[draw(st.sampled_from(SCENARIO_KEYS))] = draw(values)
    return doc


# values for the keys no shipped document sets
EXAMPLE_VALUES = {
    ("model", "fd_step"): [1.0e-5, 1.0e-4],
    ("model", "feet"): [2, 5],
    ("model", "lengths"): [[1.0, 0.8]],
    ("model", "masses"): [[1.0, 0.5]],
    ("sweep", "axes"): [[1, 0]],
    ("sweep", "base"): [[0.1, -0.2]],
    ("optimize", "period"): [1.0, 2.0],
    ("optimize", "amplitude"): [[0.2, 0.8]],
    ("optimize", "phase"): [[-1.0, 1.0]],
    ("optimize", "slots"): [[["sin", 1, 0], ["cos", 1, 1]]],
    ("optimize", "lower"): [[-1.0, -1.0]],
    ("optimize", "upper"): [[1.0, 1.0]],
}


def _known_values(docs):
    """(block, key) -> the values that key takes in docs, or in EXAMPLE_VALUES."""
    known = collections.defaultdict(list, copy.deepcopy(EXAMPLE_VALUES))
    for doc in docs:
        for name, block in doc.items():
            for key, value in block.items() if isinstance(block, dict) else ():
                known[name, key].append(value)
    return known


@st.composite
def table_documents(draw, values=ANY_VALUES, docs=SHIPPED_DOCS):
    """A document read off the scenario tables.

    Model and gait, and each other block half the time, name a row of their
    table and keep each key of that row, with a value the key takes in docs
    or EXAMPLE_VALUES.  Each document draws how often a key is left out
    (never or one time in ten) and how often a kind or a value is replaced
    by one from values, or a block gets a key from SCENARIO_KEYS (never, one
    time in fifty or one time in ten).
    """
    known = _known_values(docs)
    rnd = draw(st.randoms(use_true_random=True))
    drop, noise = rnd.choice([0.0, 0.1]), rnd.choice([0.0, 0.02, 0.1])

    def fill(name, row, block):
        if isinstance(row[0], str):
            key, table = row
            kind = block[key] = draw(values) if rnd.random() < noise else rnd.choice(list(table))
            return fill(name, table[kind], block) if isinstance(kind, str) and kind in table else block
        readers, _, *inputs = row
        for source in inputs:
            if not isinstance(source, str):
                fill(name, source, block)
        for key in readers:
            if rnd.random() >= drop:
                seen = known[name, key]
                block[key] = copy.deepcopy(rnd.choice(seen)) if seen and rnd.random() >= noise else draw(values)
        if rnd.random() < noise:
            block[rnd.choice(SCENARIO_KEYS)] = draw(values)
        return block

    return {
        name: fill(name, row, {})
        for name, row in _BLOCKS.items()
        if name in ("model", "gait") or rnd.random() < 0.5
    }


def alias_chain(levels):
    """A flow list of anchored lists, each of nine aliases of the one before: 9**levels strings, a few hundred bytes."""
    lists = ["&a0 [" + ", ".join(["lol"] * 9) + "]"] + [f"&a{i} [" + ", ".join([f"*a{i - 1}"] * 9) + "]" for i in range(1, levels)]
    return "[" + ", ".join(lists) + "]"


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once `seconds` of wall time have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
