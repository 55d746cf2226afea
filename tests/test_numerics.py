"""The in-package seeded stream and Gauss-Legendre rule are numpy's, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locomech._numerics import _gauss_legendre, _uniforms

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 10**30, np.int64(7), np.uint32(2**32 - 1), np.uint64(2**63)]
SEEDS += [(seed, s) for seed in (0, 3, 2**40) for s in range(8)]


def _numpy_stream(entropy, n):
    return np.random.Generator(np.random.PCG64(entropy)).random(n)


@pytest.mark.parametrize("entropy", SEEDS, ids=repr)
def test_stream_is_pcg64_random(entropy):
    assert _uniforms(entropy, 257).tobytes() == _numpy_stream(entropy, 257).tobytes()


@pytest.mark.parametrize("entropy", SEEDS, ids=repr)
def test_scaled_stream_is_uniform_in_row_major_order(entropy):
    # how verify draws its residual shapes
    for box in (1.2, 0.3, 7.0):
        want = np.random.default_rng(entropy).uniform(-box, box, (25, 3))
        got = -box + (box - -box) * _uniforms(entropy, 75).reshape(25, 3)
        assert got.tobytes() == want.tobytes()


def test_stream_is_pinned_without_numpy():
    # frozen draws (numpy 2.4's), so a change of numpy's generator cannot move them unseen
    assert [x.hex() for x in _uniforms(0, 3).tolist()] == [
        "0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2", "0x1.4fa7b529d9bd0p-5",
    ]
    assert [x.hex() for x in _uniforms((5, 0), 2).tolist()] == ["0x1.9c2957dd5771cp-1", "0x1.9daa6a4a0b993p-1"]


def test_negative_seeds_are_rejected_like_numpy():
    for entropy in (-1, (3, -1)):
        with pytest.raises(ValueError):
            np.random.default_rng(entropy)
        with pytest.raises(ValueError):
            _uniforms(entropy, 1)


def test_empty_draw():
    assert _uniforms(3, 0).shape == (0,)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        st.integers(0, 2**130),
        st.tuples(st.integers(0, 2**70), st.integers(0, 2**33)),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=9),
    ),
    st.integers(0, 40),
)
def test_stream_matches_numpy_on_generated_seeds(entropy, n):
    assert _uniforms(entropy, n).tobytes() == _numpy_stream(entropy, n).tobytes()


def test_rule_is_leggauss():
    # q = 1..100 is the range numpy tests leggauss over, and the scenario bound
    for q in range(1, 101):
        nodes, weights = _gauss_legendre(q)
        again = _gauss_legendre(q)
        # one cached table per q, shared by every caller, so no caller may write to it
        assert again[0] is nodes and again[1] is weights, q
        assert not nodes.flags.writeable and not weights.flags.writeable, q
        want_nodes, want_weights = np.polynomial.legendre.leggauss(q)
        assert nodes.tobytes() == want_nodes.tobytes(), q
        assert weights.tobytes() == want_weights.tobytes(), q
