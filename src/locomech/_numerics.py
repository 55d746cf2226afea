"""numpy's seeded uniform stream and Gauss-Legendre rule, bitwise, without numpy.random or numpy.polynomial.

Importing either numpy subpackage costs a command more than the few numbers
it needs from them.  _uniforms also pins a seed's stream: numpy's NEP 19
lets default_rng's generator change between numpy versions.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(entropy) -> list[int]:
    """SeedSequence's uint32 words of an integer (least significant first) or a sequence of them."""
    if isinstance(entropy, (tuple, list)):
        return [w for v in entropy for w in _words(v)]
    n = operator.index(entropy)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's 32-bit hash: xor a running constant, advance it by mult, multiply, fold the high half."""

    def hash32(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hash32


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


def _uniforms(entropy, n: int) -> np.ndarray:
    """n doubles in [0, 1): numpy.random.Generator(numpy.random.PCG64(entropy)).random(n), bitwise."""
    words, hashmix = _words(entropy), _hasher(0x43B0D7E5, 0x931E8875)
    # SeedSequence: the words hashed into a 4-word pool, every word mixed into every other
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        pool = [_mix(p, hashmix(w)) for p in pool]
    # generate_state(4, uint64): 8 words, paired little-endian into seed high, low, inc high, low
    state = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool + pool))
    s0, s1, i0, i1 = (state[k] | state[k + 1] << 32 for k in range(0, 8, 2))
    # PCG64 (XSL-RR 128/64): seeding steps the LCG once before and once after adding the seed
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    x = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
    out = []
    for _ in range(n):
        x = (x * _PCG_MULT + inc) & _M128
        v, r = (x >> 64 ^ x) & _M64, x >> 122
        out.append(((v >> r | v << (64 - r)) & _M64) >> 11)
    return np.array(out, dtype=float) * (1.0 / 9007199254740992.0)


def _legval(x: np.ndarray, c: list) -> np.ndarray:
    """numpy's legval(x, c) for 1-D x, bitwise: the same Clenshaw recursion and grouping."""
    if len(c) == 1:
        return c[0] + 0 * x
    c0, c1, nd = c[-2], c[-1], len(c)
    for ci in c[-3::-1]:
        nd -= 1
        c0, c1 = ci - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@functools.lru_cache(maxsize=32)
def _gauss_legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the q-point rule, cached and read-only: numpy.polynomial.legendre.leggauss(q), bitwise.

    The scaled companion matrix's eigenvalues, one Newton step, and the
    weights from P_q' and P_{q-1}, symmetrised; numpy tests it to q = 100.
    """
    c = [0.0] * q + [1.0]
    # numpy's q = 1 matrix is [[-0.0]]; its eigenvalue's sign is gone after the Newton step
    m = np.zeros((q, q))
    scl = 1.0 / np.sqrt(2 * np.arange(q) + 1)
    m.reshape(-1)[1::q + 1] = m.reshape(-1)[q::q + 1] = np.arange(1, q) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(m)
    # P_q' = sum of (2k + 1) P_k over k = q - 1, q - 3, ...
    df = _legval(x, [(2.0 * k + 1.0) * ((q - k) % 2) for k in range(q)])
    x -= _legval(x, c) / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w
