"""Portable counter-based random number generation.

All randomness in this package flows through `Rng`, a SplitMix64 generator
run in counter mode: draw i of stream s is a pure function of (seed_s, i).
Streams for distinct purposes (init, shuffling, channel noise, ...) are
derived from a master seed and a text label, so consuming extra draws in
one stream never shifts another. Gaussians use the Box-Muller transform.

Nothing here depends on platform RNG state, so runs are reproducible
bit-for-bit given the seed.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# words per block: 128 KiB of uint64, so a block and its scratch stay in a 2 MiB L2
_BLOCK = 16384
# (i+1) * _GOLDEN mod 2^64 for i < _BLOCK; a block's counter words are one add away
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GOLDEN)

# cos and sin at j * _ARC, j = 0.._TURN: j * _HI is exact (40 bits), j * (_ARC - _HI) < 4e-12
_TURN, _ARC = 1024, 2.0 * np.pi / 1024
_J, _HI = np.arange(_TURN + 1.0), round(_ARC * 2.0 ** 47) / 2.0 ** 47
_COS, _SIN = np.cos(_J * _HI), np.sin(_J * _HI)
_COS, _SIN = _COS - _J * (_ARC - _HI) * _SIN, _SIN + _J * (_ARC - _HI) * _COS


def _cos_sin_turn(t, cos, idx, p, q, r) -> None:
    """cos(2 pi t) into `cos` and sin(2 pi t) into `t`, t in [0, 1]; `idx` (intp), `p`, `q`, `r` scratch.

    2 pi t = j * _ARC + d, |d| <= pi/1024: the table gives j's part, Taylor polynomials give cos d - 1
    and sin d (first dropped terms below 1e-17), and angle addition joins them."""
    np.add(np.multiply(t, float(_TURN), out=p), 0.5, out=idx, casting="unsafe")  # t >= 0: floor
    np.multiply(np.subtract(p, idx, out=p), _ARC, out=p)  # d
    np.square(p, out=q)
    np.add(np.multiply(np.subtract(np.multiply(q, 1 / 120, out=t), 1 / 6, out=t), q, out=t), 1.0, out=t)
    p *= t  # sin d
    q *= np.subtract(np.multiply(q, 1 / 24, out=t), 0.5, out=t)  # cos d - 1
    # j is in [0, _TURN]; mode "wrap" never wraps it, and unlike "raise" writes to `out` unbuffered
    c, s = np.take(_COS, idx, out=r, mode="wrap"), np.take(_SIN, idx, out=t, mode="wrap")
    np.add(np.multiply(c, q, out=cos), c, out=cos)  # c cos d
    np.add(np.multiply(s, q, out=q), s, out=q)  # s cos d
    np.subtract(cos, np.multiply(s, p, out=t), out=cos)
    np.add(q, np.multiply(c, p, out=p), out=t)


def _mix64(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on a uint64 array; `tmp` is scratch of its shape."""
    x ^= np.right_shift(x, np.uint64(30), out=tmp)
    x *= _MIX1
    x ^= np.right_shift(x, np.uint64(27), out=tmp)
    x *= _MIX2
    x ^= np.right_shift(x, np.uint64(31), out=tmp)
    return x


def derive_seed(seed: int, label: str) -> int:
    """Derive a child seed from (seed, label), FNV-1a over the label bytes."""
    h = _FNV_OFFSET
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    x = np.array([(seed ^ h) & _MASK64], dtype=np.uint64)
    return int(_mix64(x, np.empty_like(x))[0])


class Rng:
    """SplitMix64 stream in counter mode, computed `_BLOCK` words at a time.

    Each call consumes a contiguous run of counters. `raw64`, `uniform` and
    `permutation` depend only on the seed and the draws before them; `normal`
    also on call sizes: n values take m = ceil(n/2) pairs, u1 from the call's
    first m counters and u2 from the next m, and come out as every r*cos(theta)
    and then every r*sin(theta), cut to n. A call's memory is its output plus
    a few blocks of scratch. theta = 2 pi u2, whose cos and sin `_cos_sin_turn`
    makes from a 1025-entry table built with `np.cos` and `np.sin` (their only use
    of libm; r uses `np.log`) and short polynomials, within 1e-15 of libm's.
    """

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        self._counter = 0

    def spawn(self, label: str) -> "Rng":
        """Independent child stream for a named purpose."""
        return Rng(derive_seed(self._seed, label))

    def _blocks(self, count: int):
        """(start, words) for the next `count` words, up to `_BLOCK` at a time in reused scratch."""
        words, tmp = (np.empty(min(count, _BLOCK), dtype=np.uint64) for _ in range(2))
        for lo in range(0, count, _BLOCK):
            w = words[:count - lo]
            # word i is mix(seed + (counter + i + 1) * golden), all mod 2^64
            np.add(_STEPS[:w.size], np.uint64((self._seed + self._counter * _GOLDEN) & _MASK64), out=w)
            self._counter += w.size
            yield lo, _mix64(w, tmp[:w.size])

    def raw64(self, count: int) -> np.ndarray:
        """Next `count` raw uint64 words."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        out = np.empty(count, dtype=np.uint64)
        for lo, words in self._blocks(count):
            out[lo:lo + words.size] = words
        return out

    def uniform(self, shape=()) -> np.ndarray:
        """float64 in [0, 1), 53 usable bits per draw."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        out = np.empty(n)
        for lo, words in self._blocks(n):
            words >>= np.uint64(11)  # top 53 bits scaled into [0, 1)
            np.multiply(words, 2.0 ** -53, out=out[lo:lo + words.size])
        return out.reshape(shape) if shape else out[0]

    def symmetric(self, shape, half_width) -> np.ndarray:
        """half_width * (2u - 1), uniform on [-half_width, half_width); `shape` is not ()."""
        u = self.uniform(shape)
        np.subtract(np.multiply(u, 2.0, out=u), 1.0, out=u)
        u *= half_width
        return u

    def normal(self, shape=()) -> np.ndarray:
        """Standard normals via Box-Muller on uniform pairs, in the class docstring's layout."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        pairs = (n + 1) // 2
        u = self.uniform((2 * pairs,))
        scratch = [np.empty(min(pairs, _BLOCK), dtype=dt) for dt in (float, np.intp, float, float, float)]
        for lo in range(0, pairs, _BLOCK):
            a, b = u[lo:min(lo + _BLOCK, pairs)], u[pairs + lo:pairs + lo + _BLOCK]
            _cos_sin_turn(b, *(x[:a.size] for x in scratch))  # theta = 2 pi u2; b is now sin(theta)
            np.log(np.subtract(1.0, a, out=a), out=a)  # 1 - u1 is in (0, 1], so the log is finite
            np.sqrt(np.multiply(a, -2.0, out=a), out=a)  # r
            b *= a  # r sin(theta)
            a *= scratch[0][:a.size]  # r cos(theta)
        return u[:n].reshape(shape) if shape else u[0]

    def permutation(self, n: int) -> np.ndarray:
        """Permutation of range(n) by sorting one random key per index."""
        keys = self.raw64(n)
        return np.argsort(keys, kind="stable")
