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
    a few blocks of scratch.
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
        for lo in range(0, pairs, _BLOCK):
            a, b = u[lo:min(lo + _BLOCK, pairs)], u[pairs + lo:pairs + lo + _BLOCK]
            np.log(np.subtract(1.0, a, out=a), out=a)  # 1 - u1 is in (0, 1], so the log is finite
            np.sqrt(np.multiply(a, -2.0, out=a), out=a)  # r
            b *= 2.0 * np.pi  # theta
            cos = np.cos(b)  # block-sized scratch: a and b are both still needed
            np.multiply(np.sin(b, out=b), a, out=b)  # r sin(theta)
            a *= cos  # r cos(theta)
        return u[:n].reshape(shape) if shape else u[0]

    def permutation(self, n: int) -> np.ndarray:
        """Permutation of range(n) by sorting one random key per index."""
        keys = self.raw64(n)
        return np.argsort(keys, kind="stable")
