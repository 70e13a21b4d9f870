"""Portability and statistics of the counter-based generator."""

import numpy as np
import pytest

from conftest import traced_peak_ratio
from latentjam.rng import Rng, _cos_sin_turn, derive_seed


def _cos_sin_2pi(t):
    """The package's cos(2 pi t) and sin(2 pi t) on a whole array at once."""
    sin = np.array(t, dtype=np.float64)  # the helper writes sin over its input
    cos = np.empty_like(sin)
    _cos_sin_turn(sin, cos, np.empty(sin.shape, np.intp), *(np.empty_like(sin) for _ in range(3)))
    return cos, sin


def _libm_box_muller(u):
    """Accuracy reference: Box-Muller on the pairs of `u` with theta = 2 pi u2 through libm."""
    r = np.sqrt(-2.0 * np.log(1.0 - u[:u.size // 2]))
    theta = 2.0 * np.pi * u[u.size // 2:]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])


class _WholeArrayRng:
    """Reference: each formula on the whole array at once, as `Rng` computed it before blocking."""

    def __init__(self, seed: int):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.counter = 0

    def raw64(self, count):
        idx = np.arange(self.counter + 1, self.counter + count + 1, dtype=np.uint64)
        self.counter += count
        x = self.seed + idx * np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))

    def uniform(self, shape=()):
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = (self.raw64(n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        return u.reshape(shape) if shape else u[0]

    def normal(self, shape=()):
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        pairs = (n + 1) // 2
        u1 = 1.0 - self.uniform((pairs,))
        u2 = self.uniform((pairs,))
        r = np.sqrt(-2.0 * np.log(u1))
        cos, sin = _cos_sin_2pi(u2)
        z = np.concatenate([r * cos, r * sin])[:n]
        return z.reshape(shape) if shape else z[0]


# around the 16384-word block: empty, tiny, one less, exactly one, one more, two and a bit
_BLOCK_EDGE_SIZES = [0, 1, 2, 3, 16383, 16384, 16385, 32769]


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("skip", [0, 5])
@pytest.mark.parametrize("method", ["raw64", "uniform", "normal"])
def test_blocked_draws_equal_whole_array_reference(seed, skip, method):
    got, ref = Rng(seed), _WholeArrayRng(seed)
    got.raw64(skip)
    ref.raw64(skip)
    sizes = [(n if method == "raw64" else (n,)) for n in _BLOCK_EDGE_SIZES]
    if method != "raw64":
        sizes += [(), (7, 3)]
    for size in sizes:
        a, b = getattr(got, method)(size), getattr(ref, method)(size)
        assert np.shape(a) == np.shape(b) and np.asarray(a).dtype == np.asarray(b).dtype, size
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), size
        assert got._counter == ref.counter, size


def test_symmetric_is_scaled_two_u_minus_one():
    half_width = np.sqrt(6.0 / 13.0)
    expected = half_width * (2.0 * Rng(8).uniform((5, 7)) - 1.0)
    assert np.array_equal(Rng(8).symmetric((5, 7), half_width), expected)


def test_normal_layout_cos_half_then_sin_half():
    # n values take ceil(n/2) pairs: u1 from the first half of the counters, u2 from the second
    u = Rng(11).uniform((6,))
    r = np.sqrt(-2.0 * np.log(1.0 - u[:3]))
    cos, sin = _cos_sin_2pi(u[3:])
    expected = np.concatenate([r * cos, r * sin])[:5]
    assert np.array_equal(Rng(11).normal((5,)), expected)
    two_calls = Rng(11)
    split = np.concatenate([two_calls.normal((2,)), two_calls.normal((2,))])
    assert not np.array_equal(split, Rng(11).normal((4,)))


def test_cos_sin_2pi_matches_libm():
    steps = np.arange(1025) / 1024
    edges = np.concatenate([[0.0, 1.0 - 2.0 ** -53], steps[1:] - 2.0 ** -53, steps[:-1],
                            steps[:-1] + 2.0 ** -53, steps[:-1] + 0.5 / 1024])
    for t in (Rng(13).uniform((1_000_000,)), edges):
        assert t.min() >= 0.0 and t.max() < 1.0
        cos, sin = _cos_sin_2pi(t)
        assert np.max(np.abs(cos - np.cos(2.0 * np.pi * t))) <= 1e-15
        assert np.max(np.abs(sin - np.sin(2.0 * np.pi * t))) <= 1e-15


def test_normal_is_close_to_libm_box_muller():
    z = Rng(14).normal((1_000_000,))
    reference = _libm_box_muller(Rng(14).uniform((1_000_000,)))
    assert np.max(np.abs(z - reference)) <= 1e-14


# the whole-array formulas peaked at 4.0x (normal) and 3.0x (uniform) of the output
@pytest.mark.parametrize("method", ["normal", "uniform"])
def test_draw_memory_is_output_plus_blocks(method):
    assert traced_peak_ratio(lambda: getattr(Rng(0), method)((200_001,))) < 2.0


def test_same_seed_same_sequence():
    a = Rng(12345)
    b = Rng(12345)
    assert np.array_equal(a.raw64(64), b.raw64(64))
    assert np.array_equal(a.uniform((7, 3)), b.uniform((7, 3)))
    assert np.array_equal(a.normal((5, 5)), b.normal((5, 5)))


def test_call_granularity_does_not_matter():
    # counter mode: 3 draws then 2 draws == 5 draws
    a = Rng(7)
    b = Rng(7)
    split = np.concatenate([a.raw64(3), a.raw64(2)])
    assert np.array_equal(split, b.raw64(5))


def test_frozen_first_words():
    # cross-run portability guard; values recorded from this implementation
    words = Rng(0).raw64(3)
    assert words.dtype == np.uint64
    expected = np.array([16294208416658607535, 7960286522194355700,
                         487617019471545679], dtype=np.uint64)
    assert np.array_equal(words, expected)


def test_uniform_bounds_and_mean():
    u = Rng(42).uniform((100_000,))
    assert u.min() >= 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.003


def test_normal_moments():
    z = Rng(43).normal((100_000,))
    assert np.all(np.isfinite(z))
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02


def test_normal_odd_count_shape():
    z = Rng(1).normal((7, 3))
    assert z.shape == (7, 3)


def test_permutation_is_bijection():
    p = Rng(9).permutation(1000)
    assert np.array_equal(np.sort(p), np.arange(1000))


def test_permutation_seed_sensitivity():
    assert not np.array_equal(Rng(1).permutation(100), Rng(2).permutation(100))


def test_derive_seed_label_sensitivity():
    s1 = derive_seed(0, "x")
    s2 = derive_seed(0, "noise")
    s3 = derive_seed(1, "x")
    assert len({s1, s2, s3}) == 3


def test_derive_seed_frozen_values():
    # recorded once; a change here would shift every seeded tolerance downstream
    assert derive_seed(0, "x") == 3204358148266727566
    assert derive_seed(20, "data") == 4322647846176120342


def test_spawn_is_insulated_from_parent_draws():
    parent1 = Rng(5)
    child1 = parent1.spawn("stream")
    parent1.normal((100,))
    parent2 = Rng(5)
    parent2.uniform((999,))
    child2 = parent2.spawn("stream")
    assert np.array_equal(child1.raw64(16), child2.raw64(16))


def test_negative_count_rejected():
    try:
        Rng(0).raw64(-1)
    except ValueError:
        return
    raise AssertionError("negative count must raise")
