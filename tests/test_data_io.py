"""IDX parsing, synthetic sources, and deterministic batching."""

import numpy as np
import pytest

from conftest import idx_image_bytes, traced_peak_ratio
from latentjam.data_io import BatchPlan, batches, epoch_permutation, load_idx, synth_source
from latentjam.errors import ConfigError, DataFormatError


# ============================================================
# IDX parsing
# ============================================================


def test_load_idx_zero_images(write_idx):
    path = write_idx("zeros.idx", idx_image_bytes(np.zeros((2, 2, 2), dtype=np.uint8)))
    ds = load_idx(path)
    assert ds.count == 2 and ds.n == 4
    assert np.array_equal(ds.images, np.zeros((2, 4)))
    assert ds.metadata["rows"] == 2 and ds.metadata["cols"] == 2


def test_load_idx_pixel_scaling(write_idx):
    pixels = np.array([[[0, 51], [255, 102]]], dtype=np.uint8)
    ds = load_idx(write_idx("px.idx", idx_image_bytes(pixels)))
    assert np.allclose(ds.images[0], [0.0, 0.2, 1.0, 0.4], rtol=0, atol=1e-15)


def test_load_idx_bad_magic(write_idx):
    payload = bytearray(idx_image_bytes(np.zeros((1, 2, 2), dtype=np.uint8)))
    payload[:4] = (0xDEADBEEF).to_bytes(4, "big")
    path = write_idx("bad.idx", bytes(payload))
    with pytest.raises(DataFormatError, match="0xDEADBEEF"):
        load_idx(path)


def test_load_idx_truncated(write_idx):
    payload = idx_image_bytes(np.zeros((2, 3, 3), dtype=np.uint8))
    with pytest.raises(DataFormatError, match="length"):
        load_idx(write_idx("trunc.idx", payload[:-5]))


def test_load_idx_trailing_bytes(write_idx):
    payload = idx_image_bytes(np.zeros((2, 3, 3), dtype=np.uint8)) + b"xx"
    with pytest.raises(DataFormatError):
        load_idx(write_idx("trail.idx", payload))


def test_load_idx_missing_file():
    with pytest.raises(DataFormatError, match="not found"):
        load_idx("/nonexistent/images.idx")


def test_load_idx_roundtrip_bytes(write_idx):
    rng = np.random.default_rng(0)  # fixture data only; package code never uses this
    pixels = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
    ds = load_idx(write_idx("rt.idx", idx_image_bytes(pixels)))
    back = np.round(ds.images * 255.0).astype(np.uint8)
    assert np.array_equal(back.reshape(pixels.shape), pixels)


# ============================================================
# Synthetic sources
# ============================================================


def test_synth_gaussian_mean():
    ds = synth_source("gaussian", 100_000, 3, seed=0)
    means = ds.images.mean(axis=0)
    assert np.all(means >= 0.49) and np.all(means <= 0.51)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def test_synth_uniform_bounds():
    ds = synth_source("uniform", 10_000, 2, seed=1)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def test_synth_mixture_in_bounds():
    ds = synth_source("mixture", 5_000, 2, seed=2)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    # both default centers get visited
    assert ds.images.mean() > 0.35 and ds.images.mean() < 0.65


def test_synth_deterministic():
    a = synth_source("gaussian", 100, 4, seed=3)
    b = synth_source("gaussian", 100, 4, seed=3)
    assert np.array_equal(a.images, b.images)


def test_synth_kind_isolated_streams():
    # different kinds draw from different derived seeds
    a = synth_source("gaussian", 100, 4, seed=3)
    b = synth_source("uniform", 100, 4, seed=3)
    assert not np.array_equal(a.images, b.images)


def test_synth_memory_is_about_the_images():
    # scaling, shifting and clipping the draws out of place peaked at 4.0x the images
    ratio = traced_peak_ratio(lambda: synth_source("mixture", 1001, 784, seed=0).images)
    assert ratio < 2.0


def test_synth_unknown_kind():
    with pytest.raises(ConfigError):
        synth_source("cauchy", 10, 2, seed=0)


def test_synth_bad_count():
    with pytest.raises(ConfigError):
        synth_source("gaussian", 0, 2, seed=0)


def test_synth_square_metadata():
    ds = synth_source("gaussian", 10, 9, seed=0)
    assert ds.metadata["rows"] == 3 and ds.metadata["cols"] == 3
    ds2 = synth_source("gaussian", 10, 5, seed=0)
    assert ds2.metadata["rows"] == 1 and ds2.metadata["cols"] == 5


# ============================================================
# Batching
# ============================================================


def test_batches_full_dataset_is_permutation():
    # 16 rows in batches of 4: no tail is left out, so the batches hold every row once
    ds = synth_source("uniform", 16, 2, seed=4)
    plan = BatchPlan(batch_size=4, seed=0)
    out = list(batches(ds, plan, epoch=1))
    assert [b.shape for b in out] == [(4, 2)] * 4
    assert np.array_equal(np.sort(np.concatenate(out), axis=0), np.sort(ds.images, axis=0))


def test_batches_drop_last():
    ds = synth_source("uniform", 5, 2, seed=5)
    plan = BatchPlan(batch_size=2, seed=0)
    out = list(batches(ds, plan, epoch=1))
    assert len(out) == 2
    assert sum(b.shape[0] for b in out) == 4
    # the row left out is the last of the epoch's permutation
    assert np.array_equal(np.concatenate(out), ds.images[epoch_permutation(plan, 5, epoch=1)[:4]])


def test_batches_cover_each_index_exactly_once():
    ds = synth_source("uniform", 12, 1, seed=6)
    plan = BatchPlan(batch_size=4, seed=3)
    seen = np.concatenate([b[:, 0] for b in batches(ds, plan, epoch=2)])
    assert np.array_equal(np.sort(seen), np.sort(ds.images[:, 0]))


def test_batches_epochs_differ():
    plan = BatchPlan(batch_size=4, seed=7)
    p1 = epoch_permutation(plan, 32, epoch=1)
    p2 = epoch_permutation(plan, 32, epoch=2)
    assert not np.array_equal(p1, p2)


def test_batches_deterministic_across_runs():
    ds = synth_source("uniform", 10, 2, seed=8)
    plan = BatchPlan(batch_size=5, seed=9)
    a = [b.copy() for b in batches(ds, plan, epoch=3)]
    b = list(batches(ds, plan, epoch=3))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_batches_oversized_batch_rejected():
    ds = synth_source("uniform", 4, 2, seed=0)
    plan = BatchPlan(batch_size=5, seed=0)
    with pytest.raises(ConfigError):
        list(batches(ds, plan, epoch=1))
