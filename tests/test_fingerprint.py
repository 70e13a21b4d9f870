"""Frozen training fingerprints: a refactor must leave these runs bit for bit.

Two short fixed-seed runs are reduced to one SHA-256 each, over the final
parameters of every network (in checkpoint order) plus the evaluation
history:

(i)  five aj `train_step`s at the paper's MNIST shape (784-512-2, batch
     128) on synthetic mixture rows;
(ii) one epoch of `train` for each of aj, kl, mmd and none at the
     `demos/baseline_comparison.py` configuration (n=8, k=2, hidden 64,
     two auxiliary updates per step).

Training runs in float32, so the hashes pin this machine's BLAS as well as
the code: the float32 (sgemm) kernels of OpenBLAS 0.3.31 (scipy-openblas,
Haswell) at its default of 2 threads on a 2-core machine. OpenBLAS picks its kernels by CPU, matrix shape, memory layout
and thread count, and a kernel that orders a dot product differently
moves the last bits; run (i) already hashes differently with
OPENBLAS_NUM_THREADS=1, so `conftest.py` pins that variable to 2 before
numpy is imported. A mismatch on another build, CPU or thread count
is therefore not by itself a regression. An intended change of a hash
goes into CHANGES.md with its reason, next to the old and the new value.
"""

import hashlib

import numpy as np

from latentjam.data_io import BatchPlan, batches, synth_source
from latentjam.game import GameConfig, init_state, train, train_step

HASH_MNIST_STEPS = "f2adde9a3d7824188e31e36759bab5c7f47ba953b9d11b135b8559c36a20cf51"
HASH_COMPARISON = "7db0aaba212764fa5470e2e143595ade217b18f6a89de86aa708f33af77dd225"


def _fingerprint(state) -> str:
    h = hashlib.sha256()
    for net_name, params in state.networks.present().items():
        for pname in params.array_names():
            arr = np.ascontiguousarray(params.array(pname), dtype=np.float64)
            h.update(f"{net_name}.{pname}{arr.shape}".encode())
            h.update(arr.tobytes())
    for row in state.history:
        jscc = np.nan if row.jscc_mse is None else row.jscc_mse
        scalars = [row.epoch, row.data_mse, jscc, row.dpc, row.mean_norm, row.mean_power]
        h.update(np.asarray(scalars, dtype=np.float64).tobytes())
        for arr in (row.per_dim_skewness, row.per_dim_excess_kurtosis, row.per_dim_ks_stat):
            h.update(np.asarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def test_fingerprint_mnist_shape_aj_steps():
    cfg = GameConfig(k=2, n=784, batch_size=128, seed=7, data_hidden=512, jscc_hidden=64)
    rows = synth_source("mixture", 5 * 128, 784, seed=7)
    state = init_state(cfg)
    for d_batch in batches(rows, BatchPlan(128, 7), epoch=1):
        train_step(state, d_batch, cfg)
    assert state.opt["f"].step_count == 5
    assert _fingerprint(state) == HASH_MNIST_STEPS


def test_fingerprint_comparison_one_epoch_each():
    ds = synth_source("mixture", 2560, 8, seed=41)
    digests = []
    for reg in ("aj", "kl", "mmd", "none"):
        cfg = GameConfig(k=2, n=8, epochs=1, batch_size=128, seed=41, regularizer=reg,
                         data_hidden=64, jscc_hidden=64, jscc_steps_per_data_step=2)
        state = train(cfg, ds)
        assert len(state.history) == 1
        digests.append(_fingerprint(state))
    combined = hashlib.sha256("".join(digests).encode()).hexdigest()
    assert combined == HASH_COMPARISON
