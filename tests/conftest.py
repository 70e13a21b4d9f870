"""Shared fixtures: fabricated IDX payloads, record-free normalization, finite differences,
MNIST discovery."""

import os

# Fingerprint (i) depends on OpenBLAS's thread count as well as its build;
# pin it before numpy loads so the frozen hashes hold whatever the caller set.
os.environ["OPENBLAS_NUM_THREADS"] = "2"

import struct  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from latentjam.autodiff import EagerTape  # noqa: E402
from latentjam.errors import ConfigError, ShapeError  # noqa: E402
from latentjam.nets import POWER_EPS, power_normalize  # noqa: E402

# Property tests draw the same examples on every run, so tier-1 stays deterministic.
settings.register_profile("fixed", derandomize=True, database=None, deadline=None)
settings.load_profile("fixed")


def normalized(z, target_power):
    """power_normalize run on a record-free tape, as evaluation runs it."""
    return power_normalize(EagerTape().const(z), target_power).value


def power_normalize_reference(z, target_power):
    """numpy reference of power_normalize in float64: per column, sqrt(P) times the centred
    values over the root of their biased batch variance plus eps."""
    z = np.asarray(z, dtype=np.float64)
    c = z - z.mean(axis=0)
    return np.sqrt(target_power) * c / np.sqrt((c * c).mean(axis=0) + POWER_EPS)


def fd_gradient(loss_of, array, h=1e-5):
    """Central differences of `loss_of()` with respect to each entry of the float64 `array`.

    `loss_of` records a fresh graph that reads `array` and returns its shape-[1] loss; each
    entry is bumped in place by +-h around one call each, then restored.
    """
    assert array.dtype == np.float64, "a float32 array would lose the step"
    grad = np.zeros_like(array)
    for i in range(array.size):
        base = array.flat[i]
        array.flat[i] = base + h
        hi = loss_of().value[0]
        array.flat[i] = base - h
        lo = loss_of().value[0]
        array.flat[i] = base
        grad.flat[i] = (hi - lo) / (2 * h)
    return grad


def traced_peak(fn):
    """`fn()` and the peak bytes `tracemalloc` sees while it runs."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_peak_ratio(fn) -> float:
    """Peak bytes `tracemalloc` sees while `fn()` runs, over the bytes of the array it returns."""
    out, peak = traced_peak(fn)
    return peak / out.nbytes


# Numpy references for the regularizers (the KL graph builders, the imq_mmd op) and criterion 10


def kl_diag_gaussian(mu: np.ndarray, log_var: np.ndarray) -> float:
    """KL(N(mu, diag sigma^2) || N(0, I)), averaged over the batch."""
    mu = np.asarray(mu, dtype=np.float64)
    log_var = np.asarray(log_var, dtype=np.float64)
    if mu.shape != log_var.shape:
        raise ShapeError(f"kl_diag_gaussian shapes differ: {mu.shape} vs {log_var.shape}")
    per_sample = 0.5 * np.sum(mu * mu + np.exp(log_var) - log_var - 1.0, axis=-1)
    return float(np.mean(per_sample))


def reparameterize(mu: np.ndarray, log_var: np.ndarray, rng) -> np.ndarray:
    """z = mu + exp(log_var / 2) * eps with fresh standard-normal eps from `rng`."""
    mu = np.asarray(mu, dtype=np.float64)
    log_var = np.asarray(log_var, dtype=np.float64)
    if mu.shape != log_var.shape:
        raise ShapeError(f"reparameterize shapes differ: {mu.shape} vs {log_var.shape}")
    return mu + np.exp(0.5 * log_var) * rng.normal(mu.shape)


def mmd_imq(a: np.ndarray, b: np.ndarray, C: float) -> float:
    """Unbiased MMD^2 with kernel C / (C + ||u - v||^2).

    Diagonal terms are excluded from the within-sample means, so single
    draws can come out negative; only the expectation is nonnegative.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ShapeError(f"mmd_imq expects equal [m, k] blocks, got {a.shape} vs {b.shape}")
    m = a.shape[0]
    if m < 2:
        raise ConfigError(f"mmd_imq needs m >= 2, got {m}")
    if C <= 0:
        raise ConfigError("IMQ kernel constant must be > 0")

    def sq_dists(u, v):
        ru = np.sum(u * u, axis=1)[:, None]
        rv = np.sum(v * v, axis=1)[None, :]
        return np.maximum(ru + rv - 2.0 * (u @ v.T), 0.0)

    k_aa = C / (C + sq_dists(a, a))
    k_bb = C / (C + sq_dists(b, b))
    k_ab = C / (C + sq_dists(a, b))
    off = float(m * (m - 1))
    term_aa = (k_aa.sum() - np.trace(k_aa)) / off
    term_bb = (k_bb.sum() - np.trace(k_bb)) / off
    return float(term_aa + term_bb - 2.0 * k_ab.mean())


def idx_image_bytes(pixels: np.ndarray) -> bytes:
    """Serialize a uint8 [count, rows, cols] array as an IDX image file."""
    count, rows, cols = pixels.shape
    header = struct.pack(">IIII", 0x00000803, count, rows, cols)
    return header + pixels.astype(np.uint8).tobytes()


@pytest.fixture
def write_idx(tmp_path):
    def _write(name: str, payload: bytes):
        path = tmp_path / name
        path.write_bytes(payload)
        return str(path)
    return _write


MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
}


def mnist_dir():
    """Directory holding the two standard IDX image files, or None.

    Checked in order: $MNIST_DIR, then data/mnist/ relative to the repo root.
    """
    candidates = []
    if os.environ.get("MNIST_DIR"):
        candidates.append(os.environ["MNIST_DIR"])
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    candidates.append(os.path.join(here, "data", "mnist"))
    for cand in candidates:
        if all(os.path.exists(os.path.join(cand, f)) for f in MNIST_FILES.values()):
            return cand
    return None


MNIST_SKIP_REASON = (
    "MNIST IDX files not found; place train-images-idx3-ubyte and t10k-images-idx3-ubyte "
    "(uncompressed) under $MNIST_DIR or data/mnist/ at the repo root; no download is performed."
)


# One summary line per acceptance criterion at the end of the run.

_acceptance_outcomes: dict = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py::" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1].split("[")[0]
    if report.skipped:
        reason = ""
        if isinstance(report.longrepr, tuple):
            reason = str(report.longrepr[2]).removeprefix("Skipped: ")
        _acceptance_outcomes[name] = ("SKIP", reason.split(";")[0])
    elif report.when == "call":
        # a parametrized criterion fails as a whole if any case fails
        outcome = "PASS" if report.passed else "FAIL"
        prev = _acceptance_outcomes.get(name, ("PASS", ""))[0]
        _acceptance_outcomes[name] = ("FAIL" if "FAIL" in (outcome, prev) else "PASS", "")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(_acceptance_outcomes):
        outcome, extra = _acceptance_outcomes[name]
        suffix = f"  ({extra})" if extra else ""
        terminalreporter.write_line(f"{outcome:4s} {name}{suffix}")
