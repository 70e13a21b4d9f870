"""Shared fixtures: fabricated IDX payloads, record-free normalization, MNIST discovery."""

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
from latentjam.nets import power_normalize  # noqa: E402

# Property tests draw the same examples on every run, so tier-1 stays deterministic.
settings.register_profile("fixed", derandomize=True, database=None, deadline=None)
settings.load_profile("fixed")


def normalized(z, target_power):
    """power_normalize run on a record-free tape, as evaluation runs it."""
    return power_normalize(EagerTape().const(z), target_power).value


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


def idx_image_bytes(pixels: np.ndarray) -> bytes:
    """Serialize a uint8 [count, rows, cols] array as an IDX image file."""
    count, rows, cols = pixels.shape
    header = struct.pack(">IIII", 0x00000803, count, rows, cols)
    return header + pixels.astype(np.uint8).tobytes()


def idx_label_bytes(labels: np.ndarray) -> bytes:
    header = struct.pack(">II", 0x00000801, len(labels))
    return header + labels.astype(np.uint8).tobytes()


@pytest.fixture
def write_idx(tmp_path):
    def _write(name: str, payload: bytes):
        path = tmp_path / name
        path.write_bytes(payload)
        return str(path)
    return _write


MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def mnist_dir():
    """Directory holding the four standard IDX files, or None.

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
    "MNIST IDX files not found; place train-images-idx3-ubyte, train-labels-idx1-ubyte, "
    "t10k-images-idx3-ubyte, t10k-labels-idx1-ubyte (uncompressed) under $MNIST_DIR or "
    "data/mnist/ at the repo root. This sandbox has no network access, so the files "
    "cannot be fetched automatically."
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
