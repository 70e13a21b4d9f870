"""Property tests: every input file ends in a value or in its loader's typed error."""

import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import idx_image_bytes
from latentjam.cli import (_SCHEMA, CHECKPOINT_VERSION, load_checkpoint, parse_config,
                           save_checkpoint)
from latentjam.data_io import IMAGES_MAGIC, LABELS_MAGIC, load_idx
from latentjam.errors import CheckpointError, ConfigError, DataFormatError
from latentjam.game import GameConfig, init_state


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _ends_typed(load, path, error):
    """The loaded value, or None when the loader raised `error`; anything else propagates."""
    try:
        return load(path)
    except error:
        return None


# ============================================================
# Config files
# ============================================================

_KEYS = [f"{section}.{key}" for section, keys in _SCHEMA.items() for key in keys]
_LINE = st.tuples(st.sampled_from(_KEYS + ["game", "bogus.k", "game.bogus", ""]),
                  st.sampled_from(["=", " = ", "", "=="]),
                  st.text(max_size=12)).map("".join)
_CONFIG = st.one_of(st.binary(max_size=200),
                    st.lists(_LINE, max_size=8).map(lambda ls: "\n".join(ls).encode("utf-8")))


@given(_CONFIG)
@example(b"\x80")
def test_parse_config_on_arbitrary_bytes(fuzz_dir, payload):
    path = fuzz_dir / "fuzz.cfg"
    path.write_bytes(payload)
    sections = _ends_typed(parse_config, path, ConfigError)
    assert sections is None or set(sections) == set(_SCHEMA)


def test_parse_config_unreadable_paths(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"game.k = 2\n\xff\n")
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(path)
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path)


# ============================================================
# IDX files
# ============================================================

_DIM = st.one_of(st.integers(0, 4), st.sampled_from([0, 2 ** 16, 2 ** 32 - 1]),
                 st.integers(0, 2 ** 32 - 1))
_MAGIC = st.one_of(st.sampled_from([IMAGES_MAGIC, LABELS_MAGIC]), st.integers(0, 2 ** 32 - 1))


@st.composite
def _idx_file(draw):
    magic, count, rows, cols = draw(_MAGIC), draw(_DIM), draw(_DIM), draw(_DIM)
    header = struct.pack(">IIII", magic, count, rows, cols)
    size = count * rows * cols
    body = draw(st.one_of(st.binary(max_size=64),
                          st.binary(min_size=size, max_size=size) if size <= 64 else st.nothing()))
    return draw(st.sampled_from([header + body, header[:draw(st.integers(0, 15))]]))


@given(_idx_file())
@example(struct.pack(">IIII", IMAGES_MAGIC, 0, 2 ** 32 - 1, 2 ** 32 - 1))
@example(struct.pack(">IIII", IMAGES_MAGIC, 5, 0, 7))
def test_load_idx_on_arbitrary_headers_and_bodies(fuzz_dir, payload):
    path = fuzz_dir / "fuzz.idx"
    path.write_bytes(payload)
    ds = _ends_typed(load_idx, str(path), DataFormatError)
    assert ds is None or (ds.count > 0 and ds.n > 0 and ds.images.shape[0] == ds.count)


@given(st.binary(max_size=24))
def test_load_idx_on_arbitrary_labels(fuzz_dir, payload):
    images = fuzz_dir / "labelled.idx"
    images.write_bytes(idx_image_bytes(np.zeros((2, 2, 2), dtype=np.uint8)))
    labels = fuzz_dir / "fuzz-labels.idx"
    labels.write_bytes(payload)
    _ends_typed(lambda p: load_idx(str(images), str(p)), labels, DataFormatError)


def test_load_idx_directory_is_data_error(tmp_path):
    with pytest.raises(DataFormatError, match="cannot read"):
        load_idx(str(tmp_path))


# ============================================================
# Checkpoints
# ============================================================


@pytest.fixture(scope="module")
def valid_checkpoint(fuzz_dir):
    path = fuzz_dir / "valid.bin"
    save_checkpoint(path, init_state(GameConfig(k=1, n=2, jscc_hidden=2, data_hidden=2)))
    return path.read_bytes()


_EDIT = st.tuples(st.sampled_from(["set", "cut", "insert", "u32"]), st.integers(0, 400),
                  st.integers(0, 255), st.binary(min_size=1, max_size=8),
                  st.one_of(st.sampled_from([0, 1, 2, 2 ** 31, 2 ** 32 - 1]),
                            st.integers(0, 2 ** 32 - 1)))


def _mutate(buf: bytes, edits) -> bytes:
    out = bytearray(buf)
    for kind, pos, byte, chunk, word in edits:
        pos %= len(out) + 1
        if kind == "set" and pos < len(out):
            out[pos] = byte
        elif kind == "cut":
            del out[pos:pos + 1 + byte % 16]
        elif kind == "insert":
            out[pos:pos] = chunk
        elif kind == "u32":
            out[pos:pos + 4] = struct.pack("<I", word)
    return bytes(out)


@given(st.lists(_EDIT, min_size=1, max_size=4))
@example([("insert", 22, 0, b"\x00\x00\x9d\x00\x00\x00\xd1", 0)])  # dims whose product overflows
def test_load_checkpoint_on_mutated_files(fuzz_dir, valid_checkpoint, edits):
    path = fuzz_dir / "fuzz.bin"
    path.write_bytes(_mutate(valid_checkpoint, edits))
    nets = _ends_typed(load_checkpoint, path, CheckpointError)
    assert nets is None or all(len(p.layer_dims) >= 2 for p in nets.values())


@pytest.mark.parametrize("name, dims", [(b"g", []), (b"f", [3]), (b"f", [2, 0, 1])])
def test_load_checkpoint_rejects_degenerate_layer_dims(tmp_path, name, dims):
    # a file consistent with its own dims, down to its last byte
    floats = sum(d_out * d_in + d_out for d_in, d_out in zip(dims[:-1], dims[1:]))
    payload = (b"AJLK" + struct.pack("<III", CHECKPOINT_VERSION, 1, len(name)) + name
               + struct.pack(f"<I{len(dims)}I", len(dims), *dims) + bytes(4 * floats))
    path = tmp_path / "degenerate.bin"
    path.write_bytes(payload)
    with pytest.raises(CheckpointError, match="invalid layer dims"):
        load_checkpoint(path)


def test_load_checkpoint_directory_is_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path)
