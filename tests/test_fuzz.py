"""Property tests: every input file ends in a value or in its loader's typed error."""

import struct
import zipfile
import zlib

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from latentjam.cli import _SCHEMA, load_checkpoint, parse_config, save_checkpoint
from latentjam.data_io import IMAGES_MAGIC, load_idx
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
_LABELS_MAGIC = 0x00000801  # an IDX label file, which load_idx rejects
_MAGIC = st.one_of(st.sampled_from([IMAGES_MAGIC, _LABELS_MAGIC]), st.integers(0, 2 ** 32 - 1))


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


def test_load_idx_directory_is_data_error(tmp_path):
    with pytest.raises(DataFormatError, match="cannot read"):
        load_idx(str(tmp_path))


# ============================================================
# Checkpoints
# ============================================================


@pytest.fixture(scope="module")
def saved_checkpoint(fuzz_dir):
    """The bytes of a k=1 aj checkpoint and the networks it was written from."""
    path = fuzz_dir / "valid.bin"
    state = init_state(GameConfig(k=1, n=2, jscc_hidden=2, data_hidden=2))
    save_checkpoint(path, state)
    raw = path.read_bytes()
    # the layout the explicit examples below edit
    assert len(raw) == 1077
    assert raw[_CENTRAL:_CENTRAL + 4] == raw[_F_BUFFER_ENTRY:_F_BUFFER_ENTRY + 4] == b"PK\x01\x02"
    assert raw[_F_DIMS_DATA:_F_DIMS_DATA + 24] == struct.pack("<3q", 2, 2, 1)
    assert struct.unpack_from("<II", raw, _END_SIZE) == (478, _CENTRAL)
    return raw, state.networks.present()


# offsets in that archive: the data of f.dims, the central directory (9 entries, the
# first, `networks`, 54 bytes long), f.buffer's entry in it, and the end record's
# directory size field, followed by its directory offset field
_F_DIMS_DATA, _CENTRAL, _F_BUFFER_ENTRY, _END_SIZE = 81, 577, 683, 1067
_HUGE_DIMS = struct.pack("<3q", 5 * 10 ** 11, 2, 1)  # f then declares 10^12 + 5 parameters

_EDIT = st.tuples(st.sampled_from(["set", "cut", "insert", "u32"]), st.integers(0, 2 ** 11),
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
@example([("set", 150, 0, b"\x00", 0)])  # a flipped byte of f's values
@example([("u32", _END_SIZE, 0, b"\x00", 478 - 54),  # the directory without `networks`
          ("u32", _END_SIZE + 4, 0, b"\x00", _CENTRAL + 54)])
@example([("set", _F_BUFFER_ENTRY + 10, 8, b"\x00", 0)])  # f.buffer's method set to deflate
@example([("set", _F_BUFFER_ENTRY + 8, 1, b"\x00", 0)])  # f.buffer's encryption flag set
@example([("u32", _F_DIMS_DATA, 0, b"\x00", struct.unpack_from("<I", _HUGE_DIMS)[0]),
          ("u32", _F_DIMS_DATA + 4, 0, b"\x00", struct.unpack_from("<I", _HUGE_DIMS, 4)[0]),
          ("u32", _CENTRAL + 54 + 16, 0, b"\x00", zlib.crc32(_HUGE_DIMS))])  # and its CRC-32
def test_load_checkpoint_on_mutated_files(fuzz_dir, saved_checkpoint, edits):
    raw, saved = saved_checkpoint
    path = fuzz_dir / "fuzz.bin"
    path.write_bytes(_mutate(raw, edits))
    nets = _ends_typed(load_checkpoint, path, CheckpointError)
    if nets is not None:  # exactly the networks saved
        assert list(nets) == list(saved)
        for name, params in saved.items():
            assert nets[name].layer_dims == params.layer_dims
            assert nets[name].buffer.tobytes() == params.buffer.tobytes()


def _saved_with(path, replaced: dict) -> None:
    """Save a k=1 aj checkpoint to `path`, then rewrite it with some members' data replaced."""
    save_checkpoint(path, init_state(GameConfig(k=1, n=2, jscc_hidden=2, data_hidden=2)))
    with zipfile.ZipFile(path) as zf:
        members = {member: zf.read(member) for member in zf.namelist()}
    with zipfile.ZipFile(path, "w") as zf:
        for member, data in {**members, **replaced}.items():
            zf.writestr(member, data)


@pytest.mark.parametrize("name, dims", [("g", []), ("f", [3]), ("f", [2, 0, 1])])
def test_load_checkpoint_rejects_degenerate_layer_dims(tmp_path, name, dims):
    # an archive consistent with its own dims, down to its last byte
    path = tmp_path / "degenerate.bin"
    floats = sum(d_out * d_in + d_out for d_in, d_out in zip(dims[:-1], dims[1:]))
    _saved_with(path, {f"{name}.dims": struct.pack(f"<{len(dims)}q", *dims),
                       f"{name}.buffer": bytes(4 * floats)})
    with pytest.raises(CheckpointError, match="invalid layer dims"):
        load_checkpoint(path)


@pytest.mark.parametrize("size", [32, 40])
def test_load_checkpoint_rejects_a_buffer_that_does_not_fit_its_dims(tmp_path, size):
    # f is [2, 2, 1]: 9 float32 values, 36 bytes
    path = tmp_path / "misfit.bin"
    _saved_with(path, {"f.buffer": bytes(size)})
    misfit = rf"^network 'f' has {size} bytes for layer dims \[2, 2, 1\]$"
    with pytest.raises(CheckpointError, match=misfit):
        load_checkpoint(path)


def test_load_checkpoint_directory_is_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path)
