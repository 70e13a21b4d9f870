"""Experiment runner: config parsing, training, oracle suites, artifacts.

Verbs:
  train <config>                                  run one training experiment
  oracle <config>                                 run the saddle-point check suite
  generate <checkpoint> --count N --seed S --out DIR   decode prior samples

Config files are flat key=value text with '#' comments and section
prefixes, e.g. `game.eta=1.0`. Exit codes: 2 config (and any shape
mismatch that the config checks miss, printed as `shape error:`), 3 data,
4 numeric, 5 degenerate game, 6 checkpoint. AJ_LOG in {quiet, info, debug}
sets verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
import typing
import zipfile

import numpy as np

from .data_io import Dataset, load_idx, synth_source
from .errors import (CheckpointError, ConfigError, DataFormatError,
                     DegenerateGameError, NumericError, ShapeError)
from .game import GameConfig, TrainState, check_training_inputs, train
from .metrics import CSV_HEADER
from .nets import TRAIN_DTYPE, MlpParams, buffer_size, mlp_apply
from .oracle import (MATCHING_MIN_SAMPLES, MC_MIN_SAMPLES, OracleSpec, isotropic_matching,
                     matching_residual, matching_samples, mc_game_value, saddle_strategy,
                     saddle_verify, scalar_saddle_distortion)
from .rng import Rng, derive_seed

log = logging.getLogger("latentjam")

_PAYLOAD = TRAIN_DTYPE.newbyteorder("<")  # checkpoint buffers in the training precision
_DIMS = np.dtype("<i8")  # checkpoint layer dims
_MEMBER_DATE = (1980, 1, 1, 0, 0, 0)  # the earliest a zip member can carry

# ============================================================
# Config parsing
# ============================================================


def _casters(config_class) -> dict:
    """{field: type} of a config dataclass, in field order; an Optional[T] field is cast as T."""
    hints = typing.get_type_hints(config_class)
    return {f.name: next((t for t in typing.get_args(hints[f.name]) if t is not type(None)),
                         hints[f.name]) for f in dataclasses.fields(config_class)}


_SUITE_KEYS = {"samples": int, "grid_samples": int, "matching_samples": int, "seed": int}
_SCHEMA = {
    "game": _casters(GameConfig),
    "data": {
        "kind": str, "images": str, "eval_images": str, "synth_kind": str, "count": int,
        "eval_count": int, "n": int, "seed": int,
    },
    "run": {"output_dir": str, "eval_every": int, "sample_count": int},
    "oracle": {**_casters(OracleSpec), **_SUITE_KEYS},  # spec fields, then the suite's own keys
}


def parse_config(path) -> dict:
    """Parse a flat sectioned key=value file into typed per-section dicts."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    sections: dict = {name: {} for name in _SCHEMA}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got '{line}'")
        key, value = (part.strip() for part in line.split("=", 1))
        if "." not in key:
            raise ConfigError(f"{path}:{lineno}: key '{key}' lacks a section prefix")
        section, field = key.split(".", 1)
        if section not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown section '{section}'")
        if field not in _SCHEMA[section]:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if field in sections[section]:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        caster = _SCHEMA[section][field]
        try:
            sections[section][field] = caster(value)
        except ValueError as err:
            raise ConfigError(f"{path}:{lineno}: bad value for '{key}': {err}") from err
    return sections


def _load_datasets(data_cfg: dict, game_seed: int):
    kind = data_cfg.get("kind")
    if kind == "idx":
        if "images" not in data_cfg:
            raise ConfigError("data.kind=idx requires data.images")
        eval_ds = load_idx(data_cfg["eval_images"]) if "eval_images" in data_cfg else None
        return load_idx(data_cfg["images"]), eval_ds
    if kind == "synth":
        for req in ("synth_kind", "count", "n"):
            if req not in data_cfg:
                raise ConfigError(f"data.kind=synth requires data.{req}")
        seed = data_cfg.get("seed", game_seed)
        ds = synth_source(data_cfg["synth_kind"], data_cfg["count"], data_cfg["n"], seed)
        eval_ds = None
        if "eval_count" in data_cfg and data_cfg["eval_count"] > 0:
            eval_ds = synth_source(data_cfg["synth_kind"], data_cfg["eval_count"],
                                   data_cfg["n"], derive_seed(seed, "eval-split"))
        return ds, eval_ds
    raise ConfigError(f"data.kind must be 'idx' or 'synth', got '{kind}'")


def _resolved_config_text(config: GameConfig, data_cfg: dict, run_cfg: dict) -> str:
    lines = ["# resolved configuration, every default materialized"]
    game_fields = dataclasses.asdict(config)
    for key in sorted(game_fields):
        if game_fields[key] is not None:  # a setting this regularizer does not read
            lines.append(f"game.{key}={game_fields[key]}")
    for key in sorted(data_cfg):
        lines.append(f"data.{key}={data_cfg[key]}")
    for key in sorted(run_cfg):
        lines.append(f"run.{key}={run_cfg[key]}")
    return "\n".join(lines) + "\n"


# ============================================================
# Checkpoints
# ============================================================


def save_checkpoint(path, state: TrainState) -> None:
    """Write the trained networks to exactly `path` as a zip of stored members: `networks`
    (their names, e.g. `f r g h`), then `<name>.dims` (layer dims, little-endian int64) and
    `<name>.buffer` (`MlpParams.buffer`, little-endian float32) for each, every member with one
    fixed date, so one state gives one byte string. A failed write raises `CheckpointError`."""
    nets = state.networks.present()
    try:
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr(zipfile.ZipInfo("networks", _MEMBER_DATE), " ".join(nets))
            for name, params in nets.items():
                zf.writestr(zipfile.ZipInfo(f"{name}.dims", _MEMBER_DATE),
                            np.asarray(params.layer_dims, dtype=_DIMS).tobytes())
                zf.writestr(zipfile.ZipInfo(f"{name}.buffer", _MEMBER_DATE),
                            np.asarray(params.buffer, dtype=_PAYLOAD).tobytes())
    except OSError as err:
        raise CheckpointError(f"cannot write checkpoint {path}: {err}") from err


def load_checkpoint(path) -> dict:
    """Read a checkpoint into {name: MlpParams}: exactly the networks saved. Any other file
    raises `CheckpointError`, a failed CRC-32 check and an encrypted member among them."""
    if not os.path.exists(path):
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with zipfile.ZipFile(path) as zf:
            return _read_networks(zf)
    except CheckpointError:
        raise
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    except (zipfile.BadZipFile, EOFError, RuntimeError, NotImplementedError, ValueError) as err:
        raise CheckpointError(f"checkpoint {path} is truncated or corrupt: "
                              f"{type(err).__name__}: {err}") from err


def _read_networks(zf: zipfile.ZipFile) -> dict:
    if any(info.compress_type != zipfile.ZIP_STORED for info in zf.infolist()):
        raise CheckpointError("checkpoint has a compressed member")
    members = zf.namelist()
    roles = (zf.read("networks") if "networks" in members else b"").decode("ascii").split(" ")
    if roles not in (["f", "r"], ["f", "r", "g", "h"]) or sorted(members) != sorted(
            ["networks"] + [f"{name}.{part}" for name in roles for part in ("dims", "buffer")]):
        raise CheckpointError(f"checkpoint members {members} are not the networks f r or f r g h")
    nets = {}
    for name in roles:
        dims = np.frombuffer(zf.read(f"{name}.dims"), dtype=_DIMS).tolist()
        if len(dims) < 2 or min(dims) < 1:
            raise CheckpointError(f"network '{name}' has invalid layer dims {dims}")
        buffer = zf.getinfo(f"{name}.buffer")
        if buffer.file_size != _PAYLOAD.itemsize * buffer_size(name, dims):
            raise CheckpointError(f"network '{name}' has {buffer.file_size} bytes for layer dims {dims}")
        values = np.frombuffer(zf.read(buffer), dtype=_PAYLOAD).astype(TRAIN_DTYPE)
        nets[name] = MlpParams(name, dims, values)
    return nets


# ============================================================
# Sample images
# ============================================================


def write_pgm(path, image: np.ndarray) -> None:
    """Binary PGM (P5), one byte per pixel."""
    rows, cols = image.shape
    pixels = np.round(255.0 * np.clip(image, 0.0, 1.0)).astype(np.uint8)
    _write_file(path, f"P5\n{cols} {rows}\n255\n".encode("ascii") + pixels.tobytes())


def _write_file(path, data) -> None:
    """Write one output file of a verb, str as UTF-8 or bytes; a path that cannot take it is a
    config error naming the path."""
    try:
        with open(path, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err}") from err


def _output_dir(path) -> str:
    """Create a verb's output directory before its work; an unusable path is a config error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {path}: {err}") from err
    return path


def _sample_count(count: int, label: str, floor: int = 0) -> int:
    if count < floor:
        raise ConfigError(f"{label} must be >= {floor}, got {count}")
    return count


def _decode_samples(r_params: MlpParams, count: int, seed: int, out_dir, rows=None, cols=None) -> None:
    if count == 0:
        return
    k = r_params.in_dim
    z = Rng(seed).normal((count, k))
    decoded = mlp_apply(r_params, z)
    n = decoded.shape[1]
    if rows is None or cols is None or rows * cols != n:
        side = int(np.sqrt(n))
        rows, cols = (side, side) if side * side == n else (1, n)
    for i in range(count):
        write_pgm(_sample_path(out_dir, i), decoded[i].reshape(rows, cols))


def _sample_path(out_dir, i: int) -> str:
    return os.path.join(out_dir, f"sample-{i:05d}.pgm")


# ============================================================
# Verbs
# ============================================================


def run_experiment(config_path) -> int:
    sections = parse_config(config_path)
    game_cfg, data_cfg, run_cfg = sections["game"], sections["data"], sections["run"]
    if "output_dir" not in run_cfg:
        raise ConfigError("run.output_dir is required")
    sample_count = _sample_count(run_cfg.get("sample_count", 16), "run.sample_count")
    batch_size = game_cfg.get("batch_size", GameConfig.batch_size)
    if data_cfg.get("kind") == "synth" and batch_size > data_cfg.get("count", batch_size):
        raise ConfigError(f"batch_size {batch_size} exceeds data.count={data_cfg['count']}")
    dataset, eval_dataset = _load_datasets(data_cfg, game_cfg.get("seed", 0))
    n = dataset.n
    if "n" in game_cfg and game_cfg["n"] != n:
        raise ConfigError(f"game.n={game_cfg['n']} disagrees with dataset n={n}")
    fields = dict(game_cfg)
    fields["n"] = n
    if "k" not in fields:
        raise ConfigError("game.k is required")
    config = GameConfig(**fields)
    eval_every = run_cfg.get("eval_every", 1)
    check_training_inputs(config, dataset, eval_dataset, eval_every)
    out_dir = _output_dir(run_cfg["output_dir"])
    checkpoint_path = os.path.join(out_dir, "checkpoint.bin")
    metrics_path = os.path.join(out_dir, "metrics.csv")
    samples_dir = os.path.join(out_dir, "samples")
    # the files written after training are checked before it
    for label, path in (("checkpoint", checkpoint_path), ("metrics", metrics_path),
                        *(("sample", _sample_path(samples_dir, i)) for i in range(sample_count))):
        if os.path.isdir(path):
            raise ConfigError(f"{label} path {path} is a directory")
    _output_dir(samples_dir)
    _write_file(os.path.join(out_dir, "resolved-config.txt"),
                _resolved_config_text(config, data_cfg, run_cfg))
    state = train(config, dataset, eval_dataset, eval_every=eval_every)
    _write_file(metrics_path, "".join(
        line + "\n" for line in [CSV_HEADER, *(report.to_csv_row() for report in state.history)]))
    save_checkpoint(checkpoint_path, state)
    _decode_samples(state.networks.r, sample_count, derive_seed(config.seed, "samples"),
                    samples_dir, dataset.metadata.get("rows"), dataset.metadata.get("cols"))
    log.info("experiment done: %s", out_dir)
    return 0


def run_oracle(config_path) -> int:
    sections = parse_config(config_path)
    ocfg = sections["oracle"]
    if not ocfg:
        raise ConfigError("oracle section is required for the oracle verb")
    run_cfg = sections["run"]
    if "output_dir" not in run_cfg:
        raise ConfigError("run.output_dir is required")
    # the suite defaults to k = 2; every other spec default is OracleSpec's own
    spec = OracleSpec(**{"k": 2, **{key: v for key, v in ocfg.items() if key not in _SUITE_KEYS}})
    samples = _sample_count(ocfg.get("samples", 1_000_000), "oracle.samples", MC_MIN_SAMPLES)
    grid_samples = _sample_count(ocfg.get("grid_samples", 400_000), "oracle.grid_samples",
                                 MC_MIN_SAMPLES)
    match_samples = _sample_count(ocfg.get("matching_samples", 1_000_000),
                                  "oracle.matching_samples", MATCHING_MIN_SAMPLES)
    seed = ocfg.get("seed", 0)
    matching = isotropic_matching(spec)
    out_dir = _output_dir(run_cfg["output_dir"])

    rows = []
    d_star = scalar_saddle_distortion(spec)
    rows.append(("D_star", d_star, "", "pass"))
    mc = mc_game_value(spec, saddle_strategy(spec), samples, derive_seed(seed, "mc"))
    rel = abs(mc.value - d_star) / d_star if d_star != 0 else abs(mc.value)
    rows.append(("saddle_mc_rel_err", rel, 0.01, "pass" if rel <= 0.01 else "FAIL"))
    for k in (1, 2, 8):
        report = saddle_verify(dataclasses.replace(spec, k=k), samples=grid_samples,
                               seed=derive_seed(seed, f"verify/{k}"))
        worst = max(report.max_jammer_gain, report.max_codec_loss)
        rows.append((f"saddle_verify_k{k}", worst, "3se",
                     "pass" if report.passed else "FAIL"))
    x_g, zn_g = matching_samples(spec, ("gaussian", spec.P_a), match_samples,
                                 derive_seed(seed, "match/gauss"))
    res_g = matching_residual(x_g, zn_g, matching)
    rows.append(("matching_gaussian", res_g, 0.02, "pass" if res_g <= 0.02 else "FAIL"))
    x_u, zn_u = matching_samples(spec, ("uniform", spec.P_a), match_samples,
                                 derive_seed(seed, "match/unif"))
    res_u = matching_residual(x_u, zn_u, matching)
    rows.append(("matching_uniform", res_u, 0.05, "pass" if res_u >= 0.05 else "FAIL"))

    lines = ["check_name,value,threshold,pass\n"]
    for name, value, threshold, verdict in rows:
        val = repr(float(value)) if isinstance(value, float) else value
        thr = f"{threshold:.6g}" if isinstance(threshold, float) else threshold
        lines.append(f"{name},{val},{thr},{verdict}\n")
    _write_file(os.path.join(out_dir, "oracle-report.csv"), "".join(lines))
    for name, value, threshold, verdict in rows:
        log.info("oracle %-22s %-12s threshold=%-8s %s", name,
                 f"{value:.6g}" if isinstance(value, float) else value, threshold, verdict)
    return 4 if any(verdict == "FAIL" for *_, verdict in rows) else 0


def run_generate(checkpoint_path, count: int, seed: int, out_dir) -> int:
    _sample_count(count, "--count")
    _output_dir(out_dir)
    _decode_samples(load_checkpoint(checkpoint_path)["r"], count, seed, out_dir)
    log.info("wrote %d samples to %s", count, out_dir)
    return 0


# ============================================================
# Entry point
# ============================================================


def _setup_logging() -> None:
    level_name = os.environ.get("AJ_LOG", "info").lower()
    levels = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise ConfigError(f"AJ_LOG must be one of {sorted(levels)}, got '{level_name}'")
    logging.basicConfig(level=levels[level_name], format="%(levelname)s %(message)s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="latentjam", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)
    p_train = sub.add_parser("train", help="run a training experiment from a config file")
    p_train.add_argument("config")
    p_oracle = sub.add_parser("oracle", help="run the linear-Gaussian saddle check suite")
    p_oracle.add_argument("config")
    p_gen = sub.add_parser("generate", help="decode prior samples from a checkpoint")
    p_gen.add_argument("checkpoint")
    p_gen.add_argument("--count", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        _setup_logging()
        if args.verb == "train":
            return run_experiment(args.config)
        if args.verb == "oracle":
            return run_oracle(args.config)
        return run_generate(args.checkpoint, args.count, args.seed, args.out)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ShapeError as err:
        print(f"shape error: {err}", file=sys.stderr)
        return 2
    except DataFormatError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 4
    except DegenerateGameError as err:
        print(f"degenerate game: {err}", file=sys.stderr)
        return 5
    except CheckpointError as err:
        print(f"checkpoint error: {err}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
