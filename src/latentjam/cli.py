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
import math
import os
import struct
import sys

import numpy as np

from .data_io import Dataset, load_idx, synth_source
from .errors import (CheckpointError, ConfigError, DataFormatError,
                     DegenerateGameError, NumericError, ShapeError)
from .game import GameConfig, TrainState, check_training_inputs, train
from .metrics import CSV_HEADER
from .nets import ROLE_TRAITS, TRAIN_DTYPE, MlpParams, mlp_apply
from .oracle import (OracleSpec, isotropic_matching, matching_residual,
                     matching_samples, mc_game_value, saddle_strategy,
                     saddle_verify, scalar_saddle_distortion)
from .rng import Rng, derive_seed

log = logging.getLogger("latentjam")

CHECKPOINT_MAGIC = b"AJLK"
CHECKPOINT_VERSION = 2  # version 1 held float64 arrays; there is no reader for it
_PAYLOAD = TRAIN_DTYPE.newbyteorder("<")  # arrays in the training precision, little-endian

# ============================================================
# Config parsing
# ============================================================


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: '{raw}'")

_SCHEMA = {
    "game": {
        "k": int, "n": int, "P_t": float, "P_a": float, "sigma_n_sq": float,
        "eta": float, "regularizer": str, "batch_size": int, "epochs": int,
        "lr": float, "jscc_steps_per_data_step": int, "seed": int,
        "jscc_hidden": int, "data_hidden": int, "lambda_weight": float,
        "mmd_scale": float, "check_gradients": _parse_bool,
    },
    "data": {
        "kind": str, "images": str, "labels": str, "eval_images": str,
        "eval_labels": str, "synth_kind": str, "count": int, "eval_count": int,
        "n": int, "seed": int,
    },
    "run": {"output_dir": str, "eval_every": int, "sample_count": int},
    "oracle": {
        "sigma_x_sq": float, "P_t": float, "P_a": float, "sigma_n_sq": float,
        "k": int, "samples": int, "grid_samples": int, "matching_samples": int,
        "seed": int,
    },
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
        ds = load_idx(data_cfg["images"], data_cfg.get("labels"), split="train")
        eval_ds = None
        if "eval_images" in data_cfg:
            eval_ds = load_idx(data_cfg["eval_images"], data_cfg.get("eval_labels"), split="test")
        return ds, eval_ds
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
    game_fields["check_gradients"] = str(config.check_gradients).lower()
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
    nets = state.networks.present()
    sidecar = []
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(nets)))
        for name, params in nets.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", len(params.layer_dims)))
            for d in params.layer_dims:
                fh.write(struct.pack("<I", d))
            for pname in params.array_names():
                arr = params.array(pname)
                fh.write(np.asarray(arr, dtype=_PAYLOAD).tobytes())
                sidecar.append(f"{name} {pname} {'x'.join(str(s) for s in arr.shape)}")
    with open(str(path) + ".txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(sidecar) + "\n")


def load_checkpoint(path) -> dict:
    """Read a checkpoint into {name: MlpParams}."""
    if not os.path.exists(path):
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    if buf[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic {buf[:4]!r}")
    try:
        return _parse_checkpoint(buf)
    except CheckpointError:
        raise
    except (struct.error, ValueError) as err:  # a truncated file ends mid-field
        raise CheckpointError(f"checkpoint {path} is truncated or corrupt: {err}") from err


def _parse_checkpoint(buf: bytes) -> dict:
    version = struct.unpack_from("<I", buf, 4)[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint version {version} unsupported (expected {CHECKPOINT_VERSION})")
    offset = 8
    net_count = struct.unpack_from("<I", buf, offset)[0]
    offset += 4
    nets = {}
    for _ in range(net_count):
        name_len = struct.unpack_from("<I", buf, offset)[0]
        offset += 4
        name = buf[offset:offset + name_len].decode("utf-8")
        offset += name_len
        ndims = struct.unpack_from("<I", buf, offset)[0]
        offset += 4
        dims = list(struct.unpack_from(f"<{ndims}I", buf, offset))
        offset += 4 * ndims
        if name not in ROLE_TRAITS:
            raise CheckpointError(f"unknown network name '{name}' in checkpoint")
        if len(dims) < 2 or min(dims) < 1:
            raise CheckpointError(f"network '{name}' has invalid layer dims {dims}")
        hidden_act, out_act, has_skip = ROLE_TRAITS[name]
        weights, biases = [], []
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            w, offset = _read_floats(buf, offset, (d_out, d_in))
            b, offset = _read_floats(buf, offset, (d_out,))
            weights.append(w)
            biases.append(b)
        skip = None
        if has_skip:
            skip, offset = _read_floats(buf, offset, (dims[-1], dims[0]))
        nets[name] = MlpParams(dims, weights, biases, hidden_act, out_act, skip)
    if offset != len(buf):
        raise CheckpointError(f"checkpoint has {len(buf) - offset} trailing bytes")
    return nets


def _read_floats(buf: bytes, offset: int, shape: tuple):
    """A TRAIN_DTYPE copy of the array of `shape` at `offset`, and the offset past it."""
    end = offset + _PAYLOAD.itemsize * math.prod(shape)
    if end > len(buf):
        raise CheckpointError(f"checkpoint is truncated: a {shape} array runs past its end")
    arr = np.frombuffer(buf, dtype=_PAYLOAD, count=math.prod(shape), offset=offset)
    return arr.reshape(shape).astype(TRAIN_DTYPE), end


# ============================================================
# Sample images
# ============================================================


def write_pgm(path, image: np.ndarray) -> None:
    """Binary PGM (P5), one byte per pixel."""
    rows, cols = image.shape
    pixels = np.round(255.0 * np.clip(image, 0.0, 1.0)).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def _decode_samples(r_params: MlpParams, count: int, seed: int, out_dir, rows=None, cols=None) -> None:
    os.makedirs(out_dir, exist_ok=True)
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
        write_pgm(os.path.join(out_dir, f"sample-{i:05d}.pgm"), decoded[i].reshape(rows, cols))


# ============================================================
# Verbs
# ============================================================


def run_experiment(config_path) -> int:
    sections = parse_config(config_path)
    game_cfg, data_cfg, run_cfg = sections["game"], sections["data"], sections["run"]
    if "output_dir" not in run_cfg:
        raise ConfigError("run.output_dir is required")
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
    out_dir = run_cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "resolved-config.txt"), "w", encoding="utf-8") as fh:
        fh.write(_resolved_config_text(config, data_cfg, run_cfg))
    state = train(config, dataset, eval_dataset, eval_every=eval_every)
    with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for report in state.history:
            fh.write(report.to_csv_row() + "\n")
    save_checkpoint(os.path.join(out_dir, "checkpoint.bin"), state)
    sample_count = run_cfg.get("sample_count", 16)
    _decode_samples(state.networks.r, sample_count, derive_seed(config.seed, "samples"),
                    os.path.join(out_dir, "samples"),
                    dataset.metadata.get("rows"), dataset.metadata.get("cols"))
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
    spec = OracleSpec(
        sigma_x_sq=ocfg.get("sigma_x_sq", 1.0), P_t=ocfg.get("P_t", 1.0),
        P_a=ocfg.get("P_a", 1.0), sigma_n_sq=ocfg.get("sigma_n_sq", 0.0),
        k=ocfg.get("k", 2))
    samples = ocfg.get("samples", 1_000_000)
    grid_samples = ocfg.get("grid_samples", 400_000)
    match_samples = ocfg.get("matching_samples", 1_000_000)
    seed = ocfg.get("seed", 0)

    rows = []
    d_star = scalar_saddle_distortion(spec)
    rows.append(("D_star", d_star, "", "pass"))
    mc = mc_game_value(spec, saddle_strategy(spec), samples, derive_seed(seed, "mc"))
    rel = abs(mc.value - d_star) / d_star if d_star != 0 else abs(mc.value)
    rows.append(("saddle_mc_rel_err", rel, 0.01, "pass" if rel <= 0.01 else "FAIL"))
    for k in (1, 2, 8):
        spec_k = OracleSpec(spec.sigma_x_sq, spec.P_t, spec.P_a, spec.sigma_n_sq, k)
        report = saddle_verify(spec_k, samples=grid_samples, seed=derive_seed(seed, f"verify/{k}"))
        worst = max(report.max_jammer_gain, report.max_codec_loss)
        rows.append((f"saddle_verify_k{k}", worst, "3se",
                     "pass" if report.passed else "FAIL"))
    matching = isotropic_matching(spec)
    x_g, zn_g = matching_samples(spec, ("gaussian", spec.P_a), match_samples,
                                 derive_seed(seed, "match/gauss"))
    res_g = matching_residual(x_g, zn_g, matching)
    rows.append(("matching_gaussian", res_g, 0.02, "pass" if res_g <= 0.02 else "FAIL"))
    x_u, zn_u = matching_samples(spec, ("uniform", spec.P_a), match_samples,
                                 derive_seed(seed, "match/unif"))
    res_u = matching_residual(x_u, zn_u, matching)
    rows.append(("matching_uniform", res_u, 0.05, "pass" if res_u >= 0.05 else "FAIL"))

    os.makedirs(run_cfg["output_dir"], exist_ok=True)
    report_path = os.path.join(run_cfg["output_dir"], "oracle-report.csv")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write("check_name,value,threshold,pass\n")
        for name, value, threshold, verdict in rows:
            val = repr(float(value)) if isinstance(value, float) else value
            thr = f"{threshold:.6g}" if isinstance(threshold, float) else threshold
            fh.write(f"{name},{val},{thr},{verdict}\n")
    failed = [r for r in rows if r[3] == "FAIL"]
    for name, value, threshold, verdict in rows:
        log.info("oracle %-22s %-12s threshold=%-8s %s", name,
                 f"{value:.6g}" if isinstance(value, float) else value, threshold, verdict)
    return 0 if not failed else 4


def run_generate(checkpoint_path, count: int, seed: int, out_dir) -> int:
    nets = load_checkpoint(checkpoint_path)
    if "r" not in nets:
        raise CheckpointError("checkpoint has no reconstructor network")
    _decode_samples(nets["r"], count, seed, out_dir)
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
