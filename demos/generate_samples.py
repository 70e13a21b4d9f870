#!/usr/bin/env python3
"""Train briefly, checkpoint, then decode prior draws to PGM images.

The synthetic source uses n=16 so each decoded row renders as a 4x4
grayscale tile. Artifacts land in demo_out/: a checkpoint (a zip archive
of the networks' dims and parameters) and one .pgm per sample.

Run: python3 demos/generate_samples.py
"""

import os

from latentjam.cli import load_checkpoint, run_generate, save_checkpoint
from latentjam.data_io import synth_source
from latentjam.game import GameConfig, train

OUT = "demo_out"


def main():
    os.makedirs(OUT, exist_ok=True)
    cfg = GameConfig(k=2, n=16, epochs=3, batch_size=128, seed=8,
                     regularizer="aj", jscc_hidden=16, data_hidden=64)
    ds = synth_source("mixture", 2560, cfg.n, seed=8)
    state = train(cfg, ds, eval_every=cfg.epochs)
    print(f"trained: data_mse {state.history[-1].data_mse:.5f}")

    ckpt = os.path.join(OUT, "demo.bin")
    save_checkpoint(ckpt, state)
    nets = load_checkpoint(ckpt)
    print(f"checkpoint holds: {sorted(nets)}")

    code = run_generate(ckpt, count=6, seed=8, out_dir=os.path.join(OUT, "samples"))
    assert code == 0
    files = sorted(os.listdir(os.path.join(OUT, "samples")))
    print("wrote", ", ".join(files))

    # peek at one tile so the run shows actual pixel values
    with open(os.path.join(OUT, "samples", files[0]), "rb") as fh:
        raw = fh.read()
    header, pixels = raw.split(b"255\n", 1)
    print(f"{files[0]}: header {header!r}, {len(pixels)} pixels, "
          f"range {min(pixels)}..{max(pixels)}")


if __name__ == "__main__":
    main()
