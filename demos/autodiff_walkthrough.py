#!/usr/bin/env python3
"""Tour of the tape-based reverse-mode engine.

Records one tiny dense layer, checks its gradient against central finite
differences of graphs rebuilt with bumped weights, and shows how a value is
kept out of the backward pass: it enters the graph as a constant leaf, the
way the game's phase (a) reads the compressor's latent.

Run: python3 demos/autodiff_walkthrough.py
"""

import numpy as np

from latentjam import autodiff as ad
from latentjam.autodiff import Tape, backward_grads
from latentjam.rng import Rng


def dense_loss(W_val, x_val):
    """mean((x @ W.T)^2) recorded on a fresh tape: the tape, W's leaf and the loss."""
    tape = Tape()
    W = tape.const(W_val)
    # tensors have no `@`: a product is one affine node, x @ W.T + b
    y = ad.affine(tape.const(x_val), W, tape.const(np.zeros(2)))
    # a squared error is one node, mse(a, b) = mean((a - b)^2)
    return tape, W, ad.mse(y, tape.const(np.zeros(y.shape)))


def main():
    rng = Rng(0)
    W_val = rng.spawn("W").normal((2, 3))
    x_val = rng.spawn("x").normal((5, 3))

    tape, W, loss = dense_loss(W_val, x_val)
    print("loss =", float(loss.value[0]))

    (gW,) = backward_grads(tape, loss, [W])
    print("analytic dloss/dW:\n", gW)

    # central differences, one entry at a time; each side records a new graph
    h = 1e-6
    fd = np.zeros_like(W_val)
    for i in range(W_val.size):
        up, down = W_val.copy(), W_val.copy()
        up.flat[i] += h
        down.flat[i] -= h
        hi, lo = dense_loss(up, x_val)[2], dense_loss(down, x_val)[2]
        fd.flat[i] = (float(hi.value[0]) - float(lo.value[0])) / (2 * h)
    print("max |analytic - fd| =", float(np.max(np.abs(gW - fd))))

    # backward differentiates only the leaves it is asked for: a value read back as a
    # constant leaf of its own contributes to the forward pass but not to gradients
    tape2 = Tape()
    a = tape2.const(np.array([[2.0]]))
    frozen = tape2.const(ad.square(a).value)
    out = ad.sum_all(frozen * a)
    (ga,) = backward_grads(tape2, out, [a])
    print("d(sum(const(a^2) * a))/da =", float(np.ravel(ga)[0]),
          " (the constant 4.0; a live square path would give 3a^2 = 12)")


if __name__ == "__main__":
    main()
