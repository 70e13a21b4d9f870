#!/usr/bin/env python3
"""Tour of the tape-based reverse-mode engine.

Records one tiny dense layer, checks one gradient against central
finite differences, replays the tape with a swapped input, and shows that
detach really blocks the backward pass.

Run: python3 demos/autodiff_walkthrough.py
"""

import numpy as np

from latentjam import autodiff as ad
from latentjam.autodiff import Tape, backward_grads, detach, forward_eval
from latentjam.rng import Rng


def main():
    rng = Rng(0)
    W_val = rng.spawn("W").normal((2, 3))
    x_val = rng.spawn("x").normal((5, 3))

    tape = Tape()
    W = tape.input("W", W_val)
    x = tape.const(x_val)
    # tensors have no `@`: a product is one affine node, x @ W.T + b
    y = ad.affine(x, W, tape.const(np.zeros(2)))
    loss = ad.mean_all(ad.square(y))
    tape.mark_output("loss", loss)

    print("loss =", float(np.ravel(loss.value)[0]))

    (gW,) = backward_grads(tape, loss, [W])
    print("analytic dloss/dW:\n", gW)

    # central differences, one entry at a time
    h = 1e-6
    fd = np.zeros_like(W_val)
    for i in range(W_val.size):
        up = W_val.ravel().copy()
        up[i] += h
        hi = forward_eval(tape, {"W": up.reshape(W_val.shape)})["loss"]
        up[i] -= 2 * h
        lo = forward_eval(tape, {"W": up.reshape(W_val.shape)})["loss"]
        fd.ravel()[i] = (float(np.ravel(hi)[0]) - float(np.ravel(lo)[0])) / (2 * h)
    print("max |analytic - fd| =", float(np.max(np.abs(gW - fd))))

    # replay is an evaluation, not a rebuild: unchanged inputs reproduce
    # the recorded value bit for bit
    again = forward_eval(tape, {})["loss"]
    print("replay reproduces loss exactly:", np.array_equal(again, loss.value))

    # a detached value contributes to the forward pass but not to gradients
    tape2 = Tape()
    a = tape2.input("a", np.array([[2.0]]))
    blocked = detach(ad.square(a))
    out = ad.mean_all(blocked * a)
    (ga,) = backward_grads(tape2, out, [a])
    print("d(mean(detach(a^2) * a))/da =", float(np.ravel(ga)[0]),
          " (the constant 4.0; a live square path would give 3a^2 = 12)")


if __name__ == "__main__":
    main()
