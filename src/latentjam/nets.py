"""MLP definitions for the four players and batch-statistics power control.

Roles: compressor/jammer f (n -> k), reconstructor r (k -> n), transmitter
g (k -> k), receiver h (k -> k). g and h carry a linear skip path from
input to output alongside the MLP stack; f and r are plain MLPs.

Training and inference run the same graph code: `mlp_apply` is
`mlp_forward_graph` on a record-free tape, and evaluation power-normalizes
with `power_normalize` on such a tape, so there is no numpy twin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import EagerTape, Tape, Tensor
from .errors import ConfigError, ShapeError
from .rng import _BLOCK, Rng

# the one training precision: parameters, Adam moments and training tapes
TRAIN_DTYPE = np.dtype(np.float32)

_HIDDEN_ACTS = {"relu": ad.relu, "tanh": ad.tanh}
_OUTPUT_ACTS = {"identity": None, "sigmoid": ad.sigmoid}


@dataclass
class MlpParams:
    """Weights, biases, and architecture for one network.

    weights[i] has shape (layer_dims[i+1], layer_dims[i]); biases[i] has
    shape (layer_dims[i+1],). skip, when present, is (d_L, d_0) and is added
    to the pre-activation output.
    """

    layer_dims: list
    weights: list
    biases: list
    hidden_activation: str = "relu"
    output_activation: str = "identity"
    skip: Optional[np.ndarray] = None

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]

    def array_names(self) -> list:
        """Parameter names in declaration order (checkpoint order)."""
        names = []
        for i in range(len(self.weights)):
            names.append(f"W{i}")
            names.append(f"b{i}")
        if self.skip is not None:
            names.append("skip")
        return names

    def array(self, name: str) -> np.ndarray:
        if name == "skip":
            if self.skip is None:
                raise ConfigError("network has no skip matrix")
            return self.skip
        idx = int(name[1:])
        return self.weights[idx] if name[0] == "W" else self.biases[idx]


@dataclass
class NetworkRoles:
    """The players of one game; g and h absent for non-adversarial runs."""

    f: MlpParams
    r: MlpParams
    g: Optional[MlpParams] = None
    h: Optional[MlpParams] = None

    def validate(self, k: int, n: int) -> None:
        if self.f.in_dim != n or self.r.out_dim != n:
            raise ConfigError(f"f/r data dims inconsistent with n={n}")
        if self.r.in_dim != k:
            raise ConfigError(f"r input dim {self.r.in_dim} != k={k}")
        if self.g is not None:
            if not (self.f.out_dim == self.g.in_dim == self.h.in_dim == self.h.out_dim == k):
                raise ConfigError("f/g/h latent dims inconsistent")
            if self.g.out_dim != k:
                raise ConfigError(f"g output dim {self.g.out_dim} != k={k}")

    def present(self) -> dict:
        nets = {"f": self.f, "r": self.r}
        if self.g is not None:
            nets["g"] = self.g
        if self.h is not None:
            nets["h"] = self.h
        return nets


def _uniform_weights(rng: Rng, shape: tuple, half_width: float) -> np.ndarray:
    """`rng.symmetric(shape, half_width)` in TRAIN_DTYPE, drawn a block of rows at a time
    (its values do not depend on call sizes), so no float64 copy of the whole matrix exists."""
    out = np.empty(shape, TRAIN_DTYPE)
    rows = max(1, _BLOCK // shape[1])
    for lo in range(0, shape[0], rows):
        out[lo:lo + rows] = rng.symmetric(out[lo:lo + rows].shape, half_width)
    return out


def init_params(layer_dims, rng: Rng, hidden_activation: str = "relu",
                output_activation: str = "identity", linear_skip: bool = False) -> MlpParams:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases, all in TRAIN_DTYPE."""
    if not layer_dims or any(d <= 0 for d in layer_dims):
        raise ConfigError(f"layer_dims must be nonempty and positive, got {layer_dims}")
    if hidden_activation not in _HIDDEN_ACTS:
        raise ConfigError(f"unknown hidden activation '{hidden_activation}'")
    if output_activation not in _OUTPUT_ACTS:
        raise ConfigError(f"unknown output activation '{output_activation}'")
    weights, biases = [], []
    for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(_uniform_weights(rng, (d_out, d_in), np.sqrt(6.0 / (d_in + d_out))))
        biases.append(np.zeros(d_out, TRAIN_DTYPE))
    skip = None
    if linear_skip:
        d0, dL = layer_dims[0], layer_dims[-1]
        skip = _uniform_weights(rng, (dL, d0), np.sqrt(6.0 / (d0 + dL)))
    return MlpParams(list(layer_dims), weights, biases, hidden_activation, output_activation, skip)


class BoundMlp:
    """One network's parameters recorded onto a tape.

    Trainable binding records parameters as named inputs so gradients can
    target them; frozen binding records constants.
    """

    def __init__(self, tape: Tape, params: MlpParams, name: str, trainable: bool):
        self.params = params
        self.name = name
        self.nodes: dict[str, Tensor] = {}
        for pname in params.array_names():
            arr = params.array(pname)
            full = f"{name}.{pname}"
            self.nodes[pname] = tape.input(full, arr) if trainable else tape.const(arr)

    def __call__(self, x: Tensor) -> Tensor:
        return mlp_forward_graph(self, x)


def mlp_forward_graph(bound: BoundMlp, x: Tensor) -> Tensor:
    p = bound.params
    if len(x.shape) != 2 or x.shape[1] != p.in_dim:
        raise ShapeError(f"net '{bound.name}' expects [batch, {p.in_dim}] input, got {x.shape}")
    act = _HIDDEN_ACTS[p.hidden_activation]
    h = x
    last = len(p.weights) - 1
    for i in range(len(p.weights)):
        h = ad.affine(h, bound.nodes[f"W{i}"], bound.nodes[f"b{i}"])
        if i < last:
            h = act(h)
    if p.skip is not None:
        h = h + x @ ad.transpose(bound.nodes["skip"])
    out_act = _OUTPUT_ACTS[p.output_activation]
    return h if out_act is None else out_act(h)


def mlp_apply(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Inference forward pass: the graph forward on a record-free tape."""
    tape = EagerTape()
    return mlp_forward_graph(BoundMlp(tape, params, "net", trainable=False), tape.const(x)).value


POWER_EPS = 1e-5


def power_normalize(z: Tensor, target_power: float) -> Tensor:
    """Per-coordinate batch standardization to mean 0, variance ~ P.

    z'_j = sqrt(P) * (z_j - mean(z_j)) / sqrt(var(z_j) + eps), with batch
    statistics recorded on the tape so gradients flow through them.
    """
    if z.shape[0] < 2:
        raise ShapeError(f"power_normalize needs batch >= 2, got shape {z.shape}")
    centered = z - ad.mean_cols(z)
    var = ad.mean_cols(ad.square(centered))
    return centered * (np.sqrt(target_power) / ad.sqrt(var + POWER_EPS))


# hidden activation, output activation, linear skip; the checkpoint reader uses these too
ROLE_TRAITS = {
    "f": ("relu", "identity", False),
    "r": ("relu", "sigmoid", False),
    "g": ("relu", "identity", True),
    "h": ("relu", "identity", True),
}


def make_networks(k: int, n: int, jscc_hidden: int, regularizer: str, rng: Rng,
                  data_hidden: int = 512) -> NetworkRoles:
    """Default architecture for one run, with each role's traits from ROLE_TRAITS.

    f: [n, data_hidden, k_out] (k_out = 2k for the variational head, else
    k); r: [k, data_hidden, n]; g, h: [k, jscc_hidden, k], only for aj.
    """
    dims = {"f": [n, data_hidden, 2 * k if regularizer == "kl" else k], "r": [k, data_hidden, n]}
    if regularizer == "aj":
        dims["g"] = dims["h"] = [k, jscc_hidden, k]
    return NetworkRoles(**{role: init_params(d, rng.spawn(f"init/{role}"), *ROLE_TRAITS[role])
                           for role, d in dims.items()})
