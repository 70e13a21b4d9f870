"""MLP definitions for the four players and batch-statistics power control.

Roles: compressor/jammer f (n -> k), reconstructor r (k -> n), transmitter
g (k -> k), receiver h (k -> k). The role alone fixes a network's architecture
(`ROLE_TRAITS`): hidden layers are relu, r ends in a sigmoid, and g and h add a
linear skip path from input to output to the MLP stack.

Training and inference run the same graph code, so there is no numpy twin:
evaluation binds the networks on one record-free tape as a training step binds
them on its recorded one, and `mlp_apply`, `mlp_forward_graph` on a record-free
tape of its own, decodes latents for sample generation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import EagerTape, Tape, Tensor
from .errors import ConfigError, ShapeError
from .rng import _BLOCK, Rng

# the one training precision: parameters, Adam moments and training tapes
TRAIN_DTYPE = np.dtype(np.float32)

# role -> (output activation, linear skip); hidden layers are relu for every role
ROLE_TRAITS = {
    "f": ("identity", False),
    "r": ("sigmoid", False),
    "g": ("identity", True),
    "h": ("identity", True),
}


@dataclass
class MlpParams:
    """Architecture and parameters of one network, held in one flat buffer.

    The role fixes the architecture: `output_activation` and `linear_skip`
    are read from `ROLE_TRAITS` on construction, and hidden layers are relu.
    The buffer holds W0, b0, W1, b1, ..., then skip, each C-ordered and in
    `array_names()` order, which is also the checkpoint payload order.
    weights[i] has shape (layer_dims[i+1], layer_dims[i]); biases[i] has
    shape (layer_dims[i+1],). skip, present with `linear_skip`, is
    (d_L, d_0) and is added to the pre-activation output. Every one of them
    is a view into the buffer made on access, so a write through any of
    them, or to the buffer, is what all of them show.
    """

    role: str
    layer_dims: list
    buffer: np.ndarray
    hidden_activation = "relu"  # a class constant: no role varies it

    def __post_init__(self):
        self.layer_dims = list(self.layer_dims)
        self._spans, lo = {}, 0
        for name, shape in _layout(self.role, self.layer_dims):
            self._spans[name] = (lo, lo + math.prod(shape), shape)
            lo += math.prod(shape)
        if self.buffer.shape != (lo,):
            raise ShapeError(f"network with layer dims {self.layer_dims} needs a flat buffer "
                             f"of {lo} values, got shape {self.buffer.shape}")
        self.output_activation, self.linear_skip = ROLE_TRAITS[self.role]

    @classmethod
    def from_arrays(cls, role: str, layer_dims, weights, biases, skip=None) -> "MlpParams":
        """A network whose buffer is a copy of the given arrays, in their common dtype."""
        arrays = [a for pair in zip(weights, biases) for a in pair]
        if skip is not None:
            arrays.append(skip)
        return cls(role, layer_dims, _gather(_layout(role, list(layer_dims)), arrays))

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]

    @property
    def depth(self) -> int:
        return len(self.layer_dims) - 1

    @property
    def weights(self) -> list:
        return [self.array(f"W{i}") for i in range(self.depth)]

    @property
    def biases(self) -> list:
        return [self.array(f"b{i}") for i in range(self.depth)]

    @property
    def skip(self) -> Optional[np.ndarray]:
        return self.array("skip") if self.linear_skip else None

    def array_names(self) -> list:
        """Parameter names in buffer order (checkpoint order)."""
        return list(self._spans)

    def array(self, name: str) -> np.ndarray:
        """The named parameter: a view into the buffer."""
        if name not in self._spans:
            raise ConfigError("network has no skip matrix" if name == "skip"
                              else f"network has no parameter '{name}'")
        lo, hi, shape = self._spans[name]
        return self.buffer[lo:hi].reshape(shape)


def buffer_size(role: str, layer_dims: list) -> int:
    """Values in the buffer of a network of this role with these layer dims."""
    return sum(math.prod(shape) for _, shape in _layout(role, layer_dims))


def _layout(role: str, layer_dims: list) -> list:
    """(name, shape) of each parameter of a network of this role, in buffer order."""
    if role not in ROLE_TRAITS:
        raise ConfigError(f"unknown network role '{role}', expected one of {list(ROLE_TRAITS)}")
    out = []
    for i, (d_in, d_out) in enumerate(zip(layer_dims[:-1], layer_dims[1:])):
        out += [(f"W{i}", (d_out, d_in)), (f"b{i}", (d_out,))]
    if ROLE_TRAITS[role][1]:
        out.append(("skip", (layer_dims[-1], layer_dims[0])))
    return out


def _gather(layout: list, arrays: list) -> np.ndarray:
    for (name, shape), a in zip(layout, arrays):
        if np.shape(a) != shape:
            raise ShapeError(f"parameter {name} has shape {shape}, given {np.shape(a)}")
    return np.concatenate([np.ravel(a) for a in arrays])


@dataclass
class NetworkRoles:
    """The players of one game; g and h absent for non-adversarial runs."""

    f: MlpParams
    r: MlpParams
    g: Optional[MlpParams] = None
    h: Optional[MlpParams] = None

    def validate(self, k: int, n: int) -> None:
        if (self.g is None) != (self.h is None):
            raise ConfigError("g and h must be given together")
        for role, params in self.present().items():
            if params.role != role:
                raise ConfigError(f"the {role} slot holds a network of role '{params.role}'")
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
        return {role: params for role, params in vars(self).items() if params is not None}


def _fill_uniform(rng: Rng, out: np.ndarray) -> None:
    """`out[...] = rng.symmetric(out.shape, sqrt(6 / (fan_in + fan_out)))`, drawn a block of
    rows at a time (its values do not depend on call sizes), so no float64 copy of the whole
    matrix exists."""
    half_width = np.sqrt(6.0 / (out.shape[0] + out.shape[1]))
    rows = max(1, _BLOCK // out.shape[1])
    for lo in range(0, out.shape[0], rows):
        out[lo:lo + rows] = rng.symmetric(out[lo:lo + rows].shape, half_width)


def init_params(role: str, layer_dims, rng: Rng) -> MlpParams:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights (and skip), zero biases, all in TRAIN_DTYPE."""
    if not layer_dims or any(d <= 0 for d in layer_dims):
        raise ConfigError(f"layer_dims must be nonempty and positive, got {layer_dims}")
    params = MlpParams(role, layer_dims, np.zeros(buffer_size(role, list(layer_dims)), TRAIN_DTYPE))
    for name in params.array_names():
        if name[0] != "b":  # W0, W1, ..., then skip: the order of the draws
            _fill_uniform(rng, params.array(name))
    return params


class BoundMlp:
    """One network's parameters recorded onto a tape as leaves, one per parameter in
    `array_names()` order; a network is trained when backward is asked for its `nodes`."""

    def __init__(self, tape: Tape, params: MlpParams):
        self.params = params
        self.nodes: dict[str, Tensor] = {p: tape.const(params.array(p)) for p in params.array_names()}

    def __call__(self, x: Tensor) -> Tensor:
        return mlp_forward_graph(self, x)


def mlp_forward_graph(bound: BoundMlp, x: Tensor) -> Tensor:
    p = bound.params
    if len(x.shape) != 2 or x.shape[1] != p.in_dim:
        raise ShapeError(f"net '{p.role}' expects [batch, {p.in_dim}] input, got {x.shape}")
    h = x
    for i in range(p.depth):
        h = ad.affine(h, bound.nodes[f"W{i}"], bound.nodes[f"b{i}"])
        if i < p.depth - 1:
            h = ad.relu(h)
    if p.linear_skip:
        h = ad.affine(x, bound.nodes["skip"], h)
    return ad.sigmoid(h) if p.output_activation == "sigmoid" else h


def mlp_apply(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Inference forward pass: the graph forward on a record-free tape."""
    tape = EagerTape()
    return mlp_forward_graph(BoundMlp(tape, params), tape.const(x)).value


POWER_EPS = 1e-5


def power_normalize(z: Tensor, target_power: float) -> Tensor:
    """Per-coordinate batch standardization to mean 0, variance ~ P, as one tape node:
    z'_j = sqrt(P) c_j / sigma_j with c_j = z_j - mean(z_j), sigma_j = sqrt(mean(c_j^2) + eps).
    Its backward recomputes c and sigma from z; a batch below 2 rows is a `ShapeError`."""
    return z.tape.apply("power_normalize", [z],
                        {"scale": float(np.sqrt(target_power)), "eps": POWER_EPS})


def make_networks(k: int, n: int, jscc_hidden: int, regularizer: str, rng: Rng,
                  data_hidden: int = 512) -> NetworkRoles:
    """Default architecture for one run; each role fixes its network's traits.

    f: [n, data_hidden, k_out] (k_out = 2k for the variational head, else
    k); r: [k, data_hidden, n]; g, h: [k, jscc_hidden, k], only for aj.
    """
    dims = {"f": [n, data_hidden, 2 * k if regularizer == "kl" else k], "r": [k, data_hidden, n]}
    if regularizer == "aj":
        dims["g"] = dims["h"] = [k, jscc_hidden, k]
    return NetworkRoles(**{role: init_params(role, d, rng.spawn(f"init/{role}"))
                           for role, d in dims.items()})
