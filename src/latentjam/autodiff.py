"""Minimal dense tensor engine with a recorded tape and reverse-mode gradients.

A `Tensor` carries its value, set when the op that made it runs. A `Tape`
also records every op in insertion order, which is also a topological
order, so backward is a single reverse sweep. A recorded tape holds `const`
leaves and ops: a parameter is a leaf like any other, differentiated when
backward is asked for it, and new values mean a new graph. An `EagerTape`
runs the same graph code without recording: evaluation and generation use
it, so each computation is defined once and inference holds no
intermediate values.

Each op's forward and backward rules sit together in one `_OPS` entry.
`affine`, x @ w.T + b, is the one matrix product: a dense layer is one
node, one kept value and one finiteness check, and a bias of shape
(batch, out) makes a linear skip path, x @ skip.T + h, one node too.
Tensors have no `@` and no `/`. A loss is one node as well: `mse` runs the
float operations of mean((a - b)^2) in both directions, and `imq_mmd`, the
unbiased IMQ-kernel MMD^2 of the mmd regularizer, has a closed-form
backward instead of a graph of 128 x 128 kernel matrices.

Leaves hold the caller's arrays, so an in-place parameter update after
backward is visible through the tape. Backward is pruned to the
nodes that depend on a requested tensor, and the requested leaves are the
only stop-gradient: gradients toward data constants and frozen parameters
are never computed, and a value that must not carry a gradient enters a
graph as a `const` leaf of its own.

A recorded tape has one dtype, float64 unless given: its leaves, scalar
constants and gradients are cast to it, so every value and gradient stays
in it. Training records float32 tapes; finite-difference checks use the
float64 default. An `EagerTape` casts nothing: float32 parameters meet
float64 data inside an op, where numpy promotes, so evaluation runs in
float64. NaN/Inf detection runs at every op boundary, on
every value and every gradient, recorded or not, and on Adam's second moment
once per step; it is always on: a training failure must surface loudly, not
corrupt the minimax dynamics. `_all_finite` makes each check one `np.vdot`.

`adam_step` updates a network's whole buffer per call in 13 numpy calls per
block of `_ADAM_BLOCK` elements, reading the leaf gradients of a larger
buffer where `backward_grads` left them. It and `sigmoid` (on arrays over
`_SIGMOID_BYTES`) run the same operations in the same order per element as
the whole-array formula, so their bits are its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

# ============================================================
# Tape and tensors
# ============================================================


class Tensor:
    """One value of a tape: its array (in the tape's dtype when recorded) and node id or None."""

    __slots__ = ("tape", "node_id", "value")

    def __init__(self, tape: "Tape", node_id, value: np.ndarray):
        self.tape = tape
        self.node_id = node_id
        self.value = value

    @property
    def shape(self) -> tuple:
        return self.value.shape

    # arithmetic sugar; scalars are wrapped as constants
    def _lift(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return self.tape.const(other)

    def __add__(self, other):
        return self.tape.apply("add", [self, self._lift(other)])

    def __sub__(self, other):
        return self.tape.apply("sub", [self, self._lift(other)])

    def __mul__(self, other):
        return self.tape.apply("mul", [self, self._lift(other)])

    def __rmul__(self, other):
        return self._lift(other).__mul__(self)


@dataclass
class Node:
    op: str
    inputs: tuple
    value: np.ndarray
    attrs: dict = field(default_factory=dict)


class Tape:
    """Recorded computation graph; insertion order is topological order."""

    def __init__(self, dtype=np.float64):
        self.dtype = dtype
        self.nodes: list[Node] = []

    def _record(self, op: str, inputs: tuple, value: np.ndarray, attrs: dict) -> Tensor:
        value = _checked(op, value, len(self.nodes))
        self.nodes.append(Node(op, inputs, value, attrs))
        return Tensor(self, len(self.nodes) - 1, value)

    def const(self, value) -> Tensor:
        """Leaf, cast to the tape's dtype; an array already in it is held, not copied."""
        return self._record("const", (), np.asarray(value, dtype=self.dtype), {})

    def apply(self, op: str, args: list, attrs: Optional[dict] = None) -> Tensor:
        attrs = {} if attrs is None else attrs
        if op not in _OPS:
            raise ConfigError(f"unknown op '{op}'")
        for a in args:
            if a.tape is not self:
                raise ConfigError(f"op '{op}' given a tensor from a different tape")
        out = _OPS[op][0]([a.value for a in args], attrs)
        return self._record(op, tuple(a.node_id for a in args), out, attrs)


class EagerTape(Tape):
    """Record-free tape: each op runs and is checked at once, and nothing is kept.

    Its tensors have no node, so they cannot be differentiated. Its
    dtype is None: leaves keep their own dtype, and mixed operands promote.
    """

    def __init__(self):
        super().__init__(None)

    def _record(self, op: str, inputs: tuple, value: np.ndarray, attrs: dict) -> Tensor:
        return Tensor(self, None, _checked(op, value, None))


def _checked(op: str, value: np.ndarray, node) -> np.ndarray:
    if not _all_finite(value):
        where = "on a record-free tape" if node is None else f"at node {node}"
        raise NumericError(f"non-finite value out of op '{op}' {where}")
    return value


def _all_finite(x: np.ndarray) -> bool:
    """Elementwise finiteness, decided by one x . x: not finite if any element is NaN or +-inf,
    finite if all are and the sum of squares stays in range. Only an overflow (in float32, from
    an element of about 1.8e19) pays for the elementwise scan. Unlike a sum, x . x never meets
    inf - inf, and `np.vdot` emits no floating-point warning, so a failure only raises."""
    v = x.ravel("K")
    return bool(np.isfinite(np.vdot(v, v))) or bool(np.all(np.isfinite(x)))


# ============================================================
# Op registry
# ============================================================


def _require_2d(op, *shapes):
    for s in shapes:
        if len(s) != 2:
            raise ShapeError(f"op '{op}' needs 2-D operands, got {shapes}")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _affine(v, a):
    x, w, b = v
    _require_2d("affine", x.shape, w.shape)
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"op 'affine' inner dims differ: {x.shape} @ {w.shape}.T")
    if b.shape not in ((w.shape[0],), (x.shape[0], w.shape[0])):
        raise ShapeError(f"op 'affine' needs a bias of shape ({w.shape[0]},) or "
                         f"{(x.shape[0], w.shape[0])}, got {b.shape}")
    # the product keeps the transposed view: a C-ordered copy of w.T can run
    # another BLAS kernel and move the last bits
    out = x @ w.T
    out += b
    return out


# a sigmoid row block, its scratch, np.where's output and the block of the result: about
# 2 MiB, one core's L2; a float32 training batch of 128 x 784 is one block
_SIGMOID_BYTES = 1 << 19


def _sigmoid(v, a):
    # exp(-|x|) never overflows; per element this is 1/(1+exp(-x)) for x >= 0 and
    # exp(x)/(1+exp(x)) otherwise, the operations of splitting by sign; an array larger
    # than `_SIGMOID_BYTES` runs them on row blocks of at most that size into its output
    x = v[0]
    if x.nbytes <= _SIGMOID_BYTES:
        return _sigmoid_rows(x, np.empty_like(x), None)
    out = np.empty_like(x)
    step = max(1, _SIGMOID_BYTES // x[0].nbytes)
    e = np.empty_like(x[:step])
    for lo in range(0, len(x), step):
        xb = x[lo:lo + step]
        _sigmoid_rows(xb, e[:len(xb)], out[lo:lo + step])
    return out


def _sigmoid_rows(x, e, out):
    """Sigmoid of x into `out`, or into a new array when `out` is None; `e` is scratch like x."""
    np.exp(np.negative(np.abs(x, out=e), out=e), out=e)
    num = np.where(x >= 0, 1.0, e)
    return np.divide(num, np.add(e, 1.0, out=e), out=num if out is None else out)


def _power_stats(z, eps):
    if z.ndim != 2 or z.shape[0] < 2:
        raise ShapeError(f"power_normalize needs a 2-D batch >= 2, got shape {z.shape}")
    c = z - np.mean(z, axis=0, keepdims=True)
    return c, np.sqrt(np.mean(c * c, axis=0, keepdims=True) + eps)


def _power_normalize(v, a):
    c, sigma = _power_stats(v[0], a["eps"])
    return c * (a["scale"] / sigma)


def _power_normalize_grad(g, v, out, a, i):
    # (scale / sigma) (g - mean0(g) - c_hat mean0(g c_hat)), c_hat = c / sigma from the input
    c_hat, sigma = _power_stats(v[0], a["eps"])
    c_hat /= sigma
    grad = g - np.mean(g, axis=0, keepdims=True) - c_hat * np.mean(g * c_hat, axis=0, keepdims=True)
    return grad * (a["scale"] / sigma)


def _mse(v, a):
    if v[0].shape != v[1].shape:
        raise ShapeError(f"op 'mse' needs operands of one shape, got {v[0].shape} and {v[1].shape}")
    diff = v[0] - v[1]  # squared in place: the bits of np.square, one buffer
    return np.mean(np.multiply(diff, diff, out=diff)).reshape(1)


def _imq_block(u, w, C):
    """C / (D + C) with D_jl = |u_j|^2 + |w_l|^2 - 2 u_j . w_l, clamped at 0 against the
    expansion's tiny negative residue on a diagonal."""
    ru = np.sum(u * u, axis=1, keepdims=True)
    rw = np.sum(w * w, axis=1, keepdims=True)
    return C / (np.maximum(ru + rw.T - 2.0 * (u @ w.T), 0.0) + C)


def _imq_within(u, C):
    k = _imq_block(u, u, C)
    np.fill_diagonal(k, 0.0)  # the unbiased within-block means skip j = l
    return k


def _imq_mmd(v, a):
    x, y = v
    _require_2d("imq_mmd", x.shape, y.shape)
    if x.shape != y.shape or len(x) < 2:
        raise ShapeError(f"op 'imq_mmd' needs two blocks of one shape with >= 2 rows, "
                         f"got {x.shape} and {y.shape}")
    off = float(len(x) * (len(x) - 1))
    xx, yy = (np.sum(_imq_within(u, a["C"])).reshape(1) / off for u in (x, y))
    return xx + yy - 2.0 * np.mean(_imq_block(x, y, a["C"])).reshape(1)


def _imq_mmd_grad(g, v, out, a, i):
    # dK/dD = -K^2 / C and dD_jl/du_j = 2 (u_j - w_l), so a block's term moves u_j by
    # sum_l K_jl^2 (u_j - w_l): row sums times u less one product. MMD^2 is symmetric in
    # its blocks, so u is the block asked for and w the other. The clamp binds only where
    # two points (nearly) coincide, and there u_j - w_l is (nearly) 0.
    u, w, C = v[i], v[1 - i], a["C"]
    m = len(u)
    within, cross = np.square(_imq_within(u, C)), np.square(_imq_block(u, w, C))
    pull = (np.sum(cross, axis=1, keepdims=True) * u - cross @ w) / float(m * m)
    push = (np.sum(within, axis=1, keepdims=True) * u - within @ u) / float(m * (m - 1))
    return (g * (4.0 / C)) * (pull - push)


def _slice_cols(v, a):
    _require_2d("slice_cols", v[0].shape)
    return v[0][:, a["start"]:a["stop"]].copy()


def _slice_cols_grad(g, v, out, a, i):
    full = np.zeros_like(v[0])
    full[:, a["start"]:a["stop"]] = g
    return full


# op -> (forward(values, attrs), backward(grad, values, out, attrs, i)). The
# backward rule gives the gradient toward input i; it runs only for inputs that
# lead to a requested tensor.
_OPS = {
    "add": (lambda v, a: v[0] + v[1], lambda g, v, out, a, i: _unbroadcast(g, v[i].shape)),
    "sub": (lambda v, a: v[0] - v[1],
            lambda g, v, out, a, i: _unbroadcast(g if i == 0 else -g, v[i].shape)),
    "mul": (lambda v, a: v[0] * v[1],
            lambda g, v, out, a, i: _unbroadcast(g * v[1 - i], v[i].shape)),
    # x @ w.T + b; the weight's gradient g.T @ x comes out C-ordered, as Adam reads it
    "affine": (_affine, lambda g, v, out, a, i: g @ v[1] if i == 0 else g.T @ v[0] if i == 1
               else _unbroadcast(g, v[2].shape)),
    "relu": (lambda v, a: np.maximum(v[0], 0.0), lambda g, v, out, a, i: g * (v[0] > 0.0)),
    "sigmoid": (_sigmoid, lambda g, v, out, a, i: g * out * (1.0 - out)),
    "exp": (lambda v, a: np.exp(v[0]), lambda g, v, out, a, i: g * out),
    "square": (lambda v, a: v[0] * v[0], lambda g, v, out, a, i: g * 2.0 * v[0]),
    "clip": (lambda v, a: np.clip(v[0], a["lo"], a["hi"]),
             lambda g, v, out, a, i: g * ((v[0] > a["lo"]) & (v[0] < a["hi"]))),
    # the sub, square and mean chain's operations, so the bits are its bits; IEEE products
    # are symmetric in sign, so -2.0 gives the negated gradient toward b
    "mse": (_mse, lambda g, v, out, a, i: (g / v[0].size) * (2.0 if i == 0 else -2.0) * (v[0] - v[1])),
    "sum": (lambda v, a: np.sum(v[0]).reshape(1),
            lambda g, v, out, a, i: np.broadcast_to(g, v[0].shape)),
    "imq_mmd": (_imq_mmd, _imq_mmd_grad),
    "power_normalize": (_power_normalize, _power_normalize_grad),
    "slice_cols": (_slice_cols, _slice_cols_grad),
}


# ============================================================
# Public graph functions
# ============================================================


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b as one node; w is (out, in) and b is (out,) or (batch, out)."""
    return x.tape.apply("affine", [x, w, b])


def relu(t: Tensor) -> Tensor:
    return t.tape.apply("relu", [t])


def sigmoid(t: Tensor) -> Tensor:
    return t.tape.apply("sigmoid", [t])


def exp(t: Tensor) -> Tensor:
    return t.tape.apply("exp", [t])


def square(t: Tensor) -> Tensor:
    return t.tape.apply("square", [t])


def clip(t: Tensor, lo: float, hi: float) -> Tensor:
    return t.tape.apply("clip", [t], {"lo": float(lo), "hi": float(hi)})


def mse(a: Tensor, b: Tensor) -> Tensor:
    """mean((a - b)^2) over every element, shape [1]; a and b have one shape."""
    return a.tape.apply("mse", [a, b])


def sum_all(t: Tensor) -> Tensor:
    return t.tape.apply("sum", [t])


def imq_mmd(a: Tensor, b: Tensor, C: float) -> Tensor:
    """Unbiased MMD^2 of two [m, k] blocks (m >= 2) under the kernel C / (C + |u - v|^2),
    shape [1]: the off-diagonal means within a and within b, less twice the mean across."""
    return a.tape.apply("imq_mmd", [a, b], {"C": float(C)})


def slice_cols(t: Tensor, start: int, stop: int) -> Tensor:
    return t.tape.apply("slice_cols", [t], {"start": int(start), "stop": int(stop)})


def backward_grads(tape: Tape, scalar_output: Tensor, wrt: list) -> list:
    """Reverse-mode gradients of a shape-[1] output w.r.t. the given nodes.

    Requested nodes the output does not depend on get zero arrays of
    matching shape.

    The sweep is pruned: a first forward pass marks every node that depends
    on a requested tensor, and gradients are computed and accumulated for
    marked nodes only, so no work goes into constants or frozen parameters.
    Every gradient that is computed is checked for NaN/Inf.
    """
    if isinstance(tape, EagerTape):
        raise ConfigError("a record-free tape keeps no graph to differentiate")
    if scalar_output.tape is not tape:
        raise ConfigError("output tensor does not belong to this tape")
    if scalar_output.value.shape != (1,):
        raise ShapeError(f"backward needs a shape-[1] output, got {scalar_output.value.shape}")
    for t in wrt:
        if t.tape is not tape:
            raise ConfigError("gradient requested for a tensor from a different tape")

    out_id = scalar_output.node_id
    marked = _depends_on(tape, {t.node_id for t in wrt}, out_id)
    acc: dict[int, np.ndarray] = {out_id: np.ones(1, dtype=tape.dtype)}
    for nid in range(out_id, -1, -1):
        g = acc.get(nid)
        if g is None or not marked[nid]:
            continue
        node = tape.nodes[nid]
        in_values = [tape.nodes[i].value for i in node.inputs]
        for i, in_id in enumerate(node.inputs):
            if not marked[in_id]:
                continue
            gi = _OPS[node.op][1](g, in_values, node.value, node.attrs, i)
            if not _all_finite(gi):
                raise NumericError(f"non-finite gradient at op '{node.op}', node {nid}")
            prev = acc.get(in_id)
            acc[in_id] = gi if prev is None else prev + gi
    return [acc[t.node_id] if t.node_id in acc else np.zeros(t.shape, tape.dtype) for t in wrt]


def _depends_on(tape: Tape, wrt_ids: set, last: int) -> list:
    """marked[i]: node i is requested or depends on a requested node."""
    marked = [False] * (last + 1)
    for nid in range(min(wrt_ids, default=last + 1), last + 1):
        marked[nid] = nid in wrt_ids or any(marked[i] for i in tape.nodes[nid].inputs)
    return marked


# ============================================================
# Adam
# ============================================================


# elements per Adam block: 256 KiB of float32, so a block's operands fit in a 2 MiB L2
_ADAM_BLOCK = 65536

ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # one setting for every network


@dataclass
class AdamState:
    """A network's learning rate and step count, and moments of one flat buffer made by the
    first step: m and v hold m / (1 - beta1) and v / (1 - beta2) of the textbook moments, so
    in float32 v overflows once |g| stays near 5.8e17 (not 1.8e19), and `adam_step` raises
    `NumericError`."""

    lr: float = 1e-3
    step_count: int = 0
    m: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None


def _adam_ops(beta1, beta2, alpha, eps_hat, tiny, mask, p, g, m, v, a) -> None:
    """The 13 numpy calls of one update, in place on p, m and v; a and mask (bool) are scratch.
    A subnormal m becomes 0: times beta1 the smallest subnormal rounds to itself, so where
    gradients stop m would stay subnormal and slow every operation on it many times over."""
    m *= beta1
    m += g
    np.less(np.abs(m, out=a), tiny, out=mask)
    np.copyto(m, 0.0, where=mask)
    v *= beta2
    np.multiply(g, g, out=a)
    v += a
    np.sqrt(v, out=a)
    a += eps_hat
    np.divide(m, a, out=a)
    a *= alpha
    p -= a


def adam_step(p, grads: list, state: AdamState):
    """One Adam update of a network's parameters p (a `nets.MlpParams`) in place; returns p.

    grads holds a gradient of each array of p, in `array_names()` order, all shapes checked
    before any write, read in place when p exceeds a block. With bc_i = 1 - beta_i^t, c2 =
    (1 - beta2) / bc2, the step lr (m / bc1) / (sqrt(v / bc2) + eps) is, on scaled moments,
    a_t m / (sqrt(v) + e_t): a_t = lr (1 - beta1) / (bc1 sqrt(c2)), e_t = eps / sqrt(c2).
    A second moment that overflows, which would stop its element for good, is a `NumericError`
    naming the network's role and the step."""
    names, buffer = p.array_names(), p.buffer
    if len(grads) != len(names):
        raise ShapeError(f"adam: {len(names)} parameters given {len(grads)} gradients")
    for name, g in zip(names, grads):
        if np.shape(g) != p.array(name).shape:
            raise ShapeError(f"parameter {name} has shape {p.array(name).shape}, given {np.shape(g)}")
    if state.m is None:
        state.m, state.v = np.zeros_like(buffer), np.zeros_like(buffer)
    if state.m.shape != buffer.shape:
        raise ShapeError(f"adam: moments of shape {state.m.shape} given a buffer of {buffer.shape}")
    state.step_count += 1
    b1, b2, t = ADAM_BETA1, ADAM_BETA2, state.step_count
    root_c2 = math.sqrt((1.0 - b2) / (1.0 - b2 ** t))  # Python floats keep float32 blocks float32
    consts = (b1, b2, float(state.lr) * (1.0 - b1) / ((1.0 - b1 ** t) * root_c2),
              ADAM_EPSILON / root_c2, float(np.finfo(buffer.dtype).tiny))
    if buffer.size <= _ADAM_BLOCK:  # 13 calls per network, not per leaf; copies at most a block
        grads = [np.concatenate([np.reshape(g, -1) for g in grads])]
    a = np.empty(min(buffer.size, _ADAM_BLOCK), buffer.dtype)
    mask, lo = np.empty(a.size, bool), 0
    for g in grads:
        g = np.reshape(g, -1)  # a view of a C-ordered gradient, as backward's are
        for start in range(0, g.size, _ADAM_BLOCK):
            n = min(g.size - start, _ADAM_BLOCK)
            at = slice(lo, lo + n)
            _adam_ops(*consts, mask[:n], buffer[at], g[start:start + n], state.m[at], state.v[at], a[:n])
            lo += n
    if not _all_finite(state.v):
        raise NumericError(f"adam: second moment of network '{p.role}' overflowed at step {t}")
    return p
