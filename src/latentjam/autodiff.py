"""Minimal dense tensor engine with a recorded tape and reverse-mode gradients.

A `Tensor` carries its value, set when the op that made it runs. A `Tape`
also records every op in insertion order, which is also a topological
order, so backward is a single reverse sweep and `forward_eval` can replay
the recorded graph against fresh input values (used for finite-difference
checks and for bit-identical recomputation). An `EagerTape` runs the same
graph code without recording: evaluation and generation use it, so each
computation is defined once and inference holds no intermediate values.

Each op's forward and backward rules sit together in one `_OPS` entry.
A dense layer is one `affine` node, x @ w.T + b: one kept value and one
finiteness check per layer, with the value and gradients of
`x @ transpose(w) + b` bit for bit.

Node values may share memory: `transpose` records a view of its input,
and leaves hold the caller's arrays, so an in-place parameter update
after backward is visible through the tape. Backward is pruned to the
nodes that depend on a requested tensor (a `detach` node cuts that
dependence); gradients toward data constants, frozen parameters and
detached paths are never computed.

A recorded tape has one dtype, float64 unless given: its leaves, scalar
constants, replay inputs and gradients are cast to it, so every value and
gradient stays in it. Training records float32 tapes; finite-difference
checks use the float64 default. An `EagerTape` casts nothing: float32
parameters meet float64 data inside an op, where numpy promotes, so
evaluation runs in float64. NaN/Inf detection runs at every op boundary, on
every value and every gradient, recorded or not, and is always on: a
training failure must surface loudly, not corrupt the minimax dynamics
downstream. The check first takes x . x with `np.vdot`, which is not
finite whenever any element is NaN or +-inf and finite whenever every
element is finite and the sum of squares stays in range; x . x never
meets inf - inf, so no floating-point warning precedes the error. Only a
non-finite x . x pays for the elementwise scan: a bad element, or a finite
array whose sum of squares overflows, as a float32 one does once an
element reaches about 1.8e19 (the square root of float32's 3.4e38).

`adam_step` runs the whole-array Adam formula on cache-sized blocks of
axis-0 slices, and `sigmoid` its forward on arrays larger than
`_SIGMOID_BYTES`, with the same operations in the same order per element,
so their bits are those of the whole-array formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def __radd__(self, other):
        return self._lift(other).__add__(self)

    def __sub__(self, other):
        return self.tape.apply("sub", [self, self._lift(other)])

    def __rsub__(self, other):
        return self._lift(other).__sub__(self)

    def __mul__(self, other):
        return self.tape.apply("mul", [self, self._lift(other)])

    def __rmul__(self, other):
        return self._lift(other).__mul__(self)

    def __truediv__(self, other):
        return self.tape.apply("div", [self, self._lift(other)])

    def __rtruediv__(self, other):
        return self._lift(other).__truediv__(self)

    def __neg__(self):
        return self.tape.apply("neg", [self])

    def __matmul__(self, other):
        return self.tape.apply("matmul", [self, self._lift(other)])


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
        self.outputs: dict[str, int] = {}

    def _record(self, op: str, inputs: tuple, value: np.ndarray, attrs: dict) -> Tensor:
        value = _checked(op, value, len(self.nodes))
        self.nodes.append(Node(op, inputs, value, attrs))
        return Tensor(self, len(self.nodes) - 1, value)

    def input(self, name: str, value) -> Tensor:
        """Named leaf, cast to the tape's dtype; replay and gradients may rebind it."""
        return self._record("input", (), np.asarray(value, dtype=self.dtype), {"name": name})

    def const(self, value) -> Tensor:
        """Unnamed leaf, cast to the tape's dtype and fixed across replays."""
        return self._record("const", (), np.asarray(value, dtype=self.dtype), {})

    def apply(self, op: str, args: list) -> Tensor:
        return self._apply(op, args, {})

    def apply_attrs(self, op: str, args: list, attrs: dict) -> Tensor:
        return self._apply(op, args, attrs)

    def _apply(self, op: str, args: list, attrs: dict) -> Tensor:
        if op not in _OPS:
            raise ConfigError(f"unknown op '{op}'")
        for a in args:
            if a.tape is not self:
                raise ConfigError(f"op '{op}' given a tensor from a different tape")
        out = _OPS[op][0]([a.value for a in args], attrs)
        return self._record(op, tuple(a.node_id for a in args), out, attrs)

    def mark_output(self, name: str, t: Tensor) -> Tensor:
        self.outputs[name] = t.node_id
        return t


class EagerTape(Tape):
    """Record-free tape: each op runs and is checked at once, and nothing is kept.

    Its tensors have no node, so they cannot be differentiated or replayed. Its
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
    """Elementwise finiteness, decided by one x . x unless it overflows: unlike a sum, x . x
    never meets inf - inf, and `np.vdot` emits no floating-point warning, so a failure only raises."""
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


def _matmul(v, a):
    _require_2d("matmul", v[0].shape, v[1].shape)
    if v[0].shape[1] != v[1].shape[0]:
        raise ShapeError(f"op 'matmul' inner dims differ: {v[0].shape} @ {v[1].shape}")
    return v[0] @ v[1]


def _affine(v, a):
    x, w, b = v
    _require_2d("affine", x.shape, w.shape)
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"op 'affine' inner dims differ: {x.shape} @ {w.shape}.T")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"op 'affine' needs a bias of shape ({w.shape[0]},), got {b.shape}")
    # the product keeps the transposed view: a C-ordered copy of w.T can run
    # another BLAS kernel and move the last bits
    out = x @ w.T
    out += b
    return out


# a sigmoid row block, its scratch, np.where's output and the block of the result: about
# 2 MiB, one core's L2; a float32 training batch of 128 x 784 is one block
_SIGMOID_BYTES = 1 << 19


def _matrix_op(op: str, fn):
    """Forward of a one-operand op defined on 2-D values only."""
    def forward(v, a):
        _require_2d(op, v[0].shape)
        return fn(v[0], a)
    return forward


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


def _slice_cols_grad(g, v, out, a, i):
    full = np.zeros_like(v[0])
    full[:, a["start"]:a["stop"]] = g
    return full


# op -> (forward(values, attrs), backward(grad, values, out, attrs, i)). The
# backward rule gives the gradient toward input i, or None for a stopped path;
# it runs only for inputs that lead to a requested tensor.
_OPS = {
    "add": (lambda v, a: v[0] + v[1], lambda g, v, out, a, i: _unbroadcast(g, v[i].shape)),
    "sub": (lambda v, a: v[0] - v[1],
            lambda g, v, out, a, i: _unbroadcast(g if i == 0 else -g, v[i].shape)),
    "mul": (lambda v, a: v[0] * v[1],
            lambda g, v, out, a, i: _unbroadcast(g * v[1 - i], v[i].shape)),
    "div": (lambda v, a: v[0] / v[1],
            lambda g, v, out, a, i: _unbroadcast(g / v[1], v[0].shape) if i == 0
            else _unbroadcast(-g * v[0] / (v[1] * v[1]), v[1].shape)),
    "neg": (lambda v, a: -v[0], lambda g, v, out, a, i: -g),
    # (g.T @ v[0]).T equals v[0].T @ g but comes out F-ordered, so a weight
    # reached through `transpose` gets its gradient C-ordered like itself
    "matmul": (_matmul, lambda g, v, out, a, i: g @ v[1].T if i == 0 else (g.T @ v[0]).T),
    "transpose": (_matrix_op("transpose", lambda x, a: x.T), lambda g, v, out, a, i: g.T),
    # x @ w.T + b; bit for bit the value and gradients of x @ transpose(w) + b
    "affine": (_affine, lambda g, v, out, a, i: g @ v[1] if i == 0 else g.T @ v[0] if i == 1
               else g.sum(axis=0)),
    "relu": (lambda v, a: np.maximum(v[0], 0.0), lambda g, v, out, a, i: g * (v[0] > 0.0)),
    "tanh": (lambda v, a: np.tanh(v[0]), lambda g, v, out, a, i: g * (1.0 - out * out)),
    "sigmoid": (_sigmoid, lambda g, v, out, a, i: g * out * (1.0 - out)),
    "exp": (lambda v, a: np.exp(v[0]), lambda g, v, out, a, i: g * out),
    "square": (lambda v, a: v[0] * v[0], lambda g, v, out, a, i: g * 2.0 * v[0]),
    "sqrt": (lambda v, a: np.sqrt(v[0]), lambda g, v, out, a, i: g * 0.5 / out),
    "clip": (lambda v, a: np.clip(v[0], a["lo"], a["hi"]),
             lambda g, v, out, a, i: g * ((v[0] > a["lo"]) & (v[0] < a["hi"]))),
    "mean": (lambda v, a: np.mean(v[0]).reshape(1),
             lambda g, v, out, a, i: np.broadcast_to(g / v[0].size, v[0].shape)),
    "sum": (lambda v, a: np.sum(v[0]).reshape(1),
            lambda g, v, out, a, i: np.broadcast_to(g, v[0].shape)),
    "mean0": (_matrix_op("mean0", lambda x, a: np.mean(x, axis=0, keepdims=True)),
              lambda g, v, out, a, i: np.broadcast_to(g / v[0].shape[0], v[0].shape)),
    "sum1": (_matrix_op("sum1", lambda x, a: np.sum(x, axis=1, keepdims=True)),
             lambda g, v, out, a, i: np.broadcast_to(g, v[0].shape)),
    "slice_cols": (_matrix_op("slice_cols", lambda x, a: x[:, a["start"]:a["stop"]].copy()),
                   _slice_cols_grad),
    "detach": (lambda v, a: v[0], lambda g, v, out, a, i: None),
}


# ============================================================
# Public graph functions
# ============================================================


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """One dense layer, x @ w.T + b, as one node; w is (out, in) and b is (out,)."""
    return x.tape.apply("affine", [x, w, b])


def relu(t: Tensor) -> Tensor:
    return t.tape.apply("relu", [t])


def tanh(t: Tensor) -> Tensor:
    return t.tape.apply("tanh", [t])


def sigmoid(t: Tensor) -> Tensor:
    return t.tape.apply("sigmoid", [t])


def exp(t: Tensor) -> Tensor:
    return t.tape.apply("exp", [t])


def square(t: Tensor) -> Tensor:
    return t.tape.apply("square", [t])


def sqrt(t: Tensor) -> Tensor:
    return t.tape.apply("sqrt", [t])


def clip(t: Tensor, lo: float, hi: float) -> Tensor:
    return t.tape.apply_attrs("clip", [t], {"lo": float(lo), "hi": float(hi)})


def mean_all(t: Tensor) -> Tensor:
    return t.tape.apply("mean", [t])


def sum_all(t: Tensor) -> Tensor:
    return t.tape.apply("sum", [t])


def mean_cols(t: Tensor) -> Tensor:
    """Per-column mean over the batch axis, shape [1, k]."""
    return t.tape.apply("mean0", [t])


def sum_rows(t: Tensor) -> Tensor:
    """Per-row sum over columns, shape [m, 1]."""
    return t.tape.apply("sum1", [t])


def transpose(t: Tensor) -> Tensor:
    """2-D transpose as a view: the value shares memory with `t`'s value."""
    return t.tape.apply("transpose", [t])


def slice_cols(t: Tensor, start: int, stop: int) -> Tensor:
    return t.tape.apply_attrs("slice_cols", [t], {"start": int(start), "stop": int(stop)})


def detach(t: Tensor) -> Tensor:
    """Stop-gradient marker: value passes, gradient does not."""
    return t.tape.apply("detach", [t])


def forward_eval(tape: Tape, inputs: dict) -> dict:
    """Replay the tape with rebound named inputs; returns marked outputs.

    With inputs identical to the recorded ones, outputs are bit-identical
    to the recorded values (same ops, same order, same dtype). A name that
    matches no input node raises `ConfigError`; a rebound value must keep
    its recorded shape, else `ShapeError`.
    """
    unknown = set(inputs) - {node.attrs["name"] for node in tape.nodes if node.op == "input"}
    if unknown:
        raise ConfigError(f"replay given values for unknown inputs {sorted(unknown)}")
    values: list[np.ndarray] = []
    for idx, node in enumerate(tape.nodes):
        if node.op == "input":
            name = node.attrs["name"]
            v = np.asarray(inputs.get(name, node.value), dtype=tape.dtype)
            if v.shape != node.value.shape:
                raise ShapeError(f"input '{name}' recorded as {node.value.shape}, rebound as {v.shape}")
        elif node.op == "const":
            v = node.value
        else:
            v = _OPS[node.op][0]([values[i] for i in node.inputs], node.attrs)
        if not _all_finite(v):
            raise NumericError(f"non-finite value out of op '{node.op}' at node {idx} during replay")
        values.append(v)
    return {name: values[nid] for name, nid in tape.outputs.items()}


def backward_grads(tape: Tape, scalar_output: Tensor, wrt: list) -> list:
    """Reverse-mode gradients of a shape-[1] output w.r.t. the given nodes.

    Paths crossing a detach node contribute zero. Requested nodes the
    output does not depend on get zero arrays of matching shape.

    The sweep is pruned: a first forward pass marks every node that depends
    on a requested tensor (a detach node never passes the mark on), and
    gradients are computed and accumulated for marked nodes only, so no
    work goes into constants, frozen parameters or detached subgraphs.
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
            if gi is None:
                continue
            if not _all_finite(gi):
                raise NumericError(f"non-finite gradient at op '{node.op}', node {nid}")
            prev = acc.get(in_id)
            acc[in_id] = gi if prev is None else prev + gi
    return [acc[t.node_id] if t.node_id in acc else np.zeros(t.shape, tape.dtype) for t in wrt]


def _depends_on(tape: Tape, wrt_ids: set, last: int) -> list:
    """marked[i]: node i is requested or depends on a requested node without a detach between."""
    marked = [False] * (last + 1)
    for nid in range(min(wrt_ids, default=last + 1), last + 1):
        node = tape.nodes[nid]
        marked[nid] = nid in wrt_ids or (
            node.op != "detach" and any(marked[i] for i in node.inputs))
    return marked


# ============================================================
# Adam
# ============================================================


# elements per Adam block: 64 KiB of float32, so a block's six operands fit in a 2 MiB L2
_ADAM_BLOCK = 16384


@dataclass
class AdamState:
    """Moment buffers plus hyperparameters for one family of parameters."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)


def _adam_ops(state: AdamState, bc1: float, bc2: float, p, g, m, v, a, b) -> None:
    """The 17 operations of one update, in place on p, m and v; a and b are scratch like p.
    A subnormal m becomes 0: where gradients stop, m would stick at the smallest subnormal
    (times beta1 it rounds to itself) and slow every operation on it many times over."""
    m *= state.beta1
    np.multiply(g, 1.0 - state.beta1, out=a)
    m += a
    m *= np.abs(m, out=a) >= np.finfo(m.dtype).tiny
    v *= state.beta2
    np.multiply(g, g, out=a)
    a *= 1.0 - state.beta2
    v += a
    np.divide(m, bc1, out=a)
    a *= state.lr
    np.divide(v, bc2, out=b)
    np.sqrt(b, out=b)
    b += state.epsilon
    a /= b
    p -= a


def adam_step(params: dict, grads: dict, state: AdamState) -> dict:
    """One Adam update with bias correction; params are updated in place.

    p -= lr * (m / bc1) / (sqrt(v / bc2) + eps) runs as 17 elementwise operations,
    in that order, per block of about `_ADAM_BLOCK` elements or on a smaller whole array.
    """
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"adam: gradient shape {g.shape} != parameter shape {p.shape} for '{name}'")
        m = state.first_moment.get(name)
        if m is None:
            m = state.first_moment[name] = np.zeros_like(p)
        v = state.second_moment.get(name)
        if v is None:
            v = state.second_moment[name] = np.zeros_like(p)
        if p.size <= _ADAM_BLOCK:
            _adam_ops(state, bc1, bc2, p, g, m, v, np.empty_like(p), np.empty_like(p))
            continue
        # scratch like p; a wide row is a block of its own
        scratch = np.empty((2, max(_ADAM_BLOCK, p[0].size)), dtype=p.dtype)
        step = max(1, _ADAM_BLOCK // p[0].size)
        for lo in range(0, p.shape[0], step):
            pb, gb, mb, vb = p[lo:lo + step], g[lo:lo + step], m[lo:lo + step], v[lo:lo + step]
            a, b = (s[:pb.size].reshape(pb.shape) for s in scratch)
            _adam_ops(state, bc1, bc2, pb, gb, mb, vb, a, b)
    return params
