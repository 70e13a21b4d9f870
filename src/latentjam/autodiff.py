"""Minimal dense tensor engine with a recorded tape and reverse-mode gradients.

A `Tape` records every op in insertion order, which is also a topological
order, so backward is a single reverse sweep and `forward_eval` can replay
the recorded graph against fresh input values (used for finite-difference
checks and for bit-identical recomputation).

Node values may share memory: `transpose` records a view of its input,
and leaves hold the caller's arrays, so an in-place parameter update
after backward is visible through the tape. Backward is pruned to the
nodes that depend on a requested tensor (a `detach` node cuts that
dependence); gradients toward data constants, frozen parameters and
detached paths are never computed.

Everything is float64. NaN/Inf detection runs at every op boundary, on
every value and every gradient, and is always on: a training failure must
surface loudly, not corrupt the minimax dynamics downstream. The check
reduces each array to its sum first, which is finite whenever every
element is finite and not finite whenever any element is NaN or +-inf;
only a non-finite sum (a bad element, or a finite array whose sum
overflows) pays for the elementwise scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

# ============================================================
# Tape and tensors
# ============================================================


class Tensor:
    """Handle to one node of a tape: shape + flat float64 data + node id."""

    __slots__ = ("tape", "node_id")

    def __init__(self, tape: "Tape", node_id: int):
        self.tape = tape
        self.node_id = node_id

    @property
    def value(self) -> np.ndarray:
        return self.tape.nodes[self.node_id].value

    @property
    def shape(self) -> tuple:
        return self.value.shape

    # arithmetic sugar; scalars are wrapped as constants
    def _lift(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return self.tape.const(np.asarray(other, dtype=np.float64))

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

    def __init__(self):
        self.nodes: list[Node] = []
        self.outputs: dict[str, int] = {}

    def _record(self, op: str, inputs: tuple, value: np.ndarray, attrs: dict) -> Tensor:
        value = np.asarray(value, dtype=np.float64)
        if not _all_finite(value):
            raise NumericError(f"non-finite value out of op '{op}' at node {len(self.nodes)}")
        self.nodes.append(Node(op, inputs, value, attrs))
        return Tensor(self, len(self.nodes) - 1)

    def input(self, name: str, value) -> Tensor:
        """Named leaf; replay and gradients may rebind it."""
        return self._record("input", (), value, {"name": name})

    def const(self, value) -> Tensor:
        """Unnamed leaf, fixed across replays."""
        return self._record("const", (), value, {})

    def apply(self, op: str, args: list) -> Tensor:
        return self._apply(op, args, {})

    def apply_attrs(self, op: str, args: list, attrs: dict) -> Tensor:
        return self._apply(op, args, attrs)

    def _apply(self, op: str, args: list, attrs: dict) -> Tensor:
        if op not in _FORWARD:
            raise ConfigError(f"unknown op '{op}'")
        for a in args:
            if a.tape is not self:
                raise ConfigError(f"op '{op}' given a tensor from a different tape")
        out = _FORWARD[op]([a.value for a in args], attrs)
        return self._record(op, tuple(a.node_id for a in args), out, attrs)

    def mark_output(self, name: str, t: Tensor) -> Tensor:
        self.outputs[name] = t.node_id
        return t


def _all_finite(x: np.ndarray) -> bool:
    """Elementwise finiteness, decided by one reduction unless it overflows."""
    return bool(np.isfinite(x.sum())) or bool(np.all(np.isfinite(x)))


# ============================================================
# Op registry
# ============================================================


def _require_2d(op, *shapes):
    for s in shapes:
        if len(s) != 2:
            raise ShapeError(f"op '{op}' needs 2-D operands, got {shapes}")


def _fw_add(v, a):
    return v[0] + v[1]


def _fw_sub(v, a):
    return v[0] - v[1]


def _fw_mul(v, a):
    return v[0] * v[1]


def _fw_div(v, a):
    return v[0] / v[1]


def _fw_neg(v, a):
    return -v[0]


def _fw_matmul(v, a):
    _require_2d("matmul", v[0].shape, v[1].shape)
    if v[0].shape[1] != v[1].shape[0]:
        raise ShapeError(f"op 'matmul' inner dims differ: {v[0].shape} @ {v[1].shape}")
    return v[0] @ v[1]


def _fw_transpose(v, a):
    _require_2d("transpose", v[0].shape)
    return v[0].T


def _fw_relu(v, a):
    return np.maximum(v[0], 0.0)


def _fw_tanh(v, a):
    return np.tanh(v[0])


def _fw_sigmoid(v, a):
    # split by sign for stability at large |x|
    x = v[0]
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _fw_exp(v, a):
    return np.exp(v[0])


def _fw_square(v, a):
    return v[0] * v[0]


def _fw_sqrt(v, a):
    return np.sqrt(v[0])


def _fw_clip(v, a):
    return np.clip(v[0], a["lo"], a["hi"])


def _fw_mean(v, a):
    return np.mean(v[0]).reshape(1)


def _fw_sum(v, a):
    return np.sum(v[0]).reshape(1)


def _fw_mean0(v, a):
    _require_2d("mean0", v[0].shape)
    return np.mean(v[0], axis=0, keepdims=True)


def _fw_sum1(v, a):
    _require_2d("sum1", v[0].shape)
    return np.sum(v[0], axis=1, keepdims=True)


def _fw_slice_cols(v, a):
    _require_2d("slice_cols", v[0].shape)
    return v[0][:, a["start"]:a["stop"]].copy()


def _fw_detach(v, a):
    return v[0]


_FORWARD = {
    "add": _fw_add,
    "sub": _fw_sub,
    "mul": _fw_mul,
    "div": _fw_div,
    "neg": _fw_neg,
    "matmul": _fw_matmul,
    "transpose": _fw_transpose,
    "relu": _fw_relu,
    "tanh": _fw_tanh,
    "sigmoid": _fw_sigmoid,
    "exp": _fw_exp,
    "square": _fw_square,
    "sqrt": _fw_sqrt,
    "clip": _fw_clip,
    "mean": _fw_mean,
    "sum": _fw_sum,
    "mean0": _fw_mean0,
    "sum1": _fw_sum1,
    "slice_cols": _fw_slice_cols,
    "detach": _fw_detach,
}


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _backward_one(node: Node, grad: np.ndarray, in_values: list, need: list) -> list:
    """Gradients w.r.t. each input of one node; None marks a stopped path.

    `need[i]` says whether input i leads to a requested tensor. Binary ops
    skip the unneeded side; the caller drops any other unneeded gradient.
    """
    op = node.op
    if op == "add":
        return [_unbroadcast(grad, in_values[0].shape) if need[0] else None,
                _unbroadcast(grad, in_values[1].shape) if need[1] else None]
    if op == "sub":
        return [_unbroadcast(grad, in_values[0].shape) if need[0] else None,
                _unbroadcast(-grad, in_values[1].shape) if need[1] else None]
    if op == "mul":
        return [
            _unbroadcast(grad * in_values[1], in_values[0].shape) if need[0] else None,
            _unbroadcast(grad * in_values[0], in_values[1].shape) if need[1] else None,
        ]
    if op == "div":
        a, b = in_values
        return [
            _unbroadcast(grad / b, a.shape) if need[0] else None,
            _unbroadcast(-grad * a / (b * b), b.shape) if need[1] else None,
        ]
    if op == "neg":
        return [-grad]
    if op == "matmul":
        a, b = in_values
        # (grad.T @ a).T equals a.T @ grad but comes out F-ordered, so a weight
        # reached through `transpose` gets its gradient C-ordered like itself
        return [grad @ b.T if need[0] else None, (grad.T @ a).T if need[1] else None]
    if op == "transpose":
        return [grad.T]
    if op == "relu":
        return [grad * (in_values[0] > 0.0)]
    if op == "tanh":
        return [grad * (1.0 - node.value * node.value)]
    if op == "sigmoid":
        return [grad * node.value * (1.0 - node.value)]
    if op == "exp":
        return [grad * node.value]
    if op == "square":
        return [grad * 2.0 * in_values[0]]
    if op == "sqrt":
        return [grad * 0.5 / node.value]
    if op == "clip":
        x = in_values[0]
        inside = (x > node.attrs["lo"]) & (x < node.attrs["hi"])
        return [grad * inside]
    if op == "mean":
        x = in_values[0]
        return [np.broadcast_to(grad / x.size, x.shape)]
    if op == "sum":
        return [np.broadcast_to(grad, in_values[0].shape)]
    if op == "mean0":
        x = in_values[0]
        return [np.broadcast_to(grad / x.shape[0], x.shape)]
    if op == "sum1":
        return [np.broadcast_to(grad, in_values[0].shape)]
    if op == "slice_cols":
        x = in_values[0]
        g = np.zeros_like(x)
        g[:, node.attrs["start"]:node.attrs["stop"]] = grad
        return [g]
    if op == "detach":
        return [None]
    raise ConfigError(f"no backward rule for op '{op}'")


# ============================================================
# Public graph functions
# ============================================================


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
    to the recorded values (same ops, same order, same dtype).
    """
    values: list[np.ndarray] = []
    for idx, node in enumerate(tape.nodes):
        if node.op == "input":
            name = node.attrs["name"]
            v = np.asarray(inputs.get(name, node.value), dtype=np.float64)
        elif node.op == "const":
            v = node.value
        else:
            v = _FORWARD[node.op]([values[i] for i in node.inputs], node.attrs)
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
    if scalar_output.tape is not tape:
        raise ConfigError("output tensor does not belong to this tape")
    if scalar_output.value.shape != (1,):
        raise ShapeError(f"backward needs a shape-[1] output, got {scalar_output.value.shape}")
    for t in wrt:
        if t.tape is not tape:
            raise ConfigError("gradient requested for a tensor from a different tape")

    out_id = scalar_output.node_id
    marked = _depends_on(tape, {t.node_id for t in wrt}, out_id)
    acc: dict[int, np.ndarray] = {out_id: np.ones(1)}
    for nid in range(out_id, -1, -1):
        g = acc.get(nid)
        if g is None or not marked[nid]:
            continue
        node = tape.nodes[nid]
        need = [marked[i] for i in node.inputs]
        if not any(need):
            continue
        in_values = [tape.nodes[i].value for i in node.inputs]
        for in_id, gi, wanted in zip(node.inputs, _backward_one(node, g, in_values, need), need):
            if gi is None or not wanted:
                continue
            if not _all_finite(gi):
                raise NumericError(f"non-finite gradient at op '{node.op}', node {nid}")
            prev = acc.get(in_id)
            acc[in_id] = gi if prev is None else prev + gi
    return [acc[t.node_id] if t.node_id in acc else np.zeros(t.value.shape) for t in wrt]


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


def adam_step(params: dict, grads: dict, state: AdamState) -> dict:
    """One Adam update with bias correction; params are updated in place."""
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
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)
    return params
