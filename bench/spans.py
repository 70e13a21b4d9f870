"""Span tracing for the benchmark's traced run.

The tracer replaces public functions of the package with thin wrappers at
the place each caller looks them up (a module attribute, or a method on a
class), records one span per call (name, phase, start, end, parent) in
flat in-memory arrays, and restores the originals on `uninstall`. Nothing
inside the package changes, so a refactor that renames a binding shows up
as a metric that records no calls, which `missing_calls` reports.

Self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from array import array

# Spans opened while the phase is OFF (untimed checks, the untraced half) are ignored.
SETUP, OP, OFF = 0, 1, 2
PHASES = ("setup", "op", "off")

# metric -> (span-name prefixes, reduction, unit, workloads expected to record calls)
# Reductions: "self" self time in ms, "incl" inclusive time in ms, "calls" span count,
# "amount" (also scaled: "amount_m" millions, "amount_kb" KiB) the quantity a wrapper
# attached to its spans. Each is divided by the number of operations, except set-up
# metrics, which are divided by the number of set-ups. "max_tape_mb" is the largest
# tape of the traced operations.
ALL = ("train-mnist-aj", "compare-oracle")
METRICS = {
    "autodiff.leaf_ms": (("autodiff.input", "autodiff.const"), "self", "ms", ("train-mnist-aj",)),
    "autodiff.backward_ms": (("autodiff.backward_grads",), "self", "ms", ("train-mnist-aj",)),
    "autodiff.adam_ms": (("autodiff.adam_step",), "self", "ms", ("train-mnist-aj",)),
    "autodiff.matmul_ms": (("autodiff.apply:matmul",), "self", "ms", ("train-mnist-aj",)),
    "autodiff.transpose_ms": (("autodiff.apply:transpose",), "self", "ms", ("train-mnist-aj",)),
    "autodiff.sigmoid_ms": (("autodiff.apply:sigmoid",), "self", "ms", ("train-mnist-aj",)),
    "autodiff.apply_ms": (("autodiff.apply",), "self", "ms", ("compare-oracle",)),
    "autodiff.apply_calls": (("autodiff.apply",), "calls", "count", ("compare-oracle",)),
    "autodiff.tape_nodes": (("autodiff.backward_grads",), "amount", "count", ("compare-oracle",)),
    "autodiff.tape_mb": (("autodiff.backward_grads",), "max_tape_mb", "MB", ("train-mnist-aj",)),
    "nets.power_normalize_ms": (("nets.power_normalize",), "self", "ms", ("train-mnist-aj",)),
    "nets.mlp_apply_ms": (("nets.mlp_apply",), "self", "ms", ("compare-oracle",)),
    "game.train_step_ms": (("game.train_step",), "incl", "ms", ALL),
    "game.train_ms.aj": (("game.train:aj",), "incl", "ms", ("compare-oracle",)),
    "game.train_ms.kl": (("game.train:kl",), "incl", "ms", ("compare-oracle",)),
    "game.train_ms.mmd": (("game.train:mmd",), "incl", "ms", ("compare-oracle",)),
    "game.train_ms.none": (("game.train:none",), "incl", "ms", ("compare-oracle",)),
    "game.evaluate_ms": (("game.evaluate",), "incl", "ms", ("compare-oracle",)),
    "baselines.step_ms": (("baselines.baseline_train_step",), "incl", "ms", ("compare-oracle",)),
    "baselines.losses_ms": (("baselines.baseline_losses",), "self", "ms", ("compare-oracle",)),
    "data_io.synth_ms": (("data_io.synth_source",), "self", "ms", ALL),
    "data_io.batch_ms": (("data_io.batches",), "self", "ms", ("train-mnist-aj",)),
    "rng.normal_ms": (("rng.normal",), "self", "ms", ALL),
    "rng.uniform_ms": (("rng.uniform",), "self", "ms", ALL),
    "rng.draws_m": (("rng.normal", "rng.uniform"), "amount_m", "millions", ALL),
    "oracle.mc_game_value_ms": (("oracle.mc_game_value",), "self", "ms", ("compare-oracle",)),
    "oracle.saddle_verify_ms": (("oracle.saddle_verify",), "self", "ms", ("compare-oracle",)),
    "oracle.matching_samples_ms": (("oracle.matching_samples",), "self", "ms", ("compare-oracle",)),
    "oracle.matching_residual_ms": (("oracle.matching_residual",), "self", "ms", ("compare-oracle",)),
    "metrics.evaluate_latents_ms": (("metrics.evaluate_latents",), "self", "ms", ("compare-oracle",)),
    "cli.run_oracle_ms": (("cli.run_oracle",), "incl", "ms", ("compare-oracle",)),
    "cli.save_checkpoint_ms": (("cli.save_checkpoint",), "self", "ms", ("compare-oracle",)),
    "cli.load_checkpoint_ms": (("cli.load_checkpoint",), "self", "ms", ("compare-oracle",)),
    "cli.checkpoint_kb": (("cli.save_checkpoint",), "amount_kb", "KB", ("compare-oracle",)),
}
# Set-up work runs once per set-up, not once per operation.
SETUP_METRICS = {"data_io.synth_ms"}


def _size(shape) -> int:
    return math.prod(shape) if isinstance(shape, tuple) else int(shape)


def _tape_bytes(tape) -> int:
    """Bytes of the distinct value arrays a tape holds."""
    seen = {}
    for node in tape.nodes:
        seen[id(node.value)] = node.value.nbytes
    return sum(seen.values())


class Tracer:
    """Spans in flat arrays; `open`/`close` nest strictly (one thread)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.phase_of = array("b")
        self.start = array("q")
        self.end = array("q")
        self.amount = array("d")
        self.tape_bytes: list[int] = []
        self.phase = SETUP
        self._stack: list[int] = []
        self._saved: list = []
        self.unbound: list[str] = []

    # ---- spans ------------------------------------------------------

    def open(self, name: str, amount: float = 0.0) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.phase_of.append(self.phase)
        self.amount.append(amount)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def _parent_name(self) -> str:
        return self.names[self.name[self._stack[-1]]] if self._stack else ""

    # ---- wrappers ---------------------------------------------------

    def _span_call(self, fn, name_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name, amount = name_of(args, kwargs)
            sid = self.open(name, amount)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
        return traced

    def _plain(self, fn, name):
        return self._span_call(fn, lambda a, k: (name, 0.0))

    def _apply(self, fn):
        return self._span_call(fn, lambda a, k: ("autodiff.apply:" + a[1], 0.0))

    def _train(self, fn):
        return self._span_call(fn, lambda a, k: ("game.train:" + (a[0] if a else k["config"]).regularizer, 0.0))

    def _normal(self, fn):
        return self._span_call(fn, lambda a, k: ("rng.normal", _size(a[1] if len(a) > 1 else k.get("shape", ()))))

    def _uniform(self, fn):
        def name_of(a, k):
            # uniform draws made inside normal are counted once, as normals
            inside_normal = self._parent_name() == "rng.normal"
            shape = a[1] if len(a) > 1 else k.get("shape", ())
            return "rng.uniform", 0.0 if inside_normal else _size(shape)
        return self._span_call(fn, name_of)

    def _backward(self, fn):
        def name_of(a, k):
            tape = a[0]
            if self.phase == OP:
                self.tape_bytes.append(_tape_bytes(tape))
            return "autodiff.backward_grads", len(tape.nodes)
        return self._span_call(fn, name_of)

    def _save_checkpoint(self, fn):
        @functools.wraps(fn)
        def traced(path, *args, **kwargs):
            sid = self.open("cli.save_checkpoint")
            try:
                return fn(path, *args, **kwargs)
            finally:
                self.close(sid)
                self.amount[sid] = os.path.getsize(path) if os.path.exists(path) else 0.0
        return traced

    def _batches(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                sid = self.open("data_io.batches")
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(sid)
                yield item
        return traced

    def _bindings(self):
        from latentjam import autodiff, baselines, cli, data_io, game, rng
        return [
            (autodiff.Tape, "input", lambda f: self._plain(f, "autodiff.input")),
            (autodiff.Tape, "const", lambda f: self._plain(f, "autodiff.const")),
            (autodiff.Tape, "apply", self._apply),
            (autodiff.Tape, "apply_attrs", self._apply),
            (game, "backward_grads", self._backward),
            (baselines, "backward_grads", self._backward),
            (game, "adam_step", lambda f: self._plain(f, "autodiff.adam_step")),
            (baselines, "adam_step", lambda f: self._plain(f, "autodiff.adam_step")),
            (game, "power_normalize", lambda f: self._plain(f, "nets.power_normalize")),
            (baselines, "power_normalize", lambda f: self._plain(f, "nets.power_normalize")),
            (game, "mlp_apply", lambda f: self._plain(f, "nets.mlp_apply")),
            (game, "train_step", lambda f: self._plain(f, "game.train_step")),
            (game, "train", self._train),
            (game, "evaluate", lambda f: self._plain(f, "game.evaluate")),
            (game, "baseline_train_step", lambda f: self._plain(f, "baselines.baseline_train_step")),
            (baselines, "baseline_losses", lambda f: self._plain(f, "baselines.baseline_losses")),
            (game, "evaluate_latents", lambda f: self._plain(f, "metrics.evaluate_latents")),
            (data_io, "synth_source", lambda f: self._plain(f, "data_io.synth_source")),
            (data_io, "batches", self._batches),
            (game, "batches", self._batches),
            (rng.Rng, "normal", self._normal),
            (rng.Rng, "uniform", self._uniform),
            (cli, "mc_game_value", lambda f: self._plain(f, "oracle.mc_game_value")),
            (cli, "saddle_verify", lambda f: self._plain(f, "oracle.saddle_verify")),
            (cli, "matching_samples", lambda f: self._plain(f, "oracle.matching_samples")),
            (cli, "matching_residual", lambda f: self._plain(f, "oracle.matching_residual")),
            (cli, "run_oracle", lambda f: self._plain(f, "cli.run_oracle")),
            (cli, "save_checkpoint", self._save_checkpoint),
            (cli, "load_checkpoint", lambda f: self._plain(f, "cli.load_checkpoint")),
        ]

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, wrap in self._bindings():
            original = owner.__dict__.get(attr)
            if original is None:
                self.unbound.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # ---- reduction --------------------------------------------------

    def per_layer(self, n_setups: int, n_ops: int) -> tuple[dict, dict]:
        """Per-layer metric values and the number of spans behind each."""
        import numpy as np
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        phase = np.asarray(self.phase_of, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        amount = np.asarray(self.amount, dtype=np.float64)
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        values, calls = {}, {}
        for metric, (prefixes, kind, _unit, _where) in METRICS.items():
            ids = [i for i, n in enumerate(self.names)
                   if any(n == p or n.startswith(p + ":") for p in prefixes)]
            want = SETUP if metric in SETUP_METRICS else OP
            mask = np.isin(name, ids) & (phase == want)
            calls[metric] = int(mask.sum())
            per = max(n_setups if want == SETUP else n_ops, 1)
            if kind == "self":
                v = self_ns[mask].sum() / 1e6 / per
            elif kind == "incl":
                v = dur[mask].sum() / 1e6 / per
            elif kind == "calls":
                v = calls[metric] / per
            elif kind == "amount":
                v = amount[mask].sum() / per
            elif kind == "amount_m":
                v = amount[mask].sum() / 1e6 / per
            elif kind == "amount_kb":
                v = amount[mask].sum() / 1024.0 / per
            elif kind == "max_tape_mb":  # the largest tape of the traced operations
                v = max(self.tape_bytes, default=0) / 2 ** 20
            else:
                raise ValueError(f"unknown reduction {kind!r} for {metric}")
            values[metric] = float(v)
        return values, calls

    def write(self, path: str) -> None:
        """Spans as JSON: name table plus [name, phase, start_ns, end_ns, parent] rows."""
        spans = [[self.name[i], PHASES[self.phase_of[i]], self.start[i], self.end[i], self.parent[i]]
                 for i in range(len(self.start))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": spans}, fh, separators=(",", ":"))


def missing_calls(workload: str, calls: dict) -> list[str]:
    """Metrics that recorded no calls on a workload expected to exercise them."""
    return [m for m, spec in METRICS.items() if workload in spec[3] and calls.get(m, 0) == 0]
