"""The benchmark's workloads: set-up, one timed operation, and its checks.

Each workload object goes through `setup(seed)` (timed as set-up, possibly
several times), `prepare()` (untimed reference values for the checks), then
repeated `before()` / `op()` / `check(result)` rounds, where only `op` is
timed, and `finish()` once at the end. A check raises `CheckFailed`. Checks
compare against computations made here, outside the package, or against
properties the method must have; none compares against stored output.

The package is reached only through public module attributes
(`game.train_step`, `cli.run_oracle`, ...), looked up at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
from scipy.special import expit

from latentjam import cli, data_io, game, nets

K = 2
MNIST_N = 784
BATCH = 128


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def ref_mlp(params, x: np.ndarray) -> np.ndarray:
    """Forward pass of one network, written from the MlpParams layout."""
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w.T + b
        if i < last:
            h = np.maximum(h, 0.0) if params.hidden_activation == "relu" else np.tanh(h)
    if params.skip is not None:
        h = h + x @ params.skip.T
    return expit(h) if params.output_activation == "sigmoid" else h


def ref_evaluation(networks, d: np.ndarray, target_power: float) -> dict:
    """data_mse and mean_power of r(power-normalized f(d)), eval-batch statistics."""
    raw = ref_mlp(networks.f, d)
    centered = raw - raw.mean(axis=0)
    var = (centered * centered).mean(axis=0)
    z = centered * np.sqrt(target_power) / np.sqrt(var + nets.POWER_EPS)
    diff = d - ref_mlp(networks.r, z)
    return {"data_mse": float(np.mean(diff * diff)),
            # the variance of each normalized column is P * var / (var + eps)
            "mean_power": float(target_power * np.mean(var / (var + nets.POWER_EPS)))}


def require_close(value: float, expected: float, rel: float, what: str) -> None:
    require(abs(value - expected) <= rel * abs(expected),
            f"{what} = {value!r}, expected {expected!r} within {rel:g} relative")


def require_shape_stats(report, what: str) -> None:
    require(0.0 <= report.dpc <= 1.0, f"{what}: dpc {report.dpc} outside [0, 1]")
    ks = np.asarray(report.per_dim_ks_stat)
    require(np.all((ks >= 0.0) & (ks <= 1.0)), f"{what}: KS statistics {ks} outside [0, 1]")


def require_evaluation(report, expected: dict, P_a: float, what: str) -> None:
    """An evaluation of a power-normalized latent against `ref_evaluation`."""
    require_close(report.data_mse, expected["data_mse"], 1e-9, f"{what}: data_mse")
    require_close(report.mean_power, expected["mean_power"], 1e-9, f"{what}: mean_power")
    require(0.9 * P_a <= report.mean_power <= P_a,
            f"{what}: mean_power {report.mean_power} is not close to P_a={P_a}")
    require(report.mean_norm <= 1e-6, f"{what}: mean_norm {report.mean_norm}")
    require_shape_stats(report, what)


def all_arrays(networks):
    for name, params in networks.present().items():
        for pname in params.array_names():
            yield f"{name}.{pname}", params.array(pname)


class Workload:
    """Writes its artifacts under `out_dir`; `before` and `finish` do nothing by default."""

    name = ""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def before(self) -> None:
        pass

    def finish(self) -> None:
        pass


class TrainMnistAj(Workload):
    """aj train_step calls at the paper's MNIST shape on synthetic rows.

    One operation is one `data_io.batches` draw plus one `game.train_step`.
    """

    name = "train-mnist-aj"
    TRAIN_ROWS = 6400   # 50 batches per epoch
    EVAL_ROWS = 2000

    def setup(self, seed: int) -> None:
        rows = data_io.synth_source("mixture", self.TRAIN_ROWS + self.EVAL_ROWS, MNIST_N, seed)
        self.train_rows = data_io.Dataset(rows.images[:self.TRAIN_ROWS], dict(rows.metadata))
        self.eval_rows = rows.images[self.TRAIN_ROWS:]
        self.config = game.GameConfig(k=K, n=MNIST_N, batch_size=BATCH, seed=seed,
                                      data_hidden=512, jscc_hidden=64)
        self.state = game.init_state(self.config)
        self.plan = data_io.BatchPlan(BATCH, seed)
        self.epoch = 0
        self.batches = iter(())  # the first operation opens epoch 1
        self.steps = 0

    def prepare(self) -> None:
        expected = ref_evaluation(self.state.networks, self.eval_rows, self.config.P_a)
        report = game.evaluate(self.state, self.config, self.eval_rows, 0)
        require_evaluation(report, expected, self.config.P_a, "evaluation at initialization")
        self.initial_mse = expected["data_mse"]

    def before(self) -> None:
        self.snapshot = {key: arr.copy() for key, arr in all_arrays(self.state.networks)}

    def op(self):
        try:
            d_batch = next(self.batches)
        except StopIteration:
            self.epoch += 1
            self.batches = data_io.batches(self.train_rows, self.plan, self.epoch)
            d_batch = next(self.batches)
        return game.train_step(self.state, d_batch, self.config)

    def check(self, state) -> None:
        self.steps += 1
        for key, arr in all_arrays(state.networks):
            require(np.all(np.isfinite(arr)), f"{key} is not finite after step {self.steps}")
        for net in ("f", "r", "g", "h"):
            moved = any(not np.array_equal(arr, self.snapshot[key])
                        for key, arr in all_arrays(state.networks) if key.startswith(net + "."))
            require(moved, f"network {net} did not move in step {self.steps}")
        per_step = {"f": 1, "r": 1, "g": self.config.jscc_steps_per_data_step,
                    "h": self.config.jscc_steps_per_data_step}
        for net, count in per_step.items():
            require(state.opt[net].step_count == self.steps * count,
                    f"Adam step count of {net} is {state.opt[net].step_count}, "
                    f"expected {self.steps * count}")

    def finish(self) -> None:
        report = game.evaluate(self.state, self.config, self.eval_rows, self.epoch)
        expected = ref_evaluation(self.state.networks, self.eval_rows, self.config.P_a)
        require_evaluation(report, expected, self.config.P_a, "evaluation after training")
        require(report.data_mse < self.initial_mse,
                f"data_mse {report.data_mse} did not fall below its initial {self.initial_mse}")


class Comparison(Workload):
    """aj, kl, mmd and none side by side, as in demos/baseline_comparison.py:
    four `game.train` runs, each followed by a checkpoint save and load.
    """

    REGULARIZERS = ("aj", "kl", "mmd", "none")
    ROWS = 2560
    N = 8
    EPOCHS = 5
    # data_mse ends below the untrained model's for these two on every seed tried; aj's
    # rises above it on some seeds and kl's, near posterior collapse, on a few (CHANGES.md),
    # so aj and kl are held to the other checks only.
    BELOW_UNTRAINED = ("mmd", "none")

    def setup(self, seed: int) -> None:
        self.data = data_io.synth_source("mixture", self.ROWS, self.N, seed)
        self.configs = {
            reg: game.GameConfig(k=K, n=self.N, epochs=self.EPOCHS, batch_size=BATCH, seed=seed,
                                 regularizer=reg, data_hidden=64, jscc_hidden=64,
                                 jscc_steps_per_data_step=2)
            for reg in self.REGULARIZERS}
        self.initial = {reg: game.init_state(cfg) for reg, cfg in self.configs.items()}

    def prepare(self) -> None:
        self.eval_rows = game.split_eval(self.data, None)[1]
        self.untrained = {reg: game.evaluate(self.initial[reg], cfg, self.eval_rows, 0).data_mse
                          for reg, cfg in self.configs.items()}
        self.reference = None

    def op(self):
        out = {}
        for reg, cfg in self.configs.items():
            state = game.train(cfg, self.data)
            path = os.path.join(self.out_dir, f"compare-{reg}.bin")
            cli.save_checkpoint(path, state)
            out[reg] = (state, cli.load_checkpoint(path))
        return out

    def check(self, out) -> None:
        digest = hashlib.sha256()
        for reg, (state, loaded) in out.items():
            present = state.networks.present()
            require(sorted(loaded) == sorted(present), f"{reg}: checkpoint holds {sorted(loaded)}")
            for name, params in present.items():
                back = loaded[name]
                require(back.layer_dims == params.layer_dims, f"{reg}.{name}: layer dims changed")
                for pname in params.array_names():
                    a, b = params.array(pname), back.array(pname)
                    require(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(),
                            f"{reg}.{name}.{pname} differs after a checkpoint round-trip")
                    digest.update(a.tobytes())
            report = state.history[-1]
            digest.update(report.to_csv_row().encode())
            require(len(state.history) == self.EPOCHS, f"{reg}: {len(state.history)} evaluations")
            require((report.jscc_mse is not None) == (reg == "aj"), f"{reg}: jscc_mse {report.jscc_mse}")
            if reg in self.BELOW_UNTRAINED:
                require(report.data_mse < self.untrained[reg],
                        f"{reg}: data_mse {report.data_mse} not below untrained {self.untrained[reg]}")
            if reg == "kl":  # the variational latent is sampled, not power-normalized
                require_shape_stats(report, reg)
            else:
                P_a = self.configs[reg].P_a
                require_evaluation(report, ref_evaluation(state.networks, self.eval_rows, P_a), P_a, reg)
        fingerprint = digest.hexdigest()
        if self.reference is None:
            self.reference = fingerprint
        require(fingerprint == self.reference, "comparison did not reproduce the first one bit for bit")


class OracleSuite(Workload):
    """One `latentjam oracle` suite at its default sample counts and seed,
    plus one `evaluate` of 10k MNIST-shape rows through untrained networks.
    """

    EVAL_ROWS = 10_000
    SPEC = {"sigma_x_sq": 1.0, "P_t": 1.0, "P_a": 1.0, "sigma_n_sq": 0.0, "k": K}
    NUMPY_SAMPLES = 1_000_000
    NUMPY_SEED = 0

    def setup(self, seed: int) -> None:
        self.eval_rows = data_io.synth_source("mixture", self.EVAL_ROWS, MNIST_N, seed).images
        self.config = game.GameConfig(k=K, n=MNIST_N, batch_size=BATCH, seed=seed,
                                      data_hidden=512, jscc_hidden=64)
        self.state = game.init_state(self.config)
        self.report_dir = os.path.join(self.out_dir, "oracle")
        os.makedirs(self.report_dir, exist_ok=True)
        self.config_path = os.path.join(self.report_dir, "oracle.cfg")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            for key, value in self.SPEC.items():
                fh.write(f"oracle.{key} = {value}\n")
            fh.write(f"run.output_dir = {self.report_dir}\n")

    def prepare(self) -> None:
        s = self.SPEC
        self.d_star = s["sigma_x_sq"] * (s["sigma_n_sq"] + s["P_a"]) / (s["P_t"] + s["sigma_n_sq"] + s["P_a"])
        # the saddle game value and the standard error of a 10^6-sample estimate of
        # it, from numpy's generator; the suite's seed is fixed, so is this one
        gen = np.random.default_rng(self.NUMPY_SEED)
        m = self.NUMPY_SAMPLES
        x = np.sqrt(s["sigma_x_sq"]) * gen.standard_normal(m)
        noise = np.sqrt(s["sigma_n_sq"]) * gen.standard_normal(m) + np.sqrt(s["P_a"]) * gen.standard_normal(m)
        alpha = np.sqrt(s["P_t"] / s["sigma_x_sq"])
        gamma = alpha * s["sigma_x_sq"] / (s["P_t"] + s["sigma_n_sq"] + s["P_a"])
        sq = (x - gamma * (alpha * x + noise)) ** 2
        self.numpy_se = float(sq.std() / np.sqrt(m))
        require(abs(float(sq.mean()) - self.d_star) <= 4.0 * self.numpy_se,
                f"numpy game value {sq.mean()} +- {self.numpy_se} disagrees with D* = {self.d_star}")
        self.expected = ref_evaluation(self.state.networks, self.eval_rows, self.config.P_a)

    def before(self) -> None:
        path = os.path.join(self.report_dir, "oracle-report.csv")
        if os.path.exists(path):
            os.remove(path)

    def op(self):
        code = cli.run_oracle(self.config_path)
        report = game.evaluate(self.state, self.config, self.eval_rows, 0)
        return code, report

    def check(self, out) -> None:
        code, report = out
        require(code == 0, f"oracle suite exit code {code}")
        with open(os.path.join(self.report_dir, "oracle-report.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        require(lines[0] == "check_name,value,threshold,pass", f"report header {lines[0]!r}")
        rows = {}
        for line in lines[1:]:
            name, value, _threshold, verdict = line.split(",")
            require(verdict == "pass", f"oracle row {name} = {verdict}")
            rows[name] = float(value)
        require(len(rows) == 7, f"oracle report has {len(rows)} rows")
        require_close(rows["D_star"], self.d_star, 1e-5, "D_star")
        # the suite's own 10^6-sample game value, |mc - D*| / D*, within 4 numpy standard errors
        require(rows["saddle_mc_rel_err"] <= 4.0 * self.numpy_se / self.d_star,
                f"saddle_mc_rel_err {rows['saddle_mc_rel_err']} exceeds 4 standard errors "
                f"({4.0 * self.numpy_se / self.d_star:.6g})")
        require(rows["matching_gaussian"] <= 0.02 < 0.05 <= rows["matching_uniform"],
                f"matching residuals {rows['matching_gaussian']}, {rows['matching_uniform']}")
        require_evaluation(report, self.expected, self.config.P_a, "evaluate")


class CompareOracle(Workload):
    """One operation is a `Comparison` followed by an `OracleSuite`.

    Timed apart, each part's median time followed this machine's
    minute-scale speed swings so closely that its spread between runs
    reached the op_ms bound; timed together, in longer runs, they stay well
    inside it (bench/README.md).
    """

    name = "compare-oracle"

    def __init__(self, out_dir: str):
        super().__init__(out_dir)
        self.parts = (Comparison(out_dir), OracleSuite(out_dir))

    def setup(self, seed: int) -> None:
        for part in self.parts:
            part.setup(seed)

    def prepare(self) -> None:
        for part in self.parts:
            part.prepare()

    def before(self) -> None:
        for part in self.parts:
            part.before()

    def op(self):
        return [part.op() for part in self.parts]

    def check(self, out) -> None:
        for part, result in zip(self.parts, out):
            part.check(result)


WORKLOADS = {cls.name: cls for cls in (TrainMnistAj, CompareOracle)}
