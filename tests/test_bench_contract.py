"""The benchmark's workloads run against the package as it is.

`bench/workloads.py` reads parameters through `MlpParams.weights`,
`.biases`, `.skip`, `array_names()` and `array()`, Adam step counts through
`TrainState.opt[net].step_count`, and checkpoints through `cli`; its
checks raise `CheckFailed`. Driving each workload through its protocol
here (set-up, prepare, then before/op/check rounds) makes a change to any
of those surface as a test failure instead of a failed benchmark check.
The module is loaded from its file, unchanged.

`bench/spans.py` wraps package functions where their callers look them up;
a renamed or bypassed binding would leave its metric without calls, so one
traced operation checks the training path's metrics here.
"""

import importlib.util
import os

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads():
    return _bench_module("workloads")


def test_train_mnist_aj_workload_passes_its_checks(tmp_path):
    work = _workloads().TrainMnistAj(str(tmp_path))
    work.setup(0)
    work.prepare()
    for _ in range(2):
        work.before()
        work.check(work.op())
    assert work.steps == 2


def test_comparison_workload_passes_its_checks(tmp_path):
    work = _workloads().Comparison(str(tmp_path))
    work.setup(0)
    work.prepare()
    work.before()
    work.check(work.op())
    assert sorted(os.listdir(tmp_path)) == sorted(f"compare-{reg}.bin" for reg in work.REGULARIZERS)


def test_oracle_suite_workload_passes_its_checks(tmp_path):
    # its checks read `cli.run_oracle`'s report: seven rows, every one a pass
    work = _workloads().OracleSuite(str(tmp_path))
    work.setup(0)
    work.prepare()
    work.before()
    work.check(work.op())


def test_tracer_sees_the_training_path(tmp_path):
    spans = _bench_module("spans")
    work = _workloads().TrainMnistAj(str(tmp_path))
    work.setup(0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.phase = spans.OP
        work.before()
        work.check(work.op())
    finally:
        tracer.phase = spans.OFF
        tracer.uninstall()
    values, calls = tracer.per_layer(1, 1)
    for metric in ("autodiff.adam_ms", "autodiff.backward_ms", "nets.power_normalize_ms"):
        assert calls[metric] > 0, metric
    # one phase-(a) tape and phase (b)'s: 66 nodes at this shape, each squared error one node
    assert 0 < values["autodiff.tape_nodes"] <= 66
