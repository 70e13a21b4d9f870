"""The benchmark's workloads run against the package as it is.

`bench/workloads.py` reads parameters through `MlpParams.weights`,
`.biases`, `.skip`, `array_names()` and `array()`, Adam step counts through
`TrainState.opt[net].step_count`, and checkpoints through `cli`; its
checks raise `CheckFailed`. Driving each workload through its protocol
here (set-up, prepare, then before/op/check rounds) makes a change to any
of those surface as a test failure instead of a failed benchmark check.
The module is loaded from its file, unchanged.
"""

import importlib.util
import os

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  os.path.join(BENCH_DIR, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
