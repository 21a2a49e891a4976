"""The suite and the program run with one BLAS thread: conftest.py pins it
for the suite, the `mpe` package for any process that imports it first."""

import hashlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import conftest
from test_perfbench_hooks import PINNED_TRAINED, perfbench_path  # noqa: F401

SRC = Path(__file__).resolve().parent.parent / "src"


def test_conftest_ran_before_numpy_was_imported():
    # Set after numpy's import, the variables would not reach its BLAS.
    assert not conftest.NUMPY_IMPORTED_FIRST


def test_blas_thread_variables_are_set():
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ.get(variable), variable


def test_package_pins_one_thread_over_the_environment(perfbench_path, tmp_path):
    """`python -m mpe` imports the package before numpy, so a BLAS thread
    count set in the environment does not reach the trained bytes."""
    workloads = importlib.import_module("workloads")
    inputs = importlib.import_module("inputs")
    sizes, _ = workloads.WORKLOADS["train-mpe"]
    files = inputs.write_inputs(41, sizes, tmp_path)
    out = tmp_path / "model.ckpt"
    argv = ["train", "--preset", "lstm-mpe", "--items", str(files.train),
            "--dev", str(files.dev), "--epochs", str(sizes.epochs),
            "--batch-size", str(sizes.batch_size), "--out", str(out)]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2",
           "MKL_NUM_THREADS": "2", "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-m", "mpe", *argv], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_TRAINED["lstm-mpe"]
