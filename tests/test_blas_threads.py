"""The suite runs with one BLAS thread, pinned by conftest.py."""

import os

import conftest


def test_conftest_ran_before_numpy_was_imported():
    # Set after numpy's import, the variables would not reach its BLAS.
    assert not conftest.NUMPY_IMPORTED_FIRST


def test_blas_thread_variables_are_set():
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ.get(variable), variable
