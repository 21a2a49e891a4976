"""Pins BLAS to one thread for the whole suite, before numpy is first
imported: batched products are where the thread count could change the bits
that the determinism tests compare. A value already set in the environment
is kept."""

import os
import sys

NUMPY_IMPORTED_FIRST = "numpy" in sys.modules

for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(variable, "1")
