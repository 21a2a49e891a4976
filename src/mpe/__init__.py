"""Multiple-premise entailment toolkit: data pipeline, voting baselines, neural models."""

import os
import sys

# One BLAS thread, set before numpy loads its BLAS: a multi-threaded product
# can sum in another order, and trained weights would then depend on the
# thread count.
if "numpy" not in sys.modules:
    os.environ.update(
        dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    )

__version__ = "0.1.0"
