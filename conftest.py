"""Pins BLAS to one thread for the test suite, before numpy is first imported.

A second BLAS thread saves no wall time on these small matrices, and on a
shared two-core machine it can slow the acceptance suite past its time
bounds. A value already set in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
