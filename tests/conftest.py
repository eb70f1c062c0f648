"""Test-session setup: one BLAS thread.

A threaded BLAS may sum in an order that depends on the thread count, so
floats near rounding (a ground energy of -2e-15, say) would differ between
machines.  The goldens are generated and compared with one thread.  OpenBLAS
reads the variable when numpy loads it, so this module runs before numpy is
imported: pytest loads it before collecting any test, and
``python tests/test_golden.py`` imports it first.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
