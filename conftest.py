"""Pin BLAS to one thread for the whole test suite, as perfbench/run.py does.

The last bits of the n x p by p x p products and of dense eigensolves depend
on the BLAS thread count, so tests that compare exact figures (the README's
CLI line among them) hold on every machine only with the count fixed. The
variables must be set before NumPy loads its BLAS.
"""

import os
import sys

assert "numpy" not in sys.modules, "NumPy was imported before the BLAS thread count was pinned"

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
