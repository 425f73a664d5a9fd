"""Pin the test process to one BLAS thread before anything imports NumPy.

On matrices of a few hundred columns a second OpenBLAS thread costs more
than it saves, and on a busy host it waits for a core: the suite then runs
many times slower.  ``bench/run.py`` and ``tools/compare_runs.py`` pin one
thread for the same reason.  This file sits at the repository root because
the suite collects ``bench/test_benchmark.py``, which imports NumPy,
before ``tests/conftest.py`` loads.  A variable already set is kept, and a
test that needs other counts sets them for its own subprocesses.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
