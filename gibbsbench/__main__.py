import os
import sys

# one core per run: no BLAS or OpenMP worker threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from gibbsbench.bench import main  # noqa: E402

sys.exit(main())
