import os

# Test modules import numpy before ettrans, so the package's own pin comes
# too late for them: pin BLAS to one thread before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
