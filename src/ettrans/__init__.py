"""Translate frozen task-model feature sequences into primary-task predictions.

Subpackages:

* ``nn_core``        differentiable primitives with analytic gradients
* ``temporal_align`` FPS resampling, window planning, feature extraction
* ``task_models``    small trainable per-task models (trunk + head), task-kind heads
* ``translator``     projection, token assembly, encoder stack, decoding
* ``synth_tasks``    seeded synthetic multi-task datasets and Bayes ceilings
* ``training``       losses, Adam, the two-stage procedure
* ``metrics``        accuracy, AP, localization error, edit distance
* ``harness``        config files, feature cache, experiment runner
"""

import ctypes
import os

# Keep BLAS single-threaded so runs are reproducible and small matmuls stay
# cheap. This must run before numpy is first imported to take effect.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# Keep freed memory in the heap. Nothing a training step allocates outlives
# the step, so by default glibc returns each step's graph memory to the OS
# and the next step faults it back in. A fixed trim threshold also freezes
# glibc's dynamic mmap threshold at 128 KB, which would turn every large
# extraction array into an mmap/munmap pair, so raise that one too (32 MB is
# glibc's 64-bit maximum). Allocation does not touch the arithmetic. Without
# glibc, the call is skipped or does nothing.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (OSError, AttributeError, TypeError):
    pass
else:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    _mallopt(_M_MMAP_THRESHOLD, 32 << 20)

__version__ = "0.1.0"

from . import (  # noqa: F401
    harness,
    metrics,
    nn_core,
    synth_tasks,
    task_models,
    temporal_align,
    training,
    translator,
)
