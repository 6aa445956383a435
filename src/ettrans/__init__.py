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

import os

# Keep BLAS single-threaded so runs are reproducible and small matmuls stay
# cheap. This must run before numpy is first imported to take effect.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

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
