"""Soft-prompt tuning on a frozen mini-transformer, with hierarchical
structured pruning of prompt tokens and pieces, importance scoring through
exact mask gradients, and weight rewinding.

BLAS runs on one thread unless the environment says otherwise: per-seed
stages already run in parallel worker processes, and one thread is the
faster setting at these matrix sizes. The defaults are set here, before
any submodule imports numpy. ``xprompt.cli`` is not imported eagerly, so
``python -m xprompt.cli`` runs it once.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from . import autograd, backbone, checkpoint, harness, optim, prompt, pruning, tasks
from .errors import ConfigError, DataError, ShapeError, StageError, StateError

__all__ = [
    "autograd",
    "backbone",
    "checkpoint",
    "harness",
    "optim",
    "prompt",
    "pruning",
    "tasks",
    "ConfigError",
    "DataError",
    "ShapeError",
    "StageError",
    "StateError",
]
