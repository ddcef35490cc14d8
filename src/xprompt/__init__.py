"""Soft-prompt tuning on a frozen mini-transformer, with hierarchical
structured pruning of prompt tokens and pieces, importance scoring through
exact mask gradients, and weight rewinding.

BLAS runs on one thread unless the environment says otherwise: per-seed
stages already run in parallel worker processes, and one thread is the
faster setting at these matrix sizes. The defaults are set here, before
any submodule imports numpy. ``xprompt.cli`` is not imported eagerly, so
``python -m xprompt.cli`` runs it once.

Freed memory stays in the process. Every training step, scoring batch and
evaluation pack builds a graph of arrays of a few hundred KB and frees it
before the next one is built. Under glibc's defaults those arrays come from
mmap or from the top of the heap, which free gives back to the kernel, so
the next step page-faults the same memory in again (about 140 minor faults
for two 45,000-element arrays). On glibc, importing this package therefore
calls ``mallopt`` once: ``M_MMAP_THRESHOLD`` goes to 32 MiB and
``M_TRIM_THRESHOLD`` to 256 MiB, so freed graphs serve the next step. The
setting is process state, which forked workers inherit. It is left alone
when the environment sets ``MALLOC_MMAP_THRESHOLD_``,
``MALLOC_TRIM_THRESHOLD_`` or ``GLIBC_TUNABLES`` (glibc then applies the
user's values), and where the C library has no ``mallopt``.
"""

import ctypes
import os

from .util import BLAS_THREAD_VARS

for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var

# glibc's mallopt parameters and the values set for them
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")


def _keep_freed_memory() -> None:
    if any(var in os.environ for var in _MALLOC_VARS):
        return
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):  # not glibc, or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_memory()

from . import autograd, backbone, checkpoint, harness, optim, prompt, pruning, tasks

__all__ = [
    "autograd",
    "backbone",
    "checkpoint",
    "harness",
    "optim",
    "prompt",
    "pruning",
    "tasks",
]
