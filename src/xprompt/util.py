"""Small deterministic helpers: seed derivation, hashing, file reads and
atomic file writes."""

from __future__ import annotations

import contextlib
import hashlib
import os

from .errors import DataError, StageError

# environment variables that set the BLAS thread count (OpenBLAS, OpenMP, MKL)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def stable_seed(*parts: object) -> int:
    """Derive a 63-bit seed from a tuple of labels.

    Independent streams (per stage, per epoch, per grid cell) are keyed by
    name instead of drawn from one sequential RNG, so resuming a run does not
    shift any stream.
    """
    text = "/".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_fragment(path: str, what: str) -> bytes:
    """The bytes of a file the program wrote earlier; a DataError naming it as what."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror or exc}") from None


def write_text_atomic(path: str, text: str) -> None:
    write_bytes_atomic(path, text.encode("utf-8"))


def write_bytes_atomic(path: str, data: bytes) -> None:
    """Write via a temp file + rename so readers never see a partial file. On an
    OSError, remove the temp file if this call opened it and raise a StageError."""
    tmp, opened = path + ".tmp", False
    try:
        with open(tmp, "wb") as fh:
            opened = True
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        if opened:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise StageError(f"cannot write {path}: {exc.strerror or exc}") from None
