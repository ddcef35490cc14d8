"""Checkpoint formats: plain-text manifests plus raw float64 blobs.

A checkpoint is a directory holding ``manifest.txt`` (key-value lines,
human-inspectable; masks stored inline as 0/1 arrays) and one ``.bin`` file
per matrix (little-endian float64, row-major). Blob hashes live in the
manifest, so corruption and mixed-up files fail loudly; float64 bytes make
round trips bitwise exact. The savers append the caller's provenance lines
(see harness.RunDir) to the manifest; the loaders ignore them.
"""

from __future__ import annotations

import os

import numpy as np

from .backbone import BackboneConfig, FrozenBackbone
from .errors import DataError
from .prompt import PromptBank
from .util import sha256_hex, write_bytes_atomic, write_text_atomic

BACKBONE_FORMAT = "backbone-checkpoint v1"
PROMPT_FORMAT = "prompt-checkpoint v1"
BACKBONE_FIELDS = ("vocab_size", "embed_dim", "layers", "heads", "max_seq_len",
                   "num_classes", "seed")


def _blob_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _write_blob(dirpath: str, name: str, arr: np.ndarray) -> str:
    data = _blob_bytes(arr)
    write_bytes_atomic(os.path.join(dirpath, name + ".bin"), data)
    return sha256_hex(data)


def _read_blob(dirpath: str, name: str, shape: tuple[int, int],
               want_hash: str | None) -> np.ndarray:
    if want_hash is None:
        raise DataError(f"checkpoint manifest in {dirpath} lists no {name} blob")
    path = os.path.join(dirpath, name + ".bin")
    if not os.path.exists(path):
        raise DataError(f"checkpoint blob missing: {path}")
    with open(path, "rb") as fh:
        data = fh.read()
    if sha256_hex(data) != want_hash:
        raise DataError(f"checkpoint blob corrupt (hash mismatch): {path}")
    arr = np.frombuffer(data, dtype="<f8").astype(np.float64)
    if arr.size != shape[0] * shape[1]:
        raise DataError(f"checkpoint blob {path} has {arr.size} values, wanted {shape}")
    return arr.reshape(shape)


def _read_manifest(dirpath: str, fmt: str) -> list[tuple[str, str]]:
    """(key, rest of the line) per entry of a checkpoint manifest of format fmt."""
    path = os.path.join(dirpath, "manifest.txt")
    if not os.path.exists(path):
        raise DataError(f"checkpoint manifest missing: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        entries = [tuple(line.partition(" ")[::2]) for line in fh.read().split("\n")
                   if line and not line.startswith("#")]
    found = dict(entries).get("format")
    if found != fmt:
        raise DataError(f"unrecognized checkpoint format {found!r} in {path}; "
                        f"wanted {fmt!r}")
    return entries


def _field(dirpath: str, fields: dict[str, str], key: str, parse=str):
    try:
        return parse(fields[key])
    except (KeyError, ValueError):
        raise DataError(f"checkpoint manifest in {dirpath}: field {key!r} "
                        f"missing or malformed") from None


def _mask_row(dirpath: str, what: str, text: str | None, width: int) -> list[float]:
    vals = (text or "").split()
    if len(vals) != width or not set(vals) <= {"0", "1"}:
        raise DataError(f"checkpoint manifest in {dirpath}: {what} must hold "
                        f"{width} values of 0 or 1, got {text!r}")
    return [float(v) for v in vals]


# --- backbone -------------------------------------------------------------------


def save_backbone(bb: FrozenBackbone, dirpath: str, provenance=()) -> None:
    os.makedirs(dirpath, exist_ok=True)
    lines = [f"format {BACKBONE_FORMAT}"]
    cfg = bb.cfg
    for k in BACKBONE_FIELDS:
        lines.append(f"{k} {getattr(cfg, k)}")
    lines.append(f"frozen {int(bb.frozen)}")
    for name in sorted(bb.weights):
        arr = bb.weights[name]
        digest = _write_blob(dirpath, name, arr)
        lines.append(f"weight {name} {arr.shape[0]} {arr.shape[1]} {digest}")
    lines.extend(provenance)
    write_text_atomic(os.path.join(dirpath, "manifest.txt"), "\n".join(lines) + "\n")


def load_backbone(dirpath: str) -> FrozenBackbone:
    entries = _read_manifest(dirpath, BACKBONE_FORMAT)
    fields = dict(entries)
    cfg = BackboneConfig(**{k: _field(dirpath, fields, k, int) for k in BACKBONE_FIELDS})
    weights = {}
    for val in [val for key, val in entries if key == "weight"]:
        try:
            name, r, c, digest = val.split(" ")
            shape = (int(r), int(c))
        except ValueError:
            raise DataError(f"checkpoint manifest in {dirpath}: malformed weight "
                            f"line {val!r}") from None
        weights[name] = _read_blob(dirpath, name, shape, digest)
    bb = FrozenBackbone(cfg, weights)
    if _mask_row(dirpath, "frozen", fields.get("frozen"), 1) == [1.0]:
        bb.freeze()
    return bb


# --- prompt bank ------------------------------------------------------------------


def save_prompt(bank, dirpath: str, stage: str, provenance=()) -> None:
    """Persist P_e (and the snapshot, if taken) plus masks as 0/1 text."""
    os.makedirs(dirpath, exist_ok=True)
    m, e = bank.p.shape
    lines = [
        f"format {PROMPT_FORMAT}",
        f"m {m}",
        f"e {e}",
        f"k {bank.k}",
        f"stage {stage}",
        "token_mask " + " ".join(str(int(v)) for v in bank.token_mask),
    ]
    for i in range(m):
        lines.append(f"piece_mask {i} " + " ".join(str(int(v)) for v in bank.piece_mask[i]))
    lines.append(f"blob p_e {_write_blob(dirpath, 'p_e', bank.p)}")
    if bank.snapshot is not None:
        lines.append(f"blob snapshot {_write_blob(dirpath, 'snapshot', bank.snapshot)}")
    lines.extend(provenance)
    write_text_atomic(os.path.join(dirpath, "manifest.txt"), "\n".join(lines) + "\n")


def load_prompt(dirpath: str):
    entries = _read_manifest(dirpath, PROMPT_FORMAT)
    fields = dict(entries)
    m, e, k = (_field(dirpath, fields, key, int) for key in ("m", "e", "k"))
    if min(m, e, k) < 1 or e % k != 0:
        raise DataError(f"checkpoint manifest in {dirpath}: bad geometry m={m}, e={e}, k={k}")
    blobs = dict(val.partition(" ")[::2] for key, val in entries if key == "blob")
    p = _read_blob(dirpath, "p_e", (m, e), blobs.get("p_e"))
    token_mask = np.array(_mask_row(dirpath, "token_mask",
                                    _field(dirpath, fields, "token_mask"), m))
    rows = dict(val.partition(" ")[::2] for key, val in entries if key == "piece_mask")
    piece_mask = np.array([_mask_row(dirpath, f"piece_mask row {i}", rows.get(str(i)), k)
                           for i in range(m)])
    bank = PromptBank(p=p, token_mask=token_mask, piece_mask=piece_mask, k=k)
    if "snapshot" in blobs:
        bank.snapshot = _read_blob(dirpath, "snapshot", (m, e), blobs["snapshot"])
    return bank, _field(dirpath, fields, "stage")
