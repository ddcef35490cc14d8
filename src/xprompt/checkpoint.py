"""Fragments: a plain-text manifest that commits float64 blobs and text files.

A fragment directory holds its files and ``manifest.txt``: key-value lines
(masks inline as 0/1), the caller's provenance (see harness.RunDir), ``file
<name> <sha256>`` per file (a ``.bin`` is little-endian row-major float64, so
round trips are bitwise exact) and last ``digest <sha256>`` of the lines above.
Written last and removed before a rebuild, the manifest commits the fragment,
and the savers return its Fragment. read_manifest, the one reader, reads each
file once and checks every digest; the loaders parse its Fragment and read nothing.
A backbone's manifest holds its config fields and a blob per weight: it loads frozen,
laid out by backbone._weight_shapes of the caller's config, which its fields must equal.
"""
from __future__ import annotations

import os
from dataclasses import asdict, dataclass

import numpy as np

from .backbone import BackboneConfig, FrozenBackbone, _weight_shapes
from .errors import DataError
from .prompt import PromptBank
from .util import read_fragment, sha256_hex, write_bytes_atomic

BACKBONE_FORMAT = "backbone-checkpoint v1"
PROMPT_FORMAT = "prompt-checkpoint v1"


@dataclass(frozen=True)
class Fragment:
    """A fragment as read_manifest checked it, or as _write_manifest committed it."""
    path: str  # its directory
    entries: list[tuple[str, str]]  # (key, rest of the line) per manifest line
    files: dict  # the listed files by name, bytes for a .bin, else text; {} as written
    digest: str  # the sha256 of the manifest's bytes


def _write_manifest(dirpath: str, lines: list[str], files: dict) -> Fragment:
    """Write files into dirpath, a .bin from its array and the rest from text, then
    the manifest: lines, a file line each and the digest; return its Fragment, no files."""
    os.makedirs(dirpath, exist_ok=True)
    path = os.path.join(dirpath, "manifest.txt")
    if os.path.exists(path):
        os.remove(path)
    for name, value in files.items():
        data = (np.ascontiguousarray(value, dtype="<f8").tobytes() if name.endswith(".bin")
                else value.encode("utf-8"))
        write_bytes_atomic(os.path.join(dirpath, name), data)
        lines = [*lines, f"file {name} {sha256_hex(data)}"]
    body = "".join(line + "\n" for line in lines)
    data = f"{body}digest {sha256_hex(body.encode('utf-8'))}\n".encode("utf-8")
    write_bytes_atomic(path, data)
    return Fragment(dirpath, [tuple(ln.partition(" ")[::2]) for ln in lines], {}, sha256_hex(data))


def _read(path: str, what: str) -> tuple[str, bytes | str]:
    """The sha256 of the bytes of path, and the bytes of a .bin or else their text."""
    data = read_fragment(path, what)
    try:
        return sha256_hex(data), data if path.endswith(".bin") else data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} {path} is not UTF-8 ({exc})") from None


def read_manifest(dirpath: str, fmt: str) -> Fragment:
    """The fragment of format fmt in dirpath, each file read once; any byte
    changed since the save is a DataError."""
    path = os.path.join(dirpath, "manifest.txt")
    digest, text = _read(path, "checkpoint manifest")
    body = text[:text.rfind("\n", 0, len(text) - 1) + 1]
    if text != f"{body}digest {sha256_hex(body.encode('utf-8'))}\n":
        raise DataError(f"checkpoint manifest {path} does not match its digest line: it was "
                        "changed, or comes from an older xprompt; remove the fragment or "
                        "rebuild it without --resume")
    entries = [tuple(line.partition(" ")[::2]) for line in body.splitlines()]
    if (found := dict(entries).get("format")) != fmt:
        raise DataError(f"unrecognized checkpoint format {found!r} in {path}; "
                        f"wanted {fmt!r}")
    files = {}
    for name, _, want in (val.partition(" ") for key, val in entries if key == "file"):
        file_path = os.path.join(dirpath, name)
        got, files[name] = _read(file_path, "checkpoint file")
        if got != want:
            raise DataError(f"checkpoint file {file_path} does not match its manifest digest")
    return Fragment(dirpath, entries, files, digest)


def _read_blob(dirpath: str, name: str, shape: tuple[int, int], files: dict) -> np.ndarray:
    data = files.get(name + ".bin", b"")
    if len(data) != 8 * shape[0] * shape[1]:
        raise DataError(f"checkpoint manifest in {dirpath} lists no {name}.bin of "
                        f"{shape} float64 values")
    return np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(shape)


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


def save_backbone(bb: FrozenBackbone, dirpath: str, provenance=()) -> Fragment:
    """Persist bb's config fields and a blob per weight, the layout its config gives."""
    lines = [f"format {BACKBONE_FORMAT}", *(f"{k} {v}" for k, v in asdict(bb.cfg).items())]
    return _write_manifest(dirpath, [*lines, *provenance],
                           {f"{name}.bin": arr for name, arr in sorted(bb.weights.items())})


def load_backbone(frag: Fragment, cfg: BackboneConfig) -> FrozenBackbone:
    """The saved backbone of config cfg, frozen; a DataError unless the manifest's config
    fields are cfg's. Each weight _weight_shapes(cfg) names is read at that shape."""
    fields = dict(frag.entries)
    for key, want in asdict(cfg).items():
        if (got := _field(frag.path, fields, key, int)) != want:
            raise DataError(f"checkpoint manifest in {frag.path}: {key} {got} does not "
                            f"match the backbone config's {want}")
    bb = FrozenBackbone(cfg, {name: _read_blob(frag.path, name, shape, frag.files)
                              for name, shape in sorted(_weight_shapes(cfg).items())})
    bb.freeze()
    return bb


# --- prompt bank ------------------------------------------------------------------


def save_prompt(bank: PromptBank, dirpath: str, provenance=(),
                files: dict[str, str] | None = None) -> Fragment:
    """Persist P_e as a blob, the masks as 0/1 text, and the caller's text
    files by name."""
    m, e = bank.p.shape
    lines = [
        f"format {PROMPT_FORMAT}",
        f"m {m}",
        f"e {e}",
        f"k {bank.k}",
        "token_mask " + " ".join(str(int(v)) for v in bank.token_mask),
    ]
    for i in range(m):
        lines.append(f"piece_mask {i} " + " ".join(str(int(v)) for v in bank.piece_mask[i]))
    return _write_manifest(dirpath, [*lines, *provenance],
                           {"p_e.bin": bank.p, **(files or {})})


def load_prompt(frag: Fragment) -> PromptBank:
    """The saved bank; lines it does not know, such as provenance, are ignored."""
    dirpath, entries, files, fields = frag.path, frag.entries, frag.files, dict(frag.entries)
    m, e, k = (_field(dirpath, fields, key, int) for key in ("m", "e", "k"))
    if min(m, e, k) < 1 or e % k != 0:
        raise DataError(f"checkpoint manifest in {dirpath}: bad geometry m={m}, e={e}, k={k}")
    p = _read_blob(dirpath, "p_e", (m, e), files)
    token_mask = np.array(_mask_row(dirpath, "token_mask",
                                    _field(dirpath, fields, "token_mask"), m))
    rows = dict(val.partition(" ")[::2] for key, val in entries if key == "piece_mask")
    piece_mask = np.array([_mask_row(dirpath, f"piece_mask row {i}", rows.get(str(i)), k)
                           for i in range(m)])
    return PromptBank(p=p, token_mask=token_mask, piece_mask=piece_mask, k=k)
