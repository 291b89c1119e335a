"""Versioned binary model container.

Layout: magic string, u32 format version, u64 header length, UTF-8 JSON
header (dimensions, slope, distance kind, labels, hyperparameters, training
log, array shapes), then the relevance vector and each prototype matrix as
row-major little-endian float64, and nothing after them.  Loading
reproduces scores bit-exactly.  Writes go to a fsynced temporary file
followed by an atomic rename, so an interrupted save never leaves a corrupt
model behind.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .errors import FormatError
from .model import ModelState, Prototype

MAGIC = b"SUBSPACE-LVQ-MODEL\n"
FORMAT_VERSION = 1

_F64LE = np.dtype("<f8")


def save_model(state: ModelState, path) -> None:
    """Serialize a model atomically (write to temp file, then rename)."""
    path = Path(path)
    header = {
        "embedding_dim": state.embedding_dim,
        "subspace_dim": state.subspace_dim,
        "sigmoid_slope": state.sigmoid_slope,
        "distance_kind": state.distance_kind,
        "class_labels": state.class_labels,
        "prototype_labels": [p.label for p in state.prototypes],
        "prototype_shapes": [list(p.basis.shape) for p in state.prototypes],
        "relevance_len": int(state.relevances.size),
        "hyperparams": state.hyperparams,
        "training_log": [[int(e), c, a] for e, c, a in state.training_log],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path) as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<I", FORMAT_VERSION))
        handle.write(struct.pack("<Q", len(header_bytes)))
        handle.write(header_bytes)
        handle.write(np.ascontiguousarray(state.relevances, dtype=_F64LE).tobytes())
        for proto in state.prototypes:
            handle.write(np.ascontiguousarray(proto.basis, dtype=_F64LE).tobytes())


def load_model(path) -> ModelState:
    """Read a model container written by :func:`save_model`."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read model file: {exc}", path=path) from exc
    if not blob.startswith(MAGIC):
        raise FormatError("not a model file (bad magic string)", path=path)
    offset = len(MAGIC)
    try:
        (version,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported model format version {version}", path=path)
        (header_len,) = struct.unpack_from("<Q", blob, offset)
        offset += 8
        header = json.loads(blob[offset: offset + header_len].decode("utf-8"))
        offset += header_len

        labels, shapes = header["prototype_labels"], header["prototype_shapes"]
        if len(labels) != len(shapes):
            raise FormatError(
                f"header lists {len(labels)} prototype labels but {len(shapes)} shapes",
                path=path)
        rel_len = int(header["relevance_len"])
        relevances = np.frombuffer(blob, dtype=_F64LE, count=rel_len, offset=offset).astype(
            np.float64
        )
        offset += rel_len * 8
        prototypes = []
        for label, shape in zip(labels, shapes):
            rows, cols = int(shape[0]), int(shape[1])
            flat = np.frombuffer(blob, dtype=_F64LE, count=rows * cols, offset=offset)
            offset += rows * cols * 8
            prototypes.append(Prototype(basis=flat.astype(np.float64).reshape(rows, cols), label=label))
    except (struct.error, KeyError, IndexError, TypeError, ValueError) as exc:
        raise FormatError(f"truncated or corrupt model file: {exc}", path=path) from exc
    if offset != len(blob):
        raise FormatError(f"{len(blob) - offset} bytes after the last array", path=path)
    if not (np.isfinite(relevances).all() and all(np.isfinite(p.basis).all() for p in prototypes)):
        raise FormatError("non-finite relevance or prototype value", path=path)
    return ModelState(
        prototypes=prototypes,
        relevances=relevances,
        embedding_dim=int(header["embedding_dim"]),
        subspace_dim=int(header["subspace_dim"]),
        sigmoid_slope=float(header["sigmoid_slope"]),
        distance_kind=header["distance_kind"],
        class_labels=list(header["class_labels"]),
        hyperparams=dict(header["hyperparams"]),
        training_log=[(int(e), float(c), float(a)) for e, c, a in header["training_log"]],
    )


def model_checksum(path) -> str:
    """SHA-256 of a model file, for run manifests."""
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()
