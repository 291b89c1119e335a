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
import math
import struct
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .errors import FormatError, reading, strict_json
from .geometry import DISTANCE_KINDS, ORTHONORMAL_TOL, on_simplex, orthonormality_residual
from .model import ModelState

MAGIC = b"SUBSPACE-LVQ-MODEL\n"
FORMAT_VERSION = 1
# The header keys save_model writes; a header that holds any other is rejected.
HEADER_KEYS = frozenset({
    "embedding_dim", "subspace_dim", "sigmoid_slope", "distance_kind", "class_labels",
    "prototype_labels", "prototype_shapes", "relevance_len", "hyperparams", "training_log"})

_F64LE = np.dtype("<f8")


def _int(value) -> int:
    """A header integer: a JSON integer, not a float or a boolean."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _number(value) -> float:
    """A header number: a JSON integer or float, not a boolean or a string."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def save_model(state: ModelState, path) -> None:
    """Serialize a model atomically (write to temp file, then rename)."""
    path = Path(path)
    header = {
        "embedding_dim": state.embedding_dim,
        "subspace_dim": state.subspace_dim,
        "sigmoid_slope": state.sigmoid_slope,
        "distance_kind": state.distance_kind,
        "class_labels": state.class_labels,
        "prototype_labels": state.prototype_labels,
        "prototype_shapes": [state.prototypes.shape[1:]] * len(state.prototype_labels),
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
        handle.write(np.ascontiguousarray(state.prototypes, dtype=_F64LE).tobytes())


def load_model(path) -> ModelState:
    """Read a model container written by :func:`save_model`.

    Besides the container layout, the model's invariants are checked: both
    dimensions are positive, the sigmoid slope is finite and positive, every
    prototype is an orthonormal ``(embedding_dim, subspace_dim)`` basis, the
    relevances are ``subspace_dim`` finite values on the simplex, and
    ``class_labels`` is the sorted set of at least two prototype labels.  The header
    holds exactly :data:`HEADER_KEYS`, each value of its JSON type: no string or
    boolean passes for a number.  Any violation raises :class:`FormatError`.
    """
    path = Path(path)
    with reading(path, "model file"):
        blob = path.read_bytes()
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
        header = strict_json(blob[offset: offset + header_len].decode("utf-8"), path)
        offset += header_len

        labels, shapes = header["prototype_labels"], header["prototype_shapes"]
        if unknown := sorted(header.keys() - HEADER_KEYS):
            raise FormatError(f"unknown header key {', '.join(map(repr, unknown))}", path=path)
        dim, d = _int(header["embedding_dim"]), _int(header["subspace_dim"])
        class_labels = header["class_labels"]
        slope, kind = _number(header["sigmoid_slope"]), header["distance_kind"]
        hyperparams = header["hyperparams"]
        if (type(labels), type(class_labels), type(hyperparams)) != (list, list, dict):
            raise TypeError("label lists must be JSON arrays and hyperparams a JSON object")
        training_log = [(_int(e), _number(c), _number(a)) for e, c, a in header["training_log"]]
        if dim < 1 or d < 1:
            raise ValueError(f"dimensions must be positive, got embedding_dim {dim}, "
                             f"subspace_dim {d}")
        if not (math.isfinite(slope) and slope > 0):
            raise ValueError(f"sigmoid_slope must be finite and positive, got {slope}")
        if kind not in DISTANCE_KINDS:
            raise FormatError(f"unknown distance kind {kind!r}", path=path)
        if not all(isinstance(label, str) for label in labels + class_labels):
            raise FormatError("prototype and class labels must be strings", path=path)
        if len(labels) != len(shapes):
            raise FormatError(
                f"header lists {len(labels)} prototype labels but {len(shapes)} shapes",
                path=path)
        for i, shape in enumerate(shapes):
            rows, cols = (_int(n) for n in shape)
            if (rows, cols) != (dim, d):
                raise FormatError(f"prototype {i} has shape {(rows, cols)}, "
                                  f"expected {(dim, d)}", path=path)
        rel_len = _int(header["relevance_len"])
        if rel_len != d:
            raise FormatError(f"relevance_len {rel_len} differs from subspace_dim {d}", path=path)
        relevances = np.frombuffer(blob, dtype=_F64LE, count=d, offset=offset).astype(np.float64)
        offset += d * 8
        stack = np.frombuffer(blob, dtype=_F64LE, count=len(labels) * dim * d,
                              offset=offset).astype(np.float64).reshape(len(labels), dim, d)
        offset += stack.size * 8
    except (struct.error, KeyError, IndexError, TypeError, ValueError, OverflowError,
            RecursionError) as exc:
        raise FormatError(f"truncated or corrupt model file: {exc}", path=path) from exc
    if offset != len(blob):
        raise FormatError(f"{len(blob) - offset} bytes after the last array", path=path)
    if not (np.isfinite(relevances).all() and np.isfinite(stack).all()):
        raise FormatError("non-finite relevance or prototype value", path=path)
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries: inf or NaN residual
        residuals = orthonormality_residual(stack)
    bad = ~(residuals <= ORTHONORMAL_TOL)  # written so that NaN fails too
    if bad.any():
        i = int(np.argmax(bad))
        raise FormatError(f"prototype {i} is not orthonormal (residual {residuals[i]:.3e})",
                          path=path)
    if not on_simplex(relevances):
        raise FormatError("relevances are not on the probability simplex", path=path)
    if len(class_labels) < 2:
        raise FormatError(f"class_labels {class_labels} name fewer than two classes", path=path)
    if class_labels != sorted(set(labels)):
        raise FormatError(f"class_labels {class_labels} are not the sorted prototype labels "
                          f"{sorted(set(labels))}", path=path)
    return ModelState(
        prototypes=stack,
        prototype_labels=tuple(labels),
        relevances=relevances,
        sigmoid_slope=slope,
        distance_kind=kind,
        hyperparams=hyperparams,
        training_log=training_log,
    )


def model_checksum(path) -> str:
    """SHA-256 of a model file, for run manifests."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
