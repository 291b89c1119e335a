"""Subspace geometry primitives.

Principal angles between subspaces, the relevance-weighted chordal and
geodesic distances built on them, their gradients, and the two constraint
operations used during training: QR retraction onto orthonormal bases and
Euclidean projection onto the probability simplex.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NotOrthonormalError, NumericError

CHORDAL = "chordal"
GEODESIC = "geodesic"
DISTANCE_KINDS = (CHORDAL, GEODESIC)

# arccos(0)**2 * 4/pi**2 == 1, so both distance kinds share the range [0, 1].
_GEODESIC_SCALE = 4.0 / np.pi**2

ORTHONORMAL_TOL = 1e-6
SIMPLEX_TOL = 1e-12


def on_simplex(weights: np.ndarray) -> bool:
    """Whether every weight is >= 0 and the weights sum to 1 within SIMPLEX_TOL.

    Written as "inside" tests, so a NaN weight or sum fails.
    """
    return bool(np.all(weights >= 0)) and abs(float(weights.sum()) - 1.0) <= SIMPLEX_TOL


def orthonormality_residual(basis: np.ndarray) -> float | np.ndarray:
    """Frobenius norm of B^T B - I; one norm per matrix of a ``(..., D, k)`` stack."""
    k = basis.shape[-1]
    res = np.linalg.norm(np.swapaxes(basis, -1, -2) @ basis - np.eye(k), axis=(-2, -1))
    return float(res) if basis.ndim == 2 else res


def check_orthonormal(basis, name="basis"):
    if basis.ndim != 2:
        raise NotOrthonormalError(f"{name} must be a 2-d matrix, got ndim={basis.ndim}")
    res = orthonormality_residual(basis)
    if not res <= ORTHONORMAL_TOL:  # written so that NaN fails too
        raise NotOrthonormalError(
            f"{name} is not orthonormal: residual {res:.3e} exceeds {ORTHONORMAL_TOL:.1e}"
        )


def sign_normalize_columns(basis: np.ndarray) -> np.ndarray:
    """Flip column signs so the largest-magnitude entry of each is positive.

    Makes SVD/QR outputs deterministic across linear-algebra backends.
    Zero columns are left untouched.
    """
    idx = np.argmax(np.abs(basis), axis=0)
    signs = np.sign(basis[idx, np.arange(basis.shape[1])])
    signs[signs == 0] = 1.0
    return basis * signs


class PrincipalAngles(NamedTuple):
    """The SVD factors of ``doc_basis.T @ proto_basis``, one principal-angle system.

    ``cosines[i]`` is the i-th principal cosine (descending, clamped to
    [0, 1]).  The paired unit principal vectors are
    ``doc_basis @ left_vectors[:, i]`` and ``proto_basis @ right_vectors[:, i]``;
    each caller forms only the ones it reads.  For a stack of prototypes
    every factor carries the stack's leading axes in front of its shape.
    """

    cosines: np.ndarray        # (m,)
    left_vectors: np.ndarray   # (k, m), k = document width
    right_vectors: np.ndarray  # (d, m)


def principal_system(doc_basis: np.ndarray, proto_basis: np.ndarray) -> PrincipalAngles:
    """Principal angles via the SVD of ``doc_basis.T @ proto_basis``.

    ``doc_basis`` is one ``(D, k)`` matrix.  ``proto_basis`` may be a
    ``(..., D, d)`` stack, as for a numpy gufunc:
    one SVD call then covers every prototype, and each slice of the result
    equals the unstacked call bit for bit.  No orthonormality validation;
    see :func:`principal_angles` for the checked public entry point.
    """
    left, sigma, right_t = np.linalg.svd(doc_basis.T @ proto_basis, full_matrices=False)
    return PrincipalAngles(np.clip(sigma, 0.0, 1.0), left, np.swapaxes(right_t, -1, -2))


def principal_angles(doc_basis: np.ndarray, proto_basis: np.ndarray) -> PrincipalAngles:
    """Validated principal-angle decomposition between two orthonormal bases."""
    check_orthonormal(doc_basis, name="document basis")
    check_orthonormal(proto_basis, name="prototype basis")
    if doc_basis.shape[0] != proto_basis.shape[0]:
        raise DimensionError(
            f"ambient dimensions differ: {doc_basis.shape[0]} vs {proto_basis.shape[0]}"
        )
    return principal_system(doc_basis, proto_basis)


def _misalignment(cosines: np.ndarray, kind: str) -> np.ndarray:
    """Per-angle distance term: sin^2(theta), or theta^2 * 4/pi^2 for geodesic."""
    if kind == CHORDAL:
        return 1.0 - cosines**2
    if kind == GEODESIC:
        return _GEODESIC_SCALE * np.arccos(cosines) ** 2
    raise ValueError(f"unknown distance kind {kind!r}")


def weighted_distance(cosines: np.ndarray, weights: np.ndarray, kind: str) -> float | np.ndarray:
    """Relevance-weighted subspace distance from principal cosines.

    chordal:   sum_i w_i * sin^2(theta_i)
    geodesic:  sum_i w_i * theta_i^2 * 4/pi^2

    ``weights`` has one entry per prototype direction.  When the document
    realizes fewer angles than that (rank-deficient document), the missing
    indices are treated as fully misaligned (cosine 0), contributing w_i.
    Both kinds take values in [0, 1] for weights on the simplex.  A
    ``(..., m)`` stack of cosines gives an array of distances, one cosine
    vector a float.
    """
    head, tail = _split_weights(cosines.shape[-1], weights)
    dist = _misalignment(cosines, kind) @ head + tail
    return float(dist) if cosines.ndim == 1 else dist


def _split_weights(m: int, weights: np.ndarray) -> tuple[np.ndarray, float]:
    """The weights of ``m`` realized angles, and the summed weight of the rest."""
    if m > weights.size:
        raise NumericError(f"more principal angles ({m}) than weights ({weights.size})")
    return weights[:m], weights[m:].sum()


def _row_distances(cosines: np.ndarray, weights: np.ndarray, kind: str) -> list[float]:
    """:func:`weighted_distance` of each row of a ``(P, m)`` cosine stack, as floats.

    One dot product per row: the stacked matrix-vector product of
    :func:`weighted_distance` rounds differently, and the SGD path's bits
    are pinned to this one.
    """
    head, tail = _split_weights(cosines.shape[-1], weights)
    return [float(row @ head + tail) for row in _misalignment(cosines, kind)]


def distance_gradient_weights(cosines: np.ndarray, n_weights: int, kind: str) -> np.ndarray:
    """d(distance)/d(weights): per-angle misalignment, 1 for missing angles.

    Stacked ``(..., m)`` cosines give one gradient row per stack entry.
    """
    grad = np.ones(cosines.shape[:-1] + (n_weights,))
    grad[..., :cosines.shape[-1]] = _misalignment(cosines, kind)
    return grad


def distance_gradient_basis(angles: PrincipalAngles, doc_basis: np.ndarray, weights: np.ndarray,
                            kind: str) -> np.ndarray:
    """d(distance)/d(prototype basis), a D x d matrix per (stacked) system.

    Uses the singular-value perturbation identity d sigma_i / dW =
    (doc principal direction i) (right singular vector i)^T, with
    ``doc_basis`` the ``(D, k)`` document basis the system came from.
    Missing angles are constants and contribute nothing.
    """
    sigma = angles.cosines
    m = sigma.shape[-1]
    if kind == CHORDAL:
        coeff = -2.0 * weights[:m] * sigma
    elif kind == GEODESIC:
        theta = np.arccos(sigma)
        sin_theta = np.sin(theta)
        # theta/sin(theta) -> 1 as theta -> 0; guard the removable singularity
        safe_sin = np.where(sin_theta > 1e-8, sin_theta, 1.0)
        ratio = np.where(sin_theta > 1e-8, theta / safe_sin, 1.0 + theta**2 / 6.0)
        coeff = -2.0 * _GEODESIC_SCALE * weights[:m] * ratio
    else:
        raise ValueError(f"unknown distance kind {kind!r}")
    doc_vectors = doc_basis @ angles.left_vectors   # the document's principal vectors
    return (doc_vectors * coeff[..., None, :]) @ np.swapaxes(angles.right_vectors, -1, -2)


def qr_retract(mat: np.ndarray) -> np.ndarray:
    """Map a full-column-rank matrix to the orthonormal basis of its span.

    Thin QR with the diagonal of R forced positive, which makes the result
    unique and deterministic.  A ``(..., D, d)`` stack is retracted matrix
    by matrix in one call, each slice bit-identical to the unstacked call.
    """
    q, r = np.linalg.qr(mat)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    if (diag == 0.0).any():
        raise NumericError("rank-deficient update: QR retraction is undefined")
    return q * np.sign(diag)[..., None, :]


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x : x_i >= 0, sum x_i = 1}.

    Sort-based exact algorithm; O(n log n), order-independent.  The
    threshold comes from a Python loop whose running sum adds in the order
    ``np.cumsum`` does, so the result equals the vectorised numpy form bit
    for bit.  A NaN in ``v`` leaves a NaN in the result.
    """
    v = np.asarray(v, dtype=np.float64)
    tau = math.nan
    total = 0.0
    for i, u in enumerate(sorted(v.tolist(), reverse=True), start=1):
        total += u
        if u - (total - 1.0) / i > 0:
            tau = (total - 1.0) / i
    return np.maximum(v - tau, 0.0)
