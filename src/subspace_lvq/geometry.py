"""Subspace geometry primitives.

Principal angles between subspaces, the relevance-weighted chordal and
geodesic distances built on them, their gradients, and the two constraint
operations used during training: QR retraction onto orthonormal bases and
Euclidean projection onto the probability simplex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotOrthonormalError, NumericError

CHORDAL = "chordal"
GEODESIC = "geodesic"
DISTANCE_KINDS = (CHORDAL, GEODESIC)

# arccos(0)**2 * 4/pi**2 == 1, so both distance kinds share the range [0, 1].
_GEODESIC_SCALE = 4.0 / np.pi**2

ORTHONORMAL_TOL = 1e-6


def orthonormality_residual(basis: np.ndarray) -> float:
    """Frobenius norm of B^T B - I."""
    k = basis.shape[1]
    return float(np.linalg.norm(basis.T @ basis - np.eye(k)))


def check_orthonormal(basis, tol=ORTHONORMAL_TOL, name="basis"):
    if basis.ndim != 2:
        raise NotOrthonormalError(f"{name} must be a 2-d matrix, got ndim={basis.ndim}")
    res = orthonormality_residual(basis)
    if res > tol:
        raise NotOrthonormalError(
            f"{name} is not orthonormal: residual {res:.3e} exceeds {tol:.1e}"
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


@dataclass
class PrincipalAngles:
    """Matched principal-angle system between a document and a prototype.

    ``cosines[i]`` is the i-th principal cosine (descending, clamped to
    [0, 1]); ``doc_directions[:, i]`` / ``proto_directions[:, i]`` are the
    paired unit principal vectors inside each subspace.  ``right_vectors``
    holds the prototype-frame coordinates of ``proto_directions`` (the right
    singular vectors of the basis product), which the prototype gradient
    needs.
    """

    cosines: np.ndarray          # (m,)
    doc_directions: np.ndarray   # (D, m)
    proto_directions: np.ndarray  # (D, m)
    right_vectors: np.ndarray    # (d, m)


def principal_system(doc_basis: np.ndarray, proto_basis: np.ndarray) -> PrincipalAngles:
    """Principal angles via the SVD of ``doc_basis.T @ proto_basis``.

    No orthonormality validation; see :func:`principal_angles` for the
    checked public entry point.
    """
    m_mat = doc_basis.T @ proto_basis
    left, sigma, right_t = np.linalg.svd(m_mat, full_matrices=False)
    cosines = np.clip(sigma, 0.0, 1.0)
    return PrincipalAngles(
        cosines=cosines,
        doc_directions=doc_basis @ left,
        proto_directions=proto_basis @ right_t.T,
        right_vectors=right_t.T,
    )


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


def weighted_distance(cosines: np.ndarray, weights: np.ndarray, kind: str) -> float:
    """Relevance-weighted subspace distance from principal cosines.

    chordal:   sum_i w_i * sin^2(theta_i)
    geodesic:  sum_i w_i * theta_i^2 * 4/pi^2

    ``weights`` has one entry per prototype direction.  When the document
    realizes fewer angles than that (rank-deficient document), the missing
    indices are treated as fully misaligned (cosine 0), contributing w_i.
    Both kinds take values in [0, 1] for weights on the simplex.
    """
    m = cosines.size
    d = weights.size
    if m > d:
        raise NumericError(f"more principal angles ({m}) than weights ({d})")
    return float(weights[:m] @ _misalignment(cosines, kind) + weights[m:].sum())


def distance_gradient_weights(cosines: np.ndarray, n_weights: int, kind: str) -> np.ndarray:
    """d(distance)/d(weights): per-angle misalignment, 1 for missing angles."""
    grad = np.ones(n_weights)
    grad[:cosines.size] = _misalignment(cosines, kind)
    return grad


def distance_gradient_basis(angles: PrincipalAngles, weights: np.ndarray, kind: str) -> np.ndarray:
    """d(distance)/d(prototype basis), a D x d matrix.

    Uses the singular-value perturbation identity d sigma_i / dW =
    (doc principal direction i) (right singular vector i)^T.  Missing
    angles are constants and contribute nothing.
    """
    sigma = angles.cosines
    m = sigma.size
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
    return (angles.doc_directions * coeff) @ angles.right_vectors.T


def qr_retract(mat: np.ndarray) -> np.ndarray:
    """Map a full-column-rank matrix to the orthonormal basis of its span.

    Thin QR with the diagonal of R forced positive, which makes the result
    unique and deterministic.
    """
    q, r = np.linalg.qr(mat)
    diag = np.diag(r)
    if np.any(diag == 0.0):
        raise NumericError("rank-deficient update: QR retraction is undefined")
    return q * np.sign(diag)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x : x_i >= 0, sum x_i = 1}.

    Sort-based exact algorithm; O(n log n), order-independent.
    """
    v = np.asarray(v, dtype=np.float64)
    n = v.size
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    positive = u - (cumulative - 1.0) / np.arange(1, n + 1) > 0
    rho = int(np.nonzero(positive)[0][-1])
    tau = (cumulative[rho] - 1.0) / (rho + 1)
    return np.maximum(v - tau, 0.0)
