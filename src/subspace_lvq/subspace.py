"""Document subspaces.

Reduces a word matrix to a fixed-size orthonormal basis (truncated SVD of
the embedding columns) and provides the mean-vector summary used by the
nearest-centroid baseline.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .embedding import WordMatrix
from .errors import DataError, DimensionError, EmptyDocumentError
from .geometry import sign_normalize_columns

# Singular values below this fraction of the largest are rank noise.
RANK_RTOL = 1e-10


@dataclass
class Subspace:
    """Orthonormal D x k basis summarizing one document, k <= requested d."""

    doc_id: str
    basis: np.ndarray

    @property
    def effective_dim(self) -> int:
        return self.basis.shape[1]


@dataclass
class LabeledSubspace:
    subspace: Subspace
    label: str


def compute_subspace(matrix: WordMatrix, d: int) -> Subspace:
    """Top-``min(d, rank)`` left singular vectors of the word matrix.

    Columns are ordered by descending singular value and sign-normalized
    (largest-magnitude component positive) for backend-independent output.
    Rank-deficient documents keep k < d columns rather than receiving
    fabricated directions; the distance layer treats the missing ones as
    maximally misaligned.  The SVD runs over distinct words (see
    :func:`distinct_columns`), which leaves the Gram matrix, and so the
    left singular vectors and singular values, unchanged.
    """
    cols = matrix.columns
    if cols.ndim != 2 or cols.shape[1] < 1:
        raise EmptyDocumentError(matrix.doc_id, f"document {matrix.doc_id!r}: empty word matrix")
    check_subspace_dim(d, cols.shape[0])
    basis = _svd_basis(distinct_columns(matrix), d)
    if basis.shape[1] == 0:
        raise EmptyDocumentError(matrix.doc_id, f"document {matrix.doc_id!r}: zero word matrix")
    return Subspace(doc_id=matrix.doc_id, basis=basis)


def check_subspace_dim(d: int, dim: int) -> None:
    """Reject a subspace dimension outside ``1 <= d <= dim``."""
    if d < 1:
        raise DimensionError(f"subspace dimension must be positive, got {d}")
    if d > dim:
        raise DimensionError(f"subspace dimension {d} exceeds embedding dimension {dim}")


def check_prototype_dim(d: int, dim: int) -> None:
    """Reject a training subspace dimension outside ``1 <= d < dim``.

    A prototype of dimension ``dim`` spans the whole space, so every
    principal cosine to it is 1 and every distance is rounding noise.
    """
    check_subspace_dim(d, dim)
    if d == dim:
        raise DimensionError(f"subspace dimension {d} equals embedding dimension {dim}, so "
                             f"every prototype spans the whole space; lower --d below {dim}")


def _svd_basis(columns: np.ndarray, d: int) -> np.ndarray:
    """Sign-normalized top-``min(d, rank)`` left singular vectors of ``columns``.

    The rank counts the singular values above ``RANK_RTOL`` times the
    largest, so a zero matrix gives a basis with no columns.  Document
    subspaces and prototype initialization both take their bases from here.
    """
    left, sigma, _ = np.linalg.svd(columns, full_matrices=False)
    rank = int(np.sum(sigma > RANK_RTOL * sigma[0]))
    return sign_normalize_columns(left[:, : min(d, rank)])


def distinct_columns(matrix: WordMatrix) -> np.ndarray:
    """One column per distinct token, scaled by the square root of its count.

    Repeated tokens have equal columns, so sum_j c_j c_j^T over the tokens
    equals sum_w n_w c_w c_w^T over the distinct words: the same Gram
    matrix from fewer columns.  A matrix whose tokens do not repeat, or
    which carries no token list, is returned as it is.
    """
    cols, tokens = matrix.columns, matrix.tokens
    counts = Counter(tokens)
    if len(tokens) != cols.shape[1] or len(counts) == len(tokens):
        return cols
    first: dict[str, int] = {}
    for j, tok in enumerate(tokens):
        first.setdefault(tok, j)
    return cols[:, [first[tok] for tok in counts]] * np.sqrt(list(counts.values()))


def mean_vector(matrix: WordMatrix) -> np.ndarray:
    """Arithmetic mean of the word-vector columns."""
    cols = matrix.columns
    if cols.ndim != 2 or cols.shape[1] < 1:
        raise DataError(f"document {matrix.doc_id!r}: empty word matrix")
    return cols.mean(axis=1)
