"""Document subspace extraction and the mean-vector summary."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from subspace_lvq.embedding import WordMatrix
from subspace_lvq.errors import DataError, DimensionError, EmptyDocumentError
from subspace_lvq.geometry import orthonormality_residual
from subspace_lvq.subspace import compute_subspace, mean_vector


def matrix_of(columns, doc_id="doc"):
    return WordMatrix(doc_id=doc_id, columns=np.asarray(columns, dtype=float),
                      tokens=[f"w{i}" for i in range(np.asarray(columns).shape[1])])


class TestComputeSubspace:
    def test_empty_word_matrix_rejected(self):
        with pytest.raises(EmptyDocumentError, match="document 'doc': empty word matrix"):
            compute_subspace(matrix_of(np.empty((4, 0))), d=2)

    def test_repeated_column_collapses_to_rank_one(self):
        v = np.array([3.0, 4.0, 0.0])
        sub = compute_subspace(matrix_of(np.column_stack([v, v, v])), d=2)
        assert sub.effective_dim == 1
        unit = v / np.linalg.norm(v)
        np.testing.assert_allclose(np.abs(sub.basis[:, 0]), np.abs(unit), atol=1e-12)

    def test_orthogonal_columns_span_recovered(self):
        cols = np.column_stack([2.0 * np.eye(4)[:, 0], 0.5 * np.eye(4)[:, 1]])
        sub = compute_subspace(matrix_of(cols), d=2)
        projector = sub.basis @ sub.basis.T
        expected = np.diag([1.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(projector, expected, atol=1e-12)

    def test_against_eigendecomposition_oracle(self):
        # top-3 left singular vectors must span the same space as the top-3
        # eigenvectors of M M^T computed by an independent dense eigensolver
        rng = np.random.default_rng(42)
        mat = rng.standard_normal((10, 6))
        sub = compute_subspace(matrix_of(mat), d=3)
        evals, evecs = np.linalg.eigh(mat @ mat.T)
        oracle = evecs[:, np.argsort(evals)[::-1][:3]]
        diff = sub.basis @ sub.basis.T - oracle @ oracle.T
        assert np.linalg.norm(diff) < 1e-8

    def test_rank_deficient_keeps_fewer_columns(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((8, 2))
        cols = base @ rng.standard_normal((2, 5))  # rank 2, 5 columns
        sub = compute_subspace(matrix_of(cols), d=4)
        assert sub.effective_dim == 2

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            compute_subspace(matrix_of(np.eye(3)), d=4)
        with pytest.raises(DimensionError):
            compute_subspace(matrix_of(np.eye(3)), d=0)
        with pytest.raises(DataError):
            compute_subspace(matrix_of(np.zeros((3, 2))), d=1)

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(2)
        mat = rng.standard_normal((6, 4))
        a = compute_subspace(matrix_of(mat), d=3).basis
        b = compute_subspace(matrix_of(mat.copy()), d=3).basis
        np.testing.assert_array_equal(a, b)
        for j in range(a.shape[1]):
            col = a[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    @given(hnp.arrays(np.float64, (7, 5),
                      elements=st.floats(-10, 10, allow_nan=False)))
    @settings(max_examples=100, deadline=None)
    def test_orthonormal_output_on_random_matrices(self, mat):
        if np.linalg.norm(mat) < 1e-6:
            return
        sub = compute_subspace(matrix_of(mat), d=3)
        assert orthonormality_residual(sub.basis) < 1e-10

    def test_column_permutation_leaves_span(self):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((9, 6))
        sub = compute_subspace(matrix_of(mat), d=4)
        for _ in range(5):
            perm = rng.permutation(6)
            sub_p = compute_subspace(matrix_of(mat[:, perm]), d=4)
            diff = sub.basis @ sub.basis.T - sub_p.basis @ sub_p.basis.T
            assert np.linalg.norm(diff) < 1e-10

    def test_positive_scaling_leaves_span(self):
        rng = np.random.default_rng(4)
        mat = rng.standard_normal((9, 6))
        sub = compute_subspace(matrix_of(mat), d=3)
        sub_s = compute_subspace(matrix_of(37.5 * mat), d=3)
        diff = sub.basis @ sub.basis.T - sub_s.basis @ sub_s.basis.T
        assert np.linalg.norm(diff) < 1e-10


class TestMeanVector:
    def test_single_column_is_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(mean_vector(matrix_of(v[:, None])), v)

    def test_opposite_columns_cancel(self):
        v = np.array([1.0, 2.0])
        out = mean_vector(matrix_of(np.column_stack([v, -v])))
        np.testing.assert_allclose(out, np.zeros(2), atol=1e-15)

    def test_two_basis_vectors(self):
        out = mean_vector(matrix_of(np.eye(2)))
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError):
            mean_vector(WordMatrix(doc_id="x", columns=np.zeros((3, 0)), tokens=[]))
