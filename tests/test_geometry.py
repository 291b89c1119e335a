"""Principal angles, weighted distances, retraction and simplex projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from subspace_lvq.errors import NotOrthonormalError
from subspace_lvq.geometry import (
    CHORDAL,
    GEODESIC,
    distance_gradient_weights,
    orthonormality_residual,
    principal_angles,
    principal_system,
    project_simplex,
    qr_retract,
    sign_normalize_columns,
    weighted_distance,
)


def random_orthonormal(dim, k, rng):
    return qr_retract(rng.standard_normal((dim, k)))


def grid_max_cosine(basis_a, basis_b, n=3000):
    """Brute-force largest cosine: maximize |v.w| over unit vectors on a grid.

    Both bases must have one or two columns; grid error is O((pi/n)^2).
    """
    def circle(basis):
        if basis.shape[1] == 1:
            return basis
        alphas = np.linspace(0.0, np.pi, n)
        return basis @ np.vstack([np.cos(alphas), np.sin(alphas)])

    return float(np.abs(circle(basis_a).T @ circle(basis_b)).max())


class TestPrincipalAngles:
    def test_identical_bases_give_unit_cosines(self):
        rng = np.random.default_rng(0)
        basis = random_orthonormal(6, 3, rng)
        pa = principal_angles(basis, basis)
        np.testing.assert_allclose(pa.cosines, 1.0, atol=1e-12)

    def test_orthogonal_spans_give_zero_cosine(self):
        e1 = np.eye(3)[:, [0]]
        e2 = np.eye(3)[:, [1]]
        pa = principal_angles(e1, e2)
        assert pa.cosines.shape == (1,)
        assert pa.cosines[0] == pytest.approx(0.0, abs=1e-12)

    def test_three_dim_example_against_grid_oracle(self):
        # span(e1, e2) vs span(e1, (e2+e3)/sqrt(2)): cosines (1, 1/sqrt(2))
        doc = np.eye(3)[:, :2]
        proto = np.column_stack([
            np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0),
        ])
        pa = principal_angles(doc, proto)
        np.testing.assert_allclose(pa.cosines, [1.0, 1.0 / np.sqrt(2.0)], atol=1e-12)
        assert grid_max_cosine(doc, proto) == pytest.approx(1.0, abs=1e-6)
        # second angle: maximize within the orthogonal complement of the
        # shared direction e1, where both spans are one-dimensional
        doc_perp = np.array([[0.0], [1.0], [0.0]])
        proto_perp = np.array([[0.0], [1.0], [1.0]]) / np.sqrt(2.0)
        assert grid_max_cosine(doc_perp, proto_perp) == pytest.approx(
            pa.cosines[1], abs=1e-6)

    def test_matched_directions_diagonalize(self):
        rng = np.random.default_rng(1)
        doc = random_orthonormal(8, 3, rng)
        proto = random_orthonormal(8, 4, rng)
        pa = principal_angles(doc, proto)
        cross = (doc @ pa.left_vectors).T @ (proto @ pa.right_vectors)
        np.testing.assert_allclose(cross, np.diag(pa.cosines), atol=1e-8)

    def test_cosines_sorted_and_clamped(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pa = principal_system(random_orthonormal(7, 3, rng),
                                  random_orthonormal(7, 4, rng))
            assert np.all(np.diff(pa.cosines) <= 1e-15)
            assert np.all(pa.cosines >= 0.0) and np.all(pa.cosines <= 1.0)

    def test_rejects_non_orthonormal_input(self):
        skewed = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotOrthonormalError):
            principal_angles(skewed, np.eye(3)[:, :2])

    def test_rejects_nan_basis(self):
        with pytest.raises(NotOrthonormalError, match="residual nan"):
            principal_angles(np.full((3, 2), np.nan), np.eye(3)[:, :2])

    def test_swap_symmetry_of_cosines(self):
        rng = np.random.default_rng(3)
        a = random_orthonormal(9, 3, rng)
        b = random_orthonormal(9, 3, rng)
        np.testing.assert_allclose(
            principal_angles(a, b).cosines,
            principal_angles(b, a).cosines,
            atol=1e-10,
        )


class TestWeightedDistance:
    def test_identical_subspaces_distance_zero(self):
        rng = np.random.default_rng(4)
        basis = random_orthonormal(10, 4, rng)
        lam = np.full(4, 0.25)
        for kind in (CHORDAL, GEODESIC):
            pa = principal_system(basis, basis)
            assert weighted_distance(pa.cosines, lam, kind) == pytest.approx(0.0, abs=1e-12)

    def test_fully_orthogonal_distance_one(self):
        doc = np.eye(6)[:, :2]
        proto = np.eye(6)[:, 2:4]
        lam = np.array([0.3, 0.7])
        pa = principal_system(doc, proto)
        for kind in (CHORDAL, GEODESIC):
            assert weighted_distance(pa.cosines, lam, kind) == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_three_dim_case(self):
        doc = np.eye(3)[:, :2]
        proto = np.column_stack([
            np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0),
        ])
        pa = principal_system(doc, proto)
        lam = np.array([0.5, 0.5])
        # 0.5*(1 - 1) + 0.5*(1 - 0.5) = 0.25
        assert weighted_distance(pa.cosines, lam, CHORDAL) == pytest.approx(0.25, abs=1e-12)

    def test_missing_directions_count_as_orthogonal(self):
        # rank-1 document against a 3-column prototype: two missing angles
        # contribute their full weight even though the realized angle is 0
        doc = np.eye(5)[:, [0]]
        proto = np.eye(5)[:, :3]
        lam = np.array([0.2, 0.3, 0.5])
        pa = principal_system(doc, proto)
        assert pa.cosines.shape == (1,)
        assert weighted_distance(pa.cosines, lam, CHORDAL) == pytest.approx(0.8, abs=1e-12)
        # document orthogonal to the prototype's first column instead
        doc2 = np.eye(5)[:, [4]]
        pa2 = principal_system(doc2, proto)
        for kind in (CHORDAL, GEODESIC):
            assert weighted_distance(pa2.cosines, lam, kind) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_invariance_of_distance(self):
        rng = np.random.default_rng(5)
        doc = random_orthonormal(12, 3, rng)
        proto = random_orthonormal(12, 5, rng)
        lam = project_simplex(rng.random(5))
        base = {k: weighted_distance(principal_system(doc, proto).cosines, lam, k)
                for k in (CHORDAL, GEODESIC)}
        for _ in range(5):
            rot_doc = doc @ qr_retract(rng.standard_normal((3, 3)))
            rot_proto = proto @ qr_retract(rng.standard_normal((5, 5)))
            for kind in (CHORDAL, GEODESIC):
                val = weighted_distance(
                    principal_system(rot_doc, rot_proto).cosines, lam, kind)
                assert val == pytest.approx(base[kind], abs=1e-10)

    def test_range_bounds_on_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            doc = random_orthonormal(9, int(rng.integers(1, 4)), rng)
            proto = random_orthonormal(9, 4, rng)
            lam = project_simplex(rng.random(4))
            for kind in (CHORDAL, GEODESIC):
                val = weighted_distance(principal_system(doc, proto).cosines, lam, kind)
                assert 0.0 <= val <= 1.0 + 1e-12

    def test_weight_gradient_matches_misalignment(self):
        pa_cos = np.array([1.0, 0.5])
        grad = distance_gradient_weights(pa_cos, 3, CHORDAL)
        np.testing.assert_allclose(grad, [0.0, 0.75, 1.0], atol=1e-12)


class TestRetraction:
    def test_output_is_orthonormal(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            q = qr_retract(rng.standard_normal((10, 4)))
            assert orthonormality_residual(q) < 1e-12

    def test_preserves_span(self):
        rng = np.random.default_rng(8)
        mat = rng.standard_normal((8, 3))
        q = qr_retract(mat)
        # projector onto span(mat) equals projector onto span(q)
        pinv = np.linalg.pinv(mat)
        np.testing.assert_allclose(mat @ pinv, q @ q.T, atol=1e-10)

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(9)
        mat = rng.standard_normal((6, 2))
        q1 = qr_retract(mat)
        q2 = qr_retract(mat.copy())
        np.testing.assert_array_equal(q1, q2)
        r = q1.T @ mat
        assert np.all(np.diag(r) > 0)

    def test_sign_normalize_makes_largest_entry_positive(self):
        basis = np.array([[0.6, -0.8], [-0.8, -0.6]])
        fixed = sign_normalize_columns(basis)
        for j in range(2):
            col = fixed[:, j]
            assert col[np.argmax(np.abs(col))] > 0


def old_project_simplex(v):
    """The vectorised projection, kept as the oracle of ``project_simplex``'s loop."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    positive = u - (cumulative - 1.0) / np.arange(1, v.size + 1) > 0
    rho = int(np.nonzero(positive)[0][-1])
    tau = (cumulative[rho] - 1.0) / (rho + 1)
    return np.maximum(v - tau, 0.0)


class TestSimplexProjection:
    # Values from a short list as well, so that ties and sums that land on
    # exactly one occur.  The length is drawn first, uniform up to 300
    # entries, so long vectors are drawn as often as short ones.  Each
    # vector is one array draw, not one draw per entry.
    @given(arrays(np.float64, st.integers(1, 300), elements=(
        st.floats(-50, 50) | st.sampled_from([0.0, -0.0, 0.1, 0.25, 0.5, 1.0]))))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_vectorised_projection_bit_for_bit(self, v):
        assert project_simplex(v).tobytes() == old_project_simplex(v).tobytes()

    @pytest.mark.parametrize("size", [3, 300])
    def test_nan_entry_gives_nan(self, size):
        v = np.full(size, 1.0 / size)
        v[1] = np.nan
        assert np.isnan(project_simplex(v)).any()

    def test_projects_to_simplex(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            v = rng.standard_normal(int(rng.integers(1, 12))) * 3
            x = project_simplex(v)
            assert np.all(x >= 0)
            assert abs(x.sum() - 1.0) < 1e-12

    def test_fixed_point_on_simplex(self):
        v = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_simplex(v), v, atol=1e-15)

    def test_known_projection(self):
        np.testing.assert_allclose(project_simplex(np.array([0.3, 2.0, -1.0])),
                                   [0.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(project_simplex(np.array([0.5, 0.5])),
                                   [0.5, 0.5], atol=1e-15)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_projection_is_nearest_point(self, values):
        v = np.array(values)
        x = project_simplex(v)
        assert np.all(x >= 0) and abs(x.sum() - 1.0) < 1e-9
        # projection must beat a handful of other simplex points
        rng = np.random.default_rng(0)
        dist_x = np.linalg.norm(v - x)
        for _ in range(10):
            raw = rng.random(v.size)
            other = raw / raw.sum()
            assert dist_x <= np.linalg.norm(v - other) + 1e-9
