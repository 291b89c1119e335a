"""Stacked kernels against the per-matrix code they replaced.

The ``old_*`` functions below are the per-prototype implementations as they
were before the geometry kernels took a stack axis.  They are kept here
only as oracles: where the arithmetic is unchanged the stacked code must
match them bit for bit, and where a summation order changed, to a
tolerance fixed from float64 rounding.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import subspace_lvq
from subspace_lvq.embedding import WordMatrix
from subspace_lvq.errors import DegenerateSampleError
from subspace_lvq.explain import explanation_report
from subspace_lvq.geometry import (
    _GEODESIC_SCALE,
    CHORDAL,
    DISTANCE_KINDS,
    GEODESIC,
    _misalignment,
    distance_gradient_basis,
    distance_gradient_weights,
    principal_system,
    project_simplex,
    qr_retract,
    weighted_distance,
)
from subspace_lvq.model import (
    ModelState,
    TrainConfig,
    _decision,
    _distances,
    _sample_step,
    _sample_terms,
    classify,
    init_prototypes,
    sigmoid,
    train,
)
from subspace_lvq.subspace import (
    RANK_RTOL,
    LabeledSubspace,
    Subspace,
    compute_subspace,
    distinct_columns,
)


def old_principal_system(doc_basis, proto_basis):
    """(cosines, doc_directions, proto_directions, right_vectors)."""
    left, sigma, right_t = np.linalg.svd(doc_basis.T @ proto_basis, full_matrices=False)
    return np.clip(sigma, 0.0, 1.0), doc_basis @ left, proto_basis @ right_t.T, right_t.T


def old_qr_retract(mat):
    q, r = np.linalg.qr(mat)
    return q * np.sign(np.diag(r))


def old_weighted_distance(cosines, weights, kind):
    m = cosines.size
    return float(weights[:m] @ _misalignment(cosines, kind) + weights[m:].sum())


def old_gradient_weights(cosines, n_weights, kind):
    grad = np.ones(n_weights)
    grad[:cosines.size] = _misalignment(cosines, kind)
    return grad


def old_gradient_basis(system, weights, kind):
    sigma, doc_directions, _, right_vectors = system
    m = sigma.size
    if kind == CHORDAL:
        coeff = -2.0 * weights[:m] * sigma
    else:
        theta = np.arccos(sigma)
        sin_theta = np.sin(theta)
        safe_sin = np.where(sin_theta > 1e-8, sin_theta, 1.0)
        ratio = np.where(sin_theta > 1e-8, theta / safe_sin, 1.0 + theta**2 / 6.0)
        coeff = -2.0 * _GEODESIC_SCALE * weights[:m] * ratio
    return (doc_directions * coeff) @ right_vectors.T


def old_distances(doc_basis, bases, weights, kind):
    out = np.empty(len(bases))
    for i, basis in enumerate(bases):
        sv = np.linalg.svd(doc_basis.T @ basis, compute_uv=False)
        out[i] = old_weighted_distance(np.clip(sv, 0.0, 1.0), weights, kind)
    return out


def old_sample_terms(dists, correct_mask, beta):
    """Winners by ``flatnonzero``/``argmin``, then the cost and its two derivatives.

    ``(j, k, e, de/dd+, de/dd-)``: ``_sample_terms`` returns the first three,
    and ``_sample_step`` computes the derivatives from them.
    """
    correct_idx = np.flatnonzero(correct_mask)
    wrong_idx = np.flatnonzero(~correct_mask)
    j = int(correct_idx[np.argmin(dists[correct_idx])])
    k = int(wrong_idx[np.argmin(dists[wrong_idx])])
    d_plus, d_minus = dists[j], dists[k]
    total = d_plus + d_minus
    if total <= 0.0:
        return None
    e_val = sigmoid(beta * (d_plus - d_minus) / total)
    common = beta * e_val * (1.0 - e_val) * 2.0 / total**2
    return j, k, e_val, common * d_minus, -common * d_plus


def old_positive_probability(dists, model, positive_label):
    """Nearest positive and negative distances by ``min``, then their sigmoid."""
    labels = model.prototype_labels
    pos = min(d for d, lab in zip(dists, labels) if lab == positive_label)
    neg = min(d for d, lab in zip(dists, labels) if lab != positive_label)
    total = pos + neg
    if total <= 0.0:
        raise DegenerateSampleError("document is at zero distance to both classes")
    return sigmoid(model.sigmoid_slope * (neg - pos) / total)


def old_winner_and_runner_up(dists, model):
    """Winner by ``argmin``, runner-up by ``min`` over the other classes' prototypes."""
    labels = model.prototype_labels
    winner = int(np.argmin(dists))
    return winner, min((i for i, lab in enumerate(labels) if lab != labels[winner]),
                       key=lambda i: dists[i])


def old_sgd(training, config):
    """The per-prototype SGD loop of ``train``: final (bases, relevances)."""
    d, kind, beta = config.subspace_dim, config.distance_kind, config.beta
    lr_w, lr_l = config.lr_prototype, config.lr_relevance
    init_seq, shuffle_seq = np.random.SeedSequence(config.seed).spawn(2)
    stack, labels = init_prototypes(training, config.prototypes_per_class, d, seed=init_seq)
    bases = [basis.copy() for basis in stack]
    masks = {lab: np.array([label == lab for label in labels])
             for lab in {ex.label for ex in training}}
    weights = np.full(d, 1.0 / d)
    rng = np.random.default_rng(shuffle_seq)
    for _ in range(config.epochs):
        for i in rng.permutation(len(training)):
            ex = training[int(i)]
            systems = [old_principal_system(ex.subspace.basis, b) for b in bases]
            dists = np.array([old_weighted_distance(s[0], weights, kind) for s in systems])
            terms = old_sample_terms(dists, masks[ex.label], beta)
            if terms is None:
                continue
            j, k, _, de_dplus, de_dminus = terms
            new_j = old_qr_retract(bases[j] - lr_w * de_dplus * old_gradient_basis(systems[j], weights, kind))
            new_k = old_qr_retract(bases[k] - lr_w * de_dminus * old_gradient_basis(systems[k], weights, kind))
            bases[j], bases[k] = new_j, new_k
            if lr_l > 0.0:
                grad_l = de_dplus * old_gradient_weights(systems[j][0], d, kind)
                grad_l += de_dminus * old_gradient_weights(systems[k][0], d, kind)
                weights = project_simplex(weights - lr_l * grad_l)
    return bases, weights


def orthonormal(rng, dim, k):
    return old_qr_retract(rng.standard_normal((dim, k)))


# D, then d <= D and a document width m <= D (m < d, = d and > d all occur),
# P prototypes and a seed for the entries.
shapes = st.integers(2, 12).flatmap(lambda dim: st.tuples(
    st.just(dim), st.integers(1, dim), st.integers(1, dim), st.integers(1, 4),
    st.integers(0, 2**32 - 1)))


class TestStackedKernels:
    @given(shapes, st.sampled_from(DISTANCE_KINDS))
    @settings(max_examples=150, deadline=None)
    def test_principal_system_and_gradients_match_per_matrix_calls(self, shape, kind):
        dim, d, m, n_protos, seed = shape
        rng = np.random.default_rng(seed)
        doc = orthonormal(rng, dim, m)
        stack = np.stack([orthonormal(rng, dim, d) for _ in range(n_protos)])
        raw = rng.random(d) + 0.1
        weights = raw / raw.sum()
        stacked = principal_system(doc, stack)
        grads = distance_gradient_basis(stacked, doc, weights, kind)
        weight_grads = distance_gradient_weights(stacked.cosines, d, kind)
        for p in range(n_protos):
            expected = old_principal_system(doc, stack[p])
            got = (stacked.cosines[p], (doc @ stacked.left_vectors)[p],
                   (stack @ stacked.right_vectors)[p], stacked.right_vectors[p])
            for a, b in zip(got, expected):
                assert a.tobytes() == b.tobytes()
            assert grads[p].tobytes() == old_gradient_basis(expected, weights, kind).tobytes()
            assert weight_grads[p].tobytes() == old_gradient_weights(expected[0], d, kind).tobytes()
            assert weighted_distance(stacked.cosines[p], weights, kind) == \
                old_weighted_distance(expected[0], weights, kind)

    @given(shapes)
    @settings(max_examples=150, deadline=None)
    def test_qr_retract_matches_per_matrix_calls(self, shape):
        dim, d, _, n_stack, seed = shape
        mats = np.random.default_rng(seed).standard_normal((n_stack, dim, d))
        stacked = qr_retract(mats)
        for p in range(n_stack):
            assert stacked[p].tobytes() == old_qr_retract(mats[p]).tobytes()

    @given(shapes, st.integers(1, 3), st.sampled_from(DISTANCE_KINDS))
    @settings(max_examples=150, deadline=None)
    def test_distances_match_per_prototype_loop(self, shape, n_docs, kind):
        dim, d, m, n_protos, seed = shape
        rng = np.random.default_rng(seed)
        docs = [orthonormal(rng, dim, m) for _ in range(n_docs)]
        stack = np.stack([orthonormal(rng, dim, d) for _ in range(n_protos)])
        raw = rng.random(d) + 0.1
        weights = raw / raw.sum()
        got = _distances(docs, stack, weights, kind)
        assert got.shape == (n_docs, n_protos)
        for doc, row in zip(docs, got):
            np.testing.assert_allclose(row, old_distances(doc, list(stack), weights, kind),
                                       rtol=0, atol=1e-15)

    @pytest.mark.parametrize("dim,m,d", [(300, 23, 50), (300, 30, 300), (50, 40, 10)])
    def test_taken_gradient_matches_per_matrix_calls_at_full_size(self, dim, m, d):
        # The hypothesis shapes are too small to show it: at these sizes the
        # gradient's matrix product rounds differently when the winners'
        # factors are copied into another memory layout.
        rng = np.random.default_rng(7)
        doc = orthonormal(rng, dim, m)
        stack = np.stack([orthonormal(rng, dim, d) for _ in range(3)])
        weights = np.full(d, 1.0 / d)
        mask = np.array([False, False, True])
        pair, _, _, grads, _ = _sample_step(doc, stack, mask.tolist(), weights, 5.0, CHORDAL)
        winners = old_sample_terms(old_distances(doc, list(stack), weights, CHORDAL), mask, 5.0)[:2]
        assert pair.tolist() == list(winners)
        for grad, p in zip(grads, winners):
            expected = old_gradient_basis(old_principal_system(doc, stack[p]), weights, CHORDAL)
            assert grad.tobytes() == expected.tobytes()


class TestWinners:
    # Few distinct values, so that ties within and across classes are common.
    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]), st.booleans()),
                    min_size=2, max_size=6),
           st.sampled_from([0.5, 5.0]))
    @settings(max_examples=300, deadline=None)
    def test_sample_terms_match_argmin_winners(self, rows, beta):
        assume(any(c for _, c in rows) and not all(c for _, c in rows))
        dists = np.array([dist for dist, _ in rows])
        mask = np.array([correct for _, correct in rows])
        terms = old_sample_terms(dists, mask, beta)
        expected = None if terms is None else terms[:3]
        for got in (_sample_terms(dists, mask, beta),
                    _sample_terms(dists.tolist(), mask.tolist(), beta)):
            assert got == expected


class TestPositiveProbability:
    def test_matches_min_winners_on_the_trained_model(self, trained):
        model = trained.model
        for ex in trained.test_examples:
            _, dists = classify(ex.subspace, model)
            for label in model.class_labels:
                assert _decision(dists, model, label)[2] == \
                    old_positive_probability(dists, model, label)

    # Short-list values make ties and zeros common; the floats cover the rest.
    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]) | st.floats(0, 2),
                              st.booleans()),
                    min_size=2, max_size=6),
           st.sampled_from([0.5, 5.0]))
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_matches_min_winners_on_drawn_distances(self, rows, beta):
        assume(any(p for _, p in rows) and not all(p for _, p in rows))
        model = ModelState(
            prototypes=np.stack([np.eye(2)[:, :1]] * len(rows)),
            prototype_labels=tuple("pos" if p else "neg" for _, p in rows),
            relevances=np.ones(1), sigmoid_slope=beta, distance_kind=CHORDAL)
        dists = np.array([dist for dist, _ in rows])
        try:
            expected = old_positive_probability(dists, model, "pos")
        except DegenerateSampleError:
            with pytest.raises(DegenerateSampleError):
                _decision(dists, model, "pos")
        else:
            assert _decision(dists, model, "pos")[2] == expected


class TestDecision:
    """Winner and runner-up of ``_decision`` against the ``argmin``/``min`` rule."""

    def check(self, model, dists):
        """Every label of a binary model, and the predicted label of any model."""
        expected = old_winner_and_runner_up(dists, model)
        predicted = model.prototype_labels[expected[0]]
        labels = model.class_labels if len(model.class_labels) == 2 else [predicted]
        for label in labels:
            if dists[expected[0]] + dists[expected[1]] <= 0.0:
                with pytest.raises(DegenerateSampleError):
                    _decision(dists, model, label)
            else:
                assert _decision(dists, model, label)[:2] == expected

    @pytest.mark.parametrize("classes", [2, 3])
    def test_on_two_prototypes_per_class(self, trained, classes):
        """The binary model is trained; the 3-class one has random prototypes."""
        if classes == 2:
            config = TrainConfig(subspace_dim=10, seed=5, epochs=2, prototypes_per_class=2)
            model = train(trained.train_examples, config)
        else:
            rng = np.random.default_rng(8)
            model = ModelState(
                prototypes=np.stack([orthonormal(rng, 50, 10) for _ in range(6)]),
                prototype_labels=("a", "a", "b", "b", "c", "c"), relevances=np.full(10, 0.1),
                sigmoid_slope=5.0, distance_kind=CHORDAL)
        for rec, ex in zip(trained.test_records, trained.test_examples):
            _, dists = classify(ex.subspace, model)
            self.check(model, dists)
            report = explanation_report(rec, model, trained.corpus.table, trained.stoplist, k=1)
            assert report.runner_up_label == \
                model.prototype_labels[old_winner_and_runner_up(dists, model)[1]]

    # Few distinct values, so that ties within and across classes are common.
    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]),
                              st.sampled_from("abc")),
                    min_size=2, max_size=7))
    @settings(max_examples=300, deadline=None)
    def test_on_drawn_distances(self, rows):
        assume(len({lab for _, lab in rows}) > 1)
        model = ModelState(
            prototypes=np.stack([np.eye(2)[:, :1]] * len(rows)),
            prototype_labels=tuple(lab for _, lab in rows),
            relevances=np.ones(1), sigmoid_slope=5.0, distance_kind=CHORDAL)
        self.check(model, np.array([dist for dist, _ in rows]))


class TestStackedTraining:
    @given(seed=st.integers(0, 2**16), per_class=st.integers(1, 2),
           kind=st.sampled_from([CHORDAL, GEODESIC]))
    @settings(max_examples=12, deadline=None)
    def test_train_matches_per_prototype_sgd_bit_for_bit(self, seed, per_class, kind):
        rng = np.random.default_rng(seed)
        # widths 1..3 around d = 3 exercise rank-deficient documents
        training = [
            LabeledSubspace(Subspace(f"d{i}", orthonormal(rng, 8, 1 + i % 3)), "ab"[i % 2])
            for i in range(12)
        ]
        config = TrainConfig(subspace_dim=3, seed=seed, epochs=3, distance_kind=kind,
                             prototypes_per_class=per_class, lr_prototype=0.2,
                             lr_relevance=0.05)
        state = train(training, config)
        bases, weights = old_sgd(training, config)
        assert state.relevances.tobytes() == weights.tobytes()
        for proto, basis in zip(state.prototypes, bases):
            assert proto.tobytes() == basis.tobytes()


def projector(basis):
    return basis @ basis.T


class TestDistinctWordSvd:
    @given(dim=st.integers(2, 10), distinct=st.integers(1, 8), rank=st.integers(1, 8),
           d=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
           picks=st.lists(st.integers(0, 7), min_size=2, max_size=40))
    @settings(max_examples=200, deadline=None)
    # sigma_5 / sigma_1 = 2.8e-5: off by 1.2e-12, inside the gap-derived tolerance
    @example(dim=7, distinct=7, rank=5, d=5, seed=23788, picks=[6, 1, 0, 0, 0, 2, 4])
    def test_projector_matches_full_column_svd(self, dim, distinct, rank, d, seed, picks):
        assume(d <= dim)
        rng = np.random.default_rng(seed)
        rank = min(rank, dim, distinct)
        words = rng.standard_normal((dim, rank)) @ rng.standard_normal((rank, distinct))
        picks = [p % distinct for p in picks]
        assume(len(set(picks)) < len(picks))           # some word repeats
        full = words[:, picks]
        left, sigma, _ = np.linalg.svd(full, full_matrices=False)
        kept = int(np.sum(sigma > RANK_RTOL * sigma[0]))
        k = min(d, kept)
        # The subspace is determined only with a clear gap after sigma_k, and
        # the rank only with every singular value clear of the rank threshold.
        assume(np.all((sigma > 1e-6 * sigma[0]) | (sigma < 1e-14 * sigma[0])))
        assume(k == kept or sigma[k - 1] - sigma[k] > 1e-2 * sigma[0])
        matrix = WordMatrix("doc", full, tokens=[f"w{p}" for p in picks])
        assert distinct_columns(matrix).shape[1] == len(set(picks))
        sub = compute_subspace(matrix, d)
        assert sub.effective_dim == k
        # Each SVD is backward stable to a few eps * sigma_1, so (Davis-Kahan)
        # each projector is within that over the gap after sigma_k.  With
        # k == kept the next value is numerically 0 and the gap is sigma_k,
        # which may be as small as 1e-6 sigma_1; a gap above 1e-2 sigma_1
        # keeps the bound under 1e-12.  Measured errors stay below 9x
        # eps * sigma_1 / gap.
        gap = sigma[k - 1] - (sigma[k] if k < len(sigma) else 0.0)
        atol = max(1e-12, 32 * np.finfo(float).eps * sigma[0] / gap)
        np.testing.assert_allclose(projector(sub.basis), projector(left[:, :k]),
                                   rtol=0, atol=atol)

    def test_matrix_without_repeats_is_used_as_is(self):
        cols = np.random.default_rng(0).standard_normal((5, 3))
        assert distinct_columns(WordMatrix("doc", cols, tokens=["a", "b", "c"])) is cols
        assert distinct_columns(WordMatrix("doc", cols)) is cols


_SVD_IN_CHILD = """
import sys
import numpy as np
from subspace_lvq.subspace import _svd_basis
np.save(sys.argv[1], _svd_basis(np.random.default_rng(17).standard_normal((300, 500)), 50))
"""


def test_document_basis_agrees_across_blas_thread_counts(tmp_path):
    # Byte identity is promised only for one BLAS thread count; another
    # count may round differently but must give the same subspace, within
    # the gap-derived tolerance of TestDistinctWordSvd.
    src = str(Path(subspace_lvq.__file__).resolve().parents[1])
    bases = []
    for threads in ("1", "2"):
        out = tmp_path / f"basis{threads}.npy"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", _SVD_IN_CHILD, str(out)], env=env, check=True,
                       timeout=120)
        bases.append(np.load(out))
    sigma = np.linalg.svd(np.random.default_rng(17).standard_normal((300, 500)),
                          compute_uv=False)
    atol = max(1e-12, 32 * np.finfo(float).eps * sigma[0] / (sigma[49] - sigma[50]))
    assert bases[0].shape == bases[1].shape == (300, 50)
    np.testing.assert_allclose(projector(bases[0]), projector(bases[1]), rtol=0, atol=atol)
