"""Learning core: cost, classification, training, scoring, baseline."""

import dataclasses
import math

import numpy as np
import pytest

from subspace_lvq.errors import DataError, DegenerateSampleError, DimensionError
from subspace_lvq.geometry import (
    CHORDAL,
    GEODESIC,
    orthonormality_residual,
    project_simplex,
    qr_retract,
)
from subspace_lvq.model import (
    CentroidModel,
    ModelState,
    Prototype,
    TrainConfig,
    centroid_predict,
    centroid_train,
    classify,
    cosine_distance,
    cost_term,
    distance,
    evaluate,
    gradient_check,
    init_prototypes,
    score,
    total_cost_and_gradients,
    train,
)
from subspace_lvq.subspace import LabeledSubspace, Subspace


def sub(basis, doc_id="doc"):
    return Subspace(doc_id=doc_id, basis=np.asarray(basis, dtype=float))


def tiny_model(bases, labels, beta=5.0, kind=CHORDAL, relevances=None):
    d = bases[0].shape[1]
    return ModelState(
        prototypes=[Prototype(basis=np.asarray(b, dtype=float), label=l)
                    for b, l in zip(bases, labels)],
        relevances=np.full(d, 1.0 / d) if relevances is None else relevances,
        embedding_dim=bases[0].shape[0],
        subspace_dim=d,
        sigmoid_slope=beta,
        distance_kind=kind,
        class_labels=sorted(set(labels)),
    )


def random_orthonormal(dim, k, rng):
    return qr_retract(rng.standard_normal((dim, k)))


class TestCostTerm:
    def test_symmetric_distances(self):
        mu, cost = cost_term(0.4, 0.4, beta=5.0)
        assert mu == 0.0
        assert cost == 0.5

    def test_perfect_hit(self):
        mu, cost = cost_term(0.0, 0.7, beta=5.0)
        assert mu == -1.0
        assert cost == pytest.approx(0.0066928509242848554, abs=1e-15)

    def test_wrong_side(self):
        mu, cost = cost_term(0.3, 0.1, beta=5.0)
        assert mu == pytest.approx(0.5, abs=1e-15)
        assert cost == pytest.approx(0.9241418199787566, abs=1e-15)

    def test_degenerate_pair_rejected(self):
        with pytest.raises(DegenerateSampleError):
            cost_term(0.0, 0.0, beta=5.0)

    def test_monotone_in_both_arguments(self):
        grid = np.linspace(0.01, 1.0, 25)
        costs_up = [cost_term(dp, 0.5, 5.0)[1] for dp in grid]
        assert np.all(np.diff(costs_up) > 0)
        costs_down = [cost_term(0.5, dm, 5.0)[1] for dm in grid]
        assert np.all(np.diff(costs_down) < 0)


class TestClassify:
    def test_document_equal_to_prototype(self):
        p_a = np.eye(4)[:, :2]
        p_b = np.eye(4)[:, 2:4]
        model = tiny_model([p_a, p_b], ["a", "b"])
        label, dists = classify(sub(p_a), model)
        assert label == "a"
        assert dists[0] == pytest.approx(0.0, abs=1e-12)
        assert dists[1] == pytest.approx(1.0, abs=1e-12)

    def test_tie_goes_to_lowest_prototype_index(self):
        basis = np.eye(3)[:, :1]
        model = tiny_model([basis, basis.copy()], ["b", "a"])
        label, dists = classify(sub(basis), model)
        assert dists[0] == dists[1]
        assert label == "b"

    def test_independent_of_sigmoid_slope(self):
        rng = np.random.default_rng(0)
        bases = [random_orthonormal(8, 3, rng) for _ in range(4)]
        docs = [sub(random_orthonormal(8, 3, rng)) for _ in range(10)]
        m1 = tiny_model(bases, ["a", "b", "a", "b"], beta=1.0)
        m2 = tiny_model(bases, ["a", "b", "a", "b"], beta=25.0)
        for doc in docs:
            assert classify(doc, m1)[0] == classify(doc, m2)[0]

    def test_matches_eigendecomposition_distance_table(self):
        # oracle distance via the symmetric eigenvalue route instead of SVD
        rng = np.random.default_rng(1)
        bases = [random_orthonormal(10, 3, rng) for _ in range(3)]
        labels = ["a", "b", "c"]
        lam = np.array([0.5, 0.3, 0.2])
        model = tiny_model(bases, labels, relevances=lam)

        def oracle(doc_basis, proto_basis):
            m_mat = doc_basis.T @ proto_basis
            sig2 = np.clip(np.linalg.eigvalsh(m_mat @ m_mat.T)[::-1], 0.0, 1.0)
            missing = lam[sig2.size:].sum()
            return float(lam[: sig2.size] @ (1.0 - sig2) + missing)

        for i in range(30):
            doc = sub(random_orthonormal(10, int(rng.integers(1, 4)), rng), f"d{i}")
            label, dists = classify(doc, model)
            table = [oracle(doc.basis, b) for b in bases]
            np.testing.assert_allclose(dists, table, atol=1e-10)
            assert label == labels[int(np.argmin(table))]


class TestDistanceOp:
    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        doc_basis = random_orthonormal(10, 3, rng)
        proto = Prototype(basis=random_orthonormal(10, 4, rng), label="a")
        lam = np.array([0.4, 0.3, 0.2, 0.1])
        base = distance(sub(doc_basis), proto, lam, CHORDAL)
        rot = proto.basis @ qr_retract(rng.standard_normal((4, 4)))
        rotated = distance(sub(doc_basis), Prototype(basis=rot, label="a"), lam, CHORDAL)
        assert rotated == pytest.approx(base, abs=1e-10)

    def test_invalid_weights_rejected(self):
        proto = Prototype(basis=np.eye(3)[:, :2], label="a")
        with pytest.raises(DataError):
            distance(sub(np.eye(3)[:, :2]), proto, np.array([0.9, 0.3]), CHORDAL)

    def test_ambient_dimension_mismatch_rejected(self):
        proto = Prototype(basis=np.eye(3)[:, :2], label="a")
        with pytest.raises(DimensionError, match="ambient dimensions differ: 4 vs 3"):
            distance(sub(np.eye(4)[:, :2]), proto, np.array([0.5, 0.5]), CHORDAL)


class TestInitPrototypes:
    def one_doc_training(self, rng, dim=6, k=2):
        basis = random_orthonormal(dim, k, rng)
        return [
            LabeledSubspace(sub(basis, "a0"), "a"),
            LabeledSubspace(sub(random_orthonormal(dim, k, rng), "b0"), "b"),
        ], basis

    def test_single_document_span_contained(self):
        rng = np.random.default_rng(3)
        training, basis = self.one_doc_training(rng)
        protos = init_prototypes(training, per_class=1, d=4, seed=0)
        assert [p.label for p in protos] == ["a", "b"]
        p_a = protos[0].basis
        assert p_a.shape == (6, 4)
        assert orthonormality_residual(p_a) < 1e-10
        # the document span must lie inside the padded prototype span
        residual = basis - p_a @ (p_a.T @ basis)
        assert np.linalg.norm(residual) < 1e-10

    def test_same_seed_reproduces(self):
        rng = np.random.default_rng(4)
        training, _ = self.one_doc_training(rng)
        a = init_prototypes(training, per_class=2, d=3, seed=42)
        b = init_prototypes(training, per_class=2, d=3, seed=42)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.basis, pb.basis)

    def test_stacked_orthogonal_rank_one_documents(self):
        # three mutually orthogonal rank-1 documents: the initial basis must
        # contain each document's direction (projector test)
        docs = [np.eye(7)[:, [i]] for i in range(3)]
        training = [LabeledSubspace(sub(b, f"a{i}"), "a") for i, b in enumerate(docs)]
        training.append(LabeledSubspace(sub(np.eye(7)[:, [6]], "b0"), "b"))
        protos = init_prototypes(training, per_class=1, d=3, seed=1)
        p_a = protos[0].basis
        projector = p_a @ p_a.T
        for doc in docs:
            np.testing.assert_allclose(projector @ doc, doc, atol=1e-10)

    def test_empty_class_rejected(self):
        with pytest.raises(DataError):
            init_prototypes([], per_class=1, d=2, seed=0)


class TestTrainConfig:
    """A config that breaks a training rule cannot be built or mutated."""

    @pytest.mark.parametrize("field, value, error, message", [
        ("subspace_dim", 0, DimensionError, "subspace_dim must be positive"),
        ("beta", 0.0, DataError, "beta must be positive"),
        ("beta", -1.0, DataError, "beta must be positive"),
        ("distance_kind", "cosine", DataError, "unknown distance kind 'cosine'"),
        ("lr_prototype", 0.0, DataError, "prototype learning rate must be positive"),
        ("lr_relevance", -0.5, DataError, "relevance learning rate must be nonnegative"),
        ("epochs", -1, DataError, "epochs must be nonnegative"),
        ("prototypes_per_class", 0, DataError, "prototypes_per_class must be positive"),
    ])
    def test_broken_rule_cannot_be_constructed(self, field, value, error, message):
        valid = TrainConfig(subspace_dim=3, seed=0)
        with pytest.raises(error) as err:
            TrainConfig(**{**dataclasses.asdict(valid), field: value})
        assert str(err.value) == message
        with pytest.raises(error, match=message):
            dataclasses.replace(valid, **{field: value})

    @pytest.mark.parametrize("field, message", [
        ("beta", "beta must be positive"),
        ("lr_prototype", "prototype learning rate must be positive"),
        ("lr_relevance", "relevance learning rate must be nonnegative"),
    ])
    def test_nan_breaks_float_rules(self, field, message):
        with pytest.raises(DataError) as err:
            TrainConfig(subspace_dim=3, seed=0, **{field: math.nan})
        assert str(err.value) == message

    def test_boundary_values_are_valid(self):
        TrainConfig(subspace_dim=1, seed=0, lr_relevance=0.0, epochs=0)

    def test_valid_config_is_immutable(self):
        config = TrainConfig(subspace_dim=3, seed=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.beta = -1.0
        assert config.beta == 5.0


def separable_toy(d=3):
    """Two orthogonal rank-2 documents in R^8, one per class."""
    return [
        LabeledSubspace(sub(np.eye(8)[:, :2], "a0"), "a"),
        LabeledSubspace(sub(np.eye(8)[:, 4:6], "b0"), "b"),
    ]


class TestTrain:
    def test_separable_toy_one_epoch(self):
        training = separable_toy()
        config = TrainConfig(subspace_dim=3, seed=0, epochs=1)
        state = train(training, config)
        epoch0, epoch1 = state.training_log
        assert epoch1[2] == 1.0
        assert epoch1[1] < epoch0[1]

    def test_relevance_frozen_at_zero_learning_rate(self):
        training = separable_toy()
        config = TrainConfig(subspace_dim=3, seed=0, epochs=5, lr_relevance=0.0)
        state = train(training, config)
        np.testing.assert_array_equal(state.relevances, np.full(3, 1.0 / 3.0))

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(5)
        training = [
            LabeledSubspace(sub(random_orthonormal(8, 2, rng), f"d{i}"), "ab"[i % 2])
            for i in range(12)
        ]
        config = TrainConfig(subspace_dim=3, seed=9, epochs=4)
        s1 = train(training, config)
        s2 = train(training, config)
        np.testing.assert_array_equal(s1.relevances, s2.relevances)
        for p1, p2 in zip(s1.prototypes, s2.prototypes):
            np.testing.assert_array_equal(p1.basis, p2.basis)
        assert s1.training_log == s2.training_log

    def test_manifold_invariants_hold_after_every_update(self):
        rng = np.random.default_rng(6)
        training = [
            LabeledSubspace(sub(random_orthonormal(10, 3, rng), f"d{i}"), "ab"[i % 2])
            for i in range(20)
        ]
        seen = []

        def hook(bases, weights):
            worst = max(orthonormality_residual(b) for b in bases)
            lam_err = abs(float(weights.sum()) - 1.0)
            assert worst < 1e-8
            assert np.all(weights >= 0.0)
            assert lam_err < 1e-12
            seen.append(worst)

        train(training, TrainConfig(subspace_dim=3, seed=1, epochs=3), update_hook=hook)
        assert len(seen) == 60

    def test_rejects_single_class(self):
        training = [LabeledSubspace(sub(np.eye(4)[:, :2]), "a")]
        with pytest.raises(DataError):
            train(training, TrainConfig(subspace_dim=2, seed=0))

    @pytest.mark.parametrize("kind", [CHORDAL, GEODESIC])
    def test_gradients_match_finite_differences(self, kind):
        result = gradient_check(12, 3, kind, seed=123)
        assert result.rel_error < 1e-5

    @pytest.mark.parametrize("kind", [CHORDAL, GEODESIC])
    def test_sgd_step_follows_the_checked_gradients(self, kind):
        # The gradients grad-check verifies are the ones train applies: one
        # update equals a retracted step along total_cost_and_gradients.
        rng = np.random.default_rng(11)
        training = [
            LabeledSubspace(sub(random_orthonormal(8, 2, rng), f"d{i}"), "ab"[i])
            for i in range(2)
        ]
        config = TrainConfig(subspace_dim=3, seed=4, epochs=1, distance_kind=kind,
                             lr_prototype=0.3, lr_relevance=0.2)
        steps = []
        train(training, config,
              update_hook=lambda bases, weights: steps.append(
                  ([b.copy() for b in bases], weights.copy())))
        assert len(steps) == 2

        # train's documented seeding: init and shuffle streams spawned from the seed
        init_seq, shuffle_seq = np.random.SeedSequence(config.seed).spawn(2)
        bases = [p.basis for p in init_prototypes(training, 1, 3, seed=init_seq)]
        weights = np.full(3, 1.0 / 3.0)
        first = training[int(np.random.default_rng(shuffle_seq).permutation(2)[0])]
        _, grads_w, grad_l = total_cost_and_gradients(
            bases, ["a", "b"], weights, [(first.subspace.basis, first.label)],
            config.beta, kind)

        got_bases, got_weights = steps[0]
        for basis, grad, got in zip(bases, grads_w, got_bases):
            assert np.abs(grad).max() > 1e-6
            np.testing.assert_allclose(
                got, qr_retract(basis - config.lr_prototype * grad), rtol=0, atol=1e-12)
        expected_weights = project_simplex(weights - config.lr_relevance * grad_l)
        assert np.abs(expected_weights - weights).max() > 1e-6
        np.testing.assert_allclose(got_weights, expected_weights, rtol=0, atol=1e-12)

    def test_geodesic_training_runs(self):
        rng = np.random.default_rng(7)
        training = [
            LabeledSubspace(sub(random_orthonormal(9, 2, rng), f"d{i}"), "ab"[i % 2])
            for i in range(10)
        ]
        config = TrainConfig(subspace_dim=3, seed=2, epochs=3, distance_kind=GEODESIC)
        state = train(training, config)
        assert state.distance_kind == GEODESIC
        assert len(state.training_log) == 4


class TestScore:
    def boundary_model(self):
        return tiny_model([np.eye(3)[:, [0]], np.eye(3)[:, [1]]], ["pos", "neg"])

    def test_half_at_decision_boundary(self):
        model = self.boundary_model()
        doc = sub(np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2.0))
        assert score(doc, model, "pos") == 0.5

    def test_zero_positive_distance(self):
        model = self.boundary_model()
        value = score(sub(np.eye(3)[:, [0]]), model, "pos")
        assert value == pytest.approx(1.0 / (1.0 + math.exp(-5.0)), abs=1e-15)
        assert value == pytest.approx(0.9933071490757153, abs=1e-12)

    def test_strictly_decreasing_in_positive_distance(self):
        # rotate the document away from the positive prototype on a grid
        model = self.boundary_model()
        values = []
        for angle in np.linspace(0.05, np.pi / 2 - 0.05, 20):
            doc = sub(np.array([[np.cos(angle)], [0.0], [np.sin(angle)]]))
            values.append(score(doc, model, "pos"))
        assert np.all(np.diff(values) < 0)

    def test_requires_binary_model(self):
        bases = [np.eye(4)[:, [i]] for i in range(3)]
        model = tiny_model(bases, ["a", "b", "c"])
        with pytest.raises(DataError):
            score(sub(bases[0]), model, "a")

    def test_unknown_positive_label(self):
        with pytest.raises(DataError):
            score(sub(np.eye(3)[:, [0]]), self.boundary_model(), "zzz")


class TestEvaluate:
    def make_model_and_docs(self):
        p_a = np.eye(6)[:, :2]
        p_b = np.eye(6)[:, 2:4]
        model = tiny_model([p_a, p_b], ["a", "b"])
        return model, p_a, p_b

    def test_prototypes_classify_themselves(self):
        model, p_a, p_b = self.make_model_and_docs()
        test = [LabeledSubspace(sub(p_a), "a"), LabeledSubspace(sub(p_b), "b")]
        assert evaluate(model, test).accuracy == 1.0

    def test_label_inversion_complements_accuracy(self):
        rng = np.random.default_rng(8)
        model, _, _ = self.make_model_and_docs()
        docs = [sub(random_orthonormal(6, 2, rng), f"d{i}") for i in range(16)]
        labels = ["a", "b"] * 8
        straight = evaluate(model, [LabeledSubspace(s, l) for s, l in zip(docs, labels)])
        flipped = evaluate(model, [
            LabeledSubspace(s, "b" if l == "a" else "a") for s, l in zip(docs, labels)])
        assert straight.accuracy == pytest.approx(1.0 - flipped.accuracy, abs=1e-12)

    def test_hand_tallied_confusion_matrix(self):
        model, p_a, p_b = self.make_model_and_docs()
        # 6 docs on a's span, 4 on b's span, with deliberate wrong labels
        test = (
            [LabeledSubspace(sub(p_a, f"a{i}"), "a") for i in range(4)]
            + [LabeledSubspace(sub(p_a, f"x{i}"), "b") for i in range(2)]
            + [LabeledSubspace(sub(p_b, f"b{i}"), "b") for i in range(3)]
            + [LabeledSubspace(sub(p_b, f"y{i}"), "a") for i in range(1)]
        )
        report = evaluate(model, test)
        assert report.confusion == {
            ("a", "a"): 4, ("b", "a"): 2, ("b", "b"): 3, ("a", "b"): 1}
        assert report.accuracy == pytest.approx(7 / 10)
        assert report.per_class["a"]["precision"] == pytest.approx(4 / 6)
        assert report.per_class["a"]["recall"] == pytest.approx(4 / 5)
        assert report.per_class["b"]["precision"] == pytest.approx(3 / 4)
        assert report.per_class["b"]["recall"] == pytest.approx(3 / 5)

    def test_empty_test_set_rejected(self):
        model, _, _ = self.make_model_and_docs()
        with pytest.raises(DataError):
            evaluate(model, [])


class TestCentroidBaseline:
    def test_one_example_per_class(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0]])
        model = centroid_train(vectors, ["a", "b"])
        assert centroid_predict(model, vectors[0]) == "a"
        assert centroid_predict(model, vectors[1]) == "b"

    def test_tie_breaks_by_class_order(self):
        model = CentroidModel(class_labels=["a", "b"],
                              centroids=np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert centroid_predict(model, np.array([1.0, 1.0])) == "a"

    def test_matches_oracle_reimplementation(self):
        rng = np.random.default_rng(9)
        vectors = rng.standard_normal((60, 5))
        labels = [("a", "b", "c")[i % 3] for i in range(60)]
        model = centroid_train(vectors, labels)

        def oracle(v):
            best, best_dist = None, np.inf
            for lab, c in zip(model.class_labels, model.centroids):
                nv, nc = np.linalg.norm(v), np.linalg.norm(c)
                dist = 1.0 if nv == 0 or nc == 0 else 1.0 - float(v @ c) / (nv * nc)
                if dist < best_dist:
                    best, best_dist = lab, dist
            return best

        probes = rng.standard_normal((40, 5))
        for v in probes:
            assert centroid_predict(model, v) == oracle(v)

    def test_zero_vector_is_fully_dissimilar(self):
        assert cosine_distance(np.zeros(3), np.array([1.0, 0, 0])) == 1.0
