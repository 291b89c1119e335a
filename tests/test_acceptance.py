"""Acceptance gate: one test per release criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines on the terminal.  Every tolerance is pinned here; nothing
is deferred to later calibration.
"""

import numpy as np

from subspace_lvq.corpus import (
    CaseRecord,
    batch_score,
    count_above,
    rank,
    split,
)
from subspace_lvq.geometry import (
    CHORDAL,
    GEODESIC,
    orthonormality_residual,
    principal_system,
    project_simplex,
    qr_retract,
    weighted_distance,
)
from subspace_lvq.model import (
    TrainConfig,
    centroid_predict,
    centroid_train,
    classify,
    evaluate,
    run_gradient_checks,
    score,
    sigmoid,
    train,
)
from subspace_lvq.model_io import load_model, save_model
from subspace_lvq.explain import explanation_report, word_impacts
from subspace_lvq.embedding import WordMatrix, embed, preprocess
from subspace_lvq.subspace import LabeledSubspace, Subspace, compute_subspace, mean_vector
from subspace_lvq.corpus import corpus_to_subspaces


def _report(num, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num:2d}: {status} - {description}{suffix}")


def random_orthonormal(dim, k, rng):
    return qr_retract(rng.standard_normal((dim, k)))


def eigen_oracle_cosines(basis_a, basis_b):
    """Principal cosines via the symmetric projector product P_a P_b P_a."""
    proj_a = basis_a @ basis_a.T
    proj_b = basis_b @ basis_b.T
    m = min(basis_a.shape[1], basis_b.shape[1])
    evals = np.linalg.eigvalsh(proj_a @ proj_b @ proj_a)
    return np.sqrt(np.clip(evals[::-1][:m], 0.0, 1.0))


def grid_oracle_max_cosine(basis_a, basis_b, n=2500):
    """Brute-force largest cosine over a fine grid of unit vectors."""
    def circle(basis):
        if basis.shape[1] == 1:
            return basis
        alphas = np.linspace(0.0, np.pi, n)
        return basis @ np.vstack([np.cos(alphas), np.sin(alphas)])

    return float(np.abs(circle(basis_a).T @ circle(basis_b)).max())


def eigen_oracle_distance(doc_basis, proto_basis, lam, kind):
    sig = eigen_oracle_cosines(doc_basis, proto_basis)
    m = sig.size
    if kind == CHORDAL:
        per = 1.0 - sig**2
    else:
        per = (4.0 / np.pi**2) * np.arccos(sig) ** 2
    return float(lam[:m] @ per + lam[m:].sum())


def test_criterion_01_gradient_correctness():
    results, worst, elapsed = run_gradient_checks(base_seed=20240, n_configs=20)
    dims = {(r.embedding_dim, r.subspace_dim) for r in results}
    kinds = {r.kind for r in results}
    ok = worst < 1e-5 and elapsed < 60.0 and len(results) == 20
    ok = ok and dims == {(8, 2), (8, 5), (20, 2), (20, 5)} and kinds == {CHORDAL, GEODESIC}
    _report(1, "analytic vs central-difference gradients (eps=1e-6, tol 1e-5)",
            ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_manifold_invariants():
    rng = np.random.default_rng(77)
    training = [
        LabeledSubspace(Subspace(f"d{i}", random_orthonormal(12, 3, rng)), "ab"[i % 2])
        for i in range(25)
    ]
    worst_resid = 0.0
    worst_lambda = 0.0
    updates = 0

    def hook(bases, weights):
        nonlocal worst_resid, worst_lambda, updates
        updates += 1
        worst_resid = max(worst_resid, max(orthonormality_residual(b) for b in bases))
        worst_lambda = max(worst_lambda, abs(float(weights.sum()) - 1.0))
        assert np.all(weights >= 0.0)

    train(training, TrainConfig(subspace_dim=4, seed=5, epochs=40), update_hook=hook)
    ok = updates >= 1000 and worst_resid < 1e-8 and worst_lambda < 1e-12
    _report(2, "orthonormality < 1e-8 and simplex within 1e-12 after 1000+ updates",
            ok, f"{updates} updates, resid {worst_resid:.2e}, simplex {worst_lambda:.2e}")
    assert ok


def test_criterion_03_distance_properties():
    rng = np.random.default_rng(99)
    worst_rotation = 0.0
    worst_symmetry = 0.0
    range_ok = True
    zero_iff_ok = True
    cases = 0
    for i in range(1000):
        dim = int(rng.integers(4, 12))
        d = int(rng.integers(1, min(5, dim // 2) + 1))
        k = int(rng.integers(1, d + 1))
        doc = random_orthonormal(dim, k, rng)
        proto = random_orthonormal(dim, d, rng)
        lam = project_simplex(rng.random(d) + 0.1)
        kind = CHORDAL if i % 2 == 0 else GEODESIC

        base = weighted_distance(principal_system(doc, proto).cosines, lam, kind)
        chordal_val = weighted_distance(principal_system(doc, proto).cosines, lam, CHORDAL)
        range_ok = range_ok and -1e-12 <= chordal_val <= 1.0 + 1e-12

        rot_doc = doc @ qr_retract(rng.standard_normal((k, k)))
        rot_proto = proto @ qr_retract(rng.standard_normal((d, d)))
        rotated = weighted_distance(principal_system(rot_doc, rot_proto).cosines, lam, kind)
        worst_rotation = max(worst_rotation, abs(rotated - base))

        # same span, rotated parameterization: distance must vanish
        same_span = proto @ qr_retract(rng.standard_normal((d, d)))
        zero_val = weighted_distance(principal_system(same_span, proto).cosines, lam, CHORDAL)
        zero_iff_ok = zero_iff_ok and zero_val < 1e-10
        if k == d:
            # generic distinct spans: distance must not vanish
            zero_iff_ok = zero_iff_ok and chordal_val > 1e-10

        swap_a = principal_system(doc, proto).cosines
        swap_b = principal_system(proto, doc).cosines
        worst_symmetry = max(worst_symmetry, float(np.max(np.abs(swap_a - swap_b))))
        cases += 1
    ok = (cases >= 1000 and worst_rotation < 1e-10 and worst_symmetry < 1e-10
          and range_ok and zero_iff_ok)
    _report(3, "rotation invariance, [0,1] range, zero iff equal span, swap symmetry",
            ok, f"{cases} cases, rot {worst_rotation:.2e}, sym {worst_symmetry:.2e}")
    assert ok


def test_criterion_04_oracle_equivalence(trained):
    rng = np.random.default_rng(123)
    worst = 0.0
    # eigen oracle on random 3-D and 5-D subspace pairs
    for dim in (3, 5):
        for _ in range(200):
            ka = int(rng.integers(1, dim))
            kb = int(rng.integers(1, dim))
            a = random_orthonormal(dim, ka, rng)
            b = random_orthonormal(dim, kb, rng)
            mine = principal_system(a, b).cosines
            oracle = eigen_oracle_cosines(a, b)
            worst = max(worst, float(np.max(np.abs(mine - oracle))))
    # grid oracle for the largest cosine on 3-D examples
    for _ in range(6):
        a = random_orthonormal(3, 2, rng)
        b = random_orthonormal(3, 2, rng)
        mine = principal_system(a, b).cosines[0]
        worst = max(worst, abs(mine - grid_oracle_max_cosine(a, b)))
    angles_ok = worst < 1e-6

    # NPC agreement with an exhaustively computed independent distance table
    model = trained.model
    lam = model.relevances
    mismatches = 0
    for ex in trained.test_examples[:100]:
        label, _ = classify(ex.subspace, model)
        table = [eigen_oracle_distance(ex.subspace.basis, basis, lam,
                                       model.distance_kind)
                 for basis in model.prototypes]
        oracle_label = model.prototype_labels[int(np.argmin(table))]
        if label != oracle_label:
            mismatches += 1
    ok = angles_ok and mismatches == 0
    _report(4, "principal angles match grid/eigen oracles (1e-6); NPC matches table",
            ok, f"worst angle err {worst:.2e}, {mismatches} mismatches")
    assert ok


def test_criterion_05_synthetic_end_to_end(trained):
    report = evaluate(trained.model, trained.test_examples)
    accuracy = report.accuracy

    # nearest-centroid baseline on mean vectors, reported with no threshold
    def mean_of(rec):
        doc = preprocess(rec.case_id, rec.text, trained.stoplist)
        return mean_vector(embed(doc, trained.corpus.table))

    train_vectors = np.vstack([mean_of(r) for r in trained.train_records])
    train_labels = [r.label for r in trained.train_records]
    centroid_model = centroid_train(train_vectors, train_labels)
    hits = sum(
        centroid_predict(centroid_model, mean_of(r)) == r.label
        for r in trained.test_records
    )
    baseline = hits / len(trained.test_records)

    ok = accuracy >= 0.95 and trained.train_seconds < 120.0
    _report(5, "synthetic two-class corpus: test accuracy >= 95%, training < 2 min",
            ok, f"accuracy {accuracy:.4f}, baseline {baseline:.4f}, "
                f"train {trained.train_seconds:.1f}s")
    assert ok


def test_criterion_06_score_contract(trained):
    # exact half at the decision boundary
    from subspace_lvq.model import ModelState
    boundary_model = ModelState(
        prototypes=np.stack([np.eye(3)[:, [0]], np.eye(3)[:, [1]]]),
        prototype_labels=("pos", "neg"),
        relevances=np.array([1.0]),
        sigmoid_slope=5.0, distance_kind=CHORDAL)
    doc = Subspace("mid", np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2.0))
    half_exact = score(doc, boundary_model, "pos") == 0.5

    # strict monotone decrease in the positive distance on a grid
    values = []
    for angle in np.linspace(0.02, np.pi / 2 - 0.02, 40):
        probe = Subspace("p", np.array([[np.cos(angle)], [0.0], [np.sin(angle)]]))
        values.append(score(probe, boundary_model, "pos"))
    monotone = bool(np.all(np.diff(values) < 0))

    # closed-form agreement on the trained model within 1e-12
    model = trained.model
    worst = 0.0
    labels = model.prototype_labels
    for ex in trained.test_examples[:50]:
        value = score(ex.subspace, model, "topic_a")
        _, dists = classify(ex.subspace, model)
        d_pos = min(d for d, l in zip(dists, labels) if l == "topic_a")
        d_neg = min(d for d, l in zip(dists, labels) if l != "topic_a")
        closed = sigmoid(model.sigmoid_slope * (d_neg - d_pos) / (d_neg + d_pos))
        worst = max(worst, abs(value - closed))
    ok = half_exact and monotone and worst < 1e-12
    _report(6, "score: exact 0.5 at boundary, strictly decreasing, closed form 1e-12",
            ok, f"closed-form dev {worst:.2e}")
    assert ok


def test_criterion_07_explanation_properties(trained):
    rng = np.random.default_rng(11)
    model = trained.model
    # word-order permutation changes no impact by more than 1e-10
    worst = 0.0
    for rec in trained.test_records[:10]:
        doc_pre = preprocess(rec.case_id, rec.text, trained.stoplist)
        matrix = embed(doc_pre, trained.corpus.table)
        sub = compute_subspace(matrix, model.subspace_dim)
        base = {wi.word: wi.impact for wi in word_impacts(matrix, sub, model)}
        perm = rng.permutation(matrix.n_words)
        matrix_p = WordMatrix(doc_id=rec.case_id,
                              columns=matrix.columns[:, perm],
                              tokens=[matrix.tokens[int(i)] for i in perm])
        sub_p = compute_subspace(matrix_p, model.subspace_dim)
        shuffled = {wi.word: wi.impact for wi in word_impacts(matrix_p, sub_p, model)}
        for word, value in base.items():
            worst = max(worst, abs(shuffled[word] - value))
    permutation_ok = worst < 1e-10

    # planted discriminative words hold >= 8 of the top-10 positive impacts
    planted = {lab: set(ws) for lab, ws in trained.corpus.discriminative_words.items()}
    hits = []
    for rec in trained.test_records[:50]:
        report = explanation_report(rec, model, trained.corpus.table,
                                    trained.stoplist, k=len(set(rec.text.split())))
        positive = sorted((wi for wi in report.impacts if wi.impact > 0),
                          key=lambda wi: (-wi.impact, wi.word))[:10]
        hits.append(sum(1 for wi in positive
                        if wi.word in planted[report.predicted_label]))
    mean_hits = float(np.mean(hits))
    ok = permutation_ok and mean_hits >= 8.0
    _report(7, "impacts permutation-stable (1e-10); planted words >= 8 of top 10",
            ok, f"perm dev {worst:.2e}, planted {mean_hits:.2f}/10 over {len(hits)} docs")
    assert ok


def test_criterion_08_pipeline_numerics():
    records = ([CaseRecord(f"r{i}", "x", "relevant") for i in range(928)]
               + [CaseRecord(f"n{i}", "x", "other") for i in range(687)])
    train_recs, test_recs = split(records, 0.8, seed=4)
    split_ok = len(train_recs) == 1292 and len(test_recs) == 323

    rng = np.random.default_rng(13)
    values = list(rng.random(1000))
    from subspace_lvq.corpus import ScoredCase
    scored = [ScoredCase(case_id=f"c{i}", score=v, predicted_label="p")
              for i, v in enumerate(values)]
    ranked = rank(scored)
    by_id = {s.case_id: s.percentile for s in ranked}
    rank_ok = True
    for i, v in enumerate(values):
        lower = sum(1 for w in values if w < v)
        if by_id[f"c{i}"] != 100.0 * lower / len(values):
            rank_ok = False
            break
    count_ok = True
    for threshold in rng.random(25):
        expected = sum(1 for v in values if v > threshold)
        if count_above(scored, float(threshold)) != expected:
            count_ok = False
            break
    ok = split_ok and rank_ok and count_ok
    _report(8, "1615@0.8 -> 1292/323; rank and count match oracle recounts exactly",
            ok, f"split {len(train_recs)}/{len(test_recs)}")
    assert ok


def test_criterion_09_serialization_bit_exact(tmp_path, trained):
    model_path = tmp_path / "model.bin"
    save_model(trained.model, model_path)
    reloaded = load_model(model_path)
    records = trained.test_records[:50]
    direct, skipped_a = batch_score(records, trained.model, trained.corpus.table,
                                    trained.stoplist, "topic_a")
    loaded, skipped_b = batch_score(records, reloaded, trained.corpus.table,
                                    trained.stoplist, "topic_a")
    ok = (not skipped_a and not skipped_b
          and [(s.case_id, s.score) for s in direct]
          == [(s.case_id, s.score) for s in loaded])
    _report(9, "save -> load -> batch_score reproduces scores bit-exactly",
            ok, f"{len(direct)} scores compared")
    assert ok


def test_criterion_10_labeled_corpus_tables(tmp_path, trained):
    # Published corpus-specific accuracies and detection counts need the
    # original annotated dataset, which is not distributable; criteria 1-9
    # cover the mechanics.  Here: a labeled corpus in the documented format
    # must flow through evaluate and calibrate into comparable tables.
    from subspace_lvq.corpus import calibrate, ingest, write_corpus

    corpus_path = tmp_path / "labeled.jsonl"
    write_corpus(trained.test_records, corpus_path)
    records = ingest(corpus_path)
    examples, skipped = corpus_to_subspaces(records, trained.corpus.table,
                                            trained.stoplist,
                                            trained.model.subspace_dim)
    report = evaluate(trained.model, examples)
    eval_ok = (not skipped and 0.0 <= report.accuracy <= 1.0
               and set(report.per_class) == {"topic_a", "topic_b"}
               and all(set(m) == {"precision", "recall", "support"}
                       for m in report.per_class.values()))

    scored, _ = batch_score(records, trained.model, trained.corpus.table,
                            trained.stoplist, "topic_a")
    ranked = rank(scored)
    annotations = {r.case_id: r.label == "topic_a" for r in records}
    calib = calibrate(ranked, annotations,
                      [(75.0, 100.0), (50.0, 75.0), (25.0, 50.0), (0.0, 25.0)],
                      target_precision=0.9)
    calib_ok = (len(calib.bands) == 4
                and all(b.fraction_positive is None or 0.0 <= b.fraction_positive <= 1.0
                        for b in calib.bands)
                and calib.threshold_score is not None)
    ok = eval_ok and calib_ok
    _report(10, "documented-format labeled corpus yields evaluate/calibrate tables",
            ok, f"accuracy {report.accuracy:.4f}, threshold {calib.threshold_score:.4f}")
    assert ok
