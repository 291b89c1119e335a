"""Subspace classifier with learned class prototypes.

Each class is represented by one or more orthonormal D x d prototype bases.
A document subspace is compared to a prototype through its principal angles,
weighted by a shared learned relevance vector on the simplex.  Training
minimizes the relative-distance sigmoid cost by per-sample gradient descent:
prototype updates are retracted back onto orthonormal bases with QR, the
relevance vector is re-projected onto the simplex after every step.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError,
    DegenerateSampleError,
    DimensionError,
    NumericError,
)
from .geometry import (
    CHORDAL,
    DISTANCE_KINDS,
    PrincipalAngles,
    _row_distances,
    distance_gradient_basis,
    distance_gradient_weights,
    on_simplex,
    principal_angles,
    principal_system,
    project_simplex,
    qr_retract,
    sign_normalize_columns,
    weighted_distance,
)
from .subspace import LabeledSubspace, Subspace, _svd_basis, check_prototype_dim

log = logging.getLogger(__name__)

# Bases stacked per prototype at initialization; more adds little.
_INIT_SAMPLE_CAP = 10

# gradient_check: random documents per check, and the central-difference step.
_GRAD_CHECK_EXAMPLES = 6
_GRAD_CHECK_EPS = 1e-6
# run_gradient_checks: the first configuration's seed, also grad-check's default --seed.
GRAD_CHECK_SEED = 20240


@dataclass(frozen=True, kw_only=True)
class TrainConfig:
    """Training options and the CLI's defaults; one that breaks a rule cannot be built."""

    subspace_dim: int = 50
    seed: int
    beta: float = 5.0
    distance_kind: str = CHORDAL
    lr_prototype: float = 0.05
    lr_relevance: float = 0.005
    epochs: int = 100
    prototypes_per_class: int = 1

    def __post_init__(self):
        # The float rules are tested as "not inside", so NaN fails them too.
        if self.subspace_dim < 1:
            raise DimensionError("subspace_dim must be positive")
        if not self.beta > 0:
            raise DataError("beta must be positive")
        if self.distance_kind not in DISTANCE_KINDS:
            raise DataError(f"unknown distance kind {self.distance_kind!r}")
        if not self.lr_prototype > 0:
            raise DataError("prototype learning rate must be positive")
        if not self.lr_relevance >= 0:
            raise DataError("relevance learning rate must be nonnegative")
        if self.epochs < 0:
            raise DataError("epochs must be nonnegative")
        if self.prototypes_per_class < 1:
            raise DataError("prototypes_per_class must be positive")


@dataclass(frozen=True, kw_only=True, eq=False)
class ModelState:
    """A trained classifier: its prototype stack and labels, relevances, and metadata.

    ``prototypes`` is a ``(P, D, d)`` stack of orthonormal bases, ``prototype_labels``
    the class of each; the dimensions and class labels are read from the two.
    Construction makes ``prototypes`` and ``relevances`` read-only, so concurrent
    classify/score/evaluate need no coordination; a model compares and hashes by identity.
    ``training_log`` rows are (epoch, mean cost, training accuracy), with
    epoch 0 describing the freshly initialized model.
    """

    prototypes: np.ndarray
    prototype_labels: tuple[str, ...]
    relevances: np.ndarray
    sigmoid_slope: float
    distance_kind: str
    hyperparams: dict = field(default_factory=dict)
    training_log: list[tuple[int, float, float]] = field(default_factory=list)

    def __post_init__(self):
        if (self.prototypes.ndim != 3 or len(self.prototype_labels) != len(self.prototypes)
                or self.relevances.shape != (self.subspace_dim,)):
            raise DimensionError(f"{len(self.prototype_labels)} labels and {self.relevances.shape} "
                                 f"relevances do not fit a {self.prototypes.shape} prototype stack")
        self.prototypes.flags.writeable = False
        self.relevances.flags.writeable = False

    @property
    def embedding_dim(self) -> int:
        return self.prototypes.shape[1]

    @property
    def subspace_dim(self) -> int:
        return self.prototypes.shape[2]

    @property
    def class_labels(self) -> list[str]:
        return sorted(set(self.prototype_labels))


def sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def cost_term(d_plus: float, d_minus: float, beta: float) -> tuple[float, float]:
    """Relative distance difference mu and its sigmoid, the per-sample cost.

    mu = (d+ - d-) / (d+ + d-) lies in [-1, 1]; the cost reads as the
    probability of misclassifying the sample.
    """
    terms = _sample_terms((d_plus, d_minus), (True, False), beta)
    if terms is None:
        raise DegenerateSampleError(
            f"both winner distances are zero (d+={d_plus}, d-={d_minus})"
        )
    return (d_plus - d_minus) / (d_plus + d_minus), terms[2]


def distance(doc: Subspace, basis: np.ndarray, weights: np.ndarray, kind: str) -> float:
    """Relevance-weighted subspace distance between a document and a prototype basis."""
    _check_weights(weights)
    return weighted_distance(principal_angles(doc.basis, basis).cosines, weights, kind)


def _check_weights(weights: np.ndarray):
    if not on_simplex(weights):
        raise DataError("relevance weights must be nonnegative and sum to 1")


def _distances(doc_bases, stack: np.ndarray, weights, kind) -> np.ndarray:
    """``(n, P)`` distances from n same-width document bases to a ``(P, D, d)`` stack.

    One values-only SVD call covers every pair.  It stacks the small
    ``(n, P, m, d)`` basis products, not the ``(n, D, m)`` document bases.
    """
    products = np.stack([doc_basis.T @ stack for doc_basis in doc_bases])
    sv = np.linalg.svd(products, compute_uv=False)
    return weighted_distance(np.clip(sv, 0.0, 1.0), weights, kind)


def classify(doc: Subspace, model: ModelState) -> tuple[str, np.ndarray]:
    """Nearest-prototype prediction.

    Returns the winning label and the distance to every prototype.  Ties go
    to the lowest prototype index.
    """
    if doc.basis.shape[0] != model.embedding_dim:
        raise DimensionError(
            f"document dimension {doc.basis.shape[0]} does not match model "
            f"dimension {model.embedding_dim}"
        )
    dists = _distances([doc.basis], model.prototypes, model.relevances, model.distance_kind)[0]
    return model.prototype_labels[int(np.argmin(dists))], dists


def check_positive_label(model: ModelState, positive_label: str) -> None:
    """Reject probability scoring on a non-binary model or an unknown label."""
    if len(model.class_labels) != 2:
        raise DataError(
            f"probability scoring needs a binary model, got {len(model.class_labels)} classes"
        )
    if positive_label not in model.class_labels:
        raise DataError(f"unknown positive label {positive_label!r}")


def score(doc: Subspace, model: ModelState, positive_label: str) -> float:
    """Probability that the document belongs to the positive class.

    sigmoid(beta * (d_neg - d_pos) / (d_neg + d_pos)) over the nearest
    positive and nearest negative prototypes.  Requires a binary model;
    equals 0.5 exactly on the decision boundary d_pos = d_neg.
    """
    check_positive_label(model, positive_label)
    _, dists = classify(doc, model)
    return _decision(dists, model, positive_label)[2]


def _decision(dists: np.ndarray, model: ModelState, scored_label: str) -> tuple[int, int, float]:
    """Winner and runner-up prototype indices, and the probability of ``scored_label``.

    One :func:`_sample_terms` call, with ``scored_label`` as the wrong class, gives the
    probability and the nearest scored and other-label prototypes; the nearer is the winner
    (ties to the lowest index).  For the predicted label, or on a binary model, the other
    is the nearest prototype of another class than the winner's.
    """
    terms = _sample_terms(dists, [lab != scored_label for lab in model.prototype_labels],
                          model.sigmoid_slope)
    if terms is None:
        raise DegenerateSampleError("document is at zero distance to both classes")
    j, k, prob = terms
    return (j, k, prob) if (dists[j], j) < (dists[k], k) else (k, j, prob)


@dataclass
class EvalReport:
    accuracy: float
    per_class: dict[str, dict[str, float]]  # label -> precision/recall/support
    confusion: dict[tuple[str, str], int]   # (true, predicted) -> count


def evaluate(model: ModelState, test: list[LabeledSubspace]) -> EvalReport:
    """Accuracy, per-class precision/recall, and confusion counts."""
    if not test:
        raise DataError("empty test set")
    confusion: dict[tuple[str, str], int] = {}
    correct = 0
    for ex in test:
        pred, _ = classify(ex.subspace, model)
        confusion[(ex.label, pred)] = confusion.get((ex.label, pred), 0) + 1
        if pred == ex.label:
            correct += 1
    labels = sorted({t for t, _ in confusion} | {p for _, p in confusion} | set(model.class_labels))
    per_class = {}
    for lab in labels:
        tp = confusion.get((lab, lab), 0)
        predicted = sum(c for (t, p), c in confusion.items() if p == lab)
        actual = sum(c for (t, p), c in confusion.items() if t == lab)
        per_class[lab] = {
            "precision": tp / predicted if predicted else 0.0,
            "recall": tp / actual if actual else 0.0,
            "support": float(actual),
        }
    return EvalReport(accuracy=correct / len(test), per_class=per_class, confusion=confusion)


def _complete_basis(basis: np.ndarray, d: int, rng) -> np.ndarray:
    """Extend an orthonormal basis to d columns with seeded random directions."""
    dim = basis.shape[0]
    current = basis
    while current.shape[1] < d:
        v = rng.standard_normal(dim)
        # two projection passes keep the new column orthogonal to working precision
        v -= current @ (current.T @ v)
        v -= current @ (current.T @ v)
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            continue
        v /= norm
        current = np.hstack([current, sign_normalize_columns(v[:, None])])
    return current


def init_prototypes(
    training: list[LabeledSubspace], per_class: int, d: int, seed
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Seeded prototype initialization from stacked document bases.

    For each prototype, up to 10 random same-class documents are drawn, their
    bases stacked side by side, and the top-d left singular vectors
    (sign-normalized) taken as the initial basis.  If the stack has rank
    below d, the basis is completed with seeded random orthonormal columns.
    Returns the ``(P, D, d)`` stack and its labels, ``per_class`` per class in class order.
    """
    if not training:
        raise DataError("empty training set")
    labels = sorted({ex.label for ex in training})
    check_prototype_dim(d, training[0].subspace.basis.shape[0])
    rng = np.random.default_rng(seed)
    bases = []
    for label in labels:
        idxs = [i for i, ex in enumerate(training) if ex.label == label]
        for _ in range(per_class):
            take = min(_INIT_SAMPLE_CAP, len(idxs))
            chosen = rng.choice(len(idxs), size=take, replace=False)
            stacked = np.hstack([training[idxs[int(c)]].subspace.basis for c in chosen])
            basis = _svd_basis(stacked, d)
            if basis.shape[1] < d:
                basis = _complete_basis(basis, d, rng)
            bases.append(basis)
    return np.stack(bases), tuple(label for label in labels for _ in range(per_class))


def _sample_terms(dists, correct_mask, beta: float):
    """``(j, k, e)`` for one sample, or None if it is degenerate.

    ``j``/``k`` are the nearest correct-/wrong-class prototypes (ties to the
    lowest index), ``e`` the sigmoid cost; None when both are at distance 0.
    ``dists`` and ``correct_mask`` are per-prototype sequences: lists of
    floats and bools, or numpy arrays.
    """
    j = k = -1
    d_plus = d_minus = 0.0
    for i, (dist, correct) in enumerate(zip(dists, correct_mask)):
        if correct:
            if j < 0 or dist < d_plus:
                j, d_plus = i, dist
        elif k < 0 or dist < d_minus:
            k, d_minus = i, dist
    total = d_plus + d_minus
    if total <= 0.0:
        return None
    return j, k, sigmoid(beta * (d_plus - d_minus) / total)


def _sample_step(doc_basis, stack, correct_mask, weights, beta, kind):
    """One sample's cost and the distance gradients of its two winners.

    Returns ``(pair, e, de_dd, basis_grads, weight_grads)``, or None for a
    degenerate sample: ``pair`` is the index array ``[j, k]`` (see
    :func:`_sample_terms`), ``de_dd`` holds de/dd+ and de/dd-, and the
    ``(2, D, d)`` / ``(2, d)`` gradients are those of d+ and d-.
    """
    systems = principal_system(doc_basis, stack)
    dists = _row_distances(systems.cosines, weights, kind)
    terms = _sample_terms(dists, correct_mask, beta)
    if terms is None:
        return None
    j, k, e_val = terms
    d_plus, d_minus = dists[j], dists[k]
    common = beta * e_val * (1.0 - e_val) * 2.0 / (d_plus + d_minus)**2
    pair = np.array([j, k])
    # Indexing, unlike ``ndarray.take``, keeps each slice's memory layout,
    # and the gradient's matrix product rounds by layout.
    winners = PrincipalAngles(*(factor[pair] for factor in systems))
    return (pair, e_val, np.array([common * d_minus, -common * d_plus]),
            distance_gradient_basis(winners, doc_basis, weights, kind),
            distance_gradient_weights(winners.cosines, weights.size, kind))


def _cost_pass(stack, proto_labels, weights, examples, beta, kind) -> tuple[float, int, int]:
    """Summed cost, non-degenerate samples and nearest-prototype hits over (basis, label) pairs.

    Distances come from one :func:`_distances` call per document width.
    """
    by_width: dict[int, list[int]] = {}
    for i, (doc_basis, _) in enumerate(examples):
        by_width.setdefault(doc_basis.shape[1], []).append(i)
    all_dists = np.empty((len(examples), len(proto_labels)))
    for rows in by_width.values():
        all_dists[rows] = _distances([examples[i][0] for i in rows], stack, weights, kind)
    labels = {label for _, label in examples}
    masks = {label: [pl == label for pl in proto_labels] for label in labels}
    cost, counted, correct = 0.0, 0, 0
    for dists, (_, label) in zip(all_dists.tolist(), examples):
        correct += proto_labels[dists.index(min(dists))] == label
        terms = _sample_terms(dists, masks[label], beta)
        if terms is not None:
            cost += terms[2]
            counted += 1
    return cost, counted, correct


def _pass_stats(training, stack, proto_labels, weights, beta, kind) -> tuple[float, float]:
    """Mean cost and accuracy of the current state over a labeled set."""
    examples = [(ex.subspace.basis, ex.label) for ex in training]
    cost, counted, correct = _cost_pass(stack, proto_labels, weights, examples, beta, kind)
    if counted == 0:
        raise NumericError("every training sample is degenerate (zero distances)")
    return cost / counted, correct / len(training)


def train(training: list[LabeledSubspace], config: TrainConfig, update_hook=None) -> ModelState:
    """Stochastic gradient descent on the relative-distance sigmoid cost.

    Per epoch the samples are visited in a seeded shuffled order.  For each
    sample the nearest correct-class and nearest wrong-class prototypes are
    pulled/pushed along the distance gradient and retracted onto the
    orthonormal manifold via QR; the shared relevance vector follows its own
    gradient and is re-projected onto the simplex.  Samples at zero distance
    to both winners are skipped and counted.  Deterministic for a fixed
    seed, data and config.

    ``update_hook(bases, weights)``, if given, runs after every single
    update (instrumentation for invariant checks); ``bases`` is the live
    ``(P, D, d)`` prototype stack, updated in place.
    """
    if not training:
        raise DataError("empty training set")
    labels = sorted({ex.label for ex in training})
    if len(labels) < 2:
        raise DataError("training needs at least two classes")
    dims = {ex.subspace.basis.shape[0] for ex in training}
    if len(dims) != 1:
        raise DimensionError(f"inconsistent embedding dimensions in training set: {sorted(dims)}")
    d = config.subspace_dim

    init_seq, shuffle_seq = np.random.SeedSequence(config.seed).spawn(2)
    stack, proto_labels = init_prototypes(training, config.prototypes_per_class, d, seed=init_seq)
    weights = np.full(d, 1.0 / d)
    rng = np.random.default_rng(shuffle_seq)

    beta, kind = config.beta, config.distance_kind
    lr_w, lr_l = config.lr_prototype, config.lr_relevance
    masks = {lab: [pl == lab for pl in proto_labels] for lab in labels}

    training_log = []
    cost0, acc0 = _pass_stats(training, stack, proto_labels, weights, beta, kind)
    training_log.append((0, cost0, acc0))
    degenerate = 0

    for epoch in range(1, config.epochs + 1):
        for i in rng.permutation(len(training)).tolist():
            ex = training[i]
            step = _sample_step(ex.subspace.basis, stack, masks[ex.label], weights, beta, kind)
            if step is None:
                degenerate += 1
                log.debug("skipping degenerate sample %s (epoch %d)", ex.subspace.doc_id, epoch)
                continue
            pair, _, de_dd, grad_b, grad_w = step
            new = qr_retract(stack.take(pair, axis=0) - (lr_w * de_dd)[:, None, None] * grad_b)
            if not np.isfinite(new).all():
                raise NumericError(
                    f"non-finite prototype update at epoch {epoch}, "
                    f"sample {ex.subspace.doc_id!r}"
                )
            stack[pair] = new
            # lr 0 must leave the relevances bit-identical, so skip entirely
            if lr_l > 0.0:
                grad_l = de_dd[:, None] * grad_w
                weights = project_simplex(weights - lr_l * (grad_l[0] + grad_l[1]))
                if not np.isfinite(weights).all():
                    raise NumericError(f"non-finite relevance update at epoch {epoch}")
            if update_hook is not None:
                update_hook(stack, weights)
        cost, acc = _pass_stats(training, stack, proto_labels, weights, beta, kind)
        training_log.append((epoch, cost, acc))

    if degenerate:
        log.warning("skipped %d degenerate samples during training", degenerate)

    return ModelState(
        prototypes=stack,
        prototype_labels=proto_labels,
        relevances=weights,
        sigmoid_slope=beta,
        distance_kind=kind,
        hyperparams={
            "lr_prototype": lr_w,
            "lr_relevance": lr_l,
            "epochs": config.epochs,
            "seed": config.seed,
            "prototypes_per_class": config.prototypes_per_class,
        },
        training_log=training_log,
    )


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

def total_cost_and_gradients(stack, proto_labels, weights, examples, beta, kind):
    """Cost plus its gradient w.r.t. every prototype entry and weight."""
    grads_w = np.zeros_like(stack)
    grad_l = np.zeros_like(weights)
    cost = 0.0
    for doc_basis, label in examples:
        step = _sample_step(doc_basis, stack, [pl == label for pl in proto_labels],
                            weights, beta, kind)
        if step is None:
            continue
        pair, e_val, de_dd, grad_b, grad_w = step
        cost += e_val
        grads_w[pair] += de_dd[:, None, None] * grad_b
        grad_l += de_dd[0] * grad_w[0]
        grad_l += de_dd[1] * grad_w[1]
    return cost, grads_w, grad_l


@dataclass
class GradCheckResult:
    embedding_dim: int
    subspace_dim: int
    kind: str
    seed: int
    rel_error: float      # ||analytic - fd|| / max(||analytic||, ||fd||) over all params


def random_orthonormal(dim: int, k: int, rng) -> np.ndarray:
    return qr_retract(rng.standard_normal((dim, k)))


def gradient_check(embedding_dim: int, subspace_dim: int, kind: str, seed: int) -> GradCheckResult:
    """Compare analytic cost gradients against central finite differences.

    Every prototype entry and every relevance weight is probed with a
    +/- eps step.  The reported relative error is the norm of the gradient
    difference over the norm of the gradient, stacked across all parameters;
    it is the robust form of an entry-wise comparison when individual
    entries may be arbitrarily close to zero.
    """
    rng = np.random.default_rng(seed)
    labels = ["a", "b"]
    stack = np.stack([random_orthonormal(embedding_dim, subspace_dim, rng) for _ in labels])
    raw = 0.5 + rng.random(subspace_dim)
    weights = raw / raw.sum()
    # Keep document rank low enough that document and prototype spans are in
    # general position: rank + d > D forces principal cosines exactly 1,
    # where the sorted-angle cost is genuinely non-smooth.
    doc_rank = min(subspace_dim, embedding_dim - subspace_dim)
    examples = [
        (random_orthonormal(embedding_dim, doc_rank, rng), labels[i % 2])
        for i in range(_GRAD_CHECK_EXAMPLES)
    ]

    _, grads_w, grad_l = total_cost_and_gradients(stack, labels, weights, examples, 5.0, kind)
    analytic = np.concatenate([grads_w.ravel(), grad_l])

    # One flat vector holds every parameter: prototype entries, then weights.
    # _cost_pass checks no orthonormality, so the probes may move raw entries.
    params = np.concatenate([stack.ravel(), weights])
    split = stack.size

    def cost(probe):
        return _cost_pass(probe[:split].reshape(stack.shape), labels, probe[split:],
                          examples, 5.0, kind)[0]

    eps = _GRAD_CHECK_EPS
    numeric = np.empty_like(params)
    for i in range(params.size):
        probe = params.copy()
        probe[i] += eps
        up = cost(probe)
        probe[i] -= 2 * eps
        numeric[i] = (up - cost(probe)) / (2 * eps)

    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return GradCheckResult(
        embedding_dim=embedding_dim,
        subspace_dim=subspace_dim,
        kind=kind,
        seed=seed,
        rel_error=float(np.linalg.norm(analytic - numeric) / denom),
    )


def run_gradient_checks(base_seed: int = GRAD_CHECK_SEED, n_configs: int = 20):
    """Gradient checks over cycled (dim, d, kind) configurations.

    Returns (results, max relative error, elapsed seconds).
    """
    start = time.perf_counter()
    grid = itertools.cycle(itertools.product((8, 20), (2, 5), DISTANCE_KINDS))
    results = [gradient_check(dim, d, kind, seed=base_seed + i)
               for i, (dim, d, kind) in zip(range(n_configs), grid)]
    elapsed = time.perf_counter() - start
    worst = max(r.rel_error for r in results)
    return results, worst, elapsed


# ---------------------------------------------------------------------------
# Nearest-centroid baseline on mean vectors
# ---------------------------------------------------------------------------

@dataclass
class CentroidModel:
    """Per-class mean vectors; prediction by smallest cosine distance."""

    class_labels: list[str]
    centroids: np.ndarray  # (n_classes, D), row order matches class_labels


def centroid_train(vectors: np.ndarray, labels) -> CentroidModel:
    """Average the mean-vector representations per class."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise DataError("centroid training needs a nonempty (n, D) matrix")
    if len(labels) != vectors.shape[0]:
        raise DataError("labels and vectors disagree in length")
    class_labels = sorted(set(labels))
    centroids = np.vstack([
        vectors[[i for i, lab in enumerate(labels) if lab == cls]].mean(axis=0)
        for cls in class_labels
    ])
    return CentroidModel(class_labels=class_labels, centroids=centroids)


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - cosine similarity; zero vectors count as fully dissimilar."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 1.0
    return 1.0 - float(u @ v) / (nu * nv)


def centroid_predict(model: CentroidModel, vector: np.ndarray) -> str:
    """Label of the nearest centroid; ties go to the first class in order."""
    dists = [cosine_distance(vector, c) for c in model.centroids]
    return model.class_labels[int(np.argmin(dists))]
