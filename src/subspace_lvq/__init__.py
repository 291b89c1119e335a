"""Document classification by learned prototypes on word-embedding subspaces.

Documents become orthonormal bases (truncated SVD of their word vectors);
classes are learned prototype bases compared through relevance-weighted
principal-angle distances.  The package adds probability scoring, ranking
and percentile calibration for corpus triage, and per-word impact
explanations of individual decisions.
"""

from .embedding import (
    EmbeddingTable,
    PreprocessedDoc,
    WordMatrix,
    embed,
    load_embeddings,
    load_stopwords,
    preprocess,
    remove_stopwords,
    save_embeddings,
    tokenize,
)
from .errors import (
    DataError,
    DegenerateSampleError,
    DimensionError,
    EmptyDocumentError,
    FormatError,
    NotOrthonormalError,
    NumericError,
    ToolkitError,
)
from .geometry import (
    CHORDAL,
    GEODESIC,
    PrincipalAngles,
    principal_angles,
    project_simplex,
    qr_retract,
    weighted_distance,
)
from .model import (
    CentroidModel,
    EvalReport,
    ModelState,
    TrainConfig,
    centroid_predict,
    centroid_train,
    classify,
    cost_term,
    distance,
    evaluate,
    gradient_check,
    init_prototypes,
    run_gradient_checks,
    score,
    train,
)
from .model_io import load_model, model_checksum, save_model
from .subspace import LabeledSubspace, Subspace, compute_subspace, mean_vector
from .corpus import (
    CalibrationReport,
    CaseRecord,
    ScoredCase,
    batch_score,
    calibrate,
    count_above,
    ingest,
    rank,
    sample_for_annotation,
    split,
)
from .explain import ExplanationReport, WordImpact, explanation_report, word_impacts
from .synth import SyntheticCorpus, generate as generate_synthetic, write_synthetic

__version__ = "0.1.0"

__all__ = [
    "CHORDAL",
    "GEODESIC",
    "CalibrationReport",
    "CaseRecord",
    "CentroidModel",
    "DataError",
    "DegenerateSampleError",
    "DimensionError",
    "EmbeddingTable",
    "EmptyDocumentError",
    "EvalReport",
    "ExplanationReport",
    "FormatError",
    "LabeledSubspace",
    "ModelState",
    "NotOrthonormalError",
    "NumericError",
    "PreprocessedDoc",
    "PrincipalAngles",
    "ScoredCase",
    "Subspace",
    "SyntheticCorpus",
    "ToolkitError",
    "TrainConfig",
    "WordImpact",
    "WordMatrix",
    "batch_score",
    "calibrate",
    "centroid_predict",
    "centroid_train",
    "classify",
    "compute_subspace",
    "cost_term",
    "count_above",
    "distance",
    "embed",
    "evaluate",
    "explanation_report",
    "generate_synthetic",
    "gradient_check",
    "ingest",
    "init_prototypes",
    "load_embeddings",
    "load_model",
    "load_stopwords",
    "mean_vector",
    "model_checksum",
    "preprocess",
    "principal_angles",
    "project_simplex",
    "qr_retract",
    "rank",
    "remove_stopwords",
    "run_gradient_checks",
    "sample_for_annotation",
    "save_embeddings",
    "save_model",
    "score",
    "split",
    "tokenize",
    "train",
    "weighted_distance",
    "word_impacts",
    "write_synthetic",
]
