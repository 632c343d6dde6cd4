"""Toolkit for parsing Bash commands and benchmarking NL-to-Bash translators.

The pieces fit together like this: ``parser`` turns command text into a
pipeline AST that reconstructs byte-identically; ``template`` erases
arguments to get the unit the ``metric`` scores; ``corpus`` loads,
filters, and splits datasets; ``retrieval`` is a TF-IDF baseline with
confidence calibration; ``harness`` runs any predictor over a dataset and
reports accuracy plus latency; ``synth`` generates seeded toy corpora for
demos and benchmarks.
"""

from .corpus import (
    Example,
    FilterReport,
    RejectReason,
    Source,
    build_splits,
    dataset_fingerprint,
    filter_examples,
    load_examples,
    save_examples,
    utility_histogram,
)
from .errors import (
    BashSyntaxError,
    DegenerateLabelsError,
    EmptyCorpusError,
    EmptyDatasetError,
    EmptyPredictionSetError,
    EmptySampleError,
    InvalidFractionsError,
    NlbashError,
    SchemaError,
    UnknownUtilityError,
    VocabularyFormatError,
)
from .harness import (
    EvaluationReport,
    LatencyStats,
    Predictor,
    SubprocessPredictor,
    emit_report,
    evaluate,
    measure_latency,
    score_prediction_file,
)
from .metric import (
    Aggregation,
    ExampleScore,
    Prediction,
    ScoredPrediction,
    dataset_score,
    example_score,
    flag_score,
    full_command_accuracy,
    prediction_score,
)
from .parser import CommandAST, SimpleCommand, Token, TokenKind, parse, reconstruct
from .retrieval import (
    CalibrationModel,
    RetrievalHit,
    TfIdfIndex,
    TfIdfPredictor,
    calibrate,
    dedupe_hits,
    normalize_nl,
    retrieve,
    train_calibrator,
)
from .template import TemplateCommand, TemplateUnit, flatten_utilities, normalize_template
from .vocab import UtilityVocabulary, default_vocabulary, load_vocabulary

__version__ = "0.1.0"

__all__ = [
    "Aggregation",
    "BashSyntaxError",
    "CalibrationModel",
    "CommandAST",
    "DegenerateLabelsError",
    "EmptyCorpusError",
    "EmptyDatasetError",
    "EmptyPredictionSetError",
    "EmptySampleError",
    "EvaluationReport",
    "Example",
    "ExampleScore",
    "FilterReport",
    "InvalidFractionsError",
    "LatencyStats",
    "NlbashError",
    "Prediction",
    "Predictor",
    "RejectReason",
    "RetrievalHit",
    "SchemaError",
    "ScoredPrediction",
    "SimpleCommand",
    "Source",
    "SubprocessPredictor",
    "TemplateCommand",
    "TemplateUnit",
    "TfIdfIndex",
    "TfIdfPredictor",
    "Token",
    "TokenKind",
    "UnknownUtilityError",
    "UtilityVocabulary",
    "VocabularyFormatError",
    "build_splits",
    "calibrate",
    "dataset_fingerprint",
    "dataset_score",
    "dedupe_hits",
    "default_vocabulary",
    "emit_report",
    "evaluate",
    "example_score",
    "filter_examples",
    "flag_score",
    "flatten_utilities",
    "full_command_accuracy",
    "load_examples",
    "load_vocabulary",
    "measure_latency",
    "normalize_nl",
    "normalize_template",
    "parse",
    "prediction_score",
    "reconstruct",
    "retrieve",
    "save_examples",
    "score_prediction_file",
    "train_calibrator",
    "utility_histogram",
]
