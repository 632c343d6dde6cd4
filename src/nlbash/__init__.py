"""Toolkit for parsing Bash commands and benchmarking NL-to-Bash translators.

The pieces fit together like this: ``parser`` turns command text into a
pipeline AST that reconstructs byte-identically; ``template`` erases
arguments to get the unit the ``metric`` scores; ``corpus`` loads,
filters, and splits datasets; ``retrieval`` is a TF-IDF baseline with
confidence calibration; ``harness`` runs any predictor over a dataset and
reports accuracy plus latency; ``synth`` generates seeded toy corpora for
demos and benchmarks.

The package root exports what the demos and the README use, the types of
the documented file formats and protocols, and the errors a caller is
likely to catch. Every other name is imported from its submodule.
"""

from .corpus import (
    Example,
    build_splits,
    filter_examples,
    load_examples,
    save_examples,
    utility_histogram,
)
from .errors import (
    BashSyntaxError,
    DegenerateLabelsError,
    EmptyCorpusError,
    NlbashError,
    SchemaError,
    UnknownUtilityError,
)
from .harness import (
    Predictor,
    SubprocessPredictor,
    emit_report,
    evaluate,
    score_prediction_file,
)
from .metric import Prediction, ScoredPrediction, example_score, prediction_score
from .parser import parse, reconstruct
from .retrieval import (
    CalibrationModel,
    TfIdfIndex,
    TfIdfPredictor,
    normalize_nl,
    pairs_from_examples,
    retrieve,
)
from .template import flatten_utilities, normalize_template
from .vocab import load_vocabulary

__version__ = "0.1.0"

__all__ = [
    "BashSyntaxError",
    "CalibrationModel",
    "DegenerateLabelsError",
    "EmptyCorpusError",
    "Example",
    "NlbashError",
    "Prediction",
    "Predictor",
    "SchemaError",
    "ScoredPrediction",
    "SubprocessPredictor",
    "TfIdfIndex",
    "TfIdfPredictor",
    "UnknownUtilityError",
    "build_splits",
    "emit_report",
    "evaluate",
    "example_score",
    "filter_examples",
    "flatten_utilities",
    "load_examples",
    "load_vocabulary",
    "normalize_nl",
    "normalize_template",
    "pairs_from_examples",
    "parse",
    "prediction_score",
    "reconstruct",
    "retrieve",
    "save_examples",
    "score_prediction_file",
    "utility_histogram",
]
