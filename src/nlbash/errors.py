"""Exception types shared across the toolkit."""


class NlbashError(Exception):
    """Base class for every error raised by this package."""


class BashSyntaxError(NlbashError):
    """Command text the parser cannot represent.

    Raised for unbalanced quotes or substitutions, empty pipeline stages,
    and constructs the pipeline grammar does not cover (command lists,
    subshells, here-docs, process substitution, control flow).
    """


class UnknownUtilityError(NlbashError):
    """A command names a utility outside the active vocabulary."""

    def __init__(self, utility: str):
        super().__init__(f"unknown utility: {utility!r}")
        self.utility = utility


class VocabularyFormatError(NlbashError):
    """Malformed utility vocabulary file."""


class SchemaError(NlbashError):
    """A JSON input (a dataset or prediction line, a predictor reply, a saved
    index, calibration model or report) does not match its documented schema."""


class InvalidFractionsError(NlbashError):
    """Split fractions are negative or do not sum to 1."""


class EmptyCorpusError(NlbashError):
    """An index was built over zero documents."""


class EmptyPredictionSetError(NlbashError):
    """An example was scored with no predictions at all."""


class EmptyDatasetError(NlbashError):
    """An aggregate was requested over zero examples."""


class EmptySampleError(NlbashError):
    """Latency measurement was requested over an empty sample."""


class DegenerateLabelsError(NlbashError):
    """Calibration data is too small or single-class to fit a model.

    Raised when the pairs leave one side of the holdout split empty, when
    fewer than two rows reach the fit, or when every label is the same.
    """


class PredictorProtocolError(NlbashError):
    """A subprocess predictor violated the line-delimited JSON protocol."""
