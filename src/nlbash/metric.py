"""Template-level accuracy scoring for natural-language-to-Bash translators.

Scores compare argument-erased templates, so parameters never matter, but
utility order does and excess flags cost points. A prediction carries a
confidence delta in [0, 1] that scales its score linearly, and an example
aggregates its predictions by taking the best score when any is positive
and the plain average otherwise. Averaging (rather than clamping at zero)
is what makes padding the prediction list with zero-confidence junk
useless: wrong guesses still drag the example below zero.

All functions are pure; everything here is safe to call concurrently.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import EmptyDatasetError, EmptyPredictionSetError
from .parser import parse
from .template import TemplateCommand, normalize_template
from .vocab import UtilityVocabulary

DEFAULT_TOP_K = 5


@dataclass(frozen=True, slots=True)
class Prediction:
    """One raw translator output: command text plus confidence."""

    cmd: str
    confidence: float = 1.0


@dataclass(frozen=True, slots=True)
class ScoredPrediction:
    """A prediction normalized to a template, ready for scoring."""

    template: TemplateCommand
    delta: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.delta}")

    @classmethod
    def from_command(
        cls, cmd: str, delta: float = 1.0, vocab: UtilityVocabulary | None = None
    ) -> "ScoredPrediction":
        return cls(template=normalize_template(parse(cmd, vocab)), delta=delta)


class Aggregation(Enum):
    MAX_POSITIVE = "max_positive"
    AVERAGE = "average"


@dataclass(frozen=True, slots=True)
class ExampleScore:
    """Aggregated score of one example's prediction set."""

    value: float
    per_prediction: tuple[float, ...]
    aggregation: Aggregation


def flag_score(pred_flags: frozenset[str] | set[str], ref_flags: frozenset[str] | set[str]) -> float:
    """Score two flag sets: shared flags help, excess flags hurt.

    Returns (2*|intersection| - |union|) / max(|pred|, |ref|), which lives
    in [-2, 1]. Two empty sets score 1.0 (nothing asked for, nothing
    wrong).
    """
    n = max(len(pred_flags), len(ref_flags))
    if n == 0:
        return 1.0
    inter = len(pred_flags & ref_flags)
    union = len(pred_flags | ref_flags)
    return (2.0 * inter - union) / n


def _score_against(pred: TemplateCommand, ref: TemplateCommand, delta: float) -> float:
    t = max(len(pred.units), len(ref.units))
    total = 0.0
    for i in range(t):
        if (
            i < len(pred.units)
            and i < len(ref.units)
            and pred.units[i].utility == ref.units[i].utility
        ):
            total += 0.5 * (1.0 + flag_score(pred.units[i].flags, ref.units[i].flags))
        else:
            total -= 1.0
    return delta * total / t


def prediction_score(pred: ScoredPrediction, refs: Sequence[TemplateCommand]) -> float:
    """Best score of one prediction against any reference template.

    Utilities are compared position by position over the longer of the two
    commands; positions past the shorter one count as mismatches. The
    result is linear in the prediction's confidence and lies in
    [-delta, +delta].
    """
    if not refs:
        raise ValueError("refs must be non-empty")
    return max(_score_against(pred.template, ref, pred.delta) for ref in refs)


def aggregate_scores(scores: Sequence[float]) -> ExampleScore:
    """Fold per-prediction scores into one example score.

    Best score if any is strictly positive, otherwise the arithmetic mean
    of all of them — including any zero-confidence padding.
    """
    if not scores:
        raise EmptyPredictionSetError("cannot aggregate an empty prediction set")
    values = tuple(float(s) for s in scores)
    if any(s > 0.0 for s in values):
        return ExampleScore(max(values), values, Aggregation.MAX_POSITIVE)
    return ExampleScore(sum(values) / len(values), values, Aggregation.AVERAGE)


def example_score(
    predictions: Sequence[ScoredPrediction], refs: Sequence[TemplateCommand]
) -> ExampleScore:
    """Score one example's full prediction set against its references."""
    return aggregate_scores([prediction_score(p, refs) for p in predictions])


def dataset_score(per_example: Iterable[ExampleScore]) -> float:
    """Unweighted mean of example scores; the leaderboard number."""
    values = [e.value for e in per_example]
    if not values:
        raise EmptyDatasetError("cannot average zero example scores")
    return math.fsum(values) / len(values)


_WS_RUN = re.compile(r"\s+")


def _normalize_ws(text: str) -> str:
    return _WS_RUN.sub(" ", text).strip()


def full_command_accuracy(
    predictions: Sequence[Prediction],
    refs: Sequence[str],
    k: int = DEFAULT_TOP_K,
) -> bool:
    """Exact-text match: is any reference among the top-k predictions?

    Texts are compared after collapsing whitespace runs; no semantic
    equivalence is attempted.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    wanted = {_normalize_ws(r) for r in refs}
    return any(_normalize_ws(p.cmd) in wanted for p in list(predictions)[:k])
