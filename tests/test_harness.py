import dataclasses
import json
import math
import os
import re
import signal
import sys
import textwrap
import time
from decimal import Decimal
from fractions import Fraction

import numpy
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference_impl import _contract_violation, evaluate_ref
from strategies import byte_lines, json_values, shell_text

from nlbash import harness
from nlbash.corpus import Example, filter_examples, utility_histogram
from nlbash.errors import (
    BashSyntaxError,
    EmptyDatasetError,
    NlbashError,
    SchemaError,
    UnknownUtilityError,
)
from nlbash.harness import (
    EvaluationReport,
    LatencyStats,
    SubprocessPredictor,
    emit_report,
    evaluate,
    load_prediction_file,
    score_prediction_file,
)
from nlbash.metric import Aggregation, ExampleScore, Prediction, aggregate_scores, dataset_score
from nlbash.retrieval import TfIdfIndex, pairs_from_examples
from nlbash.synth import toy_corpus
from nlbash.vocab import UtilityVocabulary, default_vocabulary

VOCAB = default_vocabulary()


def dataset(n=20, seed=1):
    return filter_examples(toy_corpus(n, seed=seed), VOCAB).kept


class OraclePredictor:
    """Returns the first reference verbatim."""

    name = "oracle"

    def __init__(self, examples):
        self._by_invocation = {e.invocation: e.references[0] for e in examples}

    def predict(self, nlc, k):
        return [Prediction(self._by_invocation[nlc], 1.0)]


class ConstantPredictor:
    def __init__(self, cmd, confidence=1.0):
        self.cmd = cmd
        self.confidence = confidence

    def predict(self, nlc, k):
        return [Prediction(self.cmd, self.confidence)]


class FailingPredictor:
    def predict(self, nlc, k):
        raise RuntimeError("boom")


class SilentPredictor:
    def predict(self, nlc, k):
        return []


def test_oracle_predictor_scores_exactly_one():
    data = dataset(25, seed=2)
    report = evaluate(OraclePredictor(data), data, k=5, vocab=VOCAB)
    assert report.mean_score == 1.0
    assert report.unparseable_prediction_count == 0
    assert report.predictor_failure_count == 0


def test_fixed_wrong_utility_scores_minus_one():
    data = [
        Example("1", "make a directory", ("mkdir d",)),
        Example("2", "make another directory", ("mkdir e",)),
    ]
    report = evaluate(ConstantPredictor("touch d"), data, k=5, vocab=VOCAB)
    assert report.mean_score == -1.0


def test_unparseable_prediction_scores_minus_delta():
    data = [Example("1", "list", ("ls",))]
    report = evaluate(ConstantPredictor("frobnicate -x", confidence=0.5), data, vocab=VOCAB)
    assert report.unparseable_prediction_count == 1
    assert report.per_example[0].score.per_prediction == (-0.5,)
    assert report.mean_score == -0.5


def test_predictor_failure_recorded_and_scored_minus_one():
    data = dataset(5, seed=3)
    report = evaluate(FailingPredictor(), data, vocab=VOCAB)
    assert report.predictor_failure_count == len(data)
    assert report.mean_score == -1.0
    assert all(r.error for r in report.per_example)


@pytest.mark.parametrize(
    "item",
    [
        Prediction("ls", float("nan")),
        Prediction("frobnicate -x", float("nan")),
        "ls",
        Prediction("ls", float("inf")),
        Prediction("ls", "0.5"),
        Prediction(None, 1.0),
        Prediction("ls", 10**400),
        Prediction("ls", True),
    ],
    ids=["nan", "nan-unparseable", "bare-str", "inf", "str-confidence", "none-cmd", "huge-int",
         "bool-confidence"],
)
def test_malformed_prediction_is_a_predictor_failure(item):
    class Malformed:
        def predict(self, nlc, k):
            return [Prediction("ls", 1.0), item]

    data = dataset(3, seed=3)
    report = evaluate(Malformed(), data, vocab=VOCAB)
    assert report.predictor_failure_count == len(data)
    assert report.unparseable_prediction_count == 0
    assert report.mean_score == -1.0
    assert all(r.error and r.score.per_prediction == (-1.0,) for r in report.per_example)


class _OwnFloat(float):
    """A float whose ``__float__`` gives another value, which the harness uses."""

    def __float__(self):
        return 0.25


@pytest.mark.parametrize(
    "confidence, delta",
    [
        (0.5, 0.5),
        (1.5, 1.0),
        (-0.5, 0.0),
        (_OwnFloat(0.75), 0.25),
        (numpy.float64(0.5), 0.5),
        (1, 1.0),
        (0, 0.0),
        (True, None),
        (Fraction(1, 4), 0.25),
        (Decimal("0.5"), None),
        (float("nan"), None),
    ],
    ids=["float", "float-above-one", "float-below-zero", "float-subclass", "numpy-float64", "int-one",
         "int-zero", "bool", "fraction", "decimal", "nan"],
)
def test_checked_reads_each_kind_of_confidence(confidence, delta):
    """A confidence is clamped to [0, 1] as a float, or (None here) breaks the contract."""
    prediction = Prediction("ls", confidence)
    got = harness._checked([prediction])
    if delta is None:
        assert got == f"prediction 0 needs a str cmd and a finite confidence, got {prediction!r}"
    else:
        assert got == [("ls", delta)] and type(got[0][1]) is float


@pytest.mark.parametrize(
    "item",
    [
        {"cmd": None, "confidence": 0.5},
        {"cmd": "ls", "confidence": "0.5"},
        {"cmd": 5, "confidence": 1.0},
        {"cmd": "ls", "confidence": float("nan")},
        {"cmd": "ls", "confidence": None},
        {"cmd": "ls", "confidence": 10**400},
        {"cmd": "ls", "confidence": True},
    ],
    ids=["null-cmd", "str-confidence", "int-cmd", "nan", "null-confidence", "huge-int",
         "true-confidence"],
)
def test_malformed_prediction_in_a_file_is_a_predictor_failure(tmp_path, item):
    data = dataset(3, seed=3)
    path = tmp_path / "preds.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for ex in data:
            record = {"id": ex.id, "predictions": [{"cmd": "ls", "confidence": 1.0}, item]}
            fh.write(json.dumps(record) + "\n")
    report = score_prediction_file(str(path), data, vocab=VOCAB)
    assert report.predictor_failure_count == len(data)
    assert report.unparseable_prediction_count == 0
    assert report.mean_score == -1.0


@pytest.mark.parametrize(
    "bad",
    [b"\xff\n", b"[" * 100_000 + b"\n", b'{"id": 5, "predictions": []}\n',
     b'{"id": null, "predictions": []}\n', b'{"id": "b", "predictions": {}}\n',
     b'{"id": "b", "predictions": ""}\n', b'{"id": "b"}\n', b'{"id": "a", "predictions": []}\n'],
    ids=["bad-utf8", "deep-json", "numeric-id", "null-id", "object-predictions", "string-predictions",
         "no-predictions", "repeated-id"],
)
def test_undecodable_prediction_line_reports_position(tmp_path, bad):
    path = tmp_path / "preds.jsonl"
    path.write_bytes(b'{"id": "a", "predictions": []}\n' + bad)
    with pytest.raises(SchemaError, match=r"preds\.jsonl:2: "):
        load_prediction_file(str(path))


@settings(max_examples=200, deadline=None)
@given(data=byte_lines)
def test_load_prediction_file_raises_only_nlbash_errors(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("preds") / "preds.jsonl"
    path.write_bytes(data)
    try:
        load_prediction_file(str(path))
    except SchemaError:
        pass


class FloatRefusingFloat(float):
    """A float whose own conversion raises."""

    def __float__(self):
        raise RuntimeError("hostile __float__ called")


class ClaimsFloat:
    """Not a number, though isinstance(obj, numbers.Real) believes its __class__."""

    __class__ = property(lambda self: float)

    def _repr_pretty_(self, printer, cycle):  # hypothesis's float printer would believe it too
        printer.text("ClaimsFloat()")


# Confidences of every kind: NaN, infinities, ints past float range,
# values that are not numbers at all, and ones whose conversion raises.
_CONFIDENCES = st.one_of(
    st.floats(),
    st.integers(),
    st.just(10**400),
    st.fractions(),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.builds(FloatRefusingFloat, st.floats()),
    st.builds(ClaimsFloat),
)


class HostileStr(str):
    """A str whose own methods raise: the harness must score it as its plain text."""

    def _refuse(self, *args, **kwargs):
        raise RuntimeError("hostile str method called")

    strip = __hash__ = __eq__ = __str__ = _refuse


class ClaimsStr:
    """Not a str, though isinstance(obj, str) believes its __class__."""

    __class__ = property(lambda self: str)


class RaisingAttributes:
    """A prediction whose cmd and confidence raise when read."""

    def _refuse(self):
        raise RuntimeError("hostile attribute read")

    cmd = confidence = property(_refuse)


_CMDS = st.one_of(
    st.sampled_from(["ls -la", "ls", "ls -l | wc -l"]),
    shell_text,
    st.none(),
    st.builds(HostileStr, st.sampled_from(["ls -la", "frobnicate -x", "ls |"])),
    st.builds(ClaimsStr),
)
_ITEMS = st.one_of(
    st.builds(Prediction, _CMDS, _CONFIDENCES),
    st.none(),
    st.integers(),
    st.builds(lambda: 10**5000),  # its repr exceeds the int str digit limit
    st.builds(RaisingAttributes),
    shell_text,
)
# What one predict call does: return a list of items or a non-iterable,
# or raise (also an exception whose repr fails).
_OUTPUTS = st.one_of(
    st.lists(_ITEMS, max_size=6),
    st.none(),
    st.integers(),
    st.builds(RuntimeError, st.text(max_size=4)),
    st.builds(lambda: ValueError(10**5000)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_OUTPUTS, min_size=1, max_size=3), st.integers(1, 5))
@example([[Prediction("ls -la", FloatRefusingFloat(0.5))]], 5)
@example([[Prediction("ls -la", ClaimsFloat())]], 5)
@example([[RaisingAttributes()]], 5)
@example([[Prediction("ls -la", 0.0), Prediction("ls -la", FloatRefusingFloat(0.0)), None]], 3)
def test_evaluate_never_raises_on_any_predictor_output(outputs, k):
    class Arbitrary:
        def __init__(self):
            self.replies = iter(outputs)

        def predict(self, nlc, k):
            reply = next(self.replies)
            if isinstance(reply, Exception):
                raise reply
            return reply

    data = [Example(str(i), "list the files", ("ls -la",)) for i in range(len(outputs))]
    report = evaluate(Arbitrary(), data, k=k, vocab=VOCAB)
    assert len(report.per_example) == len(data)
    for r in report.per_example:
        assert -1.0 <= r.score.value <= 1.0
        assert all(-1.0 <= v <= 1.0 for v in r.score.per_prediction)
    assert -1.0 <= report.mean_score <= 1.0
    try:
        want = evaluate_ref(Arbitrary(), data, k=k, vocab=VOCAB)
    except Exception:  # the unmemoized loop crashes on a hostile str, float or attribute
        return
    assert scores_of(report) == scores_of(want)


def scores_of(report):
    """Everything a report scores, floats by float.hex; latency left out."""
    return (
        [
            (
                r.example_id,
                float.hex(r.score.value),
                [float.hex(v) for v in r.score.per_prediction],
                r.score.aggregation,
                r.error,
            )
            for r in report.per_example
        ],
        report.unparseable_prediction_count,
        report.predictor_failure_count,
        float.hex(report.mean_score),
    )


_POOL = ["ls -la", "frobnicate -x", "find . -name x", "ls |", "df -h", "du -sh ."]


class RepeatingPredictor:
    """Echoes a reference, repeats an unparseable text, and cycles a small pool.

    The answer depends on the query alone, so two runs see the same outputs.
    """

    def __init__(self, examples):
        self._by_invocation = {e.invocation: (i, e) for i, e in enumerate(examples)}

    def predict(self, nlc, k):
        i, ex = self._by_invocation[nlc]
        if i % 11 == 5:
            raise RuntimeError("boom")
        if i % 13 == 7:  # breaks the contract: none of it may be parsed
            return [Prediction("cut -d: -f1 only_here", 1.0), Prediction("ls", float("nan"))]
        return [
            Prediction(ex.references[-1], 0.9),
            Prediction("echo 'unbalanced", 0.4),
            Prediction(_POOL[i % len(_POOL)], 0.7),
            Prediction(_POOL[(3 * i) % len(_POOL)], 0.2),
            Prediction(ex.references[0], 0.1),
        ]


def repeating_dataset():
    """Repeated references, and references that are earlier examples' predictions."""
    base = dataset(60, seed=11)
    data = list(base)
    for i, ex in enumerate(base[:20]):
        refs = (ex.references[0], base[i + 1].references[0], _POOL[2 if i % 3 == 0 else 4])
        data.append(Example(f"r{i}", ex.invocation + " again", refs))
    return data


def test_memoized_evaluate_scores_like_the_unmemoized_loop():
    data = repeating_dataset()
    got = evaluate(RepeatingPredictor(data), data, k=5, vocab=VOCAB)
    want = evaluate_ref(RepeatingPredictor(data), data, k=5, vocab=VOCAB)
    assert got.unparseable_prediction_count > len(data)  # the same two texts, counted per prediction
    assert got.predictor_failure_count > 0
    assert scores_of(got) == scores_of(want)


def test_evaluate_parses_and_templates_each_distinct_text_once(monkeypatch):
    # A vocabulary of its own, so no earlier filter's templates are read.
    vocab = UtilityVocabulary(VOCAB.flags)
    data = repeating_dataset()
    predictor = RepeatingPredictor(data)
    texts = set()
    for ex in data:
        texts.update(ex.references)
        try:
            predictions = predictor.predict(ex.invocation, 5)[:5]
        except RuntimeError:
            continue
        if _contract_violation(predictions) is None:
            texts.update(p.cmd for p in predictions)
    parsing = set()
    for text in texts:
        try:
            harness.parse(text, vocab)
            parsing.add(text)
        except (BashSyntaxError, UnknownUtilityError):
            pass
    assert "cut -d: -f1 only_here" not in texts and len(parsing) < len(texts)

    calls = {"parse": 0, "template": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "parse", counted("parse", harness.parse))
    monkeypatch.setattr(harness, "normalize_template", counted("template", harness.normalize_template))
    evaluate(predictor, data, k=5, vocab=vocab)
    assert calls == {"parse": len(texts), "template": len(parsing)}
    evaluate(predictor, data, k=5, vocab=vocab)  # the memo lives for one call
    assert calls == {"parse": 2 * len(texts), "template": 2 * len(parsing)}


class AnswerPredictor:
    """Answers each query with its stored prediction list."""

    def __init__(self, answers):
        self.answers = answers

    def predict(self, nlc, k):
        return self.answers[nlc]


_TOY_REFS = sorted({ref for ex in toy_corpus(200, seed=3) for ref in ex.references})
_TEXTS = st.one_of(st.sampled_from(_POOL + _TOY_REFS), shell_text)


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(st.lists(_TEXTS, min_size=1, max_size=3), st.lists(_TEXTS, max_size=4)),
    min_size=1, max_size=6,
))
def test_templates_recorded_by_the_filter_change_no_result(rows):
    examples = [Example(f"e{i}", f"query {i}", tuple(refs)) for i, (refs, _) in enumerate(rows)]
    filled = UtilityVocabulary(VOCAB.flags)
    kept = filter_examples(examples, filled).kept
    assume(kept)
    fresh = UtilityVocabulary(VOCAB.flags)  # no filter has run on it: an empty table
    predictor = AnswerPredictor(
        {f"query {i}": [Prediction(t, 0.25 + 0.5 * (j % 2)) for j, t in enumerate(predictions)]
         for i, (_, predictions) in enumerate(rows)}
    )
    assert filled._templates and not fresh._templates
    assert scores_of(evaluate(predictor, kept, k=5, vocab=filled)) == scores_of(
        evaluate(predictor, kept, k=5, vocab=fresh)
    )
    assert utility_histogram(kept, filled) == utility_histogram(kept, fresh)
    pairs = pairs_from_examples(kept)
    filled_docs, fresh_docs = (
        [(d.command, d.template) for d in TfIdfIndex(pairs, vocab).documents] for vocab in (filled, fresh)
    )
    assert filled_docs == fresh_docs


@pytest.mark.parametrize("seen_before", [False, True], ids=["fresh", "seen-as-prediction"])
@pytest.mark.parametrize(
    "text, error",
    [("echo 'x", BashSyntaxError), ("frobnicate -x", UnknownUtilityError)],
    ids=["syntax", "utility"],
)
def test_an_unparseable_reference_raises_its_error(text, error, seen_before):
    data = [
        Example("1", "list the files", ("ls -la",)),
        Example("2", "broken", ("ls", text)),
    ]
    predictor = ConstantPredictor(text if seen_before else "ls")
    with pytest.raises(error):
        evaluate(predictor, data, vocab=VOCAB)


def test_a_str_subclass_cmd_scores_as_its_plain_text():
    data = [
        Example("1", "list the files", ("ls -la",)),
        Example("2", "show disk use", ("df -h",)),
        Example("3", "odd", ("ls -l",)),
    ]
    for text in ["ls -la", "ls -al /tmp", "frobnicate -x", "ls |"]:
        plain = evaluate(ConstantPredictor(text, 0.6), data, vocab=VOCAB)
        hostile = evaluate(ConstantPredictor(HostileStr(text), 0.6), data, vocab=VOCAB)
        assert scores_of(hostile) == scores_of(plain)


def test_an_object_that_claims_str_is_a_predictor_failure():
    data = [Example("1", "list the files", ("ls -la",))]
    report = evaluate(ConstantPredictor(ClaimsStr()), data, vocab=VOCAB)
    assert report.predictor_failure_count == 1
    assert report.per_example[0].score.per_prediction == (-1.0,)


@pytest.mark.parametrize(
    "item",
    [Prediction("ls -la", FloatRefusingFloat(0.5)), Prediction("ls -la", ClaimsFloat()), RaisingAttributes()],
    ids=["float-refusing-float", "claims-float", "raising-attributes"],
)
def test_a_confidence_or_attribute_that_raises_is_a_predictor_failure(item):
    class Returns:
        def predict(self, nlc, k):
            return [Prediction("ls -la", 1.0), item]

    data = [Example("1", "list the files", ("ls -la",))]
    report = evaluate(Returns(), data, vocab=VOCAB)
    assert report.predictor_failure_count == 1
    assert report.per_example[0].score.per_prediction == (-1.0,)
    assert report.per_example[0].error.startswith("prediction 1 needs a str cmd")


def test_empty_prediction_set_abstains_at_zero():
    data = dataset(4, seed=4)
    report = evaluate(SilentPredictor(), data, vocab=VOCAB)
    assert report.mean_score == 0.0


def test_every_row_is_scored_by_aggregate_scores(monkeypatch):
    # a failure, an abstention and a scored set: one call each, the row holds its result
    calls = []

    def recording(scores):
        calls.append(list(scores))
        return aggregate_scores(scores)

    class Mixed:
        def predict(self, nlc, k):
            return {"a": lambda: 1 / 0, "b": list, "c": lambda: [Prediction("ls -la", 0.5)]}[nlc]()

    monkeypatch.setattr(harness, "aggregate_scores", recording)
    data = [Example(i, i, ("ls -la",)) for i in "abc"]
    report = evaluate(Mixed(), data, vocab=VOCAB)
    assert calls == [[-1.0], [], [0.5]]
    assert [r.score for r in report.per_example] == [
        ExampleScore(-1.0, (-1.0,), Aggregation.AVERAGE),
        ExampleScore(0.0, (), Aggregation.AVERAGE),
        ExampleScore(0.5, (0.5,), Aggregation.MAX_POSITIVE),
    ]
    assert [r.error for r in report.per_example] == ["ZeroDivisionError('division by zero')", None, None]


def test_mean_score_equals_dataset_score_of_examples():
    data = dataset(30, seed=5)
    report = evaluate(ConstantPredictor("ls -la /tmp"), data, vocab=VOCAB)
    assert report.mean_score == pytest.approx(
        dataset_score([r.score for r in report.per_example]), abs=1e-12
    )
    assert len(report.per_example) == len(data)


def test_report_fields_deterministic_given_fixed_predictor():
    data = dataset(15, seed=6)
    predictor = ConstantPredictor("ls")
    a = evaluate(predictor, data, vocab=VOCAB)
    b = evaluate(predictor, data, vocab=VOCAB)
    assert a.mean_score == b.mean_score
    assert a.dataset_fingerprint == b.dataset_fingerprint
    assert [r.score for r in a.per_example] == [r.score for r in b.per_example]


def test_excess_predictions_truncated_to_k():
    class Chatty:
        def predict(self, nlc, k):
            return [Prediction("ls", 1.0)] * 10

    data = dataset(3, seed=7)
    report = evaluate(Chatty(), data, k=2, vocab=VOCAB)
    assert all(len(r.score.per_prediction) == 2 for r in report.per_example)


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDatasetError):
        evaluate(ConstantPredictor("ls"), [], vocab=VOCAB)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: evaluate(ConstantPredictor("ls"), dataset(2), k=0, vocab=VOCAB), "k must be >= 1"),
        (lambda: emit_report(evaluate(ConstantPredictor("ls"), dataset(2), vocab=VOCAB), "xml"),
         "unknown report format: 'xml'"),
        (lambda: emit_report(evaluate(ConstantPredictor("ls"), dataset(2), vocab=VOCAB), "JSON"),
         "unknown report format: 'JSON'"),
    ],
    ids=["evaluate-k-0", "xml-report", "upper-case-report"],
)
def test_out_of_range_arguments_raise_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_evaluate_times_each_predict_call_once():
    calls = []

    class Sleeper:
        def predict(self, nlc, k):
            calls.append(nlc)
            time.sleep(0.01)
            return []

    data = dataset(3)
    report = evaluate(Sleeper(), data, vocab=VOCAB)
    assert calls == [ex.invocation for ex in data]
    assert all(r.latency_s >= 0.01 for r in report.per_example)
    assert report.latency == LatencyStats.from_samples([r.latency_s for r in report.per_example])


def test_latency_stats_percentile():
    stats = LatencyStats.from_samples([0.01] * 99 + [1.0])
    assert stats.p95 == 0.01
    assert stats.median == 0.01
    single = LatencyStats.from_samples([0.5])
    assert single.p95 == 0.5


# --- reporting -----------------------------------------------------------------

def test_report_json_round_trip():
    data = dataset(10, seed=8)
    report = evaluate(OraclePredictor(data), data, vocab=VOCAB)
    payload = emit_report(report, "json")
    loaded = EvaluationReport.from_json(payload.decode("utf-8"))
    assert loaded.mean_score == report.mean_score
    assert loaded.dataset_fingerprint == report.dataset_fingerprint
    assert loaded.per_example == report.per_example
    assert loaded.latency == report.latency


def _report_record(**changes):
    data = dataset(3)
    record = json.loads(emit_report(evaluate(OraclePredictor(data), data, vocab=VOCAB)))
    record.update(changes)
    return json.dumps(record)


def _row(example_id="a", per_prediction=(1.0,), latency_s=0.1, **changes):
    """A report row as ``to_json`` writes it, its score and aggregation derived, then
    ``changes``; a change to ``None`` drops that key."""
    score = aggregate_scores(per_prediction)
    row = {"id": example_id, "score": score.value, "aggregation": score.aggregation.value,
           "per_prediction": list(per_prediction), "latency_s": latency_s, **changes}
    return {key: value for key, value in row.items() if value is not None}


def _rows_record(rows, **changes):
    """A report over ``rows`` with each summary derived from them, then ``changes``;
    a change to ``None`` drops that key. A given mean or latency is not derived, as
    either may overflow."""
    record = {
        "predictor": "p", "k": 5, "mean_score": None, "latency": None,
        "dataset_fingerprint": "f", "unparseable_prediction_count": 0,
        "predictor_failure_count": sum("error" in r for r in rows), "per_example": rows,
    }
    if "mean_score" not in changes:
        record["mean_score"] = math.fsum(aggregate_scores(r["per_prediction"]).value for r in rows) / len(rows)
    if "latency" not in changes:
        latency = LatencyStats.from_samples([r["latency_s"] for r in rows])
        record["latency"] = {"mean": latency.mean, "median": latency.median, "p95": latency.p95}
    record.update(changes)
    return json.dumps({key: value for key, value in record.items() if value is not None})


# Latencies that an evaluation could write, whose mean overflows a float.
_OVERFLOWING_LATENCY = _rows_record([_row("a", latency_s=1e308), _row("b", latency_s=1e308)],
                                    latency={"mean": 1e308, "median": 1e308, "p95": 1e308})


def test_a_report_whose_summaries_match_its_rows_loads():
    rows = [_row("a", latency_s=0.25), _row("b", (-0.5, 0.0), 0.75), _row("c", (-1.0,), 0.5, error="")]
    report = EvaluationReport.from_json(_rows_record(rows))
    assert report.mean_score == (1.0 - 0.25 - 1.0) / 3
    assert report.latency == LatencyStats(0.5, 0.5, 0.75)
    assert report.predictor_failure_count == 1
    assert [r.score.aggregation for r in report.per_example] == [
        Aggregation.MAX_POSITIVE, Aggregation.AVERAGE, Aggregation.AVERAGE]
    # a row may hold an int where to_json writes a float; it reads as that float
    assert EvaluationReport.from_json(_rows_record([_row(per_prediction=(1,), latency_s=0)])).per_example[0].latency_s == 0.0


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(_rows_record([_row()], mean_score=0.25), "'mean_score' must be 1.0", id="mean"),
        pytest.param(_rows_record([_row(score=7.0)]), "report example 'a': 'score' must be 1.0",
                     id="row-score"),
        pytest.param(_rows_record([_row(aggregation="average")]), "'aggregation' must be 'max_positive'",
                     id="row-aggregation"),
        pytest.param(_rows_record([_row(latency_s=0.2)], latency={"mean": 0.1, "median": 0.2, "p95": 0.2}),
                     "'latency' must be", id="latency-mean"),
        pytest.param(_rows_record([_row()], predictor_failure_count=1), "'predictor_failure_count' must be 0",
                     id="failure-count"),
        pytest.param(_rows_record([_row(per_prediction=(-1.0,), error="boom")], predictor_failure_count=0),
                     "'predictor_failure_count' must be 1", id="uncounted-failure"),
        pytest.param(_rows_record([_row()], mean_score=True), "'mean_score' must be 1.0", id="bool-mean"),
        pytest.param(_rows_record([_row(per_prediction=(0.0,))], predictor_failure_count=False),
                     "'predictor_failure_count' must be 0", id="bool-count"),
        pytest.param(_rows_record([_row()], mean_score=None), "report: 'mean_score' must be", id="no-mean"),
        pytest.param(_rows_record([_row(score=None)]),
                     "report example 'a': 'score' must be", id="no-row-score"),
        pytest.param(_rows_record([_row()], per_example=[]), "no summary", id="no-rows"),
        pytest.param(_OVERFLOWING_LATENCY, "no summary", id="overflowing-latency-mean"),
    ],
)
def test_report_from_json_refuses_a_summary_its_rows_do_not_give(text, message):
    with pytest.raises(SchemaError, match=re.escape(message)):
        EvaluationReport.from_json(text)


@pytest.mark.parametrize(
    "row, changes, message",
    [
        pytest.param(_row(per_prediction=(1.0000001,)), {},
                     "report example 'a': 'per_prediction' must hold scores in [-1, 1], got 1.0000001",
                     id="score-above-one"),
        pytest.param(_row(per_prediction=(0.5, -1.5)), {},
                     "report example 'a': 'per_prediction' must hold scores in [-1, 1], got -1.5",
                     id="score-below-minus-one"),
        pytest.param(_row(per_prediction=(-1e308, -1e308), score=float("-inf")), {},
                     "report example 'a': 'per_prediction' must hold scores in [-1, 1], got -1e+308",
                     id="scores-whose-mean-is-infinite"),
        pytest.param(_row(latency_s=-1e-9), {}, "report example 'a': 'latency_s' must not be negative, got -1e-09",
                     id="negative-latency"),
        pytest.param(_row(latency_s=-3), {}, "report example 'a': 'latency_s' must not be negative, got -3.0",
                     id="negative-int-latency"),
        pytest.param(_row(), {"k": -3}, "report: 'k' must be at least 1, got -3", id="negative-k"),
        pytest.param(_row(), {"k": 0}, "report: 'k' must be at least 1, got 0", id="zero-k"),
        pytest.param(_row(per_prediction=(1.0, 0.5, 0.5)), {"k": 1},
                     "report example 'a': 'per_prediction' must hold at most k = 1 scores, got 3",
                     id="more-scores-than-k"),
        pytest.param(_row(error="boom"), {},
                     "report example 'a': a failure's 'per_prediction' must be [-1.0], got [1.0]",
                     id="failure-that-scores"),
        pytest.param(_row(per_prediction=(), error="boom"), {},
                     "report example 'a': a failure's 'per_prediction' must be [-1.0], got []",
                     id="failure-that-abstains"),
        pytest.param(_row(per_prediction=(-1.0, -1.0), error="boom"), {},
                     "report example 'a': a failure's 'per_prediction' must be [-1.0], got [-1.0, -1.0]",
                     id="failure-scored-twice"),
        pytest.param(_row(), {"unparseable_prediction_count": -7},
                     "report: 'unparseable_prediction_count' must be in [0, 2], the scores of rows without an "
                     "error, got -7", id="negative-unparseable-count"),
        pytest.param(_row(per_prediction=(-1.0,), error="boom"), {"unparseable_prediction_count": 99},
                     "report: 'unparseable_prediction_count' must be in [0, 1], the scores of rows without an "
                     "error, got 99", id="more-unparseable-than-answered"),
        pytest.param(_row(per_prediction=(-1.0,), error="boom"), {"unparseable_prediction_count": 2},
                     "report: 'unparseable_prediction_count' must be in [0, 1]", id="a-failure-is-not-unparseable"),
    ],
)
def test_report_from_json_refuses_a_score_or_latency_no_evaluation_writes(row, changes, message):
    text = _rows_record([_row("b"), {**row, "id": "a"}], mean_score=0.0, **changes)
    with pytest.raises(SchemaError, match=re.escape(message)):
        EvaluationReport.from_json(text)


@pytest.mark.parametrize(
    "row, changes",
    [
        (_row(per_prediction=(1.0,), latency_s=0.5), {}),
        (_row(per_prediction=(-1.0,), latency_s=0.5), {}),
        (_row(per_prediction=(1.0, -1.0), latency_s=-0.0), {}),
        (_row(per_prediction=(-1, 1), latency_s=0), {}),
        (_row(per_prediction=(1.0,)), {"k": 1}),
        (_row(per_prediction=(-1.0,), error="boom"), {}),
        (_row(per_prediction=(-0.5, -1.0, 0.0)), {"k": 3, "unparseable_prediction_count": 3}),
    ],
    ids=["score-one", "score-minus-one", "negative-zero-latency", "int-scores", "k-one", "failure",
         "all-unparseable"],
)
def test_report_from_json_loads_the_ends_of_each_range(row, changes):
    report = EvaluationReport.from_json(_rows_record([row], **changes))
    loaded = report.per_example[0]
    assert loaded.score.per_prediction == tuple(row["per_prediction"])
    assert loaded.latency_s == row["latency_s"] and loaded.error == row.get("error")
    assert (report.k, report.unparseable_prediction_count) == (changes.get("k", 5),
                                                               changes.get("unparseable_prediction_count", 0))


class _BlankError(Exception):
    def __repr__(self):
        return ""


class _BlankFailure:
    def predict(self, nlc, k):
        raise _BlankError()


def test_a_failure_described_by_an_empty_string_round_trips():
    data = dataset(2)
    report = evaluate(_BlankFailure(), data, vocab=VOCAB)
    assert [r.error for r in report.per_example] == ["", ""]
    assert report.predictor_failure_count == 2
    assert all(row["error"] == "" for row in json.loads(report.to_json())["per_example"])
    loaded = EvaluationReport.from_json(report.to_json())
    assert loaded == report and loaded.predictor_failure_count == 2


_ROUND_TRIP_DATA = dataset(20, seed=11)[:8]
# One predict call each: answers, an abstention, an unparseable command, contract
# violations, and raised exceptions (a class, raised fresh), one with an empty repr.
_BEHAVIOURS = st.one_of(
    st.lists(st.builds(Prediction, st.sampled_from(_POOL + _TOY_REFS[:20]), st.floats(0.0, 1.0)), max_size=3),
    st.just([]),
    st.just([Prediction("ls |", 0.5)]),
    st.sampled_from([[Prediction(5, 1.0)], [Prediction("ls", float("nan"))], [Prediction("ls", True)]]),
    st.sampled_from([RuntimeError, _BlankError]),
)
_DERIVED = ("mean_score", "mean", "median", "p95", "predictor_failure_count", "score", "aggregation")


class _ScriptedPredictor:
    def __init__(self, behaviours):
        self._behaviours = iter(behaviours)

    def predict(self, nlc, k):
        behaviour = next(self._behaviours)
        if isinstance(behaviour, type):
            raise behaviour()
        return behaviour


@settings(max_examples=150, deadline=None)
@given(behaviours=st.lists(_BEHAVIOURS, min_size=1, max_size=len(_ROUND_TRIP_DATA)), data=st.data())
def test_every_report_round_trips_and_refuses_a_changed_summary(behaviours, data):
    report = evaluate(_ScriptedPredictor(behaviours), _ROUND_TRIP_DATA[: len(behaviours)], vocab=VOCAB)
    text = report.to_json()
    loaded = EvaluationReport.from_json(text)
    assert loaded == report
    derived = [(r.mean_score, r.latency, r.predictor_failure_count) for r in (loaded, report)]
    assert derived[0] == derived[1]

    record = json.loads(text)
    key = data.draw(st.sampled_from(_DERIVED), label="key")
    if key in ("score", "aggregation"):
        holder = data.draw(st.sampled_from(record["per_example"]), label="row")
    else:
        holder = record["latency"] if key in ("mean", "median", "p95") else record
    old = holder[key]
    if key == "aggregation":
        new = {"average": "max_positive", "max_positive": "average"}[old]
    elif key == "predictor_failure_count":
        new = data.draw(st.integers(0, 10).filter(lambda n: n != old), label="new")
    else:
        new = data.draw(st.floats(-2.0, 2.0).filter(lambda v: v != old), label="new")
    holder[key] = new
    with pytest.raises(SchemaError):
        EvaluationReport.from_json(json.dumps(record))


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("not json", id="not-json"),
        pytest.param("[" * 100_000, id="deep-json"),
        pytest.param("[]", id="array"),
        pytest.param(json.dumps({"k": 5}), id="missing-keys"),
        pytest.param(_report_record(k="5"), id="string-k"),
        pytest.param(_report_record(k=True), id="bool-k"),
        pytest.param(_report_record(mean_score=None), id="null-mean"),
        pytest.param(_report_record(latency=[0.1, 0.1, 0.1]), id="list-latency"),
        pytest.param(_report_record(latency={"mean": 0.1}), id="short-latency"),
        pytest.param(_report_record(per_example=[3]), id="scalar-example"),
        pytest.param(_report_record(per_example=[{"id": "a"}]), id="short-example"),
        pytest.param(_report_record(per_example=[{"id": "a", "aggregation": "best", "score": 1.0,
                                                  "per_prediction": [1.0], "latency_s": 0.1}]),
                     id="unknown-aggregation"),
        pytest.param(_report_record(per_example=[{"id": "a", "aggregation": "average", "score": 1.0,
                                                  "per_prediction": ["1"], "latency_s": 0.1}]),
                     id="string-per-prediction"),
        pytest.param(_report_record(per_example=[{"id": "a", "aggregation": "average", "score": 1.0,
                                                  "per_prediction": [], "latency_s": 0.1,
                                                  "error": 7}]),
                     id="int-error"),
        pytest.param(_report_record(mean_score=float("nan")), id="nan-mean"),
        pytest.param(_report_record(latency={"mean": 0.1, "median": 0.1, "p95": float("inf")}),
                     id="infinite-p95"),
        pytest.param(_report_record(mean_score=10**400), id="huge-int-mean"),
        pytest.param(_report_record(per_example=[{"id": "a", "aggregation": "average", "score": 1.0,
                                                  "per_prediction": [float("-inf")], "latency_s": 0.1}]),
                     id="infinite-per-prediction"),
        pytest.param(_report_record(predictor="\ud800"), id="escaped-surrogate"),
        pytest.param(_report_record(predictor="\ud800").replace("\\ud800", "\ud800"),
                     id="raw-surrogate"),
    ],
)
def test_report_from_json_rejects_a_malformed_report(text):
    with pytest.raises(SchemaError):
        EvaluationReport.from_json(text)


@pytest.mark.parametrize("metadata", [{"seed": 1}, [], None], ids=["object", "list", "null"])
def test_report_from_json_ignores_a_metadata_key(metadata):
    # a report no longer carries "metadata"; one written by an older version
    # loads like any report with an extra key
    record = json.loads(_report_record())
    assert "metadata" not in record
    plain = EvaluationReport.from_json(json.dumps(record))
    assert EvaluationReport.from_json(json.dumps({**record, "metadata": metadata})) == plain


# Text that json escapes, leaves raw or cannot write as UTF-8, among any other text.
_REPORT_TEXT = st.lists(
    st.text(max_size=8) | st.sampled_from(["", '"', "\\", "\u2028", "\ud800", "\x00\x1f\x7f", "\n", "é"]),
    max_size=3,
).map("".join)
_REPORT_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf])
_IN_MEMORY_REPORTS = st.builds(
    EvaluationReport,
    predictor=_REPORT_TEXT,
    k=st.integers(),
    per_example=st.lists(
        st.builds(
            harness.ExampleResult,
            _REPORT_TEXT,
            st.builds(ExampleScore, _REPORT_FLOATS,
                      (st.lists(_REPORT_FLOATS, max_size=3) | st.lists(_REPORT_FLOATS, min_size=40, max_size=60))
                      .map(tuple),
                      st.sampled_from(Aggregation)),
            _REPORT_FLOATS,
            st.none() | _REPORT_TEXT,
        ),
        max_size=4,
    ),
    dataset_fingerprint=_REPORT_TEXT,
    unparseable_prediction_count=st.integers(),
)


class _Text(str):
    pass


@settings(max_examples=300, deadline=None)
@given(report=_IN_MEMORY_REPORTS)
@example(report=EvaluationReport("p", 5, [harness.ExampleResult(
    "\u2028\x00\"", ExampleScore(math.nan, (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16), Aggregation.AVERAGE),
    -0.0, "\ud800")], "f"))
@example(report=EvaluationReport(  # leaves of other types than a report of evaluate holds
    _Text("p"), True, [harness.ExampleResult(_Text("a"), ExampleScore(1, (1, None, _OwnFloat(0.5)), Aggregation.AVERAGE),
                                             _OwnFloat(0.5), ("t", [1.0], {}))], ("f",), 10**30))
def test_to_json_writes_what_json_dumps_writes(report):
    try:
        expected = json.dumps(report._payload(), ensure_ascii=False, indent=2)
    except Exception as exc:  # no rows, or floats whose mean fsum refuses
        with pytest.raises(type(exc)):
            report.to_json()
    else:
        assert report.to_json() == expected


_NEAR_EXAMPLE = st.fixed_dictionaries(
    {
        "id": st.just("a") | json_values,
        "score": st.floats() | json_values,
        "aggregation": st.sampled_from(["average", "max_positive", "best"]) | json_values,
        "per_prediction": st.lists(st.floats() | json_values, max_size=3) | json_values,
        "latency_s": st.floats() | json_values,
    },
    optional={"error": st.text(max_size=4) | json_values},
)
_NEAR_REPORT = st.fixed_dictionaries(
    {
        "predictor": st.just("p") | json_values,
        "k": st.integers() | json_values,
        "mean_score": st.floats() | json_values,
        "latency": st.fixed_dictionaries({q: st.floats() | json_values for q in ("mean", "median", "p95")})
        | json_values,
        "dataset_fingerprint": st.just("f") | json_values,
        "unparseable_prediction_count": st.integers() | json_values,
        "predictor_failure_count": st.integers() | json_values,
        "per_example": st.lists(_NEAR_EXAMPLE, max_size=3) | json_values,
    },
    optional={"metadata": st.dictionaries(st.text(max_size=4), json_values, max_size=2) | json_values},
)


@settings(max_examples=300, deadline=None)
@given(text=st.text(max_size=30) | (json_values | _NEAR_REPORT).map(json.dumps))
@example(text=_report_record(predictor="\ud800"))
@example(text=_report_record(mean_score=10**400))
@example(text=_OVERFLOWING_LATENCY)
@example(text=_rows_record([_row()], per_example=[]))
def test_report_from_json_raises_only_schema_errors(text):
    try:
        report = EvaluationReport.from_json(text)
    except SchemaError:
        return
    try:
        for fmt in ("json", "table"):  # what loads can be written back
            emit_report(report, fmt)
    except EmptyDatasetError:
        pass


def test_report_table_contains_leaderboard_columns():
    data = dataset(5, seed=9)
    report = evaluate(OraclePredictor(data), data, vocab=VOCAB)
    table = emit_report(report, "table").decode("utf-8")
    assert "Accuracy Score" in table
    assert "Latency (sec)" in table
    # the predictor column fits the name; up to 28 characters it keeps its old width
    for name in ("OraclePredictor", "tfidf+dedupe+normalize+calibrated"):
        named = dataclasses.replace(report, predictor=name)
        header, rule, row = emit_report(named, "table").decode("utf-8").splitlines()[:3]
        assert len(header) == len(rule) == len(row) == max(28, len(name)) + 30
        end = header.index("Accuracy Score") + len("Accuracy Score")
        assert row.startswith(name + " ") and row[:end].endswith(f" {report.mean_score:.4f}")


class _RaisingName(ConstantPredictor):
    @property
    def name(self):
        raise RuntimeError("hostile name")


class _IntName(ConstantPredictor):
    name = 5


class _ListName(ConstantPredictor):
    name = ["x"]


class _Text(str):
    def __str__(self):
        raise RuntimeError("hostile __str__ called")


class _StrSubclassName(ConstantPredictor):
    name = _Text("custom")


@pytest.mark.parametrize(
    "predictor_cls, expected",
    [(_RaisingName, "_RaisingName"), (_IntName, "_IntName"), (_ListName, "_ListName"),
     (_StrSubclassName, "custom")],
    ids=["raising", "int", "list", "str-subclass"],
)
def test_predictor_name_is_plain_text_or_the_class_name(predictor_cls, expected):
    data = dataset(3, seed=9)
    report = evaluate(predictor_cls("ls"), data, vocab=VOCAB)
    assert report.predictor == expected and type(report.predictor) is str
    loaded = EvaluationReport.from_json(report.to_json())
    assert loaded.predictor == expected
    assert expected in emit_report(report, "table").decode("utf-8")


def test_emit_report_empty_rejected():
    # a report with no rows has no mean score, so neither format can be written
    report = EvaluationReport(predictor="x", k=5, per_example=[], dataset_fingerprint="")
    for fmt in ("json", "table"):
        with pytest.raises(EmptyDatasetError):
            emit_report(report, fmt)


# --- offline scoring -------------------------------------------------------------

def write_predictions(path, data, predictor, k=5):
    with open(path, "w", encoding="utf-8") as fh:
        for ex in data:
            preds = predictor.predict(ex.invocation, k)
            fh.write(
                json.dumps(
                    {
                        "id": ex.id,
                        "predictions": [
                            {"cmd": p.cmd, "confidence": p.confidence} for p in preds
                        ],
                    }
                )
                + "\n"
            )


def test_offline_score_matches_live_evaluation(tmp_path):
    data = dataset(20, seed=10)
    predictor = OraclePredictor(data)
    live = evaluate(predictor, data, k=5, vocab=VOCAB)

    path = tmp_path / "preds.jsonl"
    write_predictions(path, data, predictor)
    offline = score_prediction_file(str(path), data, k=5, vocab=VOCAB)
    assert offline.mean_score == live.mean_score
    assert [r.score for r in offline.per_example] == [r.score for r in live.per_example]


class ThreeGuessPredictor:
    """A wrong guess, an unparseable text and the first reference, in that order
    or reversed; with k=2 the first order averages and the reverse finds the reference."""

    def __init__(self, examples):
        self._by_invocation = {e.invocation: e.references[0] for e in examples}

    def predict(self, nlc, k):
        guesses = [Prediction("touch x", 0.4), Prediction("frobnicate", 0.2),
                   Prediction(self._by_invocation[nlc], 0.8)]
        return guesses[::-1] if len(nlc) % 2 else guesses


def test_offline_score_abstains_on_a_missing_id_and_ignores_an_extra_one(tmp_path):
    data = dataset(12, seed=11)
    predictor = ThreeGuessPredictor(data)
    live = evaluate(predictor, data, k=2, vocab=VOCAB)

    missing = data[4].id
    path = tmp_path / "preds.jsonl"
    write_predictions(path, [ex for ex in data if ex.id != missing], predictor)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "not-in-the-dataset", "predictions": [{"cmd": "ls", "confidence": 1.0}]}) + "\n")
    offline = score_prediction_file(str(path), data, k=2, vocab=VOCAB)

    assert [r.example_id for r in offline.per_example] == [e.id for e in data]
    for got, want in zip(offline.per_example, live.per_example):
        if got.example_id == missing:
            assert got.score == ExampleScore(0.0, (), Aggregation.AVERAGE)
        else:
            assert got.score == want.score


def test_offline_score_refuses_a_reference_id_held_twice(tmp_path, monkeypatch):
    # the file answers "a" once, so the two examples with that id have no single answer
    data = [Example("a", "list files", ("ls",)), Example("b", "where am i", ("pwd",)),
            Example("a", "count lines", ("wc -l f",))]
    path = tmp_path / "preds.jsonl"
    path.write_text(json.dumps({"id": "a", "predictions": [{"cmd": "ls", "confidence": 1.0}]}) + "\n",
                    encoding="utf-8")
    scored = []
    monkeypatch.setattr(harness, "evaluate", lambda *args, **kwargs: scored.append(args))
    with pytest.raises(SchemaError, match=re.escape("reference id 'a' is held by more than one example")):
        score_prediction_file(str(path), data, vocab=VOCAB)
    assert scored == []
    monkeypatch.undo()
    live = evaluate(OraclePredictor(data), data, vocab=VOCAB)  # evaluate keeps taking a repeated id
    assert [r.example_id for r in live.per_example] == ["a", "b", "a"] and live.mean_score == 1.0


def test_replay_predictor_answers_each_call_with_the_next_list():
    first, second = [Prediction("ls", 1.0)], [Prediction("pwd", 0.5), Prediction("cd", 0.2)]
    replay = harness.ReplayPredictor(iter([first, [], second]))
    assert replay.predict("any query", k=5) == first
    assert replay.predict("first", k=5) == []
    assert replay.predict("any query", k=1) == second  # evaluate keeps the first k


# --- subprocess protocol -----------------------------------------------------------

ECHO_PREDICTOR = textwrap.dedent(
    """
    import json, sys
    for line in sys.stdin:
        request = json.loads(line)
        reply = [{"cmd": "ls -la", "confidence": 0.9}]
        sys.stdout.write(json.dumps(reply) + "\\n")
        sys.stdout.flush()
    """
)


def test_subprocess_predictor_round_trip(tmp_path):
    script = tmp_path / "predictor.py"
    script.write_text(ECHO_PREDICTOR, encoding="utf-8")
    data = [Example("1", "list files", ("ls -la",))]
    with SubprocessPredictor([sys.executable, str(script)]) as predictor:
        report = evaluate(predictor, data, k=5, vocab=VOCAB)
    assert report.mean_score == pytest.approx(0.9)


@pytest.mark.parametrize(
    "command, problem",
    [("", "is a str"), ("   ", "is a str"), (f"{sys.executable} p.py", "is a str"), ([], "is empty")],
    ids=["empty", "blank", "str", "no-argv"],
)
def test_subprocess_predictor_refuses_a_str_or_an_empty_command(command, problem, monkeypatch):
    # a str is a Sequence[str] too; splitting a command line is the CLI's job
    def no_popen(*args, **kwargs):
        raise AssertionError("Popen ran")

    monkeypatch.setattr("nlbash.harness.subprocess.Popen", no_popen)
    with pytest.raises(ValueError, match=re.escape(f"predictor command {command!r} {problem}")):
        SubprocessPredictor(command)


def test_subprocess_reply_is_not_coerced(tmp_path):
    script = tmp_path / "null_cmd.py"
    script.write_text(ECHO_PREDICTOR.replace('"ls -la"', "None"), encoding="utf-8")
    data = [Example("1", "list files", ("ls -la",))]
    with SubprocessPredictor([sys.executable, str(script)]) as predictor:
        report = evaluate(predictor, data, k=5, vocab=VOCAB)
    # a null cmd is a predictor failure, not the command text "None"
    assert report.predictor_failure_count == 1
    assert report.unparseable_prediction_count == 0


def test_subprocess_predictor_protocol_error(tmp_path):
    script = tmp_path / "bad.py"
    script.write_text("import sys; sys.stdin.readline(); print('not json')", encoding="utf-8")
    data = [Example("1", "list files", ("ls",))]
    with SubprocessPredictor([sys.executable, str(script)]) as predictor:
        report = evaluate(predictor, data, k=5, vocab=VOCAB)
    # protocol violations surface as predictor failures, scored -1
    assert report.predictor_failure_count == 1
    assert report.mean_score == -1.0


@pytest.mark.parametrize("reply", ["{}", '""', "null"], ids=["object", "string", "null"])
def test_subprocess_reply_that_is_not_an_array_is_a_predictor_failure(tmp_path, reply):
    script = tmp_path / "not_an_array.py"
    script.write_text(f"import sys; sys.stdin.readline(); print({reply!r})", encoding="utf-8")
    data = [Example("1", "list files", ("ls",))]
    with SubprocessPredictor([sys.executable, str(script)]) as predictor:
        report = evaluate(predictor, data, k=5, vocab=VOCAB)
    assert report.predictor_failure_count == 1
    assert report.per_example[0].error.startswith("PredictorProtocolError('predictor reply: expected a JSON array")


def test_subprocess_reply_without_a_final_newline_is_read_at_exit(tmp_path):
    script = tmp_path / "last_word.py"
    script.write_text(
        "import sys; sys.stdin.readline(); "
        "sys.stdout.write('[{\"cmd\": \"ls -la\", \"confidence\": 0.9}]')",
        encoding="utf-8",
    )
    data = [Example("1", "list files", ("ls -la",))]
    with SubprocessPredictor([sys.executable, str(script)]) as predictor:
        report = evaluate(predictor, data, k=5, vocab=VOCAB)
    assert report.predictor_failure_count == 0
    assert report.mean_score == pytest.approx(0.9)


def test_subprocess_predictor_that_exits_without_a_reply_fails(tmp_path):
    script = tmp_path / "mute.py"
    script.write_text("import sys; sys.stdin.readline()", encoding="utf-8")
    data = [Example("1", "list files", ("ls",))]
    with SubprocessPredictor([sys.executable, str(script)]) as predictor:
        report = evaluate(predictor, data, k=5, vocab=VOCAB)
    assert report.mean_score == -1.0
    assert report.per_example[0].error == (
        "PredictorProtocolError('predictor closed its output stream')"
    )


def test_subprocess_reply_line_is_capped(tmp_path, monkeypatch):
    monkeypatch.setattr("nlbash.harness.MAX_REPLY_BYTES", 1000)
    script = tmp_path / "stream.py"
    script.write_text(
        "import sys, time; sys.stdin.readline(); "
        "sys.stdout.write('x' * 65536); sys.stdout.flush(); time.sleep(60)",
        encoding="utf-8",
    )
    data = dataset(2, seed=5)
    start = time.monotonic()
    with SubprocessPredictor([sys.executable, str(script)]) as predictor:
        report = evaluate(predictor, data, k=5, vocab=VOCAB)
    # the child is killed at the cap, not at the reply timeout
    assert time.monotonic() - start < 10
    assert [r.score.value for r in report.per_example] == [-1.0, -1.0]
    assert "exceeds 1000 bytes" in report.per_example[0].error
    assert "exited" in report.per_example[1].error


def test_subprocess_reply_line_of_a_mebibyte_in_small_writes_decodes_exactly(tmp_path):
    script = tmp_path / "long.py"
    script.write_text(
        textwrap.dedent(
            """
            import json, sys
            sys.stdin.readline()
            long = json.dumps([{"cmd": "ls " + "a" * (1 << 20), "confidence": 0.25}]) + "\\n"
            for i in range(0, len(long), 1000):
                sys.stdout.write(long[i:i + 1000])
                sys.stdout.flush()
            sys.stdout.write('[{"cmd": "ls -la"}]\\n[{"cmd": "df -h"}]\\n')  # two at once
            sys.stdout.flush()
            sys.stdin.read()
            """
        ),
        encoding="utf-8",
    )
    with SubprocessPredictor([sys.executable, str(script)]) as predictor:
        assert predictor.predict("list files", 5) == [Prediction("ls " + "a" * (1 << 20), 0.25)]
        assert predictor.predict("list files", 5) == [Prediction("ls -la")]
        assert predictor.predict("list files", 5) == [Prediction("df -h")]


@pytest.mark.parametrize(
    "reply",
    ["", "sys.stdout.write('[{\"cmd\": \"ls\"'); sys.stdout.flush(); "],
    ids=["never-answers", "half-a-line"],
)
def test_subprocess_reply_times_out(tmp_path, monkeypatch, reply):
    monkeypatch.setattr("nlbash.harness.REPLY_TIMEOUT_S", 0.5)
    script = tmp_path / "stall.py"
    script.write_text(f"import sys, time; sys.stdin.readline(); {reply}time.sleep(60)",
                      encoding="utf-8")
    data = dataset(2, seed=5)
    start = time.monotonic()
    with SubprocessPredictor([sys.executable, str(script)]) as predictor:
        report = evaluate(predictor, data, k=5, vocab=VOCAB)
    # the stalled child is killed, and the next call fails at once
    assert time.monotonic() - start < 10
    assert report.predictor_failure_count == 2
    assert [r.score.value for r in report.per_example] == [-1.0, -1.0]
    assert "within 0.5 s" in report.per_example[0].error
    assert "exited" in report.per_example[1].error


def test_close_kills_and_reaps_a_child_that_ignores_sigterm(tmp_path, monkeypatch):
    monkeypatch.setattr("nlbash.harness.CLOSE_TIMEOUT_S", 0.5)
    script = tmp_path / "stubborn.py"
    script.write_text(
        "import signal, sys, time\n"
        "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
        "sys.stdin.readline(); print('[]', flush=True)\n"
        "while True: time.sleep(1)\n",
        encoding="utf-8",
    )
    predictor = SubprocessPredictor([sys.executable, str(script)])
    assert predictor.predict("list files", 5) == []  # SIGTERM is ignored from here on
    start = time.monotonic()
    predictor.close()
    # terminate is ignored, so close kills the child after its 0.5 s wait and reaps it
    assert 0.5 <= time.monotonic() - start < 30
    assert predictor._proc.returncode == -signal.SIGKILL
