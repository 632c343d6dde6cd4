import dataclasses
import json
import os
import re
import sys
import textwrap
import time

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
from nlbash.metric import Aggregation, ExampleScore, Prediction, dataset_score
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
    report = EvaluationReport(
        predictor="x",
        k=5,
        per_example=[],
        mean_score=0.0,
        latency=LatencyStats(0.0, 0.0, 0.0),
        dataset_fingerprint="",
    )
    with pytest.raises(EmptyDatasetError):
        emit_report(report, "json")


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
