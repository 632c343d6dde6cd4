"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

import pytest

from nlbash.corpus import build_splits, filter_examples
from nlbash.harness import evaluate
from nlbash.metric import (
    Prediction,
    ScoredPrediction,
    aggregate_scores,
    prediction_score,
)
from nlbash.parser import parse, reconstruct
from nlbash.retrieval import TfIdfPredictor, pairs_from_examples
from nlbash.synth import command_corpus, toy_corpus
from nlbash.template import TemplateCommand, TemplateUnit, normalize_template
from nlbash.vocab import default_vocabulary

from reference_impl import prediction_score_ref

VOCAB = default_vocabulary()


def _report(number, ok, description):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} — {description}")
    assert ok, f"criterion {number} failed: {description}"


def template_of(cmd):
    return normalize_template(parse(cmd, VOCAB))


def scored(cmd, delta=1.0):
    return ScoredPrediction.from_command(cmd, delta, VOCAB)


def test_criterion_1_golden_metric_rows():
    start = time.perf_counter()
    rows = [
        ("df | grep /dev/disk0s2", "df | grep diskpath", 1.0, 1e-9),
        (
            "find . -regextype posix-egrep -regex REGEX -type f",
            "find . -type f -regextype posix-egrep -regex REGEX",
            1.0,
            1e-9,
        ),
        ("mkdir directory", "touch directory", -1.0, 1e-9),
        ("df --total | tail -n 1", "tail -n 1 | df --total", -1.0, 1e-9),
        ("find / -name linux", "find / -EXdsx -name linux", 0.1666, 1e-3),
    ]
    ok = True
    for truth, predicted, expected, tolerance in rows:
        got = prediction_score(scored(predicted), [template_of(truth)])
        ok = ok and abs(got - expected) <= tolerance
    elapsed = time.perf_counter() - start
    _report(1, ok and elapsed < 1.0, f"five golden rows exact (runtime {elapsed:.3f}s < 1s)")


def test_criterion_2_anti_clamping_average():
    value = aggregate_scores([-1.0, 0.0]).value
    _report(2, value == -0.5, f"scores {{-1.0, 0.0}} average to {value}, never clamp to 0")


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20201204)
    utilities = ["find", "ls", "grep", "tar", "sort", "wc", "df", "du", "xargs", "cat"]
    flag_pool = list("abcdefstvxz") + ["name", "type", "delete"]

    def units(max_len=3):
        return [
            (rng.choice(utilities), frozenset(rng.sample(flag_pool, rng.randint(0, 4))))
            for _ in range(rng.randint(1, max_len))
        ]

    def as_template(u):
        return TemplateCommand(tuple(TemplateUnit(a, b) for a, b in u))

    worst = 0.0
    for _ in range(1000):
        pred = units()
        refs = [units() for _ in range(rng.randint(1, 3))]
        delta = rng.random()
        got = prediction_score(
            ScoredPrediction(as_template(pred), delta), [as_template(r) for r in refs]
        )
        want = prediction_score_ref(pred, delta, refs)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    _report(
        3,
        worst <= 1e-12 and elapsed < 10.0,
        f"1000 random pairs, max deviation {worst:.2e} <= 1e-12 (runtime {elapsed:.2f}s < 10s)",
    )


def test_criterion_4_property_suite():
    rng = random.Random(77)
    utilities = ["find", "ls", "grep", "tar", "sort", "wc", "df"]
    flag_pool = list("abcdeflnrs") + ["name", "type"]

    def units():
        return [
            (rng.choice(utilities), frozenset(rng.sample(flag_pool, rng.randint(0, 4))))
            for _ in range(rng.randint(1, 3))
        ]

    def as_template(u):
        return TemplateCommand(tuple(TemplateUnit(a, b) for a, b in u))

    cases = 500
    ok = True
    for _ in range(cases):
        pred_units = units()
        refs = [as_template(units()) for _ in range(rng.randint(1, 3))]
        delta = rng.random()
        template = as_template(pred_units)

        score_delta = prediction_score(ScoredPrediction(template, delta), refs)
        score_one = prediction_score(ScoredPrediction(template, 1.0), refs)
        # bounds
        ok = ok and -1.0 - 1e-12 <= score_one <= 1.0 + 1e-12
        ok = ok and -delta - 1e-12 <= score_delta <= delta + 1e-12
        # delta-linearity
        ok = ok and abs(score_delta - delta * score_one) <= 1e-9
        # identity
        ok = ok and prediction_score(ScoredPrediction(template, 1.0), [template]) == 1.0
        # flag-order invariance (set semantics: rebuilt in shuffled order)
        shuffled = [
            (u, frozenset(sorted(f, key=lambda _: rng.random()))) for u, f in pred_units
        ]
        ok = ok and prediction_score(ScoredPrediction(as_template(shuffled), 1.0), refs) == score_one
        # reference-max monotonicity
        more = refs + [as_template(units())]
        ok = ok and prediction_score(ScoredPrediction(template, 1.0), more) >= score_one - 1e-15

    # argument invariance on real command text
    arguments = ["/tmp", "/etc", "data.csv", "'*.log'", "42"]
    for _ in range(cases):
        a, b = rng.choice(arguments), rng.choice(arguments)
        refs = [template_of(f"grep -rn foo {rng.choice(arguments)}")]
        ok = ok and prediction_score(scored(f"grep -rn foo {a}"), refs) == prediction_score(
            scored(f"grep -rn foo {b}"), refs
        )
    _report(4, ok, f"bounds, linearity, invariances, identity, monotonicity over {cases} cases")


def test_criterion_5_roundtrip_filtering():
    commands = command_corpus(1000, seed=7)
    exact = sum(1 for c in commands if reconstruct(parse(c, VOCAB)) == c)

    corpus = toy_corpus(1000, seed=7)
    first = filter_examples(corpus, VOCAB)
    second = filter_examples(first.kept, VOCAB)
    idempotent = not second.rejected and second.kept == first.kept
    _report(
        5,
        exact == len(commands) and idempotent,
        f"{exact}/{len(commands)} byte-exact round trips; filter idempotent",
    )


def test_criterion_6_oracle_predictor_sanity():
    class Oracle:
        def __init__(self, examples):
            self._refs = {e.invocation: e.references[0] for e in examples}

        def predict(self, nlc, k):
            return [Prediction(self._refs[nlc], 1.0)]

    data = filter_examples(toy_corpus(200, seed=99), VOCAB).kept
    report = evaluate(Oracle(data), data, k=5, vocab=VOCAB)
    _report(6, report.mean_score == 1.0, f"reference-echo predictor scores {report.mean_score}")


def test_criterion_7_baseline_ablation_ordering():
    start = time.perf_counter()
    corpus = filter_examples(toy_corpus(3000, seed=42), VOCAB).kept
    train, _, test = build_splits(corpus, seed=13, fractions=(0.9, 0.0, 0.1))
    pairs = pairs_from_examples(train)

    raw = evaluate(TfIdfPredictor(pairs, VOCAB), test, k=5, vocab=VOCAB).mean_score
    dedup = evaluate(TfIdfPredictor(pairs, VOCAB, dedupe=True), test, k=5, vocab=VOCAB).mean_score
    calibrated = evaluate(
        TfIdfPredictor.with_calibration(pairs, VOCAB, normalize=True, dedupe=True, seed=5),
        test,
        k=5,
        vocab=VOCAB,
    ).mean_score
    elapsed = time.perf_counter() - start

    ok = raw >= 0.30 and dedup >= raw and calibrated >= dedup and elapsed < 300
    _report(
        7,
        ok,
        f"raw={raw:.4f} (>=0.30), dedup={dedup:.4f} (>=raw), calibrated={calibrated:.4f} "
        f"(>=dedup); runtime {elapsed:.1f}s < 300s",
    )


def test_criterion_8_latency():
    # TF-IDF retrieval on a 10k-pair index; evaluate times the predict call alone
    big = toy_corpus(10000, seed=3)
    predictor = TfIdfPredictor(pairs_from_examples(big), VOCAB)
    queries = filter_examples(toy_corpus(40, seed=4), VOCAB).kept
    stats = evaluate(predictor, queries, k=5, vocab=VOCAB).latency
    tfidf_ok = stats.mean < 0.100

    class Sleeper:
        def predict(self, nlc, k):
            time.sleep(0.050)
            return [Prediction("ls", 1.0)]

    sleep_stats = evaluate(Sleeper(), queries[:10], k=5, vocab=VOCAB).latency
    sleep_ok = 0.050 <= sleep_stats.mean <= 0.075
    _report(
        8,
        tfidf_ok and sleep_ok,
        f"10k-index retrieval mean {stats.mean * 1000:.2f}ms < 100ms; "
        f"50ms sleep predictor mean {sleep_stats.mean * 1000:.1f}ms in [50, 75]ms",
    )


def test_criterion_9_energy_out_of_scope():
    # Reports carry latency only; no energy field exists anywhere.
    data = filter_examples(toy_corpus(5, seed=1), VOCAB).kept

    class Echo:
        def predict(self, nlc, k):
            return [Prediction(data[0].references[0], 1.0)]

    report = evaluate(Echo(), data, k=1, vocab=VOCAB)
    payload = report.to_json()
    _report(9, "energy" not in payload.lower(), "no energy measurement anywhere in reports")
