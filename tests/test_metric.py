import math
import random

import pytest

from nlbash.errors import EmptyDatasetError
from nlbash.metric import (
    Aggregation,
    ExampleScore,
    Prediction,
    ScoredPrediction,
    aggregate_scores,
    dataset_score,
    example_score,
    flag_score,
    full_command_accuracy,
    prediction_score,
)
from nlbash.parser import parse
from nlbash.template import TemplateCommand, TemplateUnit, normalize_template
from nlbash.vocab import default_vocabulary

from reference_impl import (
    dataset_score_ref,
    example_score_ref,
    flag_score_ref,
    prediction_score_ref,
)

VOCAB = default_vocabulary()


def template_of(cmd):
    return normalize_template(parse(cmd, VOCAB))


def scored(cmd, delta=1.0):
    return ScoredPrediction.from_command(cmd, delta, VOCAB)


# --- golden values -------------------------------------------------------

GOLDEN = [
    ("df | grep /dev/disk0s2", "df | grep diskpath", 1.0),
    (
        "find . -regextype posix-egrep -regex REGEX -type f",
        "find . -type f -regextype posix-egrep -regex REGEX",
        1.0,
    ),
    ("mkdir directory", "touch directory", -1.0),
    ("df --total | tail -n 1", "tail -n 1 | df --total", -1.0),
    ("find / -name linux", "find / -EXdsx -name linux", 0.1666),
    ("rm -rf x", "\\rm -rf x", 1.0),  # Bash runs rm for the escaped command word
    ("cd $(dirname x)", 'cd "$(dirname x)"', 1.0),  # and reads the quoted substitution
]


@pytest.mark.parametrize("truth,predicted,expected", GOLDEN)
def test_golden_scores(truth, predicted, expected):
    got = prediction_score(scored(predicted), [template_of(truth)])
    tolerance = 1e-3 if 0 < abs(expected) < 1 else 1e-9
    assert got == pytest.approx(expected, abs=tolerance)


def test_golden_scores_scale_with_confidence():
    truth = template_of("find / -name linux")
    got = prediction_score(scored("find / -EXdsx -name linux", delta=0.5), [truth])
    assert got == pytest.approx(0.0833, abs=1e-3)


# --- flag_score ----------------------------------------------------------

def test_flag_score_excess_flags_penalized():
    # verified by hand against the worked example: (2*1 - 6) / 6
    got = flag_score(frozenset("EXdsx") | {"name"}, frozenset({"name"}))
    assert got == pytest.approx(-4.0 / 6.0, abs=1e-12)


def test_flag_score_both_empty_is_perfect():
    assert flag_score(frozenset(), frozenset()) == 1.0


def test_flag_score_partial_overlap():
    # oracle-computed: (2*1 - 3) / 2
    assert flag_score({"l", "a"}, {"l", "t"}) == pytest.approx(-0.5, abs=1e-12)
    assert flag_score_ref({"l", "a"}, {"l", "t"}) == pytest.approx(-0.5, abs=1e-12)


def test_flag_score_bounds():
    rng = random.Random(7)
    letters = "abcdefghij"
    for _ in range(500):
        pred = frozenset(rng.sample(letters, rng.randint(0, 6)))
        ref = frozenset(rng.sample(letters, rng.randint(0, 6)))
        s = flag_score(pred, ref)
        assert -2.0 <= s <= 1.0


# --- prediction_score ----------------------------------------------------

def test_wrong_utility_is_minus_one():
    assert prediction_score(scored("touch directory"), [template_of("mkdir directory")]) == -1.0


def test_position_beyond_shorter_counts_as_mismatch():
    pred = scored("df")
    ref = template_of("df | tail -n 1")
    # position 1 matches (1.0), position 2 missing (-1.0), T = 2
    assert prediction_score(pred, ref_list(ref)) == pytest.approx(0.0, abs=1e-12)


def ref_list(*templates):
    return list(templates)


def test_best_reference_wins():
    refs = [template_of("mkdir d"), template_of("touch d")]
    assert prediction_score(scored("touch f"), refs) == 1.0


def test_refs_must_be_nonempty():
    with pytest.raises(ValueError):
        prediction_score(scored("ls"), [])


def test_zero_confidence_scores_zero():
    assert prediction_score(scored("touch d", delta=0.0), [template_of("mkdir d")]) == 0.0


def test_confidence_outside_range_rejected():
    with pytest.raises(ValueError):
        ScoredPrediction(template_of("ls"), delta=1.2)
    with pytest.raises(ValueError):
        ScoredPrediction(template_of("ls"), delta=-0.1)


# --- example_score -------------------------------------------------------

def test_single_perfect_prediction():
    result = example_score([scored("ls -la /tmp")], [template_of("ls -la /home")])
    assert result.value == 1.0
    assert result.aggregation is Aggregation.MAX_POSITIVE


def test_max_branch_when_any_positive():
    # oracle: max branch fires because 0.1666 > 0
    refs = [template_of("find / -name linux")]
    preds = [scored("find / -EXdsx -name linux"), scored("touch directory")]
    result = example_score(preds, refs)
    assert result.value == pytest.approx(0.1666, abs=1e-3)
    assert result.aggregation is Aggregation.MAX_POSITIVE
    assert example_score_ref(list(result.per_prediction)) == result.value


def test_zero_confidence_padding_does_not_clamp():
    refs = [template_of("mkdir d")]
    preds = [scored("touch d", delta=1.0), scored("touch d", delta=0.0)]
    result = example_score(preds, refs)
    assert result.value == -0.5
    assert result.aggregation is Aggregation.AVERAGE


def test_empty_prediction_set_abstains_and_scores_zero():
    abstained = ExampleScore(0.0, (), Aggregation.AVERAGE)
    for got in (aggregate_scores([]), aggregate_scores(()), example_score([], [template_of("ls")])):
        assert got == abstained
        assert type(got.value) is float and type(got.per_prediction) is tuple


@pytest.mark.parametrize(
    "scores, value, aggregation",
    [
        ([math.nan, 0.5], math.nan, Aggregation.MAX_POSITIVE),  # max keeps the first item nothing beats
        ([0.5, math.nan], 0.5, Aggregation.MAX_POSITIVE),
        ([math.nan, -0.5], math.nan, Aggregation.AVERAGE),  # NaN is not positive
        ([-0.5, math.nan, 0.0], math.nan, Aggregation.AVERAGE),
        ([0, 1], 1.0, Aggregation.MAX_POSITIVE),
    ],
    ids=["nan-before-positive", "nan-after-positive", "nan-and-negative", "nan-between", "ints"],
)
def test_aggregate_scores_with_nan_or_ints(scores, value, aggregation):
    got = aggregate_scores(scores)
    assert got.aggregation is aggregation
    assert math.isnan(got.value) if math.isnan(value) else got.value == value
    assert type(got.value) is float and all(type(s) is float for s in got.per_prediction)
    assert got.per_prediction == tuple(scores) or any(map(math.isnan, got.per_prediction))


# --- dataset_score -------------------------------------------------------

def test_dataset_score_trivial_values():
    mk = lambda v: ExampleScore(v, (v,), Aggregation.AVERAGE)
    assert dataset_score([mk(1.0), mk(1.0)]) == 1.0
    assert dataset_score([mk(1.0), mk(-1.0)]) == 0.0


def test_dataset_score_matches_bruteforce_mean():
    rng = random.Random(99)
    values = [rng.uniform(-1, 1) for _ in range(1000)]
    got = dataset_score([ExampleScore(v, (v,), Aggregation.AVERAGE) for v in values])
    assert got == pytest.approx(dataset_score_ref(values), abs=1e-12)


def test_dataset_score_empty_raises():
    with pytest.raises(EmptyDatasetError):
        dataset_score([])


# --- full command accuracy ------------------------------------------------

def test_full_command_accuracy_rank_sensitivity():
    preds = [Prediction("ls -l"), Prediction("ls -a"), Prediction("ls -la /tmp")]
    refs = ["ls  -la   /tmp"]
    assert not full_command_accuracy(preds, refs, k=1)
    assert full_command_accuracy(preds, refs, k=5)


def test_full_command_accuracy_needs_a_positive_k():
    with pytest.raises(ValueError, match="k must be >= 1"):
        full_command_accuracy([Prediction("ls")], ["ls"], k=0)


def test_full_command_accuracy_exact_match_semantics():
    # same template, different text: no credit
    assert template_of("ls -la /home") == template_of("ls -la /tmp")
    preds = [Prediction("ls -la /home")]
    assert not full_command_accuracy(preds, ["ls -la /tmp"], k=5)
    assert full_command_accuracy([Prediction("ls -la /tmp")], ["ls -la /tmp"], k=1)


# --- random template machinery for property tests -------------------------

UTILITIES = ["find", "ls", "grep", "tar", "sort", "wc", "df", "du", "cat", "head", "tail", "xargs"]
FLAG_POOL = list("abcdeflnrstvxz") + ["name", "type", "delete", "maxdepth"]


def random_units(rng, max_len=3):
    units = []
    for _ in range(rng.randint(1, max_len)):
        utility = rng.choice(UTILITIES)
        flags = frozenset(rng.sample(FLAG_POOL, rng.randint(0, 4)))
        units.append((utility, flags))
    return units


def as_template(units):
    return TemplateCommand(units=tuple(TemplateUnit(u, f) for u, f in units))


def test_oracle_equivalence_on_random_pairs():
    rng = random.Random(1234)
    for _ in range(1000):
        pred_units = random_units(rng)
        refs_units = [random_units(rng) for _ in range(rng.randint(1, 3))]
        delta = rng.random()
        got = prediction_score(
            ScoredPrediction(as_template(pred_units), delta),
            [as_template(r) for r in refs_units],
        )
        want = prediction_score_ref(pred_units, delta, refs_units)
        assert abs(got - want) <= 1e-12


def test_example_aggregation_matches_reference():
    rng = random.Random(4321)
    for _ in range(500):
        scores = [rng.uniform(-1, 1) for _ in range(rng.randint(1, 5))]
        preds = [
            ScoredPrediction(as_template([("ls", frozenset())]), 1.0) for _ in scores
        ]
        # drive the aggregation directly through its public seam
        got = aggregate_scores(scores)
        assert got.value == pytest.approx(example_score_ref(scores), abs=1e-12)
        assert (got.aggregation is Aggregation.MAX_POSITIVE) == any(s > 0 for s in scores)


# --- spec invariants ------------------------------------------------------

def test_score_bounds_property():
    rng = random.Random(55)
    for _ in range(500):
        pred_units = random_units(rng)
        refs = [as_template(random_units(rng)) for _ in range(rng.randint(1, 3))]
        delta = rng.random()
        s = prediction_score(ScoredPrediction(as_template(pred_units), delta), refs)
        assert -delta - 1e-12 <= s <= delta + 1e-12


def test_delta_linearity_property():
    rng = random.Random(56)
    for _ in range(500):
        pred_units = random_units(rng)
        refs = [as_template(random_units(rng))]
        delta = rng.random()
        at_one = prediction_score(ScoredPrediction(as_template(pred_units), 1.0), refs)
        at_delta = prediction_score(ScoredPrediction(as_template(pred_units), delta), refs)
        assert abs(at_delta - delta * at_one) <= 1e-9


def test_identity_scores_one_property():
    rng = random.Random(57)
    for _ in range(500):
        units = random_units(rng)
        t = as_template(units)
        assert prediction_score(ScoredPrediction(t, 1.0), [t]) == pytest.approx(1.0, abs=1e-12)


def test_flag_order_invariance_property():
    rng = random.Random(58)
    for _ in range(500):
        units = random_units(rng)
        shuffled = [(u, frozenset(sorted(f, key=lambda x: rng.random()))) for u, f in units]
        refs = [as_template(random_units(rng))]
        a = prediction_score(ScoredPrediction(as_template(units), 1.0), refs)
        b = prediction_score(ScoredPrediction(as_template(shuffled), 1.0), refs)
        assert a == b


def test_argument_invariance_property():
    rng = random.Random(59)
    paths = ["/tmp", "/etc", "notes.txt", "data.csv", "'*.log'"]
    for _ in range(500):
        arg1, arg2 = rng.choice(paths), rng.choice(paths)
        pred1 = scored(f"grep -i foo {arg1}")
        pred2 = scored(f"grep -i foo {arg2}")
        ref = [template_of(f"grep -i bar {rng.choice(paths)}")]
        assert prediction_score(pred1, ref) == prediction_score(pred2, ref)


def test_reference_max_monotonicity_property():
    rng = random.Random(60)
    for _ in range(500):
        pred = ScoredPrediction(as_template(random_units(rng)), 1.0)
        refs = [as_template(random_units(rng)) for _ in range(rng.randint(1, 3))]
        base = prediction_score(pred, refs)
        extended = refs + [as_template(random_units(rng))]
        assert prediction_score(pred, extended) >= base - 1e-15
