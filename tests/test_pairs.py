"""The summary of tools/pairs.py, the alternating-pairs benchmark runner, on canned result lines."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

END_TO_END = [{"name": "examples_per_s", "better": "higher"}, {"name": "setup_s", "better": "lower"}]


def _result(rate, setup, correct=True, failed=0):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"examples_per_s": {"value": rate, "unit": "1/s"}, "setup_s": {"value": setup, "unit": "s"}}}


def _row(lines, name):
    return next(line for line in lines if line.startswith(name)).split()


def test_summary_gives_medians_quartiles_pair_ratio_and_wins():
    canned = [(_result(100, 0.10), _result(110, 0.10)), (_result(200, 0.20), _result(180, 0.19)),
              (_result(300, 0.30), _result(345, 0.33)), (_result(400, 0.40), _result(440, 0.38))]
    lines = pairs.summarize(canned, END_TO_END)
    # base 100..400: median 250, inclusive quartiles 175 and 325; pair ratios +10%, -10%, +15%, +10%,
    # whose inclusive quartiles are +5% and +11.25%
    assert _row(lines, "examples_per_s") == ["examples_per_s", "250", "[175,", "325]", "262.5", "[162.5,", "368.75]",
                                             "+10.0%", "[+5.0%,", "+11.3%]", "3", "of", "4"]
    # lower is better: the head won the pairs it made faster, and the tie counts for neither side
    assert _row(lines, "setup_s")[-3:] == ["2", "of", "4"]
    assert "base: 4 of 4 runs correct, 0 of 400 operations failed" in lines
    assert "head: 4 of 4 runs correct, 0 of 400 operations failed" in lines


def test_summary_of_one_pair_and_of_failed_runs():
    lines = pairs.summarize([(_result(100, 0.5), _result(90, 0.5, correct=False, failed=7))], END_TO_END)
    assert _row(lines, "examples_per_s") == ["examples_per_s", "100", "[100,", "100]", "90", "[90,", "90]",
                                             "-10.0%", "[-10.0%,", "-10.0%]", "0", "of", "1"]
    assert "head: 0 of 1 runs correct, 7 of 100 operations failed" in lines


def test_summary_marks_a_metric_some_runs_lack_and_a_ratio_over_zero():
    base, head = _result(0, 0.1), _result(5, 0.1)
    del head["metrics"]["setup_s"]
    lines = pairs.summarize([(base, head)], END_TO_END)
    assert _row(lines, "examples_per_s")[-4:] == ["n/a", "1", "of", "1"]
    assert " ".join(_row(lines, "setup_s")) == "setup_s missing from some runs"


def test_summary_reads_the_benchmark_s_own_metrics():
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in end_to_end}}
    lines = pairs.summarize([(result, result)], end_to_end)
    for metric in end_to_end:
        assert _row(lines, metric["name"])[-6:] == ["+0.0%", "[+0.0%,", "+0.0%]", "0", "of", "1"]


def test_summary_of_an_a_a_run_prints_its_noise_floor():
    # the same code on both sides: pair ratios -2%, -1%, 0%, +1%, +2%, whose quartiles are the floor
    canned = [(_result(100, 0.5), _result(rate, 0.5)) for rate in (101, 98, 100, 102, 99)]
    lines = pairs.summarize(canned, END_TO_END)
    assert _row(lines, "examples_per_s")[-6:] == ["+0.0%", "[-1.0%,", "+1.0%]", "2", "of", "5"]
    assert _row(lines, "setup_s")[-6:] == ["+0.0%", "[+0.0%,", "+0.0%]", "0", "of", "5"]
    assert lines[0].split()[-6:] == ["pair", "ratio", "[q1,", "q3]", "head", "won"]
