import ast
import json
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from reference_impl import load_examples_ref, load_prediction_file_ref
from strategies import byte_lines, json_line_files, shell_text

import nlbash
from nlbash.corpus import (
    Example,
    RejectReason,
    build_splits,
    dataset_fingerprint,
    filter_examples,
    load_examples,
    save_examples,
    save_filter_report,
    utility_histogram,
)
from nlbash.errors import InvalidFractionsError, NlbashError, PredictorProtocolError, SchemaError
from nlbash.harness import EvaluationReport, SubprocessPredictor, load_prediction_file
from nlbash.parser import parse
from nlbash.retrieval import CalibrationModel, TfIdfIndex
from nlbash.synth import toy_corpus
from nlbash.template import normalize_template
from nlbash.vocab import UtilityVocabulary, default_vocabulary

VOCAB = default_vocabulary()


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def ex(invocation, *refs, id=None):
    return Example(id=id or invocation, invocation=invocation, references=tuple(refs))


# --- loading ---------------------------------------------------------------

def test_load_examples_basic(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"invocation": "list files", "cmd": ["ls"]}])
    examples = load_examples(path)
    assert len(examples) == 1
    assert examples[0].references == ("ls",)
    assert examples[0].source == "other"


def test_load_examples_scalar_cmd_normalized(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"invocation": "list files", "cmd": "ls"}])
    assert load_examples(path)[0].references == ("ls",)


def test_load_examples_malformed_line_reports_position(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"invocation": "ok", "cmd": "ls"}\nnot json\n', encoding="utf-8")
    with pytest.raises(SchemaError, match=r"d\.jsonl:2: invalid JSON"):
        load_examples(path)


@pytest.mark.parametrize(
    "bad, reason",
    [(b"\xff\n", "invalid UTF-8"), (b"[" * 100_000 + b"\n", "invalid JSON")],
    ids=["bad-utf8", "deep-json"],
)
def test_load_examples_undecodable_line_reports_position(tmp_path, bad, reason):
    path = tmp_path / "d.jsonl"
    path.write_bytes(b'{"invocation": "ok", "cmd": "ls"}\r\n\n' + bad)
    with pytest.raises(SchemaError, match=rf"\b3: {reason}"):
        load_examples(path)


@settings(max_examples=200, deadline=None)
@given(data=byte_lines)
@example(data=b'{"id": "a\\udcff", "invocation": "x", "cmd": "ls"}\n')
def test_load_examples_raises_only_nlbash_errors(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("data")
    path = tmp / "d.jsonl"
    path.write_bytes(data)
    try:
        examples = load_examples(path)
    except NlbashError:
        return
    save_examples(examples, tmp / "saved.jsonl")  # what loads can be written back


def _predictor_reply(path):
    script = path.with_suffix(".py")
    script.write_text(
        "import sys; sys.stdin.readline(); "
        f"sys.stdout.buffer.write(open({str(path)!r}, 'rb').read())",
        encoding="utf-8",
    )
    with SubprocessPredictor([sys.executable, str(script)]) as predictor:
        predictor.predict("list files", 5)


def _read_predictions(path):
    return load_prediction_file(str(path))


# Each JSON reader: how it reads a file, the error it raises, and where that says it was.
_JSON_READERS = {
    "dataset": (load_examples, SchemaError, "{path}:1: "),
    "predictions": (_read_predictions, SchemaError, "{path}:1: "),
    "predictor-reply": (_predictor_reply, PredictorProtocolError, "predictor reply: "),
    "index": (TfIdfIndex.load, SchemaError, "{path}: "),
    "calibration-model": (CalibrationModel.load, SchemaError, "{path}: "),
    "report": (lambda path: EvaluationReport.from_json(path.read_bytes()), SchemaError, "report: "),
}
_BAD_JSON = {
    "bad-utf8": (b'{"id": "\xff"}', "invalid UTF-8"),
    "deep-json": (b"[" * 100_000, "invalid JSON"),
    "lone-surrogate": (b'{"id": "a\\ud800"}', "lone surrogate '\\ud800'"),
    "non-object": (b"[1]", ""),
}


@pytest.mark.parametrize("bad", list(_BAD_JSON))
@pytest.mark.parametrize("reader", list(_JSON_READERS))
def test_every_json_reader_refuses_the_same_bad_input_alike(tmp_path, reader, bad):
    read, error, where = _JSON_READERS[reader]
    data, reason = _BAD_JSON[bad]
    path = tmp_path / "input.json"
    path.write_bytes(data + b"\n")
    with pytest.raises(error) as info:
        read(path)
    assert str(info.value).startswith(where.format(path=path) + reason)


def _indexing_error(item):
    """repr of the error that ``item["cmd"]`` raises, in this Python's words."""
    try:
        item["cmd"]
    except (KeyError, TypeError) as exc:
        return repr(exc)


_PREDICTIONS_A = b'{"id": "a", "predictions": []}\n'
_OK = b'{"invocation": "x", "cmd": "ls"}'

# Each refused JSON-lines file: its reader, its bytes, and the exact message
# after "path:", its line number first.
_REFUSALS = {
    "no-invocation": (load_examples, b'{"cmd": "ls"}\n', "1: missing 'invocation'"),
    "empty-invocation": (load_examples, b'{"invocation": "", "cmd": "ls"}\n',
                         "1: 'invocation' must be a non-empty string"),
    "blank-invocation": (load_examples, b'{"invocation": " ", "cmd": "ls"}\n',
                         "1: 'invocation' must be a non-empty string"),
    "int-invocation": (load_examples, b'{"invocation": 3, "cmd": "ls"}\n', "1: 'invocation' must be str, got int"),
    "no-cmd": (load_examples, b'{"invocation": "x"}\n', "1: missing 'cmd'"),
    "empty-cmd-list": (load_examples, b'{"invocation": "x", "cmd": []}\n',
                       "1: 'cmd' must be a command or a non-empty list of commands"),
    "int-cmd": (load_examples, b'{"invocation": "x", "cmd": 5}\n', "1: 'cmd' must be str or list, got int"),
    "empty-cmd-in-list": (load_examples, b'{"invocation": "x", "cmd": ["ls", ""]}\n',
                          "1: 'cmd' must be a command or a non-empty list of commands"),
    "blank-cmd-in-list": (load_examples, b'{"invocation": "x", "cmd": [" \\t"]}\n',
                          "1: 'cmd' must be a command or a non-empty list of commands"),
    "null-cmd-in-list": (load_examples, b'{"invocation": "x", "cmd": [null]}\n',
                         "1: 'cmd' must be a command or a non-empty list of commands"),
    "blank-cmd": (load_examples, b'{"invocation": "x", "cmd": " "}\n',
                  "1: 'cmd' must be a command or a non-empty list of commands"),
    "int-id": (load_examples, b'{"invocation": "x", "cmd": "ls", "id": 7}\n', "1: 'id' must be str, got int"),
    "null-id": (load_examples, b'{"invocation": "x", "cmd": "ls", "id": null}\n',
                "1: 'id' must be str, got NoneType"),
    "empty-id": (load_examples, b'{"invocation": "x", "cmd": "ls", "id": ""}\n', "1: 'id' must be a non-empty string"),
    "array-record": (load_examples, b'["x", "ls"]\n', "1: expected a JSON object"),
    "int-source": (load_examples, b'{"invocation": "x", "cmd": "ls", "source": 5}\n',
                   "1: 'source' must be str or NoneType, got int"),
    "bool-source": (load_examples, b'{"invocation": "x", "cmd": "ls", "source": true}\n',
                    "1: 'source' must be str or NoneType, got bool"),
    "first-fault-named": (load_examples, b'{"invocation": "", "cmd": 5, "id": 7}\n',
                          "1: 'invocation' must be a non-empty string"),
    "bom": (load_examples, b"\xef\xbb\xbf" + _OK + b"\n",
            "1: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
    # each line is invalid, although '[' + ','.join(lines) + ']' decodes
    "joined-trap": (load_examples, b"1, 2\n[3\n4]\n", "1: invalid JSON (Extra data)"),
    "json-before-bad-byte": (load_examples, _OK + b'\n{"invocation": \n\n\xff\n', "2: invalid JSON (Expecting value)"),
    "cr-endings": (load_examples, _OK + b'\r{"invocation": "y", "cmd": 5}\r', "2: 'cmd' must be str or list, got int"),
    "crlf-truncated-utf8": (load_examples, _OK + b'\r\n{"invocation": "x\xc3\r\n',
                            "2: invalid UTF-8 (invalid continuation byte)"),
    "truncated-utf8-at-end": (load_examples, b'{"invocation": "x\xc3', "1: invalid UTF-8 (unexpected end of data)"),
    # a raw \x1c ends no line, and JSON refuses it inside a string
    "raw-file-separator": (load_examples, b'{"invocation": "a\x1cb", "cmd": "ls"}\n',
                           "1: invalid JSON (Invalid control character at)"),
    "form-feed-after-record": (load_examples, _OK + b"\n" + _OK + b"\x0c\n", "2: invalid JSON (Extra data)"),
    "second-value": (load_examples, _OK + b" {}\n", "1: invalid JSON (Extra data)"),
    "lone-surrogate": (load_examples, b'{"id": "a\\ud800", "invocation": "x", "cmd": "ls"}\n',
                       "1: lone surrogate '\\ud800' in text"),
    "numeric-pred-id": (_read_predictions, _PREDICTIONS_A + b'{"id": 5, "predictions": []}\n',
                        "2: 'id' must be str, got int"),
    "null-pred-id": (_read_predictions, _PREDICTIONS_A + b'{"id": null, "predictions": []}\n',
                     "2: 'id' must be str, got NoneType"),
    "no-pred-id": (_read_predictions, _PREDICTIONS_A + b'{"predictions": []}\n', "2: missing 'id'"),
    "object-predictions": (_read_predictions, _PREDICTIONS_A + b'{"id": "b", "predictions": {}}\n',
                           "2: 'predictions' must be list, got dict"),
    "string-predictions": (_read_predictions, _PREDICTIONS_A + b'{"id": "b", "predictions": ""}\n',
                           "2: 'predictions' must be list, got str"),
    "no-predictions": (_read_predictions, _PREDICTIONS_A + b'{"id": "b"}\n', "2: missing 'predictions'"),
    "repeated-id": (_read_predictions, _PREDICTIONS_A * 2, "2: id 'a' repeats an earlier line"),
    "array-prediction-record": (_read_predictions, _PREDICTIONS_A + b"[1]\n", "2: expected a JSON object"),
    "int-prediction": (_read_predictions, _PREDICTIONS_A + b'{"id": "b", "predictions": [3]}\n',
                       f"2: bad predictions ({_indexing_error(3)})"),
    "prediction-without-cmd": (_read_predictions, _PREDICTIONS_A + b'{"id": "b", "predictions": [{"confidence": 1}]}\n',
                               "2: bad predictions (KeyError('cmd'))"),
    "string-prediction": (_read_predictions, _PREDICTIONS_A + b'{"id": "b", "predictions": ["ls"]}\n',
                          f"2: bad predictions ({_indexing_error('ls')})"),
    "predictions-cr-endings": (_read_predictions, b'{"id": "a", "predictions": []}\r{"id": "b"}\r',
                               "2: missing 'predictions'"),
    "predictions-bom": (_read_predictions, b"\xef\xbb\xbf" + _PREDICTIONS_A,
                        "1: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_each_refused_json_lines_file_gets_its_exact_message(tmp_path, case):
    read, data, message = _REFUSALS[case]
    path = tmp_path / "d.jsonl"
    path.write_bytes(data)
    with pytest.raises(SchemaError) as info:
        read(path)
    assert str(info.value) == f"{path}:{message}"


def test_a_json_lines_line_ends_at_lf_crlf_or_cr_only_and_a_blank_one_is_skipped(tmp_path):
    path = tmp_path / "d.jsonl"
    raw = '{"invocation": "a\u2028b\x85c", "cmd": "ls"}'.encode()  # U+2028 and U+0085 end no line
    path.write_bytes(raw + b"\r\n\xc2\xa0 \n" + _OK + b"\r \t\r" + _OK)
    examples = load_examples(path)
    expected = [("ex-000001", "a\u2028b\x85c"), ("ex-000003", "x"), ("ex-000005", "x")]
    assert [(e.id, e.invocation) for e in examples] == expected


def test_line_break_characters_inside_strings_round_trip_on_one_line(tmp_path):
    examples = [Example("a\u2028b\x85c\x1cd", "i\u2028\x0b\x0c", ("ls\x85", "x\x1c")), *toy_corpus(3, seed=2)]
    path = tmp_path / "d.jsonl"
    save_examples(examples, path)
    assert path.read_bytes().count(b"\n") == len(examples)
    assert load_examples(path) == examples


def _outcome(read):
    try:
        return "accepted", read()
    except SchemaError as exc:
        return "refused", str(exc)


@settings(max_examples=300, deadline=None)
@given(data=json_line_files)
@example(data=b"1, 2\n[3\n4]\n")
@example(data=b'{"id": "a", "predictions": []}\r{"id": "b", "predictions": [{"cmd": "ls"}]}')
def test_json_lines_readers_agree_with_a_per_line_oracle(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("lines") / "d.jsonl"
    path.write_bytes(data)
    examples = _outcome(lambda: [(e.id, e.invocation, e.references, e.source) for e in load_examples(path)])
    assert examples == load_examples_ref(path)
    # repr, so that a NaN confidence compares equal to itself
    predictions = _outcome(
        lambda: {k: [(p.cmd, p.confidence) for p in v] for k, v in load_prediction_file(str(path)).items()}
    )
    assert repr(predictions) == repr(load_prediction_file_ref(path))


def test_only_the_shared_decoder_calls_json_loads():
    def decodes(node):  # json.load(s)(...), or load(s)(...) imported from json
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Attribute):
            return func.attr in ("load", "loads") and getattr(func.value, "id", None) == "json"
        return isinstance(func, ast.Name) and func.id in ("load", "loads")

    callers = []
    for source in sorted(Path(nlbash.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        calls = sum(map(decodes, ast.walk(tree)))
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        inside = [(source.name, f.name) for f in functions for n in ast.walk(f) if decodes(n)]
        assert len(inside) == calls, f"{source.name} decodes JSON outside a function"
        callers += inside
    assert callers == [("corpus.py", "decode_json")]


@pytest.mark.parametrize(
    "record",
    [
        {"cmd": "ls"},
        {"invocation": "", "cmd": "ls"},
        {"invocation": "x", "cmd": []},
        {"invocation": "x", "cmd": 5},
        {"invocation": "x", "cmd": ["ls", ""]},
        {"invocation": "x", "cmd": "ls", "id": 7},
        ["x", "ls"],
        {"invocation": "x", "cmd": "ls", "source": 5},
        {"invocation": "x", "cmd": "ls", "id": ""},
    ],
)
def test_load_examples_schema_violations(tmp_path, record):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [record])
    with pytest.raises(SchemaError, match=r"d\.jsonl:1: "):
        load_examples(path)


def test_source_is_kept_as_written(tmp_path):
    path, out = tmp_path / "d.jsonl", tmp_path / "kept.jsonl"
    sources = ["nl2bash", "NL2Bash", " manpage ", None, "", "other"]
    records = [{"invocation": "a", "cmd": "ls", "source": s} for s in sources]
    write_jsonl(path, records + [{"invocation": "a", "cmd": "ls"}])
    examples = load_examples(path)
    written = ["nl2bash", "NL2Bash", " manpage ", "other", "other", "other", "other"]
    assert [e.source for e in examples] == written
    save_filter_report(filter_examples(examples, VOCAB), out)
    assert [json.loads(line)["source"] for line in out.read_text().splitlines()] == written


def test_save_and_reload_round_trip(tmp_path):
    examples = toy_corpus(25, seed=1)
    path = tmp_path / "d.jsonl"
    save_examples(examples, path)
    assert load_examples(path) == examples


# --- filtering --------------------------------------------------------------

def test_filter_keeps_parseable(tmp_path):
    report = filter_examples([ex("f", "find . -type f")], VOCAB)
    assert len(report.kept) == 1 and not report.rejected


@pytest.mark.parametrize(
    "cmd",
    [
        "frobnicate -x",
        "ls $(frobnicate)",
        "ls `frobnicate`",
        "find . -exec frobnicate {} \\;",
        "/usr/local/bin/frobnicate",
        "sudo ls | frobnicate",
        "echo x=$(frobnicate)",
        "echo a`frobnicate`b",
        'ls "$(frobnicate)"',
    ],
)
def test_filter_rejects_non_whitelist_utility(cmd):
    # parse rejects an unknown utility at any nesting depth
    report = filter_examples([ex("f", cmd)], VOCAB)
    assert report.rejected[0].reason is RejectReason.NON_WHITELIST_UTILITY


def test_filter_rejects_parse_errors():
    report = filter_examples([ex("f", "grep 'oops")], VOCAB)
    assert report.rejected[0].reason is RejectReason.PARSE_ERROR


def test_filter_rejects_a_reference_of_two_lines_as_parse_error():
    report = filter_examples([ex("f", "ls\nrm -rf /tmp/x")], VOCAB)
    assert not report.kept and report.rejected[0].reason is RejectReason.PARSE_ERROR


def test_filter_rejects_nesting_past_the_limit_as_parse_error():
    deep = ["sudo " * 3000 + "ls", "echo " + "$( echo " * 1500 + "ls" + " )" * 1500]
    report = filter_examples([ex(f"deep{i}", cmd) for i, cmd in enumerate(deep)], VOCAB)
    assert not report.kept
    assert [r.reason for r in report.rejected] == [RejectReason.PARSE_ERROR] * 2


@settings(max_examples=300, deadline=None)
@given(shell_text)
def test_filter_never_raises(cmd):
    report = filter_examples([ex("f", cmd)], VOCAB)
    assert len(report.kept) + len(report.rejected) == 1


def test_filter_keeps_surviving_references_only():
    report = filter_examples([ex("f", "frobnicate -x", "ls -la")], VOCAB)
    assert report.kept[0].references == ("ls -la",)


def test_filter_partition_is_complete():
    examples = [ex("a", "ls"), ex("b", "bogus-utility"), ex("c", "df | grep x")]
    report = filter_examples(examples, VOCAB)
    assert len(report.kept) + len(report.rejected) == len(examples)


def test_filter_is_idempotent():
    corpus = toy_corpus(300, seed=5)
    first = filter_examples(corpus, VOCAB)
    second = filter_examples(first.kept, VOCAB)
    assert not second.rejected
    assert second.kept == first.kept


def test_filter_keeps_an_example_whose_references_all_survive_as_it_is():
    examples = [ex("a", "ls -la", "df -h"), ex("b", "frobnicate -x", "ls -la"), ex("c", "ls -la")]
    kept = filter_examples(examples, VOCAB).kept
    assert kept[0] is examples[0] and kept[2] is examples[2]
    assert kept[1] == Example("b", "b", ("ls -la",))


@pytest.mark.parametrize("fresh", [False, True], ids=["no-vocab", "fresh-vocab"])
def test_the_filter_parses_each_distinct_text_once_rejected_ones_too(fresh, monkeypatch):
    refs = ("ls ; rm x", "frobnicate -x", "ls -la")
    parsed = []
    monkeypatch.setattr(nlbash.corpus, "parse", lambda text, v=None: parsed.append(text) or parse(text, v))
    vocab = UtilityVocabulary(VOCAB.flags) if fresh else None
    report = filter_examples([ex(str(i), *refs) for i in range(4)], vocab)
    assert [e.references for e in report.kept] == [("ls -la",)] * 4
    assert sorted(parsed) == sorted(refs)


def test_the_template_table_holds_every_reference_its_vocabularys_filters_kept():
    vocab = UtilityVocabulary(VOCAB.flags)
    first = filter_examples(toy_corpus(200, seed=1), vocab)
    second = filter_examples(
        [*toy_corpus(100, seed=2), ex("g", "frobnicate -x", "ls -la"), ex("h", "grep 'oops")], vocab
    )
    first_refs = {ref for e in first.kept for ref in e.references}
    kept = {ref for e in second.kept for ref in e.references}
    assert first_refs - kept and "ls -la" in kept
    assert vocab._templates == {ref: normalize_template(parse(ref, VOCAB)) for ref in first_refs | kept}
    assert vocab == VOCAB and repr(vocab) == repr(VOCAB)  # the table is neither compared nor shown
    before = dict(VOCAB._templates)
    filter_examples(toy_corpus(50, seed=3))  # no vocabulary object, no table
    assert VOCAB._templates == before


def test_save_filter_report(tmp_path):
    report = filter_examples([ex("a", "ls"), ex("b", "frobnicate")], VOCAB)
    kept_path = tmp_path / "kept.jsonl"
    rej_path = tmp_path / "rej.jsonl"
    save_filter_report(report, kept_path, rej_path)
    assert len(load_examples(kept_path)) == 1
    rejected_record = json.loads(rej_path.read_text().strip())
    assert rejected_record["reason"] == "non_whitelist_utility"


# --- splits -----------------------------------------------------------------

def test_splits_deterministic():
    examples = toy_corpus(200, seed=2)
    a = build_splits(examples, seed=13)
    b = build_splits(examples, seed=13)
    assert a == b


def test_splits_exact_sizes_when_divisible():
    examples = toy_corpus(100, seed=3)
    train, val, test = build_splits(examples, seed=13, fractions=(0.8, 0.1, 0.1))
    assert (len(train), len(val), len(test)) == (80, 10, 10)


def test_splits_partition_the_input():
    examples = toy_corpus(137, seed=4)
    train, val, test = build_splits(examples, seed=9)
    combined = {e.id for e in train} | {e.id for e in val} | {e.id for e in test}
    assert combined == {e.id for e in examples}
    assert len(train) + len(val) + len(test) == len(examples)


def test_splits_seed_changes_membership():
    examples = toy_corpus(200, seed=2)
    _, _, test_a = build_splits(examples, seed=1)
    _, _, test_b = build_splits(examples, seed=2)
    assert {e.id for e in test_a} != {e.id for e in test_b}


def test_splits_append_only_test_growth():
    base = toy_corpus(300, seed=6)
    extra = toy_corpus(50, seed=7)
    _, _, test_before = build_splits(base, seed=13)
    _, _, test_after = build_splits(base + extra, seed=13)
    before_ids = {e.id for e in test_before}
    after_ids = {e.id for e in test_after}
    assert before_ids <= after_ids
    assert len(after_ids) > len(before_ids)


@pytest.mark.parametrize(
    "fractions",
    [
        (0.5, 0.5, 0.5),
        (0.9, 0.2, -0.1),
        (1.0, 0.0),
        (float("nan"), 0, 0),
        (float("inf"), 0, 0),
        ("a", 0, 0),
    ],
)
def test_invalid_fractions_rejected(fractions):
    with pytest.raises(InvalidFractionsError):
        build_splits(toy_corpus(10, seed=1), seed=0, fractions=fractions)


def test_zero_fraction_bucket_stays_empty():
    train, val, test = build_splits(toy_corpus(100, seed=8), seed=3, fractions=(0.9, 0.0, 0.1))
    assert val == []
    assert len(train) == 90 and len(test) == 10


# --- histogram ---------------------------------------------------------------

def test_histogram_counts_flattened_utilities():
    examples = [
        ex("a", "find . -name x"),
        ex("b", "find . -type f | xargs rm"),
        ex("c", "ls"),
    ]
    got = utility_histogram(examples, VOCAB)
    assert got[0] == ("find", 2)
    assert ("xargs", 1) in got and ("rm", 1) in got and ("ls", 1) in got


def test_histogram_empty_corpus():
    assert utility_histogram([], VOCAB) == []


def test_histogram_ties_break_lexicographically():
    examples = [ex("a", "ls"), ex("b", "df")]
    assert utility_histogram(examples, VOCAB) == [("df", 1), ("ls", 1)]


def test_histogram_find_dominates_synthetic_corpus():
    corpus = filter_examples(toy_corpus(1000, seed=42), VOCAB).kept
    histogram = utility_histogram(corpus, VOCAB)
    assert histogram[0][0] == "find"


# --- fingerprint --------------------------------------------------------------

def test_fingerprint_stable_and_content_sensitive():
    a = toy_corpus(50, seed=1)
    assert dataset_fingerprint(a) == dataset_fingerprint(list(a))
    assert dataset_fingerprint(a) != dataset_fingerprint(a[:-1])
