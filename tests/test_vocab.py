import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlbash import vocab as vocab_module
from nlbash.corpus import Example, filter_examples
from nlbash.errors import UnknownUtilityError, VocabularyFormatError
from nlbash.harness import evaluate
from nlbash.metric import Prediction
from nlbash.parser import parse
from nlbash.synth import toy_corpus
from nlbash.vocab import UtilityVocabulary, default_vocabulary, load_vocabulary, parse_vocabulary


def test_default_vocabulary_size():
    vocab = default_vocabulary()
    assert len(vocab.flags) >= 128


def test_default_vocabulary_has_core_utilities():
    vocab = default_vocabulary()
    for name in ("find", "ls", "grep", "tail", "df", "xargs", "sudo", "chown"):
        assert vocab.lookup(name) == name


def test_find_known_flags_present():
    vocab = default_vocabulary()
    flags = vocab.flags["find"]
    for flag in ("name", "type", "regex", "regextype", "exec", "empty", "delete", "maxdepth"):
        assert flag in flags


def test_lookup_resolves_paths_to_basenames():
    vocab = default_vocabulary()
    assert vocab.lookup("/bin/rm") == "rm"
    assert vocab.lookup("/usr/bin/find") == "find"
    assert vocab.lookup("rm") == "rm"
    assert vocab.lookup("frobnicate") is None
    assert vocab.lookup("/opt/frobnicate") is None


def test_each_default_vocabulary_has_a_template_table_of_its_own():
    filled = default_vocabulary()
    for seed in range(3):
        filter_examples(toy_corpus(300, seed=seed), filled)
    filter_examples(toy_corpus(300, seed=3))  # parse reads the shared default, with no table to fill
    fresh = default_vocabulary()
    assert filled._templates and not fresh._templates
    assert fresh == filled and fresh.flags is filled.flags  # one read-only flag map, shared
    assert not vocab_module._shared_default()._templates


def test_a_default_vocabulary_s_flag_edit_leaks_nowhere(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("ls\nfind\tname\n", encoding="utf-8")
    for vocab in (default_vocabulary(), parse_vocabulary("ls\nfind\tname\n"), load_vocabulary(path)):
        with pytest.raises(TypeError):
            vocab.flags["frobnicate"] = frozenset()
        with pytest.raises(TypeError):
            del vocab.flags["ls"]
        assert vocab.lookup("frobnicate") is None and vocab.lookup("ls") == "ls"
    # a changed vocabulary is a new object, built from the old one's flags
    edited = UtilityVocabulary({**default_vocabulary().flags, "frobnicate": frozenset()})
    assert parse("frobnicate -x y", edited).stages[0].utility == "frobnicate"
    assert default_vocabulary().lookup("frobnicate") is None
    with pytest.raises(UnknownUtilityError):
        parse("frobnicate -x y")  # the shared default parse reads when given no vocabulary


class _Answers:
    def __init__(self, cmd):
        self.cmd = cmd

    def predict(self, nlc, k):
        return [Prediction(self.cmd, 1.0)]


def test_a_filtered_vocabulary_s_templates_follow_its_flags():
    # the filter records "ls -la /tmp" as ls[a,l]; an edit making "la" one flag of ls
    # would leave that template stale, so the edit is refused and builds a new vocabulary
    data = [Example("a", "list /tmp in long form", ("ls -la /tmp",))]
    vocab = default_vocabulary()
    assert filter_examples(data, vocab).kept == data
    with pytest.raises(TypeError):
        vocab.flags["ls"] = frozenset({"la"})
    edited = UtilityVocabulary({**vocab.flags, "ls": frozenset({"la"})})
    filter_examples(data, edited)
    fresh = UtilityVocabulary({**default_vocabulary().flags, "ls": frozenset({"la"})})

    def score(v):
        return evaluate(_Answers("ls -l -a /tmp"), data, k=1, vocab=v).mean_score

    assert score(vocab) == score(default_vocabulary()) == 1.0
    assert score(edited) == score(fresh) == -0.25


def test_parse_vocabulary_flags_accept_leading_dashes():
    vocab = parse_vocabulary("find\t-name,-type,regex\nls\n")
    assert vocab.flags["find"] == frozenset({"name", "type", "regex"})


def test_empty_file_rejected():
    with pytest.raises(VocabularyFormatError):
        parse_vocabulary("")
    with pytest.raises(VocabularyFormatError):
        parse_vocabulary("# only a comment\n\n")


def test_malformed_utility_rejected():
    with pytest.raises(VocabularyFormatError):
        parse_vocabulary("bad utility name\n")


def test_flag_with_inner_whitespace_rejected():
    with pytest.raises(VocabularyFormatError, match=r"<string>:2: bad flag ' na me'"):
        parse_vocabulary("ls\nfind\ttype, na me\n")


@pytest.mark.parametrize(
    "text, error",
    [
        pytest.param("\ufeffls\n", r"<string>:1: bad utility name '\\ufeffls'", id="bom-name"),
        pytest.param("find\nls\x00\n", r"<string>:2: bad utility name 'ls\\x00'", id="nul-name"),
        pytest.param("ls\nfind\tname,ty\x00pe\n", r"<string>:2: bad flag 'ty\\x00pe'", id="nul-flag"),
    ],
)
def test_name_or_flag_that_cannot_print_rejected(text, error):
    with pytest.raises(VocabularyFormatError, match=error):
        parse_vocabulary(text)


@pytest.mark.parametrize(
    "text",
    ["find\tname\nfind\ttype\n", "find\ttype\nfind\tname\n", "find\tname\nfind\n"],
    ids=["name-then-type", "type-then-name", "name-then-bare"],
)
def test_repeated_utility_rejected(text):
    with pytest.raises(VocabularyFormatError, match=r"^<string>:2: utility 'find' repeats line 1$"):
        parse_vocabulary(text)


# Names and flags a vocabulary line can hold: printable, no whitespace, no
# comma in a flag, no name that reads as a comment.
_WORD = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=5)
_FLAG = _WORD.filter(lambda flag: "," not in flag)
_RECORDS = st.dictionaries(
    _WORD.filter(lambda name: not name.startswith("#")),
    st.frozensets(_FLAG, max_size=3),
    min_size=1,
    max_size=6,
)


def _line(name, flags):
    return f"{name}\t{','.join(sorted(flags))}"


@settings(max_examples=200, deadline=None)
@given(records=_RECORDS, data=st.data())
def test_line_order_does_not_matter_and_a_repeated_name_is_refused(records, data):
    lines = data.draw(st.permutations([_line(n, f) for n, f in records.items()]))
    vocab = parse_vocabulary("\n".join(lines))
    for name, flags in records.items():
        assert vocab.lookup(name) == name
        assert vocab.flags[name] == {f.lstrip("-") for f in flags} - {""}

    name = data.draw(st.sampled_from(sorted(records)))
    repeat = _line(name, data.draw(st.frozensets(_FLAG, max_size=2)))
    lines.insert(data.draw(st.integers(0, len(lines))), repeat)
    with pytest.raises(VocabularyFormatError, match=f"utility {re.escape(repr(name))} repeats line"):
        parse_vocabulary("\n".join(lines))


def test_utility_listed_without_flags_has_no_unsplittable_flags():
    vocab = parse_vocabulary("ls\nfind\tname\n")
    assert set(vocab.flags) == {"ls", "find"}
    assert vocab.flags["ls"] == frozenset()
    assert vocab.flags["find"] == frozenset({"name"})
    assert vocab.lookup("/bin/ls") == "ls"
    assert "grep" not in vocab.flags
    assert vocab.lookup("grep") is None


def test_load_vocabulary_roundtrip(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("find\tname,type\ngrep\nls\n", encoding="utf-8")
    vocab = load_vocabulary(path)
    assert len(vocab.flags) == 3
    assert vocab.flags["find"] == frozenset({"name", "type"})


def test_load_vocabulary_rejects_bad_utf8(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_bytes(b"ls\ngr\xffep\n")
    with pytest.raises(VocabularyFormatError, match="invalid UTF-8"):
        load_vocabulary(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_vocabulary(tmp_path / "missing.txt")
