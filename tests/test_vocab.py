import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlbash.errors import VocabularyFormatError
from nlbash.vocab import default_vocabulary, load_vocabulary, parse_vocabulary


def test_default_vocabulary_size():
    vocab = default_vocabulary()
    assert len(vocab.flags) >= 128


def test_default_vocabulary_has_core_utilities():
    vocab = default_vocabulary()
    for name in ("find", "ls", "grep", "tail", "df", "xargs", "sudo", "chown"):
        assert vocab.lookup(name) == name


def test_find_known_flags_present():
    vocab = default_vocabulary()
    flags = vocab.unsplittable_flags("find")
    for flag in ("name", "type", "regex", "regextype", "exec", "empty", "delete", "maxdepth"):
        assert flag in flags


def test_lookup_resolves_paths_to_basenames():
    vocab = default_vocabulary()
    assert vocab.lookup("/bin/rm") == "rm"
    assert vocab.lookup("/usr/bin/find") == "find"
    assert vocab.lookup("rm") == "rm"
    assert vocab.lookup("frobnicate") is None
    assert vocab.lookup("/opt/frobnicate") is None


def test_parse_vocabulary_flags_accept_leading_dashes():
    vocab = parse_vocabulary("find\t-name,-type,regex\nls\n")
    assert vocab.unsplittable_flags("find") == frozenset({"name", "type", "regex"})


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
        assert vocab.unsplittable_flags(name) == {f.lstrip("-") for f in flags} - {""}

    name = data.draw(st.sampled_from(sorted(records)))
    repeat = _line(name, data.draw(st.frozensets(_FLAG, max_size=2)))
    lines.insert(data.draw(st.integers(0, len(lines))), repeat)
    with pytest.raises(VocabularyFormatError, match=f"utility {re.escape(repr(name))} repeats line"):
        parse_vocabulary("\n".join(lines))


def test_utility_listed_without_flags_has_no_unsplittable_flags():
    vocab = parse_vocabulary("ls\nfind\tname\n")
    assert set(vocab.flags) == {"ls", "find"}
    assert vocab.unsplittable_flags("ls") == frozenset()
    assert vocab.unsplittable_flags("find") == frozenset({"name"})
    assert vocab.lookup("/bin/ls") == "ls"
    assert vocab.unsplittable_flags("grep") == frozenset()  # not in this vocabulary
    assert vocab.lookup("grep") is None


def test_load_vocabulary_roundtrip(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("find\tname,type\ngrep\nls\n", encoding="utf-8")
    vocab = load_vocabulary(path)
    assert len(vocab.flags) == 3
    assert vocab.unsplittable_flags("find") == frozenset({"name", "type"})


def test_load_vocabulary_rejects_bad_utf8(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_bytes(b"ls\ngr\xffep\n")
    with pytest.raises(VocabularyFormatError, match="invalid UTF-8"):
        load_vocabulary(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_vocabulary(tmp_path / "missing.txt")
