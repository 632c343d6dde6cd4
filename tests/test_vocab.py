import pytest

from nlbash.errors import VocabularyFormatError
from nlbash.vocab import UtilityVocabulary, default_vocabulary, load_vocabulary, parse_vocabulary


def test_default_vocabulary_size():
    vocab = default_vocabulary()
    assert len(vocab) >= 128


def test_default_vocabulary_has_core_utilities():
    vocab = default_vocabulary()
    for name in ("find", "ls", "grep", "tail", "df", "xargs", "sudo", "chown"):
        assert name in vocab


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


def test_known_flags_must_reference_known_utilities():
    with pytest.raises(VocabularyFormatError):
        UtilityVocabulary(
            utilities=frozenset({"ls"}), known_flags={"find": frozenset({"name"})}
        )


def test_load_vocabulary_roundtrip(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("find\tname,type\ngrep\nls\n", encoding="utf-8")
    vocab = load_vocabulary(path)
    assert len(vocab) == 3
    assert vocab.unsplittable_flags("find") == frozenset({"name", "type"})


def test_load_vocabulary_rejects_bad_utf8(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_bytes(b"ls\ngr\xffep\n")
    with pytest.raises(VocabularyFormatError, match="invalid UTF-8"):
        load_vocabulary(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_vocabulary(tmp_path / "missing.txt")
