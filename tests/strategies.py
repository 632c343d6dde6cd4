"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

# Shell metacharacters and digits, fragments that reach the parser's
# nesting and redirect paths, and any other character.
_META = st.sampled_from(list("<>&|;$()`'\"\\ 0123456789"))
_FRAGMENTS = st.sampled_from(
    ["ls ", "echo ", "sudo ", "xargs ", "find . ", "-exec ", " {} ", " \\;", " + ", "--a=",
     "-n ", "$(", ")", "`", " | ", "2>&1", ">&-", "&>", "<&", "<<", "<(", "\t", "\n", "²"]
)
_WORDS = st.sampled_from(["a ", "-x ", "'q r' ", '"$(ls)" ', "x=$(cat) ", "> f ", "3<&0 "])
_CHARS = st.lists(st.one_of(_META, _META, _FRAGMENTS, st.characters()), max_size=40)
# Text led by a known utility, so that a fair share of it parses.
_COMMANDS = st.tuples(
    st.sampled_from(["ls ", "echo ", "sudo ", "find . "]),
    st.lists(st.one_of(_FRAGMENTS, _WORDS, _WORDS), max_size=12).map("".join),
)
shell_text = st.one_of(_CHARS.map("".join), _COMMANDS.map("".join))
