"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

# Shell metacharacters and digits, fragments that reach the parser's
# nesting and redirect paths and the lexer's word edges (\x0b, \x0c, \xa0
# and \r are word text, not breaks; a quoted string may span a line; a text
# may end in one backslash), the places where Bash reads a line differently
# from a blank (a redirect or '|' next to a newline; an open '${'), a bare
# '--' that ends the options, a '#' that may open a comment, a leading
# 'time' keyword, a $'...' string, the quoted and escaped ';' and '+' that
# may end an -exec payload, words at the edges of the lexer's plain-word
# pattern (glued to a character that ends it, holding a '#', led by a
# digit), a substitution that opens or closes inside "...", a '${...}'
# that opens, nests or closes around a substitution or a string, a quoted
# or escaped command word, and any other character.
_META = st.sampled_from(list("<>&|;$()`'\"\\ 0123456789"))
_FRAGMENTS = st.sampled_from(
    ["ls ", "echo ", "sudo ", "xargs ", "find . ", "-exec ", " {} ", " \\;", " + ", "--a=",
     "-n ", "$(", ")", "`", " | ", "2>&1", ">&-", "&>", "<&", "<<", "<(", "\t", "\n", "²",
     "\\\n", "\x0b", "\x0c", "\xa0", "$", "$x", '"a\\"b"', "'a'\"b\"", "'a\nb'", "a\\",
     ">\n", "&>\n", "\n| ", "${", "}", "\r", " -- ", "#", " #", "-p ", "$'", "\\'", "';'", " \\+",
     "a;", "a&", "a<", "a>", "a(", "a)", "a`", "a'", 'a"', "a$", "a#b", " 2x", " 2>f",
     '"$(', ')"', '"`', '`"', '"a$(', ')b"', "${a:-", "${a//x/", '"${', "\\}", '}"', "}}"]
)
_WORDS = st.sampled_from(["a ", "-x ", "'q r' ", '"$(ls)" ', "x=$(cat) ", "> f ", "3<&0 "])
_CHARS = st.lists(st.one_of(_META, _META, _FRAGMENTS, st.characters()), max_size=40)
# Text led by a known utility, so that a fair share of it parses.
_COMMANDS = st.tuples(
    st.sampled_from(["ls ", "echo ", "sudo ", "find . ", "time ", "\\ls ", "'echo' ", 'sudo "ls" ']),
    st.lists(st.one_of(_FRAGMENTS, _WORDS, _WORDS), max_size=12).map("".join),
)
# find with an -exec payload, a shape the text above seldom builds. A '+'
# ends the payload only right after '{}', and the parser must consume it
# there, or it becomes find's argument; any other '+' is an argument.
_EXEC_PLUS = st.tuples(
    st.sampled_from(["find . ", "find /tmp -name x ", "sudo find . "]),
    st.sampled_from(["-exec ", "-execdir ", "-ok ", "-okdir "]),
    st.sampled_from(["ls ", "echo ", "rm ", "grep -l x ", "sudo ls ", "find . -exec ls "]),
    st.lists(st.one_of(_WORDS, _FRAGMENTS), max_size=3).map("".join),
    st.sampled_from(["{} +", " {} + ", "+", "{} \\;"]),
    st.sampled_from(["", " -print", " | wc -l", " -exec ls {} +", " +"]),
)
shell_text = st.one_of(_CHARS.map("".join), _COMMANDS.map("".join), _EXEC_PLUS.map("".join))

# Lines for the JSON-lines readers: arbitrary bytes, records close to the
# dataset and prediction schemas, bad UTF-8, and nesting past the JSON
# decoder's depth, each ended by any line break or none.
_LINES = st.one_of(
    st.binary(max_size=30),
    st.sampled_from(
        [b'{"id": "a", "invocation": "list files", "cmd": "ls"}',
         b'{"invocation": "x", "cmd": [1], "source": 2}',
         b'{"id": "a", "predictions": [{"cmd": "ls", "confidence": 0.5}]}',
         b'{"id": ["a"], "predictions": [{"cmd": 1}, 3]}', b'{"id": "a", "predictions": 3}',
         b'{"id": "\xff"}', b"\xc3", b"[" * 100_000, b'{"a":' * 2000, b"1" * 5000, b"\xef\xbb\xbf{}"]
    ),
)
byte_lines = st.lists(
    st.tuples(_LINES, st.sampled_from([b"\n", b"\r\n", b"\r", b""])), max_size=6
).map(lambda parts: b"".join(line + end for line, end in parts))

# Any JSON value, small: for readers of JSON documents that must refuse
# every shape but their own with an NlbashError.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4)
    ),
    max_leaves=12,
)
