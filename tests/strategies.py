"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st
from shell_fragments import ANY, SHAPES


def _part(part):
    if isinstance(part, list):
        return st.sampled_from(part)
    lists, most = part
    piece = st.one_of([st.characters() if kind is ANY else st.sampled_from(kind) for kind in lists])
    return st.lists(piece, max_size=most).map("".join)


# Random shell text of the shapes that shell_fragments.py lists and describes.
shell_text = st.one_of([st.tuples(*map(_part, shape)).map("".join) for shape in SHAPES])

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

# Files for the property that the JSON-lines readers agree with a per-line
# oracle. Each file draws its lines from one schema's whole records (most
# lines) and from fragments joined at random, so that some lines are JSON
# only when joined with the next, and others hold a BOM, a lone surrogate,
# bad UTF-8, Unicode blanks, or a line break that only str.splitlines sees.
# One surrogate is used, so a line never holds two that a walk could meet
# in another order.
_BLANKS = [b"", b" \t", "\xa0 ".encode()]
_DATASET_RECORDS = [
    b'{"invocation": "x", "cmd": "ls"}', b'{"id": "a", "invocation": "list", "cmd": ["ls", "df -h"], "source": "nl"}',
    b'{"id": "b", "invocation": "x", "cmd": "ls", "source": null}', b'{"invocation": "x", "cmd": "ls", "id": " "}',
    ' {"invocation": "\u2028", "cmd": "x\x85"}\t'.encode(), *_BLANKS,
]
_PREDICTION_RECORDS = [
    b'{"id": "a", "predictions": [{"cmd": "ls", "confidence": 0.5}]}', b'{"id": "b", "predictions": []}',
    b'{"predictions": [{"cmd": 1}, {"cmd": "ls"}], "id": "c", "x": NaN}',
    '{"id": "d", "predictions": [{"cmd": "\u2028"}]}'.encode(), *_BLANKS,
]
_FRAGMENTS = [
    b"{", b"}", b"[", b"]", b",", b":", b" ", b"1", b"1, 2", b"-0.0", b"NaN", b"null", b"true", b'"x"', b'""',
    b'" "', b'"invocation": "x"', b'"cmd": "ls"', b'"cmd": ["ls", " "]', b'"cmd": []', b'"id": "a"', b'"id": "b"',
    b'"id": ""', b'"source": 5', b'"source": ""', b'"predictions": []', b'"predictions": [{"cmd": "ls"}, 3]',
    b'{"confidence": 1}', b'"\\ud800"', b'"\\u0041\\n"', '"a\u2028b\x85"'.encode(), b'"\x1c"', b"\x0b", b"\\",
    "\xa0".encode(), b"\xff", b"\xc3", b"\xef\xbb\xbf",
]
_JOINED = st.lists(st.sampled_from(_FRAGMENTS), max_size=7).map(b"".join)
json_line_files = st.sampled_from([_DATASET_RECORDS, _PREDICTION_RECORDS]).flatmap(
    lambda records: st.lists(
        st.tuples(
            st.one_of(st.sampled_from(records), st.sampled_from(records), _JOINED),
            st.sampled_from([b"\n", b"\r\n", b"\r", b""]),
        ),
        max_size=6,
    )
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
