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

# Any JSON value, small: for readers of JSON documents that must refuse
# every shape but their own with an NlbashError.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4)
    ),
    max_leaves=12,
)
