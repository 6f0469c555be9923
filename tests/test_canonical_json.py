"""Property test: ``model.canonical_json`` writes exactly the bytes of
``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, the stdlib
encoder kept here as the oracle, and raises ``TypeError`` on what the
program never writes: sets, ``Fraction``s and keys that are not ``str``."""
import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from hamilton_rla.model import canonical_json

# any code point, lone surrogates too, and the characters json escapes
TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ["", "é", "Zoë", "中文", "😀", '"', "\\", "\x00", "\x1f", "\x7f", "\n\t\r\b\f", " ", "\ud800", '"q"\\'])
# past 64 bits both ways
INTS = st.integers() | st.integers(min_value=-(2**200), max_value=2**200) | st.sampled_from([2**63, 2**64, -(2**64) - 1])
FLOATS = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, -1e300, 5e-324])
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=5)),
    max_leaves=30,
)

EDGES = {
    "nested": {"b": [1, [2, (3, {})], ()], "a": {"z": {"y": []}, "x": None}},
    "keys": {"é": 1, "\x00": 2, '"': 3, "\\": 4, "\ud800": 5, "": 6, "😀": 7},
    "ints": [2**64, -(2**64) - 1, 10**40, 0, -1],
    "floats": [float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 0.1, 5e-324],
    "flags": [True, False, None],
}


@settings(max_examples=300)
@given(PAYLOADS)
@example(EDGES)
@example({})
@example([])
@example(())
@example("")
def test_canonical_json_matches_stdlib_indent_encoder(payload):
    assert canonical_json(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "payload",
    [{"a": {1, 2}}, [frozenset()], {"a": Fraction(1, 3)}, [[Fraction(1, 2)]], {1: "a"}, {"a": {None: 1}}],
    ids=["set", "frozenset", "fraction", "nested-fraction", "int-key", "nested-none-key"],
)
def test_canonical_json_rejects_non_json(payload):
    with pytest.raises(TypeError):
        canonical_json(payload)
