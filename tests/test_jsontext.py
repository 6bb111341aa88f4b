"""The indented-JSON writer against ``json.dumps(obj, indent=2)``."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliations.jsontext import dumps

# every code point class json escapes: ASCII controls, quotes and
# backslashes, non-ASCII letters, astral characters (surrogate pairs)
_strings = st.one_of(
    st.text(),
    st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€𝄞')),
)

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-10 ** 200, 10 ** 200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-320, 1e300, 0.1]),
    _strings,
)

_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_strings, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_values)
def test_matches_json_dumps(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


def test_empty_containers_and_deep_nesting():
    obj = {"a": [], "b": {}, "c": ()}
    for depth in range(60):
        obj = [depth, {"k": obj}, []]
    assert dumps(obj) == json.dumps(obj, indent=2)
    assert dumps([]) == "[]" and dumps({}) == "{}"


def test_int_and_float_subclasses_print_as_numbers():
    class Count(int):
        def __repr__(self):
            return "Count()"

    class Ratio(float):
        def __repr__(self):
            return "Ratio()"

    obj = {"n": Count(3), "r": Ratio(0.5), "t": [True, False, None]}
    assert dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    {1, 2},
    {"s": frozenset()},
    [object()],
    {"z": 1j},
])
def test_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        dumps(obj)


@pytest.mark.parametrize("obj", [{(1, 2): 0}, {"a": {1: 0}}, {None: 0}, {2.5: 0}])
def test_refuses_non_string_keys(obj):
    with pytest.raises(TypeError, match="keys must be str"):
        dumps(obj)
