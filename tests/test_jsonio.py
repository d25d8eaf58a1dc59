import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstfree.jsonio import _reject_floats, dump_doc


class Small(enum.IntEnum):
    ONE = 1


def reference_dump(doc) -> str:
    """dump_doc as the path-tracking walk alone decides it."""
    _reject_floats(doc)
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def outcome(fn, doc):
    try:
        return fn(doc)
    except TypeError as e:
        return "TypeError: %s" % e


@pytest.mark.parametrize("doc, message", [
    ({"a": [1, {"b": 1.5}]}, "raw float at $.a[1].b; use a decimal string "
                             "or rational"),
    ([0, (2, float("nan"))], "raw float at $[1][1]; use a decimal string "
                             "or rational"),
    ({"x": {3: 1}}, "non-string key at $.x: 3"),
    ({"s": {1, 2}}, "unserializable value at $.s: <class 'set'>"),
    (2.0, "raw float at $; use a decimal string or rational"),
])
def test_refusals_name_the_path(doc, message):
    with pytest.raises(TypeError) as err:
        dump_doc(doc)
    assert str(err.value) == message


def test_subclasses_of_accepted_types_still_pass():
    # the flat type walk sends these on to the path walk, which accepts them
    doc = {"n": Small.ONE, "t": True, "none": None, "l": (1, "a")}
    assert dump_doc(doc) == reference_dump(doc)


JSONISH = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3)
    | st.floats() | st.sampled_from([Small.ONE, {1, 2}]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=2) | st.integers(),
                                     inner, max_size=3)),
    max_leaves=12)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(JSONISH)
def test_dump_doc_matches_the_path_walk(doc):
    assert outcome(dump_doc, doc) == outcome(reference_dump, doc)
