import enum
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kstfree.graphs import construct_turan, construct_zar, plan_construction
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


CELLS = st.integers() | st.sampled_from([-(2 ** 70), 2 ** 64, -1])
ODD_CELLS = st.sampled_from([True, Small.ONE, 1.0, [1, 2], [], "\u00e9"])


@st.composite
def int_matrices(draw):
    """Lists of equal-length int rows (the edge-list shape), some spoiled.

    A spoiled matrix has one row swapped for a ragged row or for one that
    holds a bool, an IntEnum, a float, a list or a str.
    """
    width = draw(st.integers(0, 3))
    rows = draw(st.lists(st.lists(CELLS, min_size=width, max_size=width),
                         max_size=4))
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(
            st.lists(CELLS | ODD_CELLS, max_size=4))
    return rows


JSONISH = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3)
    | st.floats() | st.sampled_from([Small.ONE, {1, 2}])
    | st.sampled_from(["\u00e9", "\u2603", "\U0001f600", "\udc80", "\x00\"\\"])
    | int_matrices(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=2) | st.integers(),
                                     inner, max_size=3)),
    max_leaves=12)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(JSONISH)
@example([[0, 1], [2, 3]])
@example([[], []])
@example([[1, 2], [3]])
@example([[1, True]])
@example([[1, 1.5]])
@example([[1, Small.ONE]])
@example([[[1]], [[2]]])
@example({"b": [[-(2 ** 70), 2 ** 64]], "a": ["\u00e9", "a"]})
def test_dump_doc_matches_the_path_walk(doc):
    assert outcome(dump_doc, doc) == outcome(reference_dump, doc)


@pytest.mark.parametrize("kind, q", [("turan", 7), ("turan", 9),
                                     ("zarankiewicz", 8)])
def test_graph_documents_are_json_dumps_bytes(kind, q):
    # q = 9 writes extension-field ids ("1,0:0,1:...")
    if kind == "turan":
        plan = plan_construction("turan", 2, m=3, r=1, Z=1, q=q)
        graph, report = construct_turan(plan, 1)
    else:
        plan = plan_construction("zarankiewicz", 2, T=3, r=1, m=2, q=q)
        graph, report = construct_zar(plan, 1)
    for doc in (graph.to_json(), report.to_json()):
        assert dump_doc(doc) == json.dumps(doc, sort_keys=True,
                                           indent=2) + "\n"
