"""The LinearSystem constructor against the reference constructor in
oracles.py: the same attributes on valid input (pair_line item for item,
in insertion order), the same exception type and message on invalid
input."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linsys import (
    BadIndex,
    LinearSystem,
    LinearityViolation,
    LinsysError,
    extend_with_pendant_points,
    projective_plane,
)
from linsys.limits import Caps

from corpus import build_corpus
from oracles import reference_system

ATTRIBUTES = ("num_points", "line_tuples", "support", "lines_through")


def _outcome(build):
    try:
        return "ok", build()
    except LinsysError as e:
        return type(e), str(e)


def _attributes(sys_):
    return {name: getattr(sys_, name) for name in ATTRIBUTES} | {
        "degrees": sys_.degrees,
        "pair_line": sys_.pair_line,
    }


def assert_same_as_reference(num_points, lines):
    want = _outcome(lambda: reference_system(num_points, lines))
    got = _outcome(lambda: _attributes(LinearSystem(num_points, lines)))
    assert got[0] == want[0], (got, want)
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    got, want = got[1], want[1]
    for name in ATTRIBUTES:
        assert got[name] == want[name], name
    assert got["degrees"].dtype == want["degrees"].dtype
    assert got["degrees"].tolist() == want["degrees"].tolist()
    assert list(got["pair_line"].items()) == list(want["pair_line"].items())


CORPUS = build_corpus()


@pytest.mark.parametrize("sys_", CORPUS, ids=[f"{i:03d}" for i in range(len(CORPUS))])
def test_corpus_matches_reference(sys_):
    assert_same_as_reference(sys_.num_points, [list(l) for l in sys_.line_tuples])
    assert_same_as_reference(sys_.num_points, [frozenset(l) for l in sys_.line_tuples])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_planes_match_reference(q):
    plane = projective_plane(q)
    ext = extend_with_pendant_points(plane.system)
    for sys_ in (plane.system, ext):
        assert_same_as_reference(sys_.num_points, [list(l) for l in sys_.line_tuples])
    # the plane's own input: each line a numpy row
    lines = [np.array(l, dtype=np.int64) for l in plane.system.line_tuples]
    assert_same_as_reference(plane.system.num_points, lines)


@pytest.mark.parametrize("flag, lines", [(True, [[0]]), (False, [])])
def test_bool_num_points_is_rejected(flag, lines):
    # a bool is an Integral, but True is no point count
    message = r"^num_points must be a nonnegative integer, got type bool$"
    with pytest.raises(BadIndex, match=message):
        LinearSystem(flag, lines)
    with pytest.raises(BadIndex, match=message):
        reference_system(flag, lines)


def test_seeded_random_systems_match_reference():
    # few points per system, so many inputs clash at one or more (h, i)
    rng = random.Random(16)
    outcomes = set()
    for _ in range(3000):
        n = rng.randint(1, 14)
        lines = [
            [rng.randrange(n) for _ in range(rng.randint(1, 5))]
            for _ in range(rng.randint(0, 9))
        ]
        assert_same_as_reference(n, lines)
        outcomes.add(_outcome(lambda: LinearSystem(n, lines))[0])
    assert {"ok", "LinearityViolation", "DuplicateLine"} <= {
        o if o == "ok" else o.__name__ for o in outcomes
    }


BAD_NUM_POINTS = st.sampled_from([-1, True, 2.5, "4", None, np.int64(6), np.int32(-2)])
BAD_ENTRIES = st.one_of(
    st.booleans(),
    st.floats(),
    st.integers(-3, 13),
    st.integers(-3, 13).map(np.int64),
    st.integers(0, 13).map(np.uint8),
    st.sampled_from(["1", None, 2.0, (1,)]),
)


@st.composite
def raw_inputs(draw):
    """Mostly valid systems on few points, so that clashes are common;
    now and then a bad num_points, a bad entry, an empty line or a copy
    of an earlier line."""
    n = draw(st.integers(3, 9) if draw(st.integers(0, 7)) else BAD_NUM_POINTS)
    top = n - 1 if type(n) is int and n > 0 else 8
    lines = draw(st.lists(st.lists(st.integers(0, top), min_size=1, max_size=4), max_size=7))
    if lines and not draw(st.integers(0, 3)):
        line = draw(st.sampled_from(lines))
        line.insert(draw(st.integers(0, len(line))), draw(BAD_ENTRIES))
    if not draw(st.integers(0, 7)):
        lines.insert(draw(st.integers(0, len(lines))), [])
    # a copy of an earlier line, reordered or with an entry repeated
    if lines and not draw(st.integers(0, 3)):
        copy = list(draw(st.sampled_from(lines)))
        if copy and draw(st.booleans()):
            copy.append(draw(st.sampled_from(copy)))
        copy = draw(st.permutations(copy))
        lines.insert(draw(st.integers(0, len(lines))), copy)
    return n, lines


@settings(derandomize=True, max_examples=800, deadline=None, database=None)
@given(raw_inputs())
def test_hypothesis_inputs_match_reference(case):
    n, lines = case
    assert_same_as_reference(n, lines)


def test_least_clash_is_reported_among_several():
    # lines 1 and 3, 0 and 4, 2 and 5 clash; 1 and 3 is met first, the
    # least pair is 0 and 4
    lines = [[0, 9], [1, 2, 3], [4, 5, 6], [1, 2, 7], [0, 9, 8], [5, 6, 8]]
    assert_same_as_reference(10, lines)
    with pytest.raises(LinearityViolation, match=r"^lines 0 and 4 share 2 points \[0, 9\]"):
        LinearSystem(10, lines)


def test_caps_do_not_change_accepted_systems():
    # caps sized exactly to PG(2,3): 13 points, 13 lines of C(4, 2) pairs
    pg3 = projective_plane(3).system
    tight = Caps(system_points=13, system_pairs=78)
    again = LinearSystem(13, pg3.line_tuples, caps=tight)
    assert list(again.pair_line.items()) == list(pg3.pair_line.items())
