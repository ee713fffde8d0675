"""Corpus-wide checks: solver results equal brute force, and the proved
inequalities hold on every instance satisfying their hypotheses. A
hypothesis test does the same brute-force comparison on random small
systems, to check that no search bound cuts off an optimum."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linsys import (
    LinearSystem,
    degree_profile,
    domination_number,
    is_intersecting,
    rank,
    transversal_number,
    two_packing_number,
    verify_domination,
    verify_transversal,
    verify_two_packing,
)
from linsys import solvers

from corpus import MAX_LINES, MAX_POINTS, build_corpus
from oracles import brute_domination, brute_transversal, brute_two_packing

CORPUS = build_corpus()
IDS = [f"{i:03d}-{s.name or 'rand'}" for i, s in enumerate(CORPUS)]


def test_corpus_is_large_and_small():
    assert len(CORPUS) >= 100
    assert all(s.num_points <= MAX_POINTS for s in CORPUS)
    assert all(s.num_lines <= MAX_LINES for s in CORPUS)
    assert all(s.num_lines >= 1 for s in CORPUS)


def test_corpus_is_deterministic():
    again = build_corpus()
    assert [s.lines for s in again] == [s.lines for s in CORPUS]


@pytest.mark.parametrize("sys_", CORPUS, ids=IDS)
def test_solvers_match_brute_force(sys_):
    n, rows = sys_.num_points, sys_.line_tuples
    tau = transversal_number(sys_)
    assert tau.value == brute_transversal(n, rows)
    assert verify_transversal(sys_, tau.witness)

    gamma = domination_number(sys_)
    assert gamma.value == brute_domination(n, rows)
    assert verify_domination(sys_, gamma.witness)

    nu2 = two_packing_number(sys_)
    assert nu2.value == brute_two_packing(n, rows)
    assert verify_two_packing(sys_, nu2.witness)


@pytest.mark.parametrize("sys_", CORPUS, ids=IDS)
def test_transversal_packing_inequality(sys_):
    # tau >= ceil(nu2/2) needs pairwise intersecting lines
    if not is_intersecting(sys_):
        pytest.skip("hypothesis: intersecting")
    tau = transversal_number(sys_).value
    nu2 = two_packing_number(sys_).value
    assert tau >= math.ceil(nu2 / 2)


@pytest.mark.parametrize("sys_", CORPUS, ids=IDS)
def test_domination_below_transversal(sys_):
    # gamma <= tau needs every point on some line
    if len(sys_.support) != sys_.num_points:
        pytest.skip("hypothesis: no isolated points")
    assert domination_number(sys_).value <= transversal_number(sys_).value


@pytest.mark.parametrize("sys_", CORPUS, ids=IDS)
def test_domination_below_rank(sys_):
    # gamma <= r-1 for intersecting systems of rank >= 2; isolated points
    # dominate only themselves, so the bound presumes every point is on a line
    if not is_intersecting(sys_) or rank(sys_) < 2:
        pytest.skip("hypothesis: intersecting, rank >= 2")
    if len(sys_.support) != sys_.num_points:
        pytest.skip("hypothesis: no isolated points")
    assert domination_number(sys_).value <= rank(sys_) - 1


@pytest.mark.parametrize("sys_", CORPUS, ids=IDS)
def test_line_count_bound_forces_packing_gap(sys_):
    profile = degree_profile(sys_)
    nu2 = two_packing_number(sys_).value
    bound = profile.max_degree + profile.second_max_degree + nu2 - 3
    if sys_.num_lines > bound:
        pytest.skip("hypothesis: line count within degree bound")
    assert transversal_number(sys_).value <= nu2 - 1


@st.composite
def small_linear_systems(draw):
    """Up to 9 points and 8 lines. Each drawn line keeps, in ascending
    order, only the points that leave it meeting every kept line in at most
    one point, and is kept when nonempty and new; most systems drawn are
    not intersecting."""
    n = draw(st.integers(2, 9))
    drawn = draw(
        st.lists(
            st.frozensets(st.integers(0, n - 1), min_size=1, max_size=min(n, 4)),
            min_size=2,
            max_size=8,
        )
    )
    lines = []
    for cand in drawn:
        line = set()
        for v in sorted(cand):
            if all(len(line & l) + (v in l) <= 1 for l in lines):
                line.add(v)
        if line and line not in lines:
            lines.append(line)
    return LinearSystem(n, lines)


def _solve_all(sys_):
    n, rows = sys_.num_points, sys_.line_tuples
    tau = transversal_number(sys_)
    assert tau.value == brute_transversal(n, rows)
    assert verify_transversal(sys_, tau.witness)
    assert len(tau.witness) == tau.value

    gamma = domination_number(sys_)
    assert gamma.value == brute_domination(n, rows)
    assert verify_domination(sys_, gamma.witness)
    assert len(gamma.witness) == gamma.value

    nu2 = two_packing_number(sys_)
    assert nu2.value == brute_two_packing(n, rows)
    assert verify_two_packing(sys_, nu2.witness)
    assert len(nu2.witness) == nu2.value


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(small_linear_systems())
def test_search_bounds_match_brute_force(sys_):
    # every pruning bound must leave the optimum reachable, on intersecting
    # and non-intersecting systems alike
    _solve_all(sys_)
    # the greedy seeds are optimal on most small systems, which would hide
    # a bound that prunes too much; from the trivial incumbent (every
    # support point) the bounds alone must lead the search to the optimum
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "greedy_transversal", lambda s: tuple(sorted(s.support)))
        mp.setattr(solvers, "_greedy_domination", lambda hoods, support: list(support))
        _solve_all(sys_)
