"""Corpus-wide checks: solver results equal brute force, and the proved
inequalities hold on every instance satisfying their hypotheses. A
hypothesis test does the same brute-force comparison on random small
systems, to check that no search bound cuts off an optimum."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linsys import (
    LinearSystem,
    degree_profile,
    delete_point,
    domination_number,
    dual_hyperoval_lines,
    extend_with_pendant_points,
    is_intersecting,
    projective_plane,
    rank,
    transversal_number,
    triangular_system,
    two_packing_number,
    verify_domination,
    verify_transversal,
    verify_two_packing,
)
from linsys import solvers

from corpus import MAX_LINES, MAX_POINTS, build_corpus
from oracles import (
    brute_domination, brute_transversal, brute_two_packing, reference_greedy_cover,
)

CORPUS = build_corpus()
IDS = [f"{i:03d}-{s.name or 'rand'}" for i, s in enumerate(CORPUS)]


def test_corpus_is_large_and_small():
    assert len(CORPUS) >= 100
    assert all(s.num_points <= MAX_POINTS for s in CORPUS)
    assert all(s.num_lines <= MAX_LINES for s in CORPUS)
    assert all(s.num_lines >= 1 for s in CORPUS)


def test_corpus_is_deterministic():
    again = build_corpus()
    assert [s.line_tuples for s in again] == [s.line_tuples for s in CORPUS]


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
    # candidate that covers something: the support points, for tau and
    # gamma alike) the bounds alone must lead the search to the optimum
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_tau_seed", _trivial_seed(solvers._tau_seed))
        mp.setattr(solvers, "_gamma_seed", _trivial_seed(solvers._gamma_seed))
        _solve_all(sys_)


def _dense_seeds(sys_):
    """tau's and gamma's (seed, maxcov) from the dense cover matrices: the
    reference greedy cover and the largest row count over the universe."""
    out = []
    if sys_.line_tuples:
        cover = solvers._incidence(sys_.lines_through, sys_.num_lines)
        universe = np.ones(sys_.num_lines, dtype=np.uint8)
        out.append((reference_greedy_cover(cover, universe), int(cover.sum(axis=1).max())))
    if sys_.support:
        cover = solvers._closed_neighbourhoods(sys_)
        universe = (sys_.degrees > 0).astype(np.uint8)
        maxcov = int((cover & universe).sum(axis=1).max())
        out.append((reference_greedy_cover(cover, universe), maxcov))
    return out


def _line_seeds(sys_):
    """The same pairs as the solvers take them from the lines."""
    out = []
    if sys_.line_tuples:
        out.append(solvers._tau_seed(sys_))
    if sys_.support:
        out.append(solvers._gamma_seed(sys_))
    return out


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(small_linear_systems())
def test_seeds_from_the_lines_match_the_dense_greedy_on_small_systems(sys_):
    assert _line_seeds(sys_) == _dense_seeds(sys_)


def test_seeds_from_the_lines_match_the_dense_greedy():
    # the same picks, lowest index on ties, on the corpus (isolated points
    # included), the planes and pendant planes up to order 16 and the
    # triangular systems, where tau's and gamma's seeds differ
    systems = list(CORPUS)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        plane = projective_plane(q).system
        systems += [plane, extend_with_pendant_points(plane)]
    systems += [triangular_system(m) for m in range(3, 13)]
    assert sum(len(s.support) < s.num_points for s in systems) >= 10
    differ = 0
    for s in systems:
        seeds = _line_seeds(s)
        assert seeds == _dense_seeds(s), s.name
        differ += len(seeds) == 2 and seeds[0][0] != seeds[1][0]
    assert differ >= 50


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(small_linear_systems())
def test_nu2_capacity_rule_and_incumbents_match_brute_force(sys_):
    # the capacity rule: a packing covers each of the h points of degree
    # >= 3 at most twice, so besides the f free lines it holds at most the
    # t lines whose weights (their points of degree >= 3), smallest first,
    # sum to at most 2h
    n, rows = sys_.num_points, sys_.line_tuples
    best = brute_two_packing(n, rows)
    heavy = {v for v in range(n) if sys_.degrees[v] >= 3}
    weights = [len(heavy.intersection(l)) for l in sys_.line_tuples]
    free = weights.count(0)
    assert free + solvers._capacity([w for w in weights if w], len(heavy)) >= best
    # any 2-packing as incumbent leaves the value and the witness
    want = two_packing_number(sys_)
    assert want.value == best
    lines = range(sys_.num_lines)
    packings = [
        c
        for k in range(len(lines) + 1)
        for c in itertools.combinations(lines, k)
        if verify_two_packing(sys_, c)
    ]
    for c in packings:
        res = two_packing_number(sys_, incumbent=c)
        assert (res.value, res.witness) == (want.value, want.witness), c


def _trivial_seed(seed):
    """A seed function that offers the support points, with seed's
    maxcov, a true bound that the root test may use."""
    return lambda sys_: (tuple(sorted(sys_.support)), seed(sys_)[1])


def _root_bound_cases():
    """Intersecting systems of at most 12 lines on which each rule of the
    nu2 root bound sets the stopping size: (id, system, rule), the rule
    being the one that r = rank picks. The solver reads r over points of
    degree >= 2 only, which is below the rank on the pendant cases."""
    rng = random.Random(1947)
    fano = projective_plane(2).system
    pg3 = projective_plane(3).system
    pg4 = projective_plane(4)
    dual_arc = sorted(dual_hyperoval_lines(pg4))

    def lines_of(plane, idx):
        return LinearSystem(plane.num_points, [plane.line_tuples[i] for i in idx])

    cases = [
        ("ext-Fano", extend_with_pendant_points(fano), "parity"),
        ("Fano", fano, "meet"),
        ("triangular-5", triangular_system(5), "meet"),
        ("triangular-9", triangular_system(9), "meet"),
    ]
    for m in (4, 6, 8):
        cases.append((f"triangular-{m}", triangular_system(m), "meet"))
    for k in range(6, 13):
        for j in range(3):
            idx = sorted(rng.sample(range(13), k))
            cases.append((f"PG(2,3)-{k}lines-{j}", lines_of(pg3, idx), "parity"))
    for k in range(6, 11):
        # deleting a point on just one chosen line leaves lines of 3 and 4
        # points that still meet pairwise; 9 lines miss each point
        p = rng.randrange(13)
        missing = [i for i in range(13) if i not in pg3.lines_through[p]]
        idx = sorted([rng.choice(pg3.lines_through[p])] + rng.sample(missing, k - 1))
        sub = delete_point(lines_of(pg3, idx), p)
        cases.append((f"PG(2,3)-{k}lines-minus-{p}", sub, "parity"))
    for k in (3, 5):
        idx = sorted(rng.sample(range(13), k))
        cases.append((f"PG(2,3)-{k}lines", lines_of(pg3, idx), "meet"))
    for k in range(6, 13, 2):
        rest = sorted(set(range(21)) - set(dual_arc))
        idx = sorted(dual_arc + rng.sample(rest, k - 6))
        cases.append((f"PG(2,4)-arc+{k - 6}lines", lines_of(pg4.system, idx), "meet"))
        idx = sorted(rng.sample(range(21), k))
        cases.append((f"PG(2,4)-{k}lines", lines_of(pg4.system, idx), "meet"))
    # pendant extensions: a pendant point lies on one line only, so the
    # solver's r (points of degree >= 2 on a line) is below the line size
    for k in (4, 5, 6):
        idx = sorted(rng.sample(range(7), k))
        ext = extend_with_pendant_points(lines_of(fano, idx))
        cases.append((f"ext-Fano-{k}lines", ext, "parity" if k == 6 else "meet"))
    for k in range(6, 13, 2):
        for j in range(2):
            idx = sorted(rng.sample(range(13), k))
            ext = extend_with_pendant_points(lines_of(pg3, idx))
            cases.append((f"ext-PG(2,3)-{k}lines-{j}", ext, "meet"))
    return cases


ROOT_BOUND_CASES = _root_bound_cases()


@pytest.mark.parametrize(
    "sys_, rule",
    [(s, rule) for _, s, rule in ROOT_BOUND_CASES],
    ids=[name for name, _, _ in ROOT_BOUND_CASES],
)
def test_nu2_root_bound_rules_match_brute_force(sys_, rule):
    # each rule is checked against the oracle on its own: the meet rule
    # nu2 <= r + 1, and the parity rule nu2 <= r for even r and m >= r + 2;
    # the solver, which stops at that bound, must still find the optimum
    n, rows = sys_.num_points, sys_.line_tuples
    r, m = rank(sys_), sys_.num_lines
    assert is_intersecting(sys_)
    parity = r % 2 == 0 and m >= r + 2
    assert parity == (rule == "parity")
    best = brute_two_packing(n, rows)
    assert best <= (r if parity else r + 1)
    res = two_packing_number(sys_)
    assert res.value == best
    assert verify_two_packing(sys_, res.witness)
    assert len(res.witness) == res.value


def _shared_rank(sys_):
    """The most points of degree >= 2 on one line: the r of the solver's
    nu2 root bound."""
    return max(sum(1 for v in l if sys_.degrees[v] >= 2) for l in sys_.line_tuples)


@pytest.mark.parametrize(
    "sys_",
    [s for _, s, _ in ROOT_BOUND_CASES],
    ids=[name for name, _, _ in ROOT_BOUND_CASES],
)
def test_nu2_root_bound_on_shared_points_matches_brute_force(sys_):
    # both rules still hold when r counts only the points of degree >= 2,
    # the r that the solver stops at
    r, m = _shared_rank(sys_), sys_.num_lines
    parity = r % 2 == 0 and m >= r + 2
    best = brute_two_packing(sys_.num_points, sys_.line_tuples)
    assert best <= (r if parity else r + 1)


def test_root_bound_cases_include_pendant_points():
    # some cases have a shared-point r below the rank, under each rule
    rules = set()
    for _, s, _ in ROOT_BOUND_CASES:
        r, m = _shared_rank(s), s.num_lines
        if r < rank(s):
            rules.add("parity" if r % 2 == 0 and m >= r + 2 else "meet")
    assert rules == {"meet", "parity"}
