import dataclasses
import hashlib
import random
import tracemalloc

import numpy as np
import pytest

from linsys import (
    BadIndex,
    KIND_DOMINATION,
    KIND_TRANSVERSAL,
    KIND_TWO_PACKING,
    LinearSystem,
    NoLines,
    NotTwoPacking,
    SizeLimit,
    check_packing_gap,
    closed_neighborhood,
    delete_point,
    domination_number,
    dual_conic_lines,
    dual_hyperoval_lines,
    extend_with_pendant_points,
    greedy_transversal,
    is_intersecting,
    pendant_reduction,
    projective_plane,
    transversal_number,
    triangular_system,
    two_packing_number,
    verify_domination,
    verify_transversal,
    verify_two_packing,
)
from linsys import solvers
from linsys.kernels import JIT_KERNELS, PY_KERNELS
from linsys.limits import Caps
from linsys.solvers import _closed_neighbourhoods, _incidence

from corpus import build_corpus
from oracles import (
    brute_domination, brute_transversal, brute_two_packing, lex_first_dual_conic,
)


def test_transversal_fano(fano):
    res = transversal_number(fano)
    assert res.kind == KIND_TRANSVERSAL
    assert res.value == 3
    assert res.value == brute_transversal(fano.num_points, fano.line_tuples)
    assert verify_transversal(fano, res.witness)
    assert list(res.witness) == sorted(res.witness)
    assert res.nodes_explored > 0
    assert res.seconds >= 0.0


def test_transversal_single_point_suffices():
    pencil = LinearSystem(4, [[0, 1], [0, 2], [0, 3]])
    res = transversal_number(pencil)
    assert res.value == 1
    assert res.witness == (0,)


def test_transversal_disjoint_lines():
    res = transversal_number(LinearSystem(6, [[0, 1], [2, 3], [4, 5]]))
    assert res.value == 3


def test_greedy_transversal(fano):
    cover = greedy_transversal(fano)
    assert verify_transversal(fano, cover)
    assert cover == greedy_transversal(fano)
    with pytest.raises(NoLines):
        greedy_transversal(LinearSystem(3, []))


def test_solvers_reject_empty_line_sets():
    empty = LinearSystem(3, [])
    with pytest.raises(NoLines):
        transversal_number(empty)
    with pytest.raises(NoLines):
        two_packing_number(empty)


def test_domination_fano(fano):
    # any two plane points are collinear, so one point dominates
    res = domination_number(fano)
    assert res.kind == KIND_DOMINATION
    assert res.value == 1
    assert verify_domination(fano, res.witness)
    assert res.value == brute_domination(fano.num_points, fano.line_tuples)


def test_domination_counts_isolated_points():
    padded = LinearSystem(
        9,
        [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5], [1, 4, 6], [2, 3, 6], [2, 4, 5]],
    )
    res = domination_number(padded)
    assert res.value == 3
    assert {7, 8} <= set(res.witness)
    assert verify_domination(padded, res.witness)
    assert res.value == brute_domination(padded.num_points, padded.line_tuples)


def test_domination_no_lines_still_works():
    res = domination_number(LinearSystem(2, []))
    assert res.value == 2
    assert res.witness == (0, 1)


def test_domination_path():
    path = LinearSystem(3, [[0, 1], [1, 2]])
    res = domination_number(path)
    assert res.value == 1
    assert res.witness == (1,)


def test_two_packing_fano(fano):
    res = two_packing_number(fano)
    assert res.kind == KIND_TWO_PACKING
    assert res.value == 4
    assert verify_two_packing(fano, res.witness)
    assert res.value == brute_two_packing(fano.num_points, fano.line_tuples)


def test_two_packing_triangle():
    triangle = LinearSystem(3, [[0, 1], [1, 2], [0, 2]])
    res = two_packing_number(triangle)
    assert res.value == 3
    assert res.witness == (0, 1, 2)


def test_two_packing_sunflower():
    # four lines through one point: only two fit in a 2-packing
    sun = LinearSystem(9, [[0, 1, 2], [0, 3, 4], [0, 5, 6], [0, 7, 8]])
    res = two_packing_number(sun)
    assert res.value == 2
    assert res.value == brute_two_packing(sun.num_points, sun.line_tuples)


def test_results_are_deterministic(fano):
    a = transversal_number(fano)
    b = transversal_number(fano)
    assert (a.value, a.witness, a.nodes_explored) == (
        b.value,
        b.witness,
        b.nodes_explored,
    )


def test_to_dict_shape(fano):
    d = transversal_number(fano).to_dict()
    assert set(d) == {"kind", "value", "witness", "nodes", "ms"}
    assert d["kind"] == "transversal"
    assert isinstance(d["witness"], list)
    assert isinstance(d["ms"], float)


def test_caps_enforced(fano):
    with pytest.raises(SizeLimit):
        transversal_number(fano, caps=Caps(solver_points=4))
    with pytest.raises(SizeLimit):
        two_packing_number(fano, caps=Caps(solver_lines=4))
    with pytest.raises(SizeLimit):
        domination_number(fano, caps=Caps(solver_points=4))


def test_verifiers_reject_bad_witnesses(fano):
    assert not verify_transversal(fano, (0,))
    assert not verify_transversal(fano, [0, 1, 2, 99])
    assert not verify_transversal(fano, [0, 1, 2, -1])
    assert not verify_two_packing(fano, (0, 1, 2, 3, 4))
    assert not verify_domination(LinearSystem(4, [[0, 1], [2, 3]]), (0,))
    assert verify_domination(LinearSystem(4, [[0, 1], [2, 3]]), (0, 2))


# entries that are no point or line index, each named by its type
NOT_INDICES = pytest.mark.parametrize(
    "entry", ["a", 1.5, True, None, [0]], ids=["str", "float", "bool", "none", "list"]
)


@NOT_INDICES
def test_verify_transversal_rejects_non_indices(fano, entry):
    assert verify_transversal(fano, (0, 1, 2))
    assert not verify_transversal(fano, (0, 1, 2, entry))
    assert verify_transversal(fano, np.array([0, 1, 2]))


@NOT_INDICES
def test_verify_domination_rejects_non_indices(fano, entry):
    assert verify_domination(fano, (1,))
    assert not verify_domination(fano, (1, entry))
    assert verify_domination(fano, np.array([1]))


@NOT_INDICES
def test_verify_two_packing_rejects_non_indices(fano, entry):
    assert verify_two_packing(fano, (0, 1))
    assert not verify_two_packing(fano, (0, entry))
    assert not verify_two_packing(fano, (entry,))
    assert verify_two_packing(fano, np.array([0, 1]))


def test_plane_solver_values():
    plane3 = projective_plane(3).system
    assert transversal_number(plane3).value == 4
    assert two_packing_number(plane3).value == 4
    assert domination_number(plane3).value == 1


def test_packing_gap_single_line():
    rep = check_packing_gap(LinearSystem(3, [[0, 1, 2]]))
    assert (rep.tau, rep.nu2) == (1, 1)
    assert rep.bound == 1 + 1 + 1 - 3
    assert not rep.hypothesis_holds
    assert not rep.conclusion_holds


def test_packing_gap_fano(fano):
    rep = check_packing_gap(fano)
    assert (rep.num_lines, rep.max_degree, rep.second_max_degree) == (7, 3, 3)
    assert (rep.tau, rep.nu2) == (3, 4)
    assert rep.bound == 3 + 3 + 4 - 3
    assert rep.hypothesis_holds  # 7 <= 7
    assert rep.conclusion_holds  # 3 <= 3
    d = rep.to_dict()
    assert d["hypothesis_holds"] and d["conclusion_holds"]


def test_witnesses_match_oracle_sizes():
    systems = [
        LinearSystem(5, [[0, 1], [1, 2], [2, 3], [3, 4]]),
        LinearSystem(6, [[0, 1, 2], [2, 3], [3, 4, 5], [1, 3]]),
        LinearSystem(4, [[0], [1], [2, 3]]),
    ]
    for sys_ in systems:
        n, rows = sys_.num_points, sys_.line_tuples
        assert transversal_number(sys_).value == brute_transversal(n, rows)
        assert domination_number(sys_).value == brute_domination(n, rows)
        assert two_packing_number(sys_).value == brute_two_packing(n, rows)


def _plane(q):
    return projective_plane(q).system


def _extended_plane(q):
    return extend_with_pendant_points(projective_plane(q).system)


# (value, witness) of tau, gamma and nu2, recorded before the degree, meet
# and tried-candidate bounds went in. A bound may only cut subtrees that
# cannot hold a strictly better incumbent, so these must never move.
PINNED = {
    "PG(2,3)": (lambda: _plane(3), {
        "tau": (4, (0, 1, 2, 3)),
        "gamma": (1, (0,)),
        "nu2": (4, (0, 1, 4, 8)),
    }),
    "PG(2,4)": (lambda: _plane(4), {
        "tau": (5, (0, 1, 2, 3, 4)),
        "gamma": (1, (0,)),
        "nu2": (6, (0, 1, 5, 10, 16, 19)),
    }),
    "PG(2,5)": (lambda: _plane(5), {
        "tau": (6, (0, 1, 2, 3, 4, 5)),
        "gamma": (1, (0,)),
        "nu2": (6, (0, 1, 6, 12, 19, 25)),
    }),
    "ext-PG(2,3)": (lambda: _extended_plane(3), {
        "tau": (4, (0, 1, 2, 3)),
        "gamma": (4, (0, 1, 2, 3)),
        "nu2": (4, (0, 1, 4, 8)),
    }),
    "ext-PG(2,4)": (lambda: _extended_plane(4), {
        "tau": (5, (0, 1, 2, 3, 4)),
        "gamma": (5, (0, 1, 2, 3, 4)),
        "nu2": (6, (0, 1, 5, 10, 16, 19)),
    }),
    "triangular-9": (lambda: triangular_system(9), {
        "tau": (5, (0, 7, 15, 26, 33)),
        "gamma": (4, (0, 15, 26, 33)),
        "nu2": (9, (0, 1, 2, 3, 4, 5, 6, 7, 8)),
    }),
    "triangular-10": (lambda: triangular_system(10), {
        "tau": (5, (0, 17, 30, 39, 44)),
        "gamma": (5, (0, 7, 17, 30, 39)),
        "nu2": (10, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)),
    }),
}

PINNED_SOLVERS = {
    "tau": transversal_number,
    "gamma": domination_number,
    "nu2": two_packing_number,
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_values_and_witnesses(name):
    build, expected = PINNED[name]
    sys_ = build()
    for kind, answer in expected.items():
        res = PINNED_SOLVERS[kind](sys_)
        assert (res.value, res.witness) == answer, kind


def _no_floors(monkeypatch):
    """Pass the cover kernel floor 0, so that it walks its whole tree."""
    monkeypatch.setattr(solvers, "_disjoint_lines", lambda sys_: 0)
    monkeypatch.setattr(solvers, "_pendant_line_floor", lambda sys_: 0)


# (value, witness, nodes) of gamma with the kernel at floor 0, and the
# nodes with the pendant-line floor. The floor-0 counts are those of the
# traversal before the floor, so a faster kernel must do the same one.
# The floor settles the pendant planes at the root, where the greedy seed
# is q + 1; the triangular systems have no point of degree 1. ext-PG(2,8)
# has 146 points, past the default solver cap and past one 64-bit word.
PINNED_GAMMA_NODES = {
    "triangular-9": (lambda: triangular_system(9), (4, (0, 15, 26, 33), 166), 166),
    "triangular-10": (
        lambda: triangular_system(10), (5, (0, 7, 17, 30, 39), 2041), 2041
    ),
    "ext-PG(2,3)": (lambda: _extended_plane(3), (4, (0, 1, 2, 3), 10), 1),
    "ext-PG(2,4)": (lambda: _extended_plane(4), (5, (0, 1, 2, 3, 4), 17), 1),
    "ext-PG(2,8)": (lambda: _extended_plane(8), (9, tuple(range(9)), 56), 1),
}


@pytest.mark.parametrize("name", sorted(PINNED_GAMMA_NODES))
def test_pinned_gamma_nodes(name, monkeypatch):
    build, (value, witness, full), nodes = PINNED_GAMMA_NODES[name]
    caps = Caps(solver_points=1000, solver_lines=1000)
    res = domination_number(build(), caps=caps)
    assert (res.value, res.witness, res.nodes_explored) == (value, witness, nodes)
    _no_floors(monkeypatch)
    res = domination_number(build(), caps=caps)
    assert (res.value, res.witness, res.nodes_explored) == (value, witness, full)


def _deep_random_system():
    # 30 points, 17 lines, not intersecting: gamma revisits branch points at
    # several depths, so stale tried-candidate exclusions would show here
    return LinearSystem(
        30,
        [
            [9, 11, 13, 27], [5, 15, 19, 20, 23, 26], [8, 11, 16, 17, 23, 28],
            [4, 16], [10], [12, 15, 18], [1, 10, 13, 21, 22], [4, 7, 8, 25, 29],
            [3], [6, 14, 17, 26, 27], [12, 19, 22, 24, 27, 28], [23],
            [0, 3, 10, 17, 24, 25], [19], [0, 1, 16], [1, 2, 3, 12, 26],
            [5, 9, 25],
        ],
    )


# (value, witness, nodes) of tau on systems where its search branches,
# and the nodes with the kernel at floor 0. A change of search bound may
# move the node counts (never the value or the witness); it must say so
# and re-record them here. The disjoint-line floor reaches the value on
# all but random-28b: random-28a's seed is its value, and its 11 disjoint
# lines settle it at the root.
PINNED_TAU_NODES = {
    "deep-random-30": (
        _deep_random_system, (8, (3, 10, 12, 16, 19, 23, 25, 27), 26), 28
    ),
    "PG(2,3)-minus-point": (
        lambda: delete_point(_plane(3), 0), (4, (1, 4, 7, 10), 5), 13
    ),
    "random-28a": (
        lambda: LinearSystem(
            28,
            [
                [4, 5, 8], [7, 13, 15, 16, 17], [3, 5, 10, 23, 26, 27],
                [19, 22], [1, 2, 4, 18, 24, 25], [20], [10, 15, 20],
                [2, 8, 9, 19, 20, 21, 27], [17, 18], [6, 10], [12],
                [0, 1, 6, 20, 23], [7], [14, 21], [0, 13], [6, 16, 22],
                [6, 15, 21], [11, 20, 22], [23], [27], [10, 11, 21], [4, 21],
            ],
        ),
        (11, (0, 4, 6, 7, 12, 17, 19, 20, 21, 23, 27), 1),
        34,
    ),
    "random-28b": (
        lambda: LinearSystem(
            28,
            [
                [3, 16, 18, 21, 24], [7, 22], [0, 8, 16, 17, 23],
                [0, 1, 3, 12], [5, 6, 15, 18], [2, 15, 19, 26],
                [1, 14, 24, 27], [1, 17], [27], [7, 12, 13, 20, 23], [26],
                [12, 25, 27], [14, 25], [1, 10, 16, 26], [10, 19, 24],
                [4, 7, 10, 25], [22, 23],
            ],
        ),
        (8, (1, 7, 10, 14, 18, 23, 26, 27), 23),
        23,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_TAU_NODES))
def test_pinned_tau_nodes(name, monkeypatch):
    build, (value, witness, nodes), full = PINNED_TAU_NODES[name]
    res = transversal_number(build())
    assert (res.value, res.witness, res.nodes_explored) == (value, witness, nodes)
    _no_floors(monkeypatch)
    res = transversal_number(build())
    assert (res.value, res.witness, res.nodes_explored) == (value, witness, full)


# (value, witness, nodes) of tau and gamma on systems where the search
# reaches a node with an uncovered element whose candidates are all
# excluded (each was tried at an earlier branch). Such a node has no cover
# below it; the residual bound prunes it or the branch finds no candidate.
PINNED_EXCLUDED_ELEMENT_NODES = {
    "tau-9a": (
        transversal_number,
        LinearSystem(
            9, [[0, 5], [1, 4, 7], [4, 8], [1, 3, 8], [2, 6], [0, 4],
                [3, 5, 7], [5, 6]],
        ),
        (4, (1, 2, 4, 5), 5),
    ),
    "tau-9b": (
        transversal_number,
        LinearSystem(
            9, [[1, 2], [0, 4, 5, 6], [1, 6, 7], [2, 5], [0, 3], [4, 8],
                [2, 4], [0, 1]],
        ),
        (4, (0, 1, 2, 4), 7),
    ),
    "gamma-12": (
        domination_number,
        LinearSystem(
            12, [[0, 8], [2, 9], [1, 11], [1, 5], [2, 7, 11], [3, 6, 8, 10],
                 [4, 9], [4, 11], [0, 5]],
        ),
        (4, (0, 2, 8, 11), 9),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_EXCLUDED_ELEMENT_NODES))
def test_pinned_nodes_with_excluded_element(name):
    solve, sys_, answer = PINNED_EXCLUDED_ELEMENT_NODES[name]
    res = solve(sys_)
    assert (res.value, res.witness, res.nodes_explored) == answer


def _relabelled_triangular(m, seed):
    perm = list(range(m * (m - 1) // 2))
    random.Random(seed).shuffle(perm)
    base = triangular_system(m)
    return LinearSystem(
        base.num_points, [[perm[v] for v in l] for l in base.line_tuples]
    )


def test_pinned_gamma_on_relabelled_triangular():
    # the search meets many nodes with an uncovered element whose
    # candidates are all excluded; a prune of those nodes alone took 2,935
    res = domination_number(_relabelled_triangular(10, 0))
    assert (res.value, res.witness, res.nodes_explored) == (
        5, (0, 2, 4, 6, 10), 2946
    )


# (value, witness, nodes) of nu2, with the root bound, the capacity rule
# and the free lines settled before the search (triangular-9 has only
# free lines, so it takes the 1 node of a settled solve). A change of
# search bound may move the node counts (never the value or the
# witness); it must say so and re-record them here. The full-traversal
# tests below keep the counts from before the root bound.
PINNED_NU2_NODES = {
    "PG(2,3)": (lambda: _plane(3), (4, (0, 1, 4, 8), 10)),
    "PG(2,4)": (lambda: _plane(4), (6, (0, 1, 5, 10, 16, 19), 21)),
    "PG(2,5)": (lambda: _plane(5), (6, (0, 1, 6, 12, 19, 25), 27)),
    "PG(2,8)": (
        lambda: _plane(8), (10, (0, 1, 9, 18, 28, 38, 43, 56, 61, 71), 74)
    ),
    "ext-PG(2,3)": (lambda: _extended_plane(3), (4, (0, 1, 4, 8), 10)),
    "ext-PG(2,4)": (
        lambda: _extended_plane(4), (6, (0, 1, 5, 10, 16, 19), 21)
    ),
    "ext-PG(2,5)": (
        lambda: _extended_plane(5), (6, (0, 1, 6, 12, 19, 25), 27)
    ),
    "triangular-9": (
        lambda: triangular_system(9), (9, tuple(range(9)), 1)
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_NU2_NODES))
def test_pinned_nu2_nodes(name):
    build, answer = PINNED_NU2_NODES[name]
    res = two_packing_number(build())
    assert (res.value, res.witness, res.nodes_explored) == answer


CORPUS_NU2_SHA256 = (
    "002463d7a1993b52119e0f058f9136d0e5b3eea3d77a3d89d211a63abd275a66"
)


def test_nu2_kernel_input_is_c_contiguous():
    # the kept lines over the heavy points are built row by row, heavy
    # points numbered by rank: the column selection of the full incidence,
    # in C order, with the pinned answers
    seen = []

    def spy(lines, *args):
        seen.append(lines)
        return PY_KERNELS.nu2_search(lines, *args)

    ks = dataclasses.replace(PY_KERNELS, nu2_search=spy)
    for s in [_plane(3), _plane(5), triangular_system(9)] + build_corpus():
        seen.clear()
        two_packing_number(s, kernels=ks)
        (lines,) = seen
        assert lines.flags.c_contiguous
        _, _, kept, heavy = solvers._packing_bounds(s)
        full = _incidence([s.line_tuples[i] for i in kept], s.num_points)
        assert np.array_equal(lines, full[:, heavy] if kept else solvers._EMPTY)
    for name in ("PG(2,3)", "PG(2,5)", "triangular-9"):
        build, answer = PINNED_NU2_NODES[name]
        res = two_packing_number(build(), kernels=ks)
        assert (res.value, res.witness, res.nodes_explored) == answer


def test_pinned_nu2_nodes_on_corpus():
    # the sha256 of the repr of the (value, witness) list in corpus order,
    # and the node total over the 110 systems
    results = [two_packing_number(s) for s in build_corpus()]
    pairs = repr([(r.value, r.witness) for r in results]).encode()
    assert hashlib.sha256(pairs).hexdigest() == CORPUS_NU2_SHA256
    assert sum(r.nodes_explored for r in results) == 630


def _corpus_tau_gamma():
    """((value, witness, nodes) of tau, None on a lineless system;
    (value, witness, nodes) of gamma) per corpus system, in order."""
    rows = []
    for s in build_corpus():
        tau = transversal_number(s) if s.line_tuples else None
        gamma = domination_number(s)
        rows.append(
            (
                tau and (tau.value, tau.witness, tau.nodes_explored),
                (gamma.value, gamma.witness, gamma.nodes_explored),
            )
        )
    return rows


def _sha256(x):
    return hashlib.sha256(repr(x).encode()).hexdigest()


def test_pinned_tau_gamma_on_corpus():
    # the sha256 of the repr of the (value, witness) pairs of tau and gamma
    # in corpus order, unchanged by the floors, and of their node counts,
    # and the node totals over the 110 systems
    rows = _corpus_tau_gamma()
    assert _sha256([(t and t[:2], g[:2]) for t, g in rows]) == (
        "d062b4c47258254374568db7017d4eaaa7fd0ecd47ebce5ef3da9cebfce012c6"
    )
    assert _sha256([(t and t[2], g[2]) for t, g in rows]) == (
        "ba5b2a9c20db42b1c2f06e9efd0bfbd9ac56d32dd55791dd1479dfa4c5e32d86"
    )
    assert sum(t[2] for t, _ in rows if t is not None) == 217
    assert sum(g[2] for _, g in rows) == 128


def test_pinned_tau_gamma_on_corpus_at_floor_zero(monkeypatch):
    # the sha256 of the repr of the rows, nodes included, and the node
    # totals, as they stood before the floors
    _no_floors(monkeypatch)
    rows = _corpus_tau_gamma()
    assert _sha256(rows) == (
        "2e9198e3a270de29ddad6ae997ec52ccf2018f1615317c42a831890d407f3882"
    )
    assert sum(t[2] for t, _ in rows if t is not None) == 253
    assert sum(g[2] for _, g in rows) == 144


def test_floors_are_at_most_the_oracles():
    # each floor is at most the brute-force minimum it bounds: tau, and
    # gamma less the isolated points; both reach it on some systems
    reached = {"tau": 0, "gamma": 0}
    for s in build_corpus():
        n, lines = s.num_points, s.line_tuples
        if lines:
            tau = brute_transversal(n, lines)
            assert solvers._disjoint_lines(s) <= tau, lines
            reached["tau"] += solvers._disjoint_lines(s) == tau
        inner = brute_domination(n, lines) - (n - len(s.support))
        assert solvers._pendant_line_floor(s) <= inner, lines
        reached["gamma"] += solvers._pendant_line_floor(s) == inner
    assert min(reached.values()) >= 10, reached


def test_incidence_rows_are_the_lines():
    for s in build_corpus() + [_extended_plane(3)]:
        inc = _incidence(s.line_tuples, s.num_points)
        assert inc.dtype == np.uint8 and inc.flags.c_contiguous
        assert [
            tuple(np.flatnonzero(row).tolist()) for row in inc
        ] == list(s.line_tuples)


def test_point_cover_rows_are_the_lines_through_each_point():
    systems = build_corpus() + [_extended_plane(3), LinearSystem(3, [[1]])]
    for s in systems:
        cover = _incidence(s.lines_through, s.num_lines)
        assert cover.dtype == np.uint8 and cover.flags.c_contiguous
        assert np.array_equal(cover, _incidence(s.line_tuples, s.num_points).T)
        assert [
            tuple(np.flatnonzero(row).tolist()) for row in cover
        ] == list(s.lines_through)


def test_closed_neighbourhoods_match_set_logic():
    # row v of gamma's matrix is N[v], {v} for an isolated point
    systems = build_corpus() + [_extended_plane(q) for q in (2, 3, 4)]
    systems.append(LinearSystem(3, []))
    isolated = 0
    for s in systems:
        cover = _closed_neighbourhoods(s)
        assert cover.dtype == np.uint8
        assert cover.shape == (s.num_points, s.num_points)
        for v in range(s.num_points):
            hood = sorted(closed_neighborhood(s, v))
            assert np.flatnonzero(cover[v]).tolist() == hood
            isolated += hood == [v] and v not in s.support
    assert isolated > 0


@pytest.mark.parametrize("solve", [transversal_number, domination_number])
def test_solver_memory_is_bounded_by_the_cover_matrix(solve, monkeypatch):
    # ext-PG(2,16): 546 points on 273 lines. The cover matrix is (k, e)
    # uint8, points over lines for tau and points over points for gamma.
    # A solve may hold two arrays of its size (the matrix and one kernel
    # temporary; the greedy seed is taken from the lines), numpy's casting
    # buffer for a row sum (getbufsize() elements of 8 bytes) and
    # O(cap * (k + e)) per-depth rows; one (k, e) int32 or intp array
    # more, such as candidate lists built from the matrix, does not fit.
    # At floor 0 gamma searches its whole tree, which the pendant-line
    # floor would settle at the root, and tau settles at the root
    _no_floors(monkeypatch)
    s = _extended_plane(16)
    n, m = s.num_points, s.num_lines
    k, e = (n, m) if solve is transversal_number else (n, n)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        res = solve(s, caps=Caps(solver_points=n, solver_lines=m))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.value == 17
    assert res.nodes_explored == (1 if solve is transversal_number else 223)
    # the greedy seed is the value here, so the kernel's depth cap is 19
    cap = res.value + 2
    assert peak - base <= 2 * k * e + 16 * cap * (k + e) + 8 * np.getbufsize()


def _rooted_nu2_search(sys_, top):
    """(value, witness, nodes) of the nu2 kernel on the full incidence,
    stopping at a caller's top."""
    best, wit, nodes = PY_KERNELS.nu2_search(_incidence(sys_.line_tuples, sys_.num_points), top)
    return int(best), tuple(int(i) for i in wit[: int(best)]), int(nodes)


def _full_nu2_search(sys_):
    """(value, witness, nodes) of the nu2 kernel with top = m + 1, a bound
    no packing reaches, so the search never stops early."""
    return _rooted_nu2_search(sys_, sys_.num_lines + 1)


@pytest.mark.parametrize(
    "name, nodes",
    [
        ("PG(2,3)", 220),
        ("PG(2,5)", 6298),
        ("ext-PG(2,4)", 55),
        ("triangular-9", 19),
    ],
)
def test_full_nu2_traversal_keeps_pre_root_bound_pins(name, nodes):
    # without the root bound the kernel walks the tree it walked before it:
    # the full search proves, with no appeal to the parity rule, that
    # PG(2,3) and PG(2,5) have no 2-packing of q + 2 lines
    build, (value, witness, _) = PINNED_NU2_NODES[name]
    assert _full_nu2_search(build()) == (value, witness, nodes)


def test_full_nu2_traversal_on_corpus():
    results = [_full_nu2_search(s) for s in build_corpus()]
    pairs = repr([(v, w) for v, w, _ in results]).encode()
    assert hashlib.sha256(pairs).hexdigest() == CORPUS_NU2_SHA256
    assert sum(n for _, _, n in results) == 1985


def _meet_parity_top(sys_):
    """The root bound from the meet and parity rules alone, the top of a
    search over every line and point."""
    m = sys_.num_lines
    r = max(sum(1 for v in l if sys_.degrees[v] >= 2) for l in sys_.line_tuples)
    if not is_intersecting(sys_):
        return m
    return r if r % 2 == 0 and m >= r + 2 else min(m, r + 1)


def _free_lines(sys_):
    return [
        i for i, l in enumerate(sys_.line_tuples)
        if all(sys_.degrees[v] <= 2 for v in l)
    ]


def _build_style_system(rng, n, target):
    """A random linear system on n points with up to target lines of 2..5
    points, drawn as the benchmark's build workload draws them."""
    lines = []
    for _ in range(200):
        if len(lines) == target:
            break
        cand = frozenset(rng.sample(range(n), rng.randint(2, min(5, n))))
        if cand in lines or any(len(cand & l) > 1 for l in lines):
            continue
        lines.append(cand)
    return LinearSystem(n, lines)


@pytest.mark.parametrize("ks", [k for k in (PY_KERNELS, JIT_KERNELS) if k], ids=lambda k: k.name)
def test_nu2_of_an_all_free_system_is_the_kernels_root_answer(ks):
    # a system of free lines only keeps no line and marks no point, and
    # hands the kernel the empty matrix, settled at the root: every line,
    # in 1 node
    rng = random.Random(2018)
    free_only = 0
    for i in range(300):
        sys_ = _build_style_system(rng, 5 + i % 12, 3 + 7 * i % 10)
        if (sys_.degrees >= 3).any():
            continue
        free_only += 1
        got = two_packing_number(sys_, kernels=ks)
        top, free, kept, heavy = solvers._packing_bounds(sys_)
        assert len(kept) == 0 and not heavy.any()
        best, wit, nodes = ks.nu2_search(solvers._EMPTY, top - len(free), 0)
        want = (KIND_TWO_PACKING, len(free) + int(best), tuple(free), int(nodes))
        assert (got.kind, got.value, got.witness, got.nodes_explored) == want
        assert want == (KIND_TWO_PACKING, sys_.num_lines, tuple(range(sys_.num_lines)), 1)
    assert free_only >= 20


def _random_nu2_system(rng, kind):
    """A seeded system whose free lines (no point on three or more lines)
    are all of its lines ("free"), most often some of them ("mixed"), or
    lines of PG(2,q), q <= 4, with pendant points on some draws
    ("intersecting")."""
    if kind == "free":
        # lines are the vertices of a random simple graph, and an edge is a
        # point on its two lines; pendant points keep every line two long
        m = rng.randint(1, 12)
        lines = [[] for _ in range(m)]
        n = 0
        for a in range(m):
            for b in range(a + 1, m):
                if rng.random() < 0.3:
                    lines[a].append(n)
                    lines[b].append(n)
                    n += 1
        for line in lines:
            for _ in range(max(rng.randint(0, 2), 2 - len(line))):
                line.append(n)
                n += 1
        return LinearSystem(n, lines)
    if kind == "mixed":
        # a random linear system, or lines of PG(2,q) beside a free system
        # whose lines may each take one point on a single plane line
        if rng.random() < 0.5:
            n = rng.randint(4, 12)
            lines = []
            for _ in range(rng.randint(1, 20)):
                cand = frozenset(rng.sample(range(n), rng.randint(1, 3)))
                if all(len(cand & l) <= 1 and cand != l for l in lines):
                    lines.append(cand)
            return LinearSystem(n, lines)
        base = _random_nu2_system(rng, "intersecting")
        extra = _random_nu2_system(rng, "free")
        single = [v for v in sorted(base.support) if base.degrees[v] == 1]
        rng.shuffle(single)
        n = base.num_points
        lines = [list(l) for l in base.line_tuples]
        for l in extra.line_tuples:
            lines.append([n + v for v in l])
            if single and rng.random() < 0.5:
                lines[-1].append(single.pop())
        return LinearSystem(n + extra.num_points, lines)
    plane = _plane(rng.choice((2, 3, 4)))
    m = plane.num_lines
    idx = sorted(rng.sample(range(m), rng.randint(1, min(m, 12))))
    sub = LinearSystem(plane.num_points, [plane.line_tuples[i] for i in idx])
    return extend_with_pendant_points(sub) if rng.random() < 0.3 else sub


def _nu2_differential_systems():
    systems = list(build_corpus())
    systems += [_plane(q) for q in range(2, 10) if q != 6]
    systems += [_extended_plane(q) for q in (2, 3, 4, 5)]
    systems += [triangular_system(m) for m in range(3, 13)]
    rng = random.Random(1955)
    for i in range(2100):
        systems.append(_random_nu2_system(rng, ("free", "mixed", "intersecting")[i % 3]))
    return systems


def test_two_packing_number_matches_full_traversal():
    # the free lines settled up front, the search over the other lines
    # and only the points of degree >= 3, and the capacity rule keep the
    # value and the witness of the search over the whole incidence with
    # no root bound; nodes only fall below those of that search with the
    # meet and parity rules. The odd planes PG(2,7) and PG(2,9), whose
    # full traversal takes 138,375 nodes (4 s) and more, are compared
    # with the search stopping at q + 1 instead, a bound the parity rule
    # proves, so the witness is the same
    kinds = {"all free": 0, "mixed": 0, "intersecting": 0}
    for sys_ in _nu2_differential_systems():
        free = _free_lines(sys_)
        m = sys_.num_lines
        kinds["all free"] += len(free) == m
        kinds["mixed"] += 0 < len(free) < m
        kinds["intersecting"] += is_intersecting(sys_) and m > 1
        res = two_packing_number(sys_)
        rooted = _rooted_nu2_search(sys_, _meet_parity_top(sys_))
        name = sys_.name or ""
        if name in ("PG(2,7)", "PG(2,9)"):
            want = rooted
        else:
            want = _full_nu2_search(sys_)
        assert (res.value, res.witness) == want[:2], (name, sys_.line_tuples)
        assert set(free) <= set(res.witness)
        assert res.nodes_explored <= rooted[2]
        assert res.nodes_explored == 1 or len(free) < m
    assert min(kinds.values()) >= 500, kinds


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_nu2_of_reduced_pendant_plane_is_the_planes(q):
    # the reduced pendant plane has the plane's lines, an isolated point
    # for each of them and no point on one or two lines
    caps = Caps(solver_points=200)
    plane = projective_plane(q).system
    reduced, _ = pendant_reduction(extend_with_pendant_points(plane, caps))
    assert reduced.line_tuples == plane.line_tuples
    assert reduced.num_points == 2 * plane.num_points
    assert set(reduced.degrees.tolist()) == {0, q + 1}
    got = two_packing_number(reduced, caps=caps)
    want = two_packing_number(plane, caps=caps)
    assert (got.value, got.witness, got.nodes_explored) == (
        want.value, want.witness, want.nodes_explored
    )


def test_nu2_incumbent_repeating_a_line_raises(fano):
    with pytest.raises(NotTwoPacking):
        two_packing_number(fano, incumbent=[0, 1, 0])


@pytest.mark.parametrize("line", [-1, 7, 10**30, 1.0, True, "0"])
def test_nu2_incumbent_out_of_range_raises(fano, line):
    with pytest.raises(BadIndex):
        two_packing_number(fano, incumbent=[0, line])


def test_nu2_incumbent_that_is_no_packing_raises(fano):
    # the three lines through a point cover it three times
    with pytest.raises(NotTwoPacking):
        two_packing_number(fano, incumbent=fano.lines_through[0])


def test_packing_gap_forwards_the_incumbent(fano):
    with pytest.raises(NotTwoPacking):
        check_packing_gap(fano, incumbent=fano.lines_through[0])
    assert check_packing_gap(fano, incumbent=(0, 1)).nu2 == 4


def test_nu2_from_dual_conic_on_pg17():
    # the witness of the search with no incumbent, which walks 345,978
    # nodes (about 12 s on a 2-core machine); from the dual conic's 18
    # lines the search walks 20,209
    caps = Caps(plane_order=17, solver_points=307, solver_lines=307)
    plane = projective_plane(17, caps=caps)
    conic = dual_conic_lines(plane)
    assert len(conic) == 18 and verify_two_packing(plane.system, conic)
    res = two_packing_number(plane.system, caps=caps, incumbent=conic)
    assert res.value == 18
    assert res.witness == (
        0, 1, 18, 36, 55, 78, 105, 128, 147, 165, 186, 200, 210, 226, 246,
        262, 289, 303,
    )
    assert res.nodes_explored == 20209
    assert res.witness == lex_first_dual_conic(plane)


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_nu2_witness_is_the_lex_first_dual_conic(q):
    # the search's first maximum 2-packing is the dual conic through the
    # greedy packing's first five lines; q = 17 is checked above
    caps = Caps(solver_points=200, solver_lines=200)
    plane = projective_plane(q, caps=caps)
    res = two_packing_number(
        plane.system, caps=caps, incumbent=dual_conic_lines(plane)
    )
    assert res.witness == lex_first_dual_conic(plane)


@pytest.mark.parametrize("q", [19, 23, 25, 27, 29, 31])
def test_lex_first_dual_conic_is_a_maximum_packing(q):
    # q + 1 lines, the most the parity rule allows at odd q. At q = 23 the
    # search from the dual conic walks 1,448,282 nodes (122.6 s, 2 cores);
    # its witness, pinned here, is the oracle's
    plane = projective_plane(q, caps=Caps(plane_order=q))
    conic = lex_first_dual_conic(plane)
    assert len(conic) == q + 1 and verify_two_packing(plane.system, conic)
    if q == 23:
        assert conic == (
            0, 1, 24, 48, 73, 102, 147, 176, 201, 225, 244, 272, 292, 307,
            334, 351, 390, 411, 427, 444, 471, 486, 529, 534,
        )


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11])
def test_packing_value_settles_at_a_dual_arc(q, monkeypatch):
    # the dual hyperoval (q + 2 lines, the meet rule) and the dual conic
    # (q + 1 lines, the parity rule) reach top, so no search runs
    caps = Caps(solver_points=200, solver_lines=200)
    plane = projective_plane(q, caps=caps)
    dual = dual_hyperoval_lines(plane) if q % 2 == 0 else dual_conic_lines(plane)
    want = two_packing_number(plane.system, caps=caps, incumbent=dual).value
    monkeypatch.setattr(solvers, "two_packing_number", None)
    assert solvers._two_packing_value(plane.system, caps, dual) == want
    assert check_packing_gap(plane.system, caps=caps, incumbent=dual).nu2 == want


def test_packing_bound_is_at_least_the_oracle():
    # top, at which a verified incumbent settles nu2, is an upper bound,
    # and it is nu2 on many corpus systems
    reached = 0
    for s in build_corpus():
        if s.line_tuples:
            nu2 = brute_two_packing(s.num_points, s.line_tuples)
            top = solvers._packing_bounds(s)[0]
            assert top >= nu2, s.line_tuples
            reached += top == nu2
    assert reached >= 50


def test_packing_value_falls_back_to_the_search():
    # no incumbent, or one below top, leaves nu2 to the search
    fell_back = 0
    for s in build_corpus():
        if not s.line_tuples:
            continue
        want = two_packing_number(s).value
        assert solvers._two_packing_value(s, Caps(), None) == want
        assert solvers._two_packing_value(s, Caps(), [0]) == want
        fell_back += want > 1
    assert fell_back >= 50


@pytest.mark.parametrize(
    "sys_, incumbent, caps, error",
    [
        (LinearSystem(3, []), [], Caps(), NoLines),
        (projective_plane(2).system, [0, 7], Caps(), BadIndex),
        (projective_plane(2).system, [0, 1, 2], Caps(), NotTwoPacking),
        (projective_plane(2).system, [0], Caps(solver_lines=6), SizeLimit),
    ],
)
def test_packing_value_raises_what_the_search_raises(sys_, incumbent, caps, error):
    with pytest.raises(error):
        two_packing_number(sys_, caps=caps, incumbent=incumbent)
    with pytest.raises(error):
        solvers._two_packing_value(sys_, caps, incumbent)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_plane_tau_settles_at_root(q):
    # the residual-cover bound ceil((q^2+q+1)/(q+1)) = q+1 meets the greedy
    # line
    res = transversal_number(_plane(q))
    assert res.value == q + 1
    assert res.nodes_explored == 1


def _spy_kernels(calls):
    """PY_KERNELS, with each search's name and input shape recorded in
    calls."""
    def spy(name, search):
        def run(lines, *args):
            calls.append((name, lines.shape))
            return search(lines, *args)
        return run

    return dataclasses.replace(
        PY_KERNELS,
        tau_search=spy("tau", PY_KERNELS.tau_search),
        gamma_search=spy("gamma", PY_KERNELS.gamma_search),
        nu2_search=spy("nu2", PY_KERNELS.nu2_search),
    )


def test_solves_settled_at_the_root_build_no_matrix(monkeypatch):
    # the root tests run on the greedy seed before any matrix is built; a
    # settled solve still calls its kernel, on the empty matrix, in 1 node
    caps = Caps(solver_points=200, solver_lines=200)
    planes = {q: projective_plane(q) for q in (2, 3, 4, 5, 7, 8, 9)}
    pendant = {q: extend_with_pendant_points(planes[q].system) for q in planes if q <= 8}

    def refuse(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(solvers, "_incidence", refuse)
    monkeypatch.setattr(solvers, "_closed_neighbourhoods", refuse)
    calls = []
    ks = _spy_kernels(calls)

    def outcome(res):
        return res.value, res.witness, res.nodes_explored

    for q, plane in planes.items():
        res = transversal_number(plane.system, kernels=ks)
        assert outcome(res) == (q + 1, tuple(range(q + 1)), 1)
    for q, ext in pendant.items():
        res = domination_number(planes[q].system, kernels=ks)
        assert outcome(res) == (1, (0,), 1)
        res = domination_number(ext, caps=caps, kernels=ks)
        assert outcome(res) == (q + 1, tuple(range(q + 1)), 1)
    for m in range(3, 12):
        res = two_packing_number(triangular_system(m), kernels=ks)
        assert outcome(res) == (m, tuple(range(m)), 1)
    assert len(calls) == 7 + 2 * 6 + 9
    assert {shape for _, shape in calls} == {(0, 0)}
    # the battery's first solves: tau, and nu2 from the dual hyperoval
    plane = planes[8]
    gap = check_packing_gap(plane.system, incumbent=dual_hyperoval_lines(plane))
    assert (gap.tau, gap.nu2) == (9, 10)


def test_a_solve_that_branches_builds_its_matrix(monkeypatch):
    # gamma on triangular-9 is not settled at the root: its seed, 4
    # points, is minimum, but its 36 points are at most 3 * 15, 15 points
    # being the largest closed neighbourhood, and no point has degree 1
    built = []
    real = solvers._closed_neighbourhoods
    monkeypatch.setattr(
        solvers, "_closed_neighbourhoods", lambda s: built.append(s.name) or real(s)
    )
    calls = []
    res = domination_number(triangular_system(9), kernels=_spy_kernels(calls))
    assert (res.value, res.witness, res.nodes_explored) == (4, (0, 15, 26, 33), 166)
    assert built == ["triangular-9"]
    assert calls == [("gamma", (36, 36))]


def test_plane_nu2_order_eight():
    plane = _plane(8)
    res = two_packing_number(plane)
    assert res.value == 10
    assert verify_two_packing(plane, res.witness)


def test_pinned_deep_random_system():
    sys_ = _deep_random_system()
    tau = transversal_number(sys_)
    assert (tau.value, tau.witness) == (8, (3, 10, 12, 16, 19, 23, 25, 27))
    gamma = domination_number(sys_)
    assert (gamma.value, gamma.witness) == (4, (1, 15, 17, 25))
    nu2 = two_packing_number(sys_)
    assert (nu2.value, nu2.witness) == (
        13,
        (0, 1, 3, 4, 5, 6, 7, 8, 9, 11, 13, 14, 16),
    )
