import hashlib
import random

import numpy as np
import pytest

from linsys import (
    KIND_DOMINATION,
    KIND_TRANSVERSAL,
    KIND_TWO_PACKING,
    LinearSystem,
    NoLines,
    SizeLimit,
    check_packing_gap,
    closed_neighborhood,
    delete_point,
    domination_number,
    extend_with_pendant_points,
    greedy_transversal,
    projective_plane,
    transversal_number,
    triangular_system,
    two_packing_number,
    verify_domination,
    verify_transversal,
    verify_two_packing,
)
from linsys.kernels import PY_KERNELS
from linsys.limits import Caps
from linsys.solvers import _closed_neighbourhoods, _incidence, _rows

from corpus import build_corpus
from oracles import brute_domination, brute_transversal, brute_two_packing


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


# (value, witness, nodes) of gamma. No search bound changed since these
# were recorded, so the node counts are fixed too: a faster kernel must do
# the same traversal. ext-PG(2,8) has 146 points, past the default solver
# cap and past one 64-bit word.
PINNED_GAMMA_NODES = {
    "triangular-9": (lambda: triangular_system(9), (4, (0, 15, 26, 33), 166)),
    "triangular-10": (
        lambda: triangular_system(10), (5, (0, 7, 17, 30, 39), 2041)
    ),
    "ext-PG(2,3)": (lambda: _extended_plane(3), (4, (0, 1, 2, 3), 10)),
    "ext-PG(2,4)": (lambda: _extended_plane(4), (5, (0, 1, 2, 3, 4), 17)),
    "ext-PG(2,8)": (lambda: _extended_plane(8), (9, tuple(range(9)), 56)),
}


@pytest.mark.parametrize("name", sorted(PINNED_GAMMA_NODES))
def test_pinned_gamma_nodes(name):
    build, answer = PINNED_GAMMA_NODES[name]
    res = domination_number(
        build(), caps=Caps(solver_points=1000, solver_lines=1000)
    )
    assert (res.value, res.witness, res.nodes_explored) == answer


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


# (value, witness, nodes) of tau on systems where its search branches. A
# change of search bound may move the node counts (never the value or the
# witness); it must say so and re-record them here.
PINNED_TAU_NODES = {
    "deep-random-30": (
        _deep_random_system, (8, (3, 10, 12, 16, 19, 23, 25, 27), 28)
    ),
    "PG(2,3)-minus-point": (
        lambda: delete_point(_plane(3), 0), (4, (1, 4, 7, 10), 13)
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
        (11, (0, 4, 6, 7, 12, 17, 19, 20, 21, 23, 27), 34),
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
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_TAU_NODES))
def test_pinned_tau_nodes(name):
    build, answer = PINNED_TAU_NODES[name]
    res = transversal_number(build())
    assert (res.value, res.witness, res.nodes_explored) == answer


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


# (value, witness, nodes) of nu2, with the root bound. A change of search
# bound may move the node counts (never the value or the witness); it must
# say so and re-record them here. The full-traversal tests below keep the
# counts from before the root bound.
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
        lambda: triangular_system(9), (9, tuple(range(9)), 10)
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


def test_pinned_nu2_nodes_on_corpus():
    # the sha256 of the repr of the (value, witness) list in corpus order,
    # and the node total over the 110 systems
    results = [two_packing_number(s) for s in build_corpus()]
    pairs = repr([(r.value, r.witness) for r in results]).encode()
    assert hashlib.sha256(pairs).hexdigest() == CORPUS_NU2_SHA256
    assert sum(r.nodes_explored for r in results) == 1073


CORPUS_TAU_GAMMA_SHA256 = (
    "2e9198e3a270de29ddad6ae997ec52ccf2018f1615317c42a831890d407f3882"
)


def test_pinned_tau_gamma_on_corpus():
    # the sha256 of the repr of the list of ((value, witness, nodes) of tau,
    # None on a lineless system; (value, witness, nodes) of gamma) in corpus
    # order, and the node totals over the 110 systems
    rows = []
    for s in build_corpus():
        tau = transversal_number(s) if s.lines else None
        gamma = domination_number(s)
        rows.append(
            (
                tau and (tau.value, tau.witness, tau.nodes_explored),
                (gamma.value, gamma.witness, gamma.nodes_explored),
            )
        )
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        CORPUS_TAU_GAMMA_SHA256
    )
    assert sum(t[2] for t, _ in rows if t is not None) == 253
    assert sum(g[2] for _, g in rows) == 144


def test_incidence_rows_are_the_lines():
    for s in build_corpus() + [_extended_plane(3)]:
        inc = _incidence(s)
        assert inc.dtype == np.uint8 and inc.flags.c_contiguous
        lists, sizes = _rows(inc)
        # the kernels' argument types
        assert lists.dtype == sizes.dtype == np.int32
        assert [
            tuple(row[:k].tolist()) for row, k in zip(lists, sizes)
        ] == list(s.line_tuples)


def test_closed_neighbourhoods_match_set_logic():
    # row v of gamma's matrix is N[v], {v} for an isolated point, and
    # _rows lists its members in ascending order
    systems = build_corpus() + [_extended_plane(q) for q in (2, 3, 4)]
    systems.append(LinearSystem(3, []))
    isolated = 0
    for s in systems:
        cover = _closed_neighbourhoods(s)
        assert cover.dtype == np.uint8
        assert cover.shape == (s.num_points, s.num_points)
        lists, sizes = _rows(cover)
        for v in range(s.num_points):
            hood = sorted(closed_neighborhood(s, v))
            assert np.flatnonzero(cover[v]).tolist() == hood
            assert sizes[v] == len(hood)
            assert lists[v, : len(hood)].tolist() == hood
            assert (lists[v, len(hood) :] == -1).all()
            isolated += hood == [v] and v not in s.support
    assert isolated > 0


def _full_nu2_search(sys_):
    """(value, witness, nodes) of the nu2 kernel with top = m + 1, a bound
    no packing reaches, so the search never stops early."""
    inc = _incidence(sys_)
    best, wit, nodes = PY_KERNELS.nu2_search(
        inc, np.ascontiguousarray(inc.T), sys_.num_lines + 1
    )
    return int(best), tuple(int(i) for i in wit[: int(best)]), int(nodes)


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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_plane_tau_settles_at_root(q):
    # the residual-cover bound ceil((q^2+q+1)/(q+1)) = q+1 meets the greedy
    # line
    res = transversal_number(_plane(q))
    assert res.value == q + 1
    assert res.nodes_explored == 1


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
