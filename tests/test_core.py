import functools
import hashlib
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from linsys import (
    BadIndex,
    DuplicateLine,
    EmptyLine,
    FormatError,
    LinearSystem,
    LinearityViolation,
    NoLines,
    SizeLimit,
    are_isomorphic,
    closed_neighborhood,
    collinearity_adjacent,
    degree_profile,
    delete_line,
    delete_point,
    delete_points,
    drop_isolated,
    embeds_in,
    extend_with_pendant_points,
    induced_subsystem,
    is_intersecting,
    is_spanning_subsystem,
    is_uniform,
    pendant_reduction,
    projective_plane,
    rank,
    system_from_dict,
    two_packing_number,
)
from linsys.core import _match_single_lines
from linsys.limits import Caps

from corpus import build_corpus
from oracles import brute_embeds, brute_isomorphic, brute_pendant_reduction

FANO_LINES = [
    [0, 1, 2],
    [0, 3, 4],
    [0, 5, 6],
    [1, 3, 5],
    [1, 4, 6],
    [2, 3, 6],
    [2, 4, 5],
]


@pytest.fixture
def fano_input():
    return LinearSystem(7, FANO_LINES)


@pytest.fixture
def triangle():
    return LinearSystem(3, [[0, 1], [1, 2], [0, 2]])


def test_validation_accepts_triangle(triangle):
    assert triangle.num_lines == 3
    assert triangle.support == {0, 1, 2}


def test_validation_rejects_shared_pair():
    with pytest.raises(LinearityViolation) as info:
        LinearSystem(4, [[0, 1, 2], [0, 1, 3]])
    assert info.value.shared == (0, 1)
    assert (info.value.first, info.value.second) == (0, 1)
    # the least violating line pair is reported, not the first one met
    # in line order (lines 1 and 2 share 1 and 2)
    with pytest.raises(LinearityViolation) as info:
        LinearSystem(5, [[0, 4], [1, 2, 3], [1, 2, 4], [0, 3, 4]])
    assert (info.value.first, info.value.second, info.value.shared) == (0, 3, (0, 4))


def test_construction_memory_is_not_quadratic_in_lines():
    # 2,000 single-point lines: an m x m intersection matrix alone would
    # take 16 MB, and its blockwise temporaries far more
    tracemalloc.start()
    try:
        LinearSystem(2000, [[i] for i in range(2000)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_validation_rejects_duplicates_and_empties():
    with pytest.raises(DuplicateLine):
        LinearSystem(3, [[0, 1], [1, 0]])
    with pytest.raises(EmptyLine):
        LinearSystem(3, [[0, 1], []])
    with pytest.raises(BadIndex):
        LinearSystem(3, [[0, 7]])
    with pytest.raises(BadIndex):
        LinearSystem(-1, [])


def test_huge_integers_raise_bad_index():
    huge = 10**5000
    bits = huge.bit_length()
    with pytest.raises(BadIndex, match=rf"^line 0: point <{bits}-bit integer> outside 0\.\.2$"):
        LinearSystem(3, [[0, huge]])
    with pytest.raises(BadIndex, match=rf"^line 0: point <{bits}-bit integer> outside 0\.\.2$"):
        LinearSystem(3, [[0, -huge]])
    with pytest.raises(
        BadIndex, match=rf"^num_points must be a nonnegative integer, got <{bits}-bit integer>$"
    ):
        LinearSystem(-huge, [[0, 1]])


def test_caps_refuse_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit, match=r"^<16610-bit integer> points exceeds cap 100000$"):
            LinearSystem(10**5000, [[0, 1]])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # one line of 200,000 points holds about 2 * 10**10 point pairs
    line = list(range(200_000))
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit, match=r"^19999900000 point pairs on lines exceeds cap 1000000$"):
            LinearSystem(200_000, [line], caps=Caps(system_points=200_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    with pytest.raises(SizeLimit, match=r"^200000 points exceeds cap 100000$"):
        LinearSystem(200_000, [line])


def test_derived_systems_skip_the_caps():
    # accepted under raised caps, so every edit of it must be accepted too
    raised = Caps(system_points=150_000)
    big = LinearSystem(150_000, [[0, 1, 2], [2, 3], [4]], caps=raised)
    assert delete_points(big, [0]).line_tuples == ((1, 2), (2, 3), (4,))
    assert delete_line(big, 2).num_points == 150_000
    assert induced_subsystem(big, [1]).support == {2, 3}
    assert pendant_reduction(big)[0].line_tuples == ()
    assert drop_isolated(big)[0].num_points == 5
    with pytest.raises(SizeLimit):
        LinearSystem(150_000, [[0, 1, 2], [2, 3], [4]])


def test_fano_is_valid_and_uniform(fano_input):
    assert is_uniform(fano_input, 3)
    assert is_intersecting(fano_input)
    assert rank(fano_input) == 3


def test_degree_profile(fano_input, triangle):
    prof = degree_profile(fano_input)
    assert prof.degrees == (3,) * 7
    assert prof.max_degree == 3 and prof.second_max_degree == 3
    assert degree_profile(triangle).degrees == (2, 2, 2)
    single = LinearSystem(3, [[0, 1, 2]])
    assert degree_profile(single).degrees == (1, 1, 1)
    assert degree_profile(single).max_degree == 1


def test_rank_errors_without_lines():
    with pytest.raises(NoLines):
        rank(LinearSystem(3, []))
    assert rank(LinearSystem(5, [[0, 1, 2], [3, 4]])) == 3


def test_incidence_indexes_match_line_tuples():
    for sys_ in build_corpus():
        through = [[] for _ in range(sys_.num_points)]
        for i, l in enumerate(sys_.line_tuples):
            for v in l:
                through[v].append(i)
        assert sys_.lines_through == tuple(map(tuple, through))
        assert is_intersecting(sys_) == all(
            len(set(a).intersection(b)) == 1 for a, b in combinations(sys_.line_tuples, 2)
        )


def test_is_intersecting_cases(fano_input):
    assert is_intersecting(fano_input)
    assert not is_intersecting(LinearSystem(4, [[0, 1], [2, 3]]))
    assert is_intersecting(LinearSystem(3, [[0, 1, 2]]))


def test_delete_point_counts(fano_input):
    sizes = sorted(len(l) for l in delete_point(fano_input, 0).line_tuples)
    assert sizes == [2, 2, 2, 3, 3, 3, 3]


def test_delete_point_keeps_size_one_lines(triangle):
    out = delete_point(triangle, 0)
    assert sorted(out.line_tuples) == [(1,), (1, 2), (2,)]
    # deleting an isolated point leaves lines untouched
    again = delete_point(LinearSystem(8, FANO_LINES), 7)
    assert again.line_tuples == LinearSystem(8, FANO_LINES).line_tuples


def test_delete_point_merges_collapsed_lines(triangle):
    # {0,1},{1,2} both shrink onto {1} after removing the far endpoints
    step1 = delete_point(triangle, 0)  # {1},{2},{1,2}
    step2 = delete_point(step1, 2)  # {1},{1} -> one line
    assert [tuple(l) for l in step2.line_tuples] == [(1,)]


def test_delete_points_matches_repeated_delete_point():
    for sys_ in build_corpus():
        support = sorted(sys_.support)
        subsets = [support[:1], support[::2], support[1::3], support]
        for pts in subsets:
            folded = functools.reduce(delete_point, pts, sys_)
            assert delete_points(sys_, pts).line_tuples == folded.line_tuples
            assert delete_points(sys_, reversed(pts)).line_tuples == folded.line_tuples


def test_delete_points_rejects_bad_index(triangle):
    with pytest.raises(BadIndex):
        delete_points(triangle, [0, 3])
    with pytest.raises(BadIndex):
        delete_points(triangle, [-1])


def test_delete_line(fano_input):
    assert delete_line(fano_input, 0).num_lines == 6
    only = LinearSystem(3, [[0, 1, 2]])
    assert delete_line(only, 0).num_lines == 0
    with pytest.raises(BadIndex):
        delete_line(fano_input, 7)


def test_induced_subsystem(fano_input):
    assert induced_subsystem(fano_input, range(7)) == LinearSystem(7, FANO_LINES)
    one = induced_subsystem(fano_input, [3])
    assert one.line_tuples == ((1, 3, 5),)
    two = induced_subsystem(fano_input, [0, 1])
    assert len(two.support) == 5
    with pytest.raises(BadIndex):
        induced_subsystem(fano_input, [9])


# every function that takes a line index checks it by one rule
LINE_INDEX_CALLERS = {
    "delete_line": lambda sys_, i: delete_line(sys_, i),
    "induced_subsystem": lambda sys_, i: induced_subsystem(sys_, [0, i]),
    "incumbent": lambda sys_, i: two_packing_number(sys_, incumbent=[0, i]).witness,
}


@pytest.mark.parametrize("caller", sorted(LINE_INDEX_CALLERS))
@pytest.mark.parametrize(
    "line, message",
    [
        (True, "line of type bool is not an integer"),
        (1.0, "line of type float is not an integer"),
        ("0", "line of type str is not an integer"),
        (-1, "line -1 outside 0..6"),
        (7, "line 7 outside 0..6"),
        (10**5000, f"line <{(10**5000).bit_length()}-bit integer> outside 0..6"),
    ],
    ids=["bool", "float", "str", "negative", "m", "huge"],
)
def test_line_index_rule(fano_input, caller, line, message):
    with pytest.raises(BadIndex) as err:
        LINE_INDEX_CALLERS[caller](fano_input, line)
    assert str(err.value) == f"{caller}: {message}"


@pytest.mark.parametrize("caller", sorted(LINE_INDEX_CALLERS))
def test_line_index_accepts_numpy_ints(fano_input, caller):
    call = LINE_INDEX_CALLERS[caller]
    assert call(fano_input, np.int64(1)) == call(fano_input, 1)


# a non-integer whose repr would print an int past Python's 4,300-digit
# string limit: every entry point names its type, not its value
HUGE_FRACTION = Fraction(10**5000, 1)
NON_INTEGER_CALLERS = {
    "line entry": (BadIndex, lambda sys_, x: LinearSystem(3, [[0, 1, x]])),
    "num_points": (BadIndex, lambda sys_, x: LinearSystem(x, [[0, 1]])),
    "delete_line": (BadIndex, lambda sys_, x: delete_line(sys_, x)),
    "induced_subsystem": (BadIndex, lambda sys_, x: induced_subsystem(sys_, [x])),
    "incumbent": (BadIndex, lambda sys_, x: two_packing_number(sys_, incumbent=[x])),
    "system_from_dict": (
        FormatError,
        lambda sys_, x: system_from_dict({"num_points": 3, "lines": [[0, x]]}),
    ),
}


@pytest.mark.parametrize("caller", sorted(NON_INTEGER_CALLERS))
def test_non_integer_index_names_its_type(fano_input, caller):
    error, call = NON_INTEGER_CALLERS[caller]
    with pytest.raises(error, match="type Fraction"):
        call(fano_input, HUGE_FRACTION)


def test_spanning_subsystem(fano_input):
    assert is_spanning_subsystem(delete_line(fano_input, 0), fano_input)
    assert not is_spanning_subsystem(
        induced_subsystem(fano_input, [0]), fano_input
    )
    assert is_spanning_subsystem(fano_input, fano_input)
    # full induced subsystem spans when there are no isolated points
    assert is_spanning_subsystem(
        induced_subsystem(fano_input, range(7)), fano_input
    )


def test_adjacency(fano_input):
    assert collinearity_adjacent(fano_input, 0, 1)
    assert collinearity_adjacent(fano_input, 2, 2)
    lonely = LinearSystem(8, FANO_LINES)
    assert not collinearity_adjacent(lonely, 7, 0)
    assert closed_neighborhood(fano_input, 0) == frozenset(range(7))
    assert closed_neighborhood(lonely, 7) == frozenset({7})


def test_adjacency_matches_line_scan():
    for sys_ in build_corpus():
        for u in range(sys_.num_points):
            for v in range(sys_.num_points):
                expected = u == v or any(u in l and v in l for l in sys_.line_tuples)
                assert collinearity_adjacent(sys_, u, v) == expected


def test_pendant_reduction_path():
    # endpoints go; the shrunken 1-point lines keep 1 and 2 at degree 2
    path = LinearSystem(4, [[0, 1], [1, 2], [2, 3]])
    reduced, removed = pendant_reduction(path)
    assert set(removed) == {0, 3}
    assert sorted(reduced.line_tuples) == [(1,), (1, 2), (2,)]


def test_pendant_reduction_single_line():
    reduced, removed = pendant_reduction(LinearSystem(3, [[0, 1, 2]]))
    assert reduced.num_lines == 0
    assert removed == (0, 1, 2)


def test_pendant_reduction_of_extension(fano_input):
    ext = extend_with_pendant_points(fano_input)
    reduced, removed = pendant_reduction(ext)
    assert set(removed) == set(range(7, 14))
    assert set(reduced.line_tuples) == set(fano_input.line_tuples)


def test_delete_then_readd_round_trip(fano_input):
    dropped = delete_line(fano_input, 2)
    rebuilt = LinearSystem(
        7, [list(l) for l in dropped.line_tuples] + [list(fano_input.line_tuples[2])]
    )
    assert are_isomorphic(rebuilt, fano_input).isomorphic


def test_isomorphism_relabeled(fano_input):
    rng = random.Random(11)
    perm = list(range(7))
    rng.shuffle(perm)
    relabeled = LinearSystem(7, [[perm[v] for v in l] for l in FANO_LINES])
    cert = are_isomorphic(fano_input, relabeled)
    assert cert.isomorphic
    phi = cert.point_bijection
    mapped = {tuple(sorted(phi[v] for v in l)) for l in cert.reduced_a.line_tuples}
    assert mapped == set(cert.reduced_b.line_tuples)
    assert phi == {0: 0, 1: 1, 2: 2, 3: 3, 4: 6, 5: 4, 6: 5}


def test_isomorphism_negative(fano_input):
    assert not are_isomorphic(fano_input, delete_line(fano_input, 0)).isomorphic
    square = LinearSystem(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
    star = LinearSystem(4, [[0, 1], [0, 2], [0, 3], [1, 2]])
    assert not are_isomorphic(square, star).isomorphic


def _counted_point_maps(monkeypatch):
    """Calls of the point-map search, as a list that grows by one a call."""
    import linsys.core as core

    calls = []
    search = core._map_points

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(core, "_map_points", counted)
    return calls


def test_isomorphism_rejected_by_colour_counts(monkeypatch):
    # same support, line count and line sizes; the bowtie's degree-4
    # centre has no counterpart, so the colour classes differ in size
    calls = _counted_point_maps(monkeypatch)
    bowtie = LinearSystem(5, [[0, 1], [1, 2], [0, 2], [0, 3], [3, 4], [0, 4]])
    chorded = LinearSystem(5, [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4], [0, 2]])
    cert = are_isomorphic(bowtie, chorded)
    assert (cert.isomorphic, cert.point_bijection) == (False, None)
    assert calls == []


def test_isomorphism_rejected_by_point_map_search(monkeypatch):
    # both 2-regular on 6 points, so colour refinement cannot tell them
    # apart; the point-map search finds no map
    calls = _counted_point_maps(monkeypatch)
    hexagon = LinearSystem(6, [[i, (i + 1) % 6] for i in range(6)])
    triangles = LinearSystem(6, [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])
    for a, b in ((hexagon, triangles), (triangles, hexagon)):
        cert = are_isomorphic(a, b)
        assert (cert.isomorphic, cert.point_bijection) == (False, None)
    assert len(calls) == 2


def test_embedding_size_cap():
    plane = projective_plane(8).system
    with pytest.raises(
        SizeLimit, match=r"^embedding search over 73/73 points, cap is 64$"
    ):
        embeds_in(plane, plane)


def test_isomorphism_ignores_pendants(fano_input):
    ext = extend_with_pendant_points(fano_input)
    assert are_isomorphic(ext, fano_input).isomorphic


def test_isomorphism_size_cap(fano_input):
    with pytest.raises(SizeLimit):
        are_isomorphic(fano_input, fano_input, caps=Caps(iso_points=5))


def test_embeds_examples(fano_input, triangle):
    missing = delete_line(fano_input, 0)
    emb = embeds_in(missing, fano_input)
    assert emb is not None
    for i, l in enumerate(missing.line_tuples):
        image = {emb.point_map[v] for v in l}
        assert image <= set(fano_input.line_tuples[emb.line_map[i]])
    assert len(set(emb.line_map.values())) == missing.num_lines
    assert emb.point_map == {0: 2, 1: 4, 2: 5, 3: 0, 4: 1, 5: 3, 6: 6}
    assert emb.line_map == {0: 0, 1: 5, 2: 1, 3: 4, 4: 2, 5: 3}

    assert embeds_in(triangle, fano_input) is not None
    too_long = LinearSystem(4, [[0, 1, 2, 3]])
    assert embeds_in(too_long, fano_input) is None


def test_embeds_respects_line_distinctness():
    # two disjoint 1-point lines cannot land on the same host line
    sub = LinearSystem(2, [[0], [1]])
    host_one = LinearSystem(2, [[0, 1]])
    assert embeds_in(sub, host_one) is None
    host_two = LinearSystem(3, [[0, 1], [0, 2]])
    assert embeds_in(sub, host_two) is not None


def test_drop_isolated(fano_input):
    padded = LinearSystem(9, FANO_LINES)
    compacted, remap = drop_isolated(padded)
    assert compacted.num_points == 7
    assert compacted == LinearSystem(7, FANO_LINES)
    assert remap[0] == 0 and len(remap) == 7


def test_within_line_duplicates_collapse():
    sys_ = LinearSystem(3, [[0, 0, 1]])
    assert sys_.line_tuples == ((0, 1),)


def _relabelled(sys_, rng):
    perm = list(range(sys_.num_points))
    rng.shuffle(perm)
    return LinearSystem(sys_.num_points, [[perm[v] for v in l] for l in sys_.line_tuples])


def _embedding_key(emb):
    return None if emb is None else (sorted(emb.point_map.items()), sorted(emb.line_map.items()))


def _sha(x):
    return hashlib.sha256(repr(x).encode()).hexdigest()


def test_pinned_point_maps():
    # the first map found is the witness; these digests pin every map
    # the search returns on the corpus and on the planes up to q = 8
    corpus = build_corpus()
    rng = random.Random(12)
    iso = [
        sorted(are_isomorphic(s, _relabelled(s, rng)).point_bijection.items())
        for s in corpus
    ]
    assert _sha(iso) == "740b5747f95701e6378efa0a26a29227f059581b436382d14aa9bbc97189241e"

    emb = [_embedding_key(embeds_in(a, b)) for a in corpus for b in corpus[:13]]
    assert sum(e is not None for e in emb) == 669
    assert _sha(emb) == "dfc96af673980d56b8050a971e2b4c80e631159d275d494571da553cd16c6076"

    caps = Caps(iso_points=1000)
    planes = []
    for q in (2, 3, 4, 5, 7, 8):
        plane = projective_plane(q).system
        reduced, _ = pendant_reduction(extend_with_pendant_points(plane))
        planes.append(
            (
                _embedding_key(embeds_in(plane, plane, caps=caps)),
                _embedding_key(embeds_in(reduced, plane, caps=caps)),
            )
        )
    assert _sha(planes) == "4867554cd8bcd3bc26628f53415de2c53450c5cfb4dd1f2c8d1006bd3168ae85"


def test_point_maps_match_brute_force():
    corpus = build_corpus()
    small = [s for s in corpus if len(s.support) <= 7]
    hosts = corpus[0:2] + corpus[8:9] + [s for s in small if len(s.support) <= 5]
    found = 0
    for i, a in enumerate(small):
        for b in small[i:]:
            cert = are_isomorphic(a, b)
            assert cert.isomorphic == brute_isomorphic(a.line_tuples, b.line_tuples)
            if not cert.isomorphic:
                continue
            found += 1
            lines_a = brute_pendant_reduction(a.line_tuples)
            lines_b = brute_pendant_reduction(b.line_tuples)
            phi = cert.point_bijection
            assert set(phi) == set().union(*lines_a)
            assert set(phi.values()) == set().union(*lines_b)
            assert {frozenset(phi[v] for v in l) for l in lines_a} == lines_b
        for host in hosts:
            emb = embeds_in(a, host)
            assert (emb is not None) == brute_embeds(a.line_tuples, host.line_tuples)
            if emb is None:
                continue
            found += 1
            pm, lm = emb.point_map, emb.line_map
            assert set(pm) == a.support
            assert len(set(pm.values())) == len(pm)
            assert set(lm) == set(range(a.num_lines))
            assert len(set(lm.values())) == len(lm)
            for k, l in enumerate(a.line_tuples):
                assert {pm[v] for v in l} <= set(host.line_tuples[lm[k]])
    assert found == 922


def test_embedding_into_a_plane_keeps_no_pair_table():
    # joins are read from lines_through; a table of PG(2,16)'s 37,128
    # point pairs took 3.3 MB
    plane = projective_plane(16).system
    reduced, _ = pendant_reduction(extend_with_pendant_points(plane))
    tracemalloc.start()
    try:
        emb = embeds_in(reduced, plane, caps=Caps(iso_points=1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert emb is not None and len(emb.point_map) == plane.num_points
    assert peak < 2**20


def test_point_map_search_is_not_bounded_by_recursion_depth():
    # one mapped point per level of the search, more levels than Python's
    # recursion limit
    s = LinearSystem(1200, [[2 * i, 2 * i + 1] for i in range(600)])
    assert len(s.support) > sys.getrecursionlimit()
    emb = embeds_in(s, s, caps=Caps(iso_points=2000))
    assert emb is not None
    assert set(emb.point_map) == s.support
    assert sorted(emb.line_map) == list(range(s.num_lines))
    assert len(set(emb.line_map.values())) == s.num_lines
    for i, l in enumerate(s.line_tuples):
        assert {emb.point_map[v] for v in l} == set(s.line_tuples[emb.line_map[i]])


def test_single_line_matching_follows_long_augmenting_paths():
    # single i may take host line i or i + 1, and each takes i; the last
    # single, limited to line 0, shifts all of them along one path
    n = 3000
    cands = [[i, i + 1] for i in range(n)] + [[0]]
    assert _match_single_lines(cands) == list(range(1, n + 1)) + [0]
    # two singles limited to line 0 cannot both have it
    assert _match_single_lines(cands + [[0]]) is None
