import itertools
import random
import time
import tracemalloc

import pytest

from linsys import geometry
from linsys import (
    LinearSystem,
    NotPrimePower,
    OddOrder,
    PlaneReport,
    SizeLimit,
    are_isomorphic,
    conic_points,
    delete_line,
    delete_point,
    drop_isolated,
    dual_conic_lines,
    dual_hyperoval_lines,
    hyperoval,
    is_arc,
    normalized_triples,
    projective_plane,
    verify_plane_axioms,
)
from linsys.limits import Caps

from corpus import build_corpus
from oracles import brute_plane_axioms, system_fields

PLANE_ORDERS = [2, 3, 4, 5, 7, 8]


@pytest.mark.parametrize("q", PLANE_ORDERS)
def test_plane_axioms_hold(q):
    plane = projective_plane(q)
    report = verify_plane_axioms(plane.system)
    assert report.is_plane
    assert report.order == q
    assert report.failed_axiom is None


@pytest.mark.parametrize("q", PLANE_ORDERS)
def test_plane_counts(q):
    plane = projective_plane(q)
    n = q * q + q + 1
    assert plane.system.num_points == n
    assert plane.system.num_lines == n
    assert all(len(l) == q + 1 for l in plane.system.lines)
    assert set(plane.system.degrees.tolist()) == {q + 1}
    assert plane.system.name == f"PG(2,{q})"


def test_normalized_triples():
    triples = normalized_triples(3)
    assert len(triples) == 13
    assert triples == tuple(sorted(triples))
    for t in triples:
        first = next(x for x in t if x != 0)
        assert first == 1
    assert triples[0] == (0, 0, 1)


PRIME_POWERS_TO_32 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


@pytest.mark.parametrize("q", PRIME_POWERS_TO_32)
def test_plane_equals_its_validated_rebuild(q):
    # the plane is built without LinearSystem's tests, its lines being
    # linear by construction; the validated constructor accepts the same
    # lines and builds the same system
    plane = projective_plane(q, caps=Caps(plane_order=32)).system
    rebuilt = LinearSystem(plane.num_points, plane.line_tuples, name=plane.name)
    assert system_fields(plane) == system_fields(rebuilt)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_plane_caps_one_below_the_need(q):
    # the point and pair caps are checked by arithmetic before any line is
    # built, with the messages of the validated constructor
    plane = projective_plane(q).system
    n = q * q + q + 1
    pairs = n * (q * (q + 1) // 2)
    for caps, message in (
        (Caps(system_points=n - 1), f"{n} points exceeds cap {n - 1}"),
        (Caps(system_pairs=pairs - 1), f"{pairs} point pairs on lines exceeds cap {pairs - 1}"),
    ):
        with pytest.raises(SizeLimit) as built:
            projective_plane(q, caps=caps)
        with pytest.raises(SizeLimit) as rebuilt:
            LinearSystem(n, plane.line_tuples, caps=caps)
        assert str(built.value) == str(rebuilt.value) == message
    assert projective_plane(q, caps=Caps(system_points=n, system_pairs=pairs)).system == plane


def test_plane_rejects_bad_orders():
    for q in (0, 1, 6, 10, 12):
        with pytest.raises(NotPrimePower):
            projective_plane(q)
    with pytest.raises(SizeLimit):
        projective_plane(4, caps=Caps(plane_order=3))


def test_plane_build_is_deterministic():
    a = projective_plane(4)
    b = projective_plane(4)
    assert a.system.lines == b.system.lines
    assert a.point_coords == b.point_coords


def test_order_two_plane_is_fano():
    fano = LinearSystem(
        7,
        [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5], [1, 4, 6], [2, 3, 6], [2, 4, 5]],
    )
    assert are_isomorphic(projective_plane(2).system, fano).isomorphic


def test_axiom_failure_point_pair():
    report = verify_plane_axioms(LinearSystem(4, [[0, 1], [2, 3]]))
    assert not report.is_plane
    assert report.failed_axiom == "point-pairs"


def test_axiom_failure_line_pair():
    # K4 as 2-point lines: every pair covered once, opposite edges disjoint
    k4 = LinearSystem(4, [[0, 1], [2, 3], [0, 2], [1, 3], [0, 3], [1, 2]])
    report = verify_plane_axioms(k4)
    assert not report.is_plane
    assert report.failed_axiom == "line-pairs"


def test_axiom_failure_general_position():
    triangle = LinearSystem(3, [[0, 1], [1, 2], [0, 2]])
    report = verify_plane_axioms(triangle)
    assert not report.is_plane
    assert report.failed_axiom == "general-position"


@pytest.mark.parametrize("q", PLANE_ORDERS)
def test_conic_is_arc(q):
    plane = projective_plane(q)
    pts = conic_points(plane)
    assert len(pts) == q + 1
    assert is_arc(plane, pts)


@pytest.mark.parametrize("q", [2, 4, 8])
def test_hyperoval_even_orders(q):
    plane = projective_plane(q)
    arc = hyperoval(plane)
    assert len(arc.points) == q + 2
    assert is_arc(plane, arc.points)
    # maximal: every further point breaks the arc property
    for extra in set(range(plane.system.num_points)) - set(arc.points):
        assert not is_arc(plane, set(arc.points) | {extra})


@pytest.mark.parametrize("q", [3, 5, 7])
def test_hyperoval_rejects_odd_orders(q):
    with pytest.raises(OddOrder):
        hyperoval(projective_plane(q))


def test_is_arc_rejects_full_line():
    plane = projective_plane(3)
    assert not is_arc(plane, plane.system.line_tuples[0])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_plane_labelling_is_self_dual(q):
    # point i is on line j iff point j is on line i, so the dual arcs'
    # lines carry the arcs' point indices
    plane = projective_plane(q)
    assert plane.system.lines_through == plane.system.line_tuples
    assert dual_conic_lines(plane) == conic_points(plane)
    if q % 2 == 0:
        assert dual_hyperoval_lines(plane) == hyperoval(plane).points


@pytest.mark.parametrize("q", [2, 4, 8])
def test_dual_hyperoval_lines_pack(q):
    plane = projective_plane(q)
    chosen = dual_hyperoval_lines(plane)
    assert len(chosen) == q + 2
    for v in range(plane.system.num_points):
        hits = sum(1 for i in chosen if v in plane.system.lines[i])
        assert hits <= 2


def _near_pencil(n):
    """One line on points 0..n-2 and a two-point line from each of them to
    point n-1; a single line or nothing below two points."""
    if n < 2:
        return LinearSystem(n, [range(n)] if n else [])
    return LinearSystem(n, [range(n - 1)] + [[i, n - 1] for i in range(n - 1)])


def _nearly_joined(rng):
    """A plane, a near-pencil or a random linear space with its other pairs
    joined by two-point lines, perturbed up to twice (a line split into its
    pairs, a line dropped, a one-point line added), then relabelled and
    shuffled. Only such systems get past point-pairs and line-pairs."""
    kind = rng.randrange(3)
    if kind == 0:
        base = projective_plane(rng.choice([2, 2, 3, 4])).system
        n, lines = base.num_points, [set(l) for l in base.lines]
    elif kind == 1:
        n = rng.randint(3, 12)
        lines = [set(l) for l in _near_pencil(n).lines]
    else:
        n = rng.randint(4, 12)
        lines = []
        for _ in range(rng.randint(0, 6)):
            cand = set(rng.sample(range(n), rng.randint(3, min(5, n))))
            if all(len(cand & l) <= 1 for l in lines):
                lines.append(cand)
        lines += [
            {u, v}
            for u, v in itertools.combinations(range(n), 2)
            if not any(u in l and v in l for l in lines)
        ]
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        op = rng.randrange(3)
        if op == 0 and lines:
            l = lines.pop(rng.randrange(len(lines)))
            lines += [set(p) for p in itertools.combinations(l, 2)]
        elif op == 1 and lines:
            lines.pop(rng.randrange(len(lines)))
        else:
            lines.append({rng.randrange(n)})
    perm = rng.sample(range(n), n)
    relabelled = list(dict.fromkeys(frozenset(perm[v] for v in l) for l in lines))
    rng.shuffle(relabelled)
    return LinearSystem(n, relabelled)


def _complete(n):
    """Every point pair a two-point line: all points are joined, and for
    n >= 4 lines 0 and the first line off points 0 and 1 are disjoint."""
    return LinearSystem(n, itertools.combinations(range(n), 2))


def _split_planes(rng):
    """PG(2,q), q <= 5, with one line split in two, points relabelled and
    lines shuffled: the points across the split are on no common line."""
    out = []
    for q in (2, 3, 4, 5):
        plane = projective_plane(q).system
        n = plane.num_points
        for i, line in enumerate(plane.line_tuples):
            pts = rng.sample(line, len(line))
            cut = rng.randint(1, len(pts) - 1)
            lines = list(plane.line_tuples[:i] + plane.line_tuples[i + 1 :])
            lines += [pts[:cut], pts[cut:]]
            perm = rng.sample(range(n), n)
            lines = [[perm[v] for v in l] for l in lines]
            rng.shuffle(lines)
            out.append(LinearSystem(n, lines))
    return out


def _axiom_cases():
    out = list(build_corpus())
    for q in (2, 3, 4):
        plane = projective_plane(q)
        out.append(plane.system)
        out.append(LinearSystem(plane.system.num_points, plane.system.lines + ({0},)))
        for i in range(plane.system.num_lines):
            out.append(delete_line(plane.system, i))
        for v in range(plane.system.num_points):
            gone = delete_point(plane.system, v)
            out += [gone, drop_isolated(gone)[0]]
    for n in range(11):
        out += [_near_pencil(n), LinearSystem(n, [range(n)] if n else []), LinearSystem(n, [])]
    rng = random.Random(20261018)
    out += [_nearly_joined(rng) for _ in range(300)]
    out += [_complete(n) for n in range(3, 31)]
    out += _split_planes(random.Random(22))
    return out


def test_plane_axioms_match_brute_force():
    outcomes = set()
    for sys_ in _axiom_cases():
        expected = PlaneReport(*brute_plane_axioms(sys_.num_points, sys_.line_tuples))
        assert verify_plane_axioms(sys_) == expected, sys_
        outcomes.add(expected.failed_axiom)
    # every axiom the first three leave reachable is exercised
    assert outcomes == {None, "point-pairs", "line-pairs", "general-position"}


# PG(2,q) minus point v, isolated point dropped: every pair of points is
# still joined, and two lines that met only at v are now disjoint
PUNCTURED_PLANE_PINS = [
    (5, 0, "lines 1 and 6 are disjoint"),
    (5, 5, "lines 2 and 6 are disjoint"),
    (5, 30, "lines 5 and 7 are disjoint"),
    (7, 0, "lines 1 and 8 are disjoint"),
    (7, 5, "lines 6 and 8 are disjoint"),
    (7, 56, "lines 7 and 9 are disjoint"),
    (8, 0, "lines 1 and 9 are disjoint"),
    (8, 5, "lines 4 and 9 are disjoint"),
    (8, 72, "lines 2 and 14 are disjoint"),
    (9, 0, "lines 1 and 10 are disjoint"),
    (9, 5, "lines 8 and 10 are disjoint"),
    (9, 90, "lines 3 and 15 are disjoint"),
    (11, 0, "lines 1 and 12 are disjoint"),
    (11, 5, "lines 9 and 12 are disjoint"),
    (11, 132, "lines 11 and 13 are disjoint"),
    (13, 0, "lines 1 and 14 are disjoint"),
    (13, 5, "lines 4 and 14 are disjoint"),
    (13, 182, "lines 13 and 15 are disjoint"),
    (16, 0, "lines 1 and 17 are disjoint"),
    (16, 5, "lines 7 and 17 are disjoint"),
    (16, 272, "lines 2 and 22 are disjoint"),
]


def _punctured(system, v):
    return drop_isolated(delete_point(system, v))[0]


@pytest.mark.parametrize("q, v, detail", PUNCTURED_PLANE_PINS)
def test_punctured_plane_fails_line_pairs(q, v, detail):
    report = verify_plane_axioms(_punctured(projective_plane(q).system, v))
    assert report == PlaneReport(False, None, "line-pairs", detail)


def test_punctured_dual_plane_pins():
    # PG(2,9) is its own dual as labelled, so the punctured plane is
    # also the punctured dual plane
    punctured = _punctured(projective_plane(9).system, 5)
    assert verify_plane_axioms(punctured) == PlaneReport(
        False, None, "line-pairs", "lines 8 and 10 are disjoint"
    )
    # the dual of the punctured plane: its disjoint lines 8 and 10 become
    # two points that no line joins
    dual = LinearSystem(punctured.num_lines, punctured.lines_through)
    assert verify_plane_axioms(dual) == PlaneReport(
        False, None, "point-pairs", "points 8 and 10 lie on no common line"
    )


def test_plane_check_counts_no_pairs_on_a_plane(monkeypatch):
    # both pair axioms of a plane follow from their counts, so the search
    # for an unjoined or disjoint pair runs only when a count fails
    def refuse(members, groups, size):
        raise AssertionError("pair search on a plane")

    monkeypatch.setattr(geometry, "_least_apart", refuse)
    report = verify_plane_axioms(projective_plane(16).system)
    assert report == PlaneReport(True, 16, None, None)


def test_disjoint_pair_search_is_linear_in_memory():
    # 1,770 two-point lines: an (m, m) table of meetings would take tens
    # of MB; the count-guided search holds one set of lines
    system = _complete(60)
    tracemalloc.start()
    try:
        report = verify_plane_axioms(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report == PlaneReport(False, None, "line-pairs", "lines 0 and 117 are disjoint")
    assert peak < 1_000_000


def test_near_pencil_fails_general_position_fast():
    # one 399-point line and a two-point line from each of its points to
    # point 399: points are joined and lines meet, so only general
    # position can fail, and a search over point quadruples is cubic
    pencil = _near_pencil(400)
    start = time.perf_counter()
    report = verify_plane_axioms(pencil)
    assert time.perf_counter() - start < 0.5
    assert report.failed_axiom == "general-position"


def test_plane_order_cap_comes_before_factoring():
    start = time.perf_counter()
    with pytest.raises(SizeLimit, match="plane order 1000000000000000003 exceeds cap 16"):
        projective_plane(10**18 + 3)
    assert time.perf_counter() - start < 1.0
    # a non-prime-power above the cap is refused by the cap
    with pytest.raises(SizeLimit):
        projective_plane(18)


def test_plane_order_past_the_digit_limit_keeps_its_error_type():
    # str() refuses ints of more than 4,300 digits; the messages give the
    # bit length instead
    start = time.perf_counter()
    with pytest.raises(
        SizeLimit, match=r"^plane order <16610-bit integer> exceeds cap 16$"
    ):
        projective_plane(10**5000)
    with pytest.raises(
        NotPrimePower, match=r"^<16610-bit integer> is not a prime power$"
    ):
        projective_plane(-(10**5000))
    assert time.perf_counter() - start < 1.0
    with pytest.raises(NotPrimePower, match=r"^-5 is not a prime power$"):
        projective_plane(-5)
