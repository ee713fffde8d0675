"""Derived systems and the constructor's two linearity tests against the
reference constructor in oracles.py, attribute by attribute and error by
error; joins, adjacency and gamma's neighbourhoods against the
reference's pair table, the one table of point pairs left.

Systems linear by construction (point and line deletion, induced
subsystems, isolated points dropped, pendant reduction, planes, pendant
extensions and triangular systems) are built by one constructor call
each, from ascending line tuples taken as they are, without the
constructor's tests. Systems of at most ``_TABLE_PAIRS`` point pairs test
linearity by the least-clash search, larger ones by sorting pair keys.
Both must raise, or not raise, and fill every container exactly as the
reference does."""

import random
import tracemalloc
from collections import Counter
from itertools import chain, combinations

import numpy as np
import pytest

from linsys import (
    LinearSystem,
    LinearityViolation,
    collinearity_adjacent,
    delete_line,
    delete_points,
    drop_isolated,
    extend_with_pendant_points,
    induced_subsystem,
    pendant_reduction,
    projective_plane,
    triangular_system,
    verify_plane_axioms,
)
from linsys import core
from linsys.core import _TABLE_PAIRS, _join, _Linear
from linsys.limits import Caps
from linsys.solvers import _closed_neighbourhoods

from corpus import build_corpus
from oracles import brute_pendant_reduction, reference_system

ATTRIBUTES = ("num_points", "line_tuples", "support", "lines_through")
CORPUS = build_corpus()
SMALL_PLANES = [projective_plane(q).system for q in (2, 3, 4, 5, 7, 8, 9)]


def _pairs(sys_):
    return sum(len(l) * (len(l) - 1) // 2 for l in sys_.line_tuples)


def assert_equals_reference(sys_, num_points, lines):
    """sys_ has every attribute of the reference system on these lines."""
    want = reference_system(num_points, lines)
    for name in ATTRIBUTES:
        assert getattr(sys_, name) == want[name], name
    assert sys_.degrees.dtype == want["degrees"].dtype
    assert sys_.degrees.tolist() == want["degrees"].tolist()
    assert not sys_.degrees.flags.writeable


def _deleted(lines, gone):
    out = []
    for l in lines:
        kept = [v for v in l if v not in gone]
        if kept and set(kept) not in map(set, out):
            out.append(kept)
    return out


def check_delete_points(sys_, gone):
    got = delete_points(sys_, gone)
    assert got.name is None
    assert_equals_reference(got, sys_.num_points, _deleted(sys_.line_tuples, set(gone)))
    return got


def check_delete_line(sys_, i):
    got = delete_line(sys_, i)
    assert got.name is None
    lines = [l for j, l in enumerate(sys_.line_tuples) if j != i]
    assert_equals_reference(got, sys_.num_points, lines)


def check_induced(sys_, idx):
    got = induced_subsystem(sys_, idx)
    assert got.name is None
    assert_equals_reference(got, sys_.num_points, [sys_.line_tuples[i] for i in sorted(set(idx))])


def check_drop_isolated(sys_):
    got, remap = drop_isolated(sys_)
    assert got.name == sys_.name
    support = sorted(set(chain.from_iterable(sys_.line_tuples)))
    assert remap == {v: i for i, v in enumerate(support)}
    assert_equals_reference(got, len(support), [[remap[v] for v in l] for l in sys_.line_tuples])


def check_every_derivation(sys_, rng):
    n, m = sys_.num_points, sys_.num_lines
    gone = rng.sample(range(n), rng.randint(0, n))
    shrunk = check_delete_points(sys_, gone)
    check_drop_isolated(shrunk)
    check_drop_isolated(sys_)
    if m:
        check_delete_line(sys_, rng.randrange(m))
        check_induced(sys_, [rng.randrange(m) for _ in range(rng.randint(0, m + 2))])


def _pendant_reduced(lines):
    """The lines left when degree-1 points go round by round, each round
    deleted as delete_points deletes, and the points deleted."""
    removed = []
    while True:
        deg = Counter(chain.from_iterable(lines))
        ones = sorted(v for v, d in deg.items() if d == 1)
        if not ones:
            return lines, removed
        removed += ones
        lines = _deleted(lines, set(ones))


@pytest.mark.parametrize("sys_", CORPUS, ids=[f"{i:03d}" for i in range(len(CORPUS))])
def test_corpus_derivations_match_reference(sys_):
    rng = random.Random(sys_.num_points * 1000 + sys_.num_lines)
    for _ in range(3):
        check_every_derivation(sys_, rng)
    reduced, removed = pendant_reduction(sys_)
    lines, want_removed = _pendant_reduced(sys_.line_tuples)
    assert removed == tuple(want_removed)
    assert set(map(frozenset, reduced.line_tuples)) == brute_pendant_reduction(sys_.line_tuples)
    assert_equals_reference(reduced, sys_.num_points, lines)


@pytest.mark.parametrize("plane", SMALL_PLANES, ids=lambda s: s.name)
def test_plane_derivations_match_reference(plane):
    rng = random.Random(plane.num_points)
    for _ in range(5):
        check_every_derivation(plane, rng)
    # every deletion of a single point, and of a whole line's points
    for v in range(0, plane.num_points, 3):
        check_delete_points(plane, [v])
    check_delete_points(plane, plane.line_tuples[0])
    for i in range(plane.num_lines):
        check_delete_line(plane, i)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_pendant_reduction_of_extended_plane_matches_reference(q):
    plane = projective_plane(q).system
    ext = extend_with_pendant_points(plane)
    reduced, removed = pendant_reduction(ext)
    assert removed == tuple(range(plane.num_points, ext.num_points))
    assert_equals_reference(reduced, ext.num_points, plane.line_tuples)
    compact, _ = drop_isolated(reduced)
    assert compact == plane
    assert_equals_reference(compact, plane.num_points, plane.line_tuples)


def test_seeded_random_derivation_chains_match_reference():
    # each step derives from the last, so derived systems are sources too
    rng = random.Random(20)
    for start in CORPUS[::4] + SMALL_PLANES[:4]:
        cur = start
        for _ in range(4):
            step = rng.randrange(4)
            if step == 0:
                cur = check_delete_points(cur, rng.sample(range(cur.num_points), 2))
            elif step == 1 and cur.num_lines:
                i = rng.randrange(cur.num_lines)
                check_delete_line(cur, i)
                cur = delete_line(cur, i)
            elif step == 2 and cur.num_lines:
                idx = rng.sample(range(cur.num_lines), rng.randint(1, cur.num_lines))
                check_induced(cur, idx)
                cur = induced_subsystem(cur, idx)
            else:
                check_drop_isolated(cur)
                cur, _ = drop_isolated(cur)


def _disjoint_lines(total):
    """Disjoint lines holding exactly `total` point pairs, longest first."""
    lines, start = [], 0
    while total:
        k = 2
        while (k + 1) * k // 2 <= total:
            k += 1
        lines.append(list(range(start, start + k)))
        start += k
        total -= k * (k - 1) // 2
    return start, lines


def _spy_tests(monkeypatch):
    """Record each call of the constructor's two linearity tests by name."""
    ran = []
    for name in ("_least_clash", "_pairs_distinct"):
        real = getattr(core, name)
        monkeypatch.setattr(
            core, name, lambda *a, name=name, real=real: ran.append(name) or real(*a)
        )
    return ran


@pytest.mark.parametrize("total", [_TABLE_PAIRS - 3, _TABLE_PAIRS, _TABLE_PAIRS + 1])
def test_both_sides_of_the_threshold(total, monkeypatch):
    ran = _spy_tests(monkeypatch)
    n, lines = _disjoint_lines(total)
    sys_ = LinearSystem(n, lines)
    assert ran == ["_least_clash" if total <= _TABLE_PAIRS else "_pairs_distinct"]
    assert_equals_reference(sys_, n, lines)
    # a line through two points of the first line and one new point
    # clashes with it and adds 3 pairs; a failed sort is searched
    clashing = lines + [[0, 1, n]]
    with pytest.raises(LinearityViolation) as ref:
        reference_system(n + 1, clashing)
    del ran[:]
    with pytest.raises(LinearityViolation) as got:
        LinearSystem(n + 1, clashing)
    searched = ["_least_clash"] if total + 3 <= _TABLE_PAIRS else ["_pairs_distinct", "_least_clash"]
    assert ran == searched
    assert str(got.value) == str(ref.value)
    assert (got.value.first, got.value.second, got.value.shared) == (0, len(lines), (0, 1))


@pytest.mark.parametrize("q", [3, 16])
def test_one_clashing_pair_matches_reference(q):
    plane = projective_plane(q).system
    assert (_pairs(plane) <= _TABLE_PAIRS) == (q == 3)
    lines = [list(l) for l in plane.line_tuples]
    # line a takes a second point y of line b, so the two share two
    # points, and so does line a with every other line through y
    for a, b in [(0, 1), (len(lines) // 2, len(lines) // 2 + 1), (len(lines) - 1, 0)]:
        y = next(v for v in lines[b] if v not in lines[a])
        bad = [l + [y] if i == a else l for i, l in enumerate(lines)]
        with pytest.raises(LinearityViolation) as ref:
            reference_system(plane.num_points, bad)
        with pytest.raises(LinearityViolation) as got:
            LinearSystem(plane.num_points, bad)
        assert str(got.value) == str(ref.value)
        assert (got.value.first, got.value.second, got.value.shared) == (
            ref.value.first, ref.value.second, ref.value.shared,
        )


def test_large_system_builds_no_table_until_read():
    lines = [list(l) for l in projective_plane(16).system.line_tuples]
    tracemalloc.start()
    try:
        sys_ = LinearSystem(273, lines)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a table of its 37,128 point pairs alone takes over 3 MB
    assert peak < 2 * 2**20
    assert not hasattr(sys_, "pair_line")
    assert verify_plane_axioms(sys_).order == 16
    assert collinearity_adjacent(sys_, 0, 272)
    assert _closed_neighbourhoods(sys_).all()
    assert_equals_reference(sys_, 273, lines)


def test_a_plane_keeps_one_store_of_its_lines():
    # PG(2,32) holds 1,057 lines of 33 points: their tuples, the lines
    # through each point and the support take under 1 MB, and a frozenset
    # per line would add over 2 MB more
    caps = Caps(plane_order=32, solver_points=3000, solver_lines=3000, iso_points=3000)
    tracemalloc.start()
    try:
        plane = projective_plane(32, caps=caps)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plane.system.num_lines == 1057
    assert held < 1.5 * 2**20
    assert not hasattr(plane.system, "lines")


def test_points_past_the_key_range_use_the_table(monkeypatch):
    # pair keys u * n + v would overflow int64 past _KEYED_POINTS points;
    # such a system is searched pair by pair in the least clash's table
    monkeypatch.setattr(core, "_KEYED_POINTS", 10)
    ran = _spy_tests(monkeypatch)
    lines = [list(l) for l in projective_plane(16).system.line_tuples]
    sys_ = LinearSystem(273, lines)
    assert ran == ["_least_clash"]
    assert_equals_reference(sys_, 273, lines)
    with pytest.raises(LinearityViolation, match=r"^lines 0 and 1 share 2 points"):
        LinearSystem(273, [lines[0] + [v for v in lines[1] if v not in lines[0]][:1]] + lines[1:])
    assert ran == ["_least_clash"] * 2


def _pair_table(sys_):
    """The reference constructor's line through each collinear point pair."""
    return reference_system(sys_.num_points, sys_.line_tuples)["pair_line"]


def _pair_scatter(sys_):
    """gamma's cover matrix as built from the reference pair table's keys."""
    cover = np.eye(sys_.num_points, dtype=np.uint8)
    pairs = np.fromiter(chain.from_iterable(_pair_table(sys_)), dtype=np.intp)
    u, v = pairs.reshape(-1, 2).T
    cover[u, v] = 1
    cover[v, u] = 1
    return cover


@pytest.mark.parametrize(
    "sys_",
    CORPUS + SMALL_PLANES + [extend_with_pendant_points(s) for s in SMALL_PLANES[:4]],
    ids=[f"{i:03d}" for i in range(len(CORPUS) + len(SMALL_PLANES) + 4)],
)
def test_closed_neighbourhoods_equal_the_pair_scatter(sys_):
    got = _closed_neighbourhoods(sys_)
    want = _pair_scatter(sys_)
    assert got.dtype == np.uint8 and got.flags.c_contiguous
    assert np.array_equal(got, want)


def test_closed_neighbourhoods_of_mixed_line_sizes():
    # a 100-point line beside 100 two-point lines, and PG(2,16)
    mixed = LinearSystem(300, [list(range(100))] + [[100 + i, 200 + i] for i in range(100)])
    plane = projective_plane(16).system
    for sys_ in (mixed, plane):
        assert np.array_equal(_closed_neighbourhoods(sys_), _pair_scatter(sys_))


def test_closed_neighbourhoods_build_no_index_array():
    # the broadcast assignment needs the (n, n) matrix, the lines' int64
    # arrays and numpy's iterator buffers for two intp index operands;
    # the pair scatter took over 3 n**2 bytes
    sys_ = extend_with_pendant_points(projective_plane(16).system)
    n = sys_.num_points
    incidences = sum(map(len, sys_.line_tuples))
    tracemalloc.start()
    try:
        _closed_neighbourhoods(sys_)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n + 8 * incidences + 16 * np.getbufsize() + 32768


@pytest.mark.parametrize("sys_", CORPUS[:40] + SMALL_PLANES[:3], ids=[f"{i:03d}" for i in range(43)])
def test_collinearity_adjacent_equals_the_table(sys_):
    n = sys_.num_points
    table = _pair_table(sys_)
    for u in range(n):
        for v in range(n):
            want = u == v or (min(u, v), max(u, v)) in table
            assert collinearity_adjacent(sys_, u, v) == want


@pytest.mark.parametrize(
    "sys_", CORPUS + SMALL_PLANES[:4], ids=[f"{i:03d}" for i in range(len(CORPUS) + 4)]
)
def test_join_equals_the_table(sys_):
    # the line through every collinear pair, and None for every other pair
    table = _pair_table(sys_)
    for u, v in combinations(range(sys_.num_points), 2):
        want = table.get((u, v))
        assert _join(sys_, u, v) == want and _join(sys_, v, u) == want


PLANE3 = SMALL_PLANES[1]
SHRUNK3 = delete_points(PLANE3, [0, 1, 2])
EXTENDED2 = extend_with_pendant_points(SMALL_PLANES[0])
# each builds one system, from sources built before the count starts
SINGLE_PATH = {
    "delete_points": lambda: delete_points(PLANE3, [0, 4, 9]),
    "delete_line": lambda: delete_line(PLANE3, 5),
    "induced_subsystem": lambda: induced_subsystem(PLANE3, [7, 2, 11, 2]),
    "drop_isolated": lambda: drop_isolated(SHRUNK3)[0],
    # one round: the pendant points go, and the plane has none
    "pendant_reduction": lambda: pendant_reduction(EXTENDED2)[0],
    "projective_plane": lambda: projective_plane(4).system,
    "extend_with_pendant_points": lambda: extend_with_pendant_points(PLANE3),
    "triangular_system": lambda: triangular_system(7),
}


@pytest.mark.parametrize("name", list(SINGLE_PATH))
def test_each_system_is_built_by_one_constructor_call(name, monkeypatch):
    built = []
    init = LinearSystem.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(LinearSystem, "__init__", counted)
    got = SINGLE_PATH[name]()
    assert len(built) == 1 and built[0] is got
    assert all(type(t) is tuple for t in got.line_tuples)
    assert all(a < b for t in got.line_tuples for a, b in zip(t, t[1:]))


def test_linear_lines_are_taken_unsorted_and_uncopied():
    ts = [(0, 1, 2), (2, 3), (4,)]
    got = LinearSystem(5, _Linear(ts))
    assert all(got.line_tuples[i] is ts[i] for i in range(len(ts)))
