import itertools
import tracemalloc

import pytest

from linsys import (
    CheckRow,
    LinearSystem,
    NotIntersecting,
    NotMember,
    NotPrimePower,
    NotUniform,
    OddOrder,
    SizeLimit,
    are_isomorphic,
    check_extremal_family,
    check_plane_reconstruction,
    check_saturated_packing,
    delete_line,
    derive,
    domination_number,
    extend_with_pendant_points,
    is_intersecting,
    is_spanning_subsystem,
    is_uniform,
    projective_plane,
    rank,
    transversal_number,
    triangular_system,
    two_packing_number,
    verification_battery,
)
from linsys.limits import Caps

from corpus import build_corpus
from oracles import system_fields


@pytest.fixture(scope="module")
def ext_fano():
    return extend_with_pendant_points(projective_plane(2).system)


def test_extension_shape(fano, ext_fano):
    assert ext_fano.num_points == 14
    assert ext_fano.num_lines == 7
    assert is_uniform(ext_fano, 4)
    assert is_intersecting(ext_fano)
    assert ext_fano.name == "PG(2,2)+pendants"
    # every added point is a pendant on its own line
    for i, l in enumerate(ext_fano.line_tuples):
        assert 7 + i in l


def test_extension_rejects_bad_inputs():
    with pytest.raises(NotUniform):
        extend_with_pendant_points(LinearSystem(4, [[0, 1], [1, 2, 3]]))
    with pytest.raises(NotIntersecting):
        extend_with_pendant_points(LinearSystem(4, [[0, 1], [2, 3]]))


def _qualifies_for_extension(sys):
    return bool(sys.line_tuples) and is_uniform(sys, rank(sys)) and is_intersecting(sys)


def test_extension_equals_its_validated_rebuild():
    # the extension is built without LinearSystem's tests; the validated
    # constructor, given line i plus point n + i, builds the same system
    systems = [s for s in build_corpus() if _qualifies_for_extension(s)]
    systems += [projective_plane(q).system for q in (2, 3, 4, 5)]
    assert len(systems) >= 20
    for s in systems:
        n = s.num_points
        lines = [list(l) + [n + i] for i, l in enumerate(s.line_tuples)]
        rebuilt = LinearSystem(n + s.num_lines, lines, s.name and f"{s.name}+pendants")
        assert system_fields(extend_with_pendant_points(s)) == system_fields(rebuilt)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_extension_caps_one_below_the_need(q):
    plane = projective_plane(q).system
    n = plane.num_points
    pairs = n * ((q + 2) * (q + 1) // 2)
    lines = [list(l) + [n + i] for i, l in enumerate(plane.line_tuples)]
    for caps, message in (
        (Caps(system_points=2 * n - 1), f"{2 * n} points exceeds cap {2 * n - 1}"),
        (Caps(system_pairs=pairs - 1), f"{pairs} point pairs on lines exceeds cap {pairs - 1}"),
    ):
        with pytest.raises(SizeLimit) as built:
            extend_with_pendant_points(plane, caps)
        with pytest.raises(SizeLimit) as rebuilt:
            LinearSystem(2 * n, lines, caps=caps)
        assert str(built.value) == str(rebuilt.value) == message
    exact = Caps(system_points=2 * n, system_pairs=pairs)
    assert extend_with_pendant_points(plane, exact) == extend_with_pendant_points(plane)


def test_membership_of_extension(ext_fano):
    report = check_extremal_family(ext_fano, 4)
    assert report.member
    assert report.rank == 4
    assert report.is_intersecting
    assert report.gamma == 3
    # the domination certificate: one pendant-free transversal-like set
    assert domination_number(ext_fano).value == 3


def test_membership_negative(fano):
    report = check_extremal_family(fano, 3)
    assert not report.member
    assert report.gamma == 1  # any two plane points are collinear
    assert report.rank == 3 and report.is_intersecting


def test_isolated_points_bar_membership():
    # gamma = 1 + the two isolated points 2 and 4, which reaches r - 1 = 3
    # only because every dominating set must hold them
    sys_ = LinearSystem(9, [[1, 3, 5, 7], [0, 5, 6, 8]])
    report = check_extremal_family(sys_, 4)
    assert (report.rank, report.is_intersecting, report.gamma) == (4, True, 3)
    assert report.isolated == (2, 4)
    assert not report.member
    with pytest.raises(NotMember) as info:
        derive(sys_, 4)
    assert str(info.value) == (
        "rank 4 (want 4), intersecting=True, domination 3 (want 3),"
        " isolated points [2, 4]"
    )


def test_derive_from_extended_fano(fano, ext_fano):
    d = derive(ext_fano, 4)
    assert d.source is ext_fano
    assert d.spanning_line_indices == tuple(range(7))
    assert is_spanning_subsystem(d.spanning, ext_fano)
    assert set(d.pendant_map.values()) == set(range(7, 14))
    assert is_uniform(d.reduced, 3)
    assert is_intersecting(d.reduced)
    assert are_isomorphic(d.reduced, fano).isomorphic
    assert d.chain == {
        "gamma_source": 3,
        "gamma_spanning": 3,
        "tau_spanning": 3,
        "tau_reduced": 3,
        "target": 3,
    }


def test_derive_from_extended_fragment(fano):
    frag = delete_line(fano, 0)
    d = derive(extend_with_pendant_points(frag), 4)
    assert d.reduced.num_lines == 6
    assert are_isomorphic(d.reduced, frag).isomorphic
    assert set(d.chain.values()) == {3}


@pytest.mark.parametrize("q", [2, 3, 4])
def test_derive_solves_gamma_once_on_extended_planes(q, monkeypatch):
    # the spanning subsystem of a pendant-extended plane keeps every line,
    # so its gamma is the source's and is not solved a second time
    import linsys.constructions as constructions

    calls = []
    solve = constructions.domination_number

    def counted(*args, **kwargs):
        calls.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(constructions, "domination_number", counted)
    ext = extend_with_pendant_points(projective_plane(q).system)
    d = derive(ext, q + 2)
    assert len(calls) == 1
    assert d.spanning == ext
    # the chain that two gamma solves gave
    assert d.chain == {
        "gamma_source": q + 1,
        "gamma_spanning": q + 1,
        "tau_spanning": q + 1,
        "tau_reduced": q + 1,
        "target": q + 1,
    }


def test_derive_from_a_proper_subset():
    # the four lines leave every point on two of them, so no line has a
    # pendant point; the first three lines are the spanning subsystem,
    # and its gamma is solved on its own
    d = derive(triangular_system(4), 3)
    assert d.spanning_line_indices == (0, 1, 2)
    assert d.pendant_map == {0: 2, 1: 4, 2: 5}
    assert d.reduced.line_tuples == ((0, 1), (0, 3), (1, 3))
    assert set(d.chain.values()) == {2}
    d = derive(LinearSystem(3, [[0, 2], [0, 1], [1, 2]]), 2)
    assert d.spanning_line_indices == (0, 1)
    assert d.reduced.line_tuples == ((0,),)


def test_derive_skips_subsets_that_do_not_span():
    # seven lines of PG(2,3); point 6 is on line 6 alone, so the first
    # six-line subset, which drops line 6, leaves it uncovered
    sys_ = LinearSystem(
        13,
        [
            [1, 4, 7, 10],
            [1, 5, 8, 11],
            [0, 1, 2, 3],
            [3, 5, 7, 12],
            [2, 5, 9, 10],
            [0, 10, 11, 12],
            [2, 6, 7, 11],
        ],
    )
    d = derive(sys_, 4)
    assert d.spanning_line_indices == (0, 1, 2, 3, 4, 6)
    assert d.pendant_map == {0: 4, 1: 8, 2: 0, 3: 12, 4: 9, 5: 6}
    assert d.reduced.line_tuples == (
        (1, 7, 10), (1, 5, 11), (1, 2, 3), (3, 5, 7), (2, 5, 10), (2, 7, 11),
    )
    assert set(d.chain.values()) == {3}


def test_derive_subsets_cap():
    with pytest.raises(
        SizeLimit, match=r"^derivation explored 2 line subsets, cap is 1$"
    ):
        derive(triangular_system(4), 3, caps=Caps(derive_subsets=1))


def test_derive_rejects_non_members(fano):
    with pytest.raises(NotMember):
        derive(fano, 3)
    with pytest.raises(NotMember):
        derive(LinearSystem(4, [[0, 1], [2, 3]]), 2)


@pytest.mark.parametrize("m", [3, 4, 5, 7])
def test_triangular_invariants(m):
    tri = triangular_system(m)
    assert tri.num_points == m * (m - 1) // 2
    assert tri.num_lines == m
    assert is_uniform(tri, m - 1)
    assert is_intersecting(tri)
    assert set(tri.degrees.tolist()) == {2}
    assert tri.name == f"triangular-{m}"


@pytest.mark.parametrize("m", range(3, 41))
def test_triangular_lines_are_the_pairs_through_each_number(m):
    # the definition, pair by pair: points are the pairs of {1..m} in
    # lexicographic order, line i the pairs that contain i
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    want = tuple(
        tuple(j for j, pair in enumerate(pairs) if i in pair)
        for i in range(1, m + 1)
    )
    tri = triangular_system(m)
    assert tri.num_points == len(pairs)
    assert tri.line_tuples == want


@pytest.mark.parametrize("m", range(3, 13))
def test_triangular_equals_its_validated_rebuild(m):
    tri = triangular_system(m)
    rebuilt = LinearSystem(tri.num_points, tri.line_tuples, name=tri.name)
    assert system_fields(tri) == system_fields(rebuilt)


def test_triangular_refuses_over_cap_before_building():
    tracemalloc.start()
    try:
        # 1,999,000 points
        with pytest.raises(SizeLimit, match=r"^1999000 points exceeds cap 100000$"):
            triangular_system(2000)
        # 44,850 points, 300 * C(299, 2) point pairs on lines
        with pytest.raises(
            SizeLimit, match=r"^13365300 point pairs on lines exceeds cap 1000000$"
        ):
            triangular_system(300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    # the bounds are exact: C(5, 2) = 10 points, 5 * C(4, 2) = 30 pairs
    assert triangular_system(5, Caps(system_points=10, system_pairs=30)).num_points == 10
    with pytest.raises(SizeLimit, match=r"^10 points exceeds cap 9$"):
        triangular_system(5, Caps(system_points=9))
    with pytest.raises(SizeLimit, match=r"^30 point pairs on lines exceeds cap 29$"):
        triangular_system(5, Caps(system_pairs=29))


def test_triangular_rejects_small():
    with pytest.raises(ValueError):
        triangular_system(2)


def test_triangular_three_is_triangle():
    assert are_isomorphic(
        triangular_system(3), LinearSystem(3, [[0, 1], [1, 2], [0, 2]])
    ).isomorphic


def test_triangular_solver_values():
    tri5 = triangular_system(5)
    assert two_packing_number(tri5).value == 5
    assert transversal_number(tri5).value == 3
    tri7 = triangular_system(7)
    assert transversal_number(tri7).value == 4
    assert two_packing_number(tri7).value == 7


def test_saturated_packing_on_triangular():
    rep = check_saturated_packing(triangular_system(5))
    assert rep.rank == 4 and rep.nu2 == 5
    assert rep.hypothesis_holds
    assert rep.all_pass
    names = [c.clause for c in rep.clauses]
    assert names == ["line-count", "transversal"]
    assert rep.clauses[1].expected == 3 and rep.clauses[1].actual == 3


def test_saturated_packing_hypothesis_can_fail():
    plane3 = projective_plane(3).system
    rep = check_saturated_packing(plane3)
    assert rep.rank == 4
    assert rep.nu2 == 4  # below the r+1 threshold
    assert not rep.hypothesis_holds
    assert rep.clauses == ()
    assert rep.all_pass


def test_saturated_packing_rejects_bad_inputs():
    with pytest.raises(NotUniform):
        check_saturated_packing(LinearSystem(4, [[0, 1], [1, 2, 3]]))
    with pytest.raises(NotIntersecting):
        check_saturated_packing(LinearSystem(4, [[0, 1], [2, 3]]))
    with pytest.raises(ValueError):
        check_saturated_packing(triangular_system(4))  # odd rank 3


def test_reconstruction_order_two(fano, ext_fano):
    report = check_plane_reconstruction(ext_fano, 2)
    assert report.order == 2
    assert report.all_pass
    names = [c.clause for c in report.clauses]
    assert names == [
        "uniform-intersecting",
        "point-count",
        "line-count-range",
        "degree-structure",
        "tau-nu2",
        "plane-embedding",
        "domination-one",
    ]
    assert are_isomorphic(report.derivation.reduced, fano).isomorphic
    rows = report.to_rows()
    assert all(set(r) == {"clause", "expected", "actual", "pass"} for r in rows)


def test_reconstruction_rejects_bad_orders(ext_fano):
    with pytest.raises(OddOrder):
        check_plane_reconstruction(ext_fano, 3)
    with pytest.raises(NotPrimePower):
        check_plane_reconstruction(ext_fano, 6)


def test_reconstruction_tests_the_order_before_its_parity(ext_fano):
    # 15 is odd and no prime power: the prime-power test comes first
    with pytest.raises(NotPrimePower):
        check_plane_reconstruction(ext_fano, 15)


@pytest.mark.parametrize("q", [2, 4])
def test_battery_builds_its_plane_once(q, monkeypatch):
    from linsys import constructions

    built = []
    real = constructions.projective_plane
    monkeypatch.setattr(
        constructions, "projective_plane", lambda *a, **k: built.append(a) or real(*a, **k)
    )
    rows = verification_battery(q)
    assert built == [(q,)]
    # the reconstruction rows are the public check's clauses
    report = check_plane_reconstruction(extend_with_pendant_points(real(q).system), q)
    want = [(f"reconstruction-{c.clause}", c.passed) for c in report.clauses]
    got = [(r.name, r.status == "pass") for r in rows if r.name.startswith("reconstruction-")]
    assert got == want and all(ok for _, ok in got)


def test_battery_builds_the_triangular_system_under_its_caps():
    # triangular-5 holds 30 point pairs on lines: under a pair cap of 29,
    # passed to the battery, the saturated-packing row is skipped, as the
    # reconstruction row is for ext-PG(2,2) and its 42 pairs
    rows = {r.name: r for r in verification_battery(2, caps=Caps(system_pairs=29))}
    assert rows["saturated-packing"].status == "skip"
    assert rows["saturated-packing"].detail == (
        "size cap: 30 point pairs on lines exceeds cap 29"
    )
    assert rows["reconstruction"].status == "skip"
    assert rows["plane-axioms"].status == "pass"


def test_battery_order_two():
    rows = verification_battery(2)
    by_name = {r.name: r for r in rows}
    assert all(r.status == "pass" for r in rows), [
        (r.name, r.detail) for r in rows if r.status != "pass"
    ]
    for expected in (
        "plane-axioms",
        "plane-counts",
        "plane-transversal",
        "plane-two-packing",
        "packing-gap-implication",
        "hyperoval-arc",
        "hyperoval-dual-packing",
        "reconstruction-plane-embedding",
        "saturated-packing",
    ):
        assert expected in by_name


def test_battery_odd_order_skips():
    rows = verification_battery(3)
    by_name = {r.name: r for r in rows}
    assert by_name["hyperoval"].status == "skip"
    assert by_name["reconstruction"].status == "skip"
    assert by_name["saturated-packing"].status == "skip"
    assert by_name["plane-axioms"].status == "pass"
    assert by_name["plane-two-packing"].status == "pass"
    assert not any(r.status == "fail" for r in rows)


def test_battery_rows_serialize():
    rows = verification_battery(2)
    for r in rows:
        d = r.to_dict()
        assert set(d) == {"name", "status", "detail"}
        assert d["status"] in {"pass", "fail", "skip"}


# under these caps every row of the battery runs, the solver and
# reconstruction rows that the default caps skip at q = 16 included
RAISED_CAPS = Caps(solver_points=1000, solver_lines=1000, iso_points=1000)
RAISED_BATTERY_ROWS = {
    4: [
        ("plane-axioms", "pass", "order=4"),
        ("plane-counts", "pass", "21 points, 21 lines"),
        ("plane-transversal", "pass", "tau=5"),
        ("plane-two-packing", "pass", "nu2=6"),
        ("packing-gap-implication", "pass", "m=21, bound=13, hypothesis=False"),
        ("hyperoval-arc", "pass", "6 points"),
        ("hyperoval-dual-packing", "pass", "6 lines"),
        (
            "reconstruction-uniform-intersecting",
            "pass",
            "expected {'uniform': 5, 'intersecting': True}, got {'uniform': 5, 'intersecting': True}",
        ),
        ("reconstruction-point-count", "pass", "expected 21, got 21"),
        ("reconstruction-line-count-range", "pass", "expected 12..21, got 21"),
        (
            "reconstruction-degree-structure",
            "pass",
            "expected {'max_degree': 5, 'deg2_points_per_line': '<=1'}, got {'max_degree': 5, 'deg2_points_per_line': 0}",
        ),
        (
            "reconstruction-tau-nu2",
            "pass",
            "expected {'tau': 5, 'nu2': 6}, got {'tau': 5, 'nu2': 6}",
        ),
        (
            "reconstruction-plane-embedding",
            "pass",
            "expected {'embeds': True, 'spanned_points': 21}, got {'embeds': True, 'spanned_points': 21}",
        ),
        ("reconstruction-domination-one", "pass", "expected 1, got 1"),
        ("saturated-packing", "pass", "rank=6, nu2=7, tau=4, lines=7"),
    ],
    8: [
        ("plane-axioms", "pass", "order=8"),
        ("plane-counts", "pass", "73 points, 73 lines"),
        ("plane-transversal", "pass", "tau=9"),
        ("plane-two-packing", "pass", "nu2=10"),
        ("packing-gap-implication", "pass", "m=73, bound=25, hypothesis=False"),
        ("hyperoval-arc", "pass", "10 points"),
        ("hyperoval-dual-packing", "pass", "10 lines"),
        (
            "reconstruction-uniform-intersecting",
            "pass",
            "expected {'uniform': 9, 'intersecting': True}, got {'uniform': 9, 'intersecting': True}",
        ),
        ("reconstruction-point-count", "pass", "expected 73, got 73"),
        ("reconstruction-line-count-range", "pass", "expected 24..73, got 73"),
        (
            "reconstruction-degree-structure",
            "pass",
            "expected {'max_degree': 9, 'deg2_points_per_line': '<=1'}, got {'max_degree': 9, 'deg2_points_per_line': 0}",
        ),
        (
            "reconstruction-tau-nu2",
            "pass",
            "expected {'tau': 9, 'nu2': 10}, got {'tau': 9, 'nu2': 10}",
        ),
        (
            "reconstruction-plane-embedding",
            "pass",
            "expected {'embeds': True, 'spanned_points': 73}, got {'embeds': True, 'spanned_points': 73}",
        ),
        ("reconstruction-domination-one", "pass", "expected 1, got 1"),
        ("saturated-packing", "pass", "rank=10, nu2=11, tau=6, lines=11"),
    ],
    16: [
        ("plane-axioms", "pass", "order=16"),
        ("plane-counts", "pass", "273 points, 273 lines"),
        ("plane-transversal", "pass", "tau=17"),
        ("plane-two-packing", "pass", "nu2=18"),
        ("packing-gap-implication", "pass", "m=273, bound=49, hypothesis=False"),
        ("hyperoval-arc", "pass", "18 points"),
        ("hyperoval-dual-packing", "pass", "18 lines"),
        (
            "reconstruction-uniform-intersecting",
            "pass",
            "expected {'uniform': 17, 'intersecting': True}, got {'uniform': 17, 'intersecting': True}",
        ),
        ("reconstruction-point-count", "pass", "expected 273, got 273"),
        ("reconstruction-line-count-range", "pass", "expected 48..273, got 273"),
        (
            "reconstruction-degree-structure",
            "pass",
            "expected {'max_degree': 17, 'deg2_points_per_line': '<=1'}, got {'max_degree': 17, 'deg2_points_per_line': 0}",
        ),
        (
            "reconstruction-tau-nu2",
            "pass",
            "expected {'tau': 17, 'nu2': 18}, got {'tau': 17, 'nu2': 18}",
        ),
        (
            "reconstruction-plane-embedding",
            "pass",
            "expected {'embeds': True, 'spanned_points': 273}, got {'embeds': True, 'spanned_points': 273}",
        ),
        ("reconstruction-domination-one", "pass", "expected 1, got 1"),
        ("saturated-packing", "pass", "rank=18, nu2=19, tau=10, lines=19"),
    ],
}


@pytest.mark.parametrize("q", sorted(RAISED_BATTERY_ROWS))
def test_battery_rows_at_raised_caps(q):
    rows = verification_battery(q, caps=RAISED_CAPS)
    assert [(r.name, r.status, r.detail) for r in rows] == RAISED_BATTERY_ROWS[q]


def _pendant_plane_rows(q):
    """The reconstruction clause rows of the pendant plane of order q."""
    n = q * q + q + 1
    return [
        {"clause": "uniform-intersecting", "expected": {"uniform": q + 1, "intersecting": True},
         "actual": {"uniform": q + 1, "intersecting": True}, "pass": True},
        {"clause": "point-count", "expected": n, "actual": n, "pass": True},
        {"clause": "line-count-range", "expected": f"{3 * q}..{n}", "actual": n, "pass": True},
        {"clause": "degree-structure", "expected": {"max_degree": q + 1, "deg2_points_per_line": "<=1"},
         "actual": {"max_degree": q + 1, "deg2_points_per_line": 0}, "pass": True},
        {"clause": "tau-nu2", "expected": {"tau": q + 1, "nu2": q + 2},
         "actual": {"tau": q + 1, "nu2": q + 2}, "pass": True},
        {"clause": "plane-embedding", "expected": {"embeds": True, "spanned_points": n},
         "actual": {"embeds": True, "spanned_points": n}, "pass": True},
        {"clause": "domination-one", "expected": 1, "actual": 1, "pass": True},
    ]


@pytest.mark.parametrize("q", [2, 4, 8])
def test_reconstruction_of_a_pendant_plane_runs_no_point_map_search(q, monkeypatch):
    # the reduced system has the plane's own lines, so the identity embeds it
    from linsys import constructions

    def refuse(*args, **kwargs):
        raise AssertionError("the point-map search ran")

    monkeypatch.setattr(constructions, "embeds_in", refuse)
    ext = extend_with_pendant_points(projective_plane(q).system, RAISED_CAPS)
    report = check_plane_reconstruction(ext, q, RAISED_CAPS)
    assert report.to_rows() == _pendant_plane_rows(q)


def test_reconstruction_of_a_relabelled_pendant_plane_searches(monkeypatch):
    # a relabelling that is no collineation leaves the reduced system with
    # lines that are not the plane's, so the point-map search decides the
    # embedding clause
    from linsys import constructions

    calls = []
    real = constructions.embeds_in
    monkeypatch.setattr(
        constructions, "embeds_in", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    ext = extend_with_pendant_points(projective_plane(2).system)
    perm = [3, 0, 6, 1, 5, 2, 4] + list(range(7, 14))
    relabelled = LinearSystem(14, [[perm[v] for v in l] for l in ext.line_tuples])
    report = check_plane_reconstruction(relabelled, 2)
    assert report.derivation.reduced.line_tuples == (
        (0, 1, 2), (1, 3, 5), (1, 4, 6), (0, 3, 6), (0, 4, 5), (2, 3, 4), (2, 5, 6)
    )
    assert len(calls) == 1
    # a relabelling changes none of the clause rows
    assert report.to_rows() == _pendant_plane_rows(2)


def test_reconstruction_keeps_the_embedding_cap():
    # the identity check refuses what the point-map search refuses, so the
    # battery skips the same rows under the same caps
    rows = verification_battery(4, Caps(iso_points=20))
    assert [r for r in rows if r.name.startswith("reconstruction")] == [
        CheckRow("reconstruction", "skip", "size cap: embedding search over 21/21 points, cap is 20")
    ]


def test_reduced_system_rank_drops(ext_fano):
    d = derive(ext_fano, 4)
    assert rank(d.spanning) == 4
    assert rank(d.reduced) == 3
