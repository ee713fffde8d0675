import itertools
import tracemalloc

import pytest

from linsys import (
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
    with pytest.raises(SizeLimit):
        triangular_system(5, Caps(system_points=9))
    with pytest.raises(SizeLimit):
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


def test_reduced_system_rank_drops(ext_fano):
    d = derive(ext_fano, 4)
    assert rank(d.spanning) == 4
    assert rank(d.reduced) == 3
