"""Acceptance gate: each test times one deliverable end to end and prints
a single PASS line (run with -v or -s to see them). Limits are wall-clock
seconds on a desk machine; kernel warmup happens in a session fixture."""

import json
import math
import time

from linsys import (
    are_isomorphic,
    check_plane_reconstruction,
    degree_profile,
    delete_line,
    derive,
    domination_number,
    dual_hyperoval_lines,
    extend_with_pendant_points,
    hyperoval,
    is_intersecting,
    loads_json,
    projective_plane,
    rank,
    transversal_number,
    triangular_system,
    two_packing_number,
    verification_battery,
    verify_plane_axioms,
    verify_two_packing,
)
from linsys.cli import main
from linsys.limits import Caps

from corpus import build_corpus
from oracles import brute_domination, brute_transversal, brute_two_packing

_corpus_cache = {}


def _corpus_run():
    """Shared solve of the whole corpus; criteria 9 and 10 read from it."""
    if "data" not in _corpus_cache:
        start = time.perf_counter()
        rows = []
        for sys_ in build_corpus():
            n, lines = sys_.num_points, sys_.line_tuples
            rows.append(
                {
                    "sys": sys_,
                    "tau": transversal_number(sys_).value,
                    "gamma": domination_number(sys_).value,
                    "nu2": two_packing_number(sys_).value,
                    "b_tau": brute_transversal(n, lines),
                    "b_gamma": brute_domination(n, lines),
                    "b_nu2": brute_two_packing(n, lines),
                }
            )
        _corpus_cache["data"] = rows
        _corpus_cache["seconds"] = time.perf_counter() - start
    return _corpus_cache["data"], _corpus_cache["seconds"]


def test_criterion_01_plane_axioms(tmp_path):
    start = time.perf_counter()
    for q in (2, 3, 4, 5, 7, 8):
        path = tmp_path / f"plane{q}.json"
        assert main(["gen", "plane", "--q", str(q), "--out", str(path)]) == 0
        sys_ = loads_json(path.read_text())
        report = verify_plane_axioms(sys_)
        assert report.is_plane and report.order == q
        n = q * q + q + 1
        assert sys_.num_points == n and sys_.num_lines == n
        assert all(len(l) == q + 1 for l in sys_.line_tuples)
        assert set(sys_.degrees.tolist()) == {q + 1}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: plane axioms for q in 2,3,4,5,7,8 ({elapsed:.2f}s)")


def test_criterion_02_even_plane_invariants():
    start = time.perf_counter()
    p2 = projective_plane(2).system
    assert transversal_number(p2).value == 3
    assert two_packing_number(p2).value == 4
    p4 = projective_plane(4).system
    assert transversal_number(p4).value == 5
    assert two_packing_number(p4).value == 6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 2: tau/nu2 on PG(2,2) and PG(2,4) ({elapsed:.2f}s)")


def test_criterion_03_odd_plane_contrast():
    start = time.perf_counter()
    p3 = projective_plane(3).system
    assert transversal_number(p3).value == 4
    assert two_packing_number(p3).value == 4
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS criterion 3: tau = nu2 = 4 on PG(2,3) ({elapsed:.2f}s)")


def test_criterion_04_hyperoval_arcs():
    import itertools

    start = time.perf_counter()
    for q in (2, 4, 8):
        plane = projective_plane(q)
        arc = hyperoval(plane)
        pts = sorted(arc.points)
        assert len(pts) == q + 2
        # exhaustive triple check: no line through any three arc points
        for a, b, c in itertools.combinations(pts, 3):
            line = plane.system.pair_line[(a, b)]
            assert c not in plane.system.line_tuples[line]
        dual = dual_hyperoval_lines(plane)
        assert len(dual) == q + 2
        assert verify_two_packing(plane.system, dual)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 4: hyperovals and dual 2-packings for q in 2,4,8 ({elapsed:.2f}s)")


def test_criterion_05_saturated_packing_values():
    start = time.perf_counter()
    tri5 = triangular_system(5)
    assert two_packing_number(tri5).value == 5
    assert tri5.num_lines == 5
    r = rank(tri5)
    assert transversal_number(tri5).value == 3 == (r + 2) // 2
    tri7 = triangular_system(7)
    assert transversal_number(tri7).value == 4
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 5: triangular system invariants ({elapsed:.2f}s)")


def test_criterion_06_reconstruction_order_two():
    start = time.perf_counter()
    ext = extend_with_pendant_points(projective_plane(2).system)
    report = check_plane_reconstruction(ext, 2)
    assert report.all_pass
    clauses = {c.clause: c for c in report.clauses}
    assert clauses["tau-nu2"].actual == {"tau": 3, "nu2": 4}
    assert clauses["point-count"].actual == 7
    assert clauses["degree-structure"].actual["max_degree"] == 3
    assert clauses["plane-embedding"].actual == {"embeds": True, "spanned_points": 7}
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 6: reconstruction clauses at q = 2 ({elapsed:.2f}s)")


def test_criterion_07_reconstruction_order_four():
    start = time.perf_counter()
    ext = extend_with_pendant_points(projective_plane(4).system)
    report = check_plane_reconstruction(ext, 4)
    assert report.all_pass
    clauses = {c.clause: c for c in report.clauses}
    assert clauses["tau-nu2"].actual == {"tau": 5, "nu2": 6}
    assert clauses["point-count"].actual == 21
    assert clauses["line-count-range"].actual == 21
    assert 21 >= 3 * 4
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"PASS criterion 7: reconstruction clauses at q = 4 ({elapsed:.2f}s)")


def test_criterion_08_derivations_with_certificates():
    start = time.perf_counter()
    fano = projective_plane(2).system

    d = derive(extend_with_pendant_points(fano), 4)
    cert = are_isomorphic(d.reduced, fano)
    assert cert.isomorphic
    phi = cert.point_bijection
    mapped = {tuple(sorted(phi[v] for v in l)) for l in cert.reduced_a.line_tuples}
    assert mapped == set(cert.reduced_b.line_tuples)

    frag = delete_line(fano, 0)
    d2 = derive(extend_with_pendant_points(frag), 4)
    assert d2.reduced.num_lines == 6 == 3 * 2
    cert2 = are_isomorphic(d2.reduced, frag)
    assert cert2.isomorphic
    phi2 = cert2.point_bijection
    mapped2 = {tuple(sorted(phi2[v] for v in l)) for l in cert2.reduced_a.line_tuples}
    assert mapped2 == set(cert2.reduced_b.line_tuples)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 8: derivations reduce to Fano and Fano-minus-line ({elapsed:.2f}s)")


def test_criterion_09_oracle_equivalence_and_inequalities():
    rows, elapsed = _corpus_run()
    assert len(rows) >= 100
    for row in rows:
        sys_ = row["sys"]
        assert sys_.num_points <= 16 and sys_.num_lines <= 12
        assert row["tau"] == row["b_tau"], sys_.name
        assert row["gamma"] == row["b_gamma"], sys_.name
        assert row["nu2"] == row["b_nu2"], sys_.name
        inter = is_intersecting(sys_)
        if inter:
            assert row["tau"] >= math.ceil(row["nu2"] / 2)
        isolated_free = len(sys_.support) == sys_.num_points
        if isolated_free:
            assert row["gamma"] <= row["tau"]
        if inter and isolated_free and rank(sys_) >= 2:
            assert row["gamma"] <= rank(sys_) - 1
    assert elapsed < 120.0
    print(
        f"PASS criterion 9: {len(rows)} systems match brute force with all"
        f" inequalities ({elapsed:.2f}s)"
    )


def test_criterion_10_packing_gap_implication():
    rows, elapsed = _corpus_run()
    applied = 0
    for row in rows:
        profile = degree_profile(row["sys"])
        bound = profile.max_degree + profile.second_max_degree + row["nu2"] - 3
        if row["sys"].num_lines <= bound:
            applied += 1
            assert row["tau"] <= row["nu2"] - 1
    assert applied > 0
    assert elapsed < 120.0
    print(
        f"PASS criterion 10: line-count bound implies tau < nu2 on"
        f" {applied} instances ({elapsed:.2f}s shared)"
    )


def test_criterion_11_odd_plane_two_packing(capsys, monkeypatch):
    # the parity rule settles nu2 on odd planes once a (q+1)-packing is
    # found
    monkeypatch.delenv("LINSYS_CAPS", raising=False)
    start = time.perf_counter()
    res = two_packing_number(projective_plane(7).system)
    assert (res.value, res.witness) == (8, (0, 1, 8, 16, 25, 31, 49, 55))
    assert main(["check-paper", "--q", "9", "--json"]) == 0
    rows = {r["name"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
    assert rows["plane-two-packing"]["status"] == "pass"
    assert rows["plane-two-packing"]["detail"] == "nu2=10"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 11: nu2 PG(2,7) and check-paper --q 9 ({elapsed:.2f}s)")


def test_criterion_12_pendant_plane_two_packing():
    # pendant points do not count towards the root bound's r, so the
    # extended odd planes settle like the planes; ext-PG(2,9) has 182
    # points, over the default solver cap
    caps = Caps(solver_points=1000, solver_lines=1000)
    start = time.perf_counter()
    for q in (7, 9):
        ext = extend_with_pendant_points(projective_plane(q).system)
        res = two_packing_number(ext, caps=caps)
        assert res.value == q + 1
        assert len(res.witness) == q + 1
        assert verify_two_packing(ext, res.witness)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 12: nu2 ext-PG(2,7) and ext-PG(2,9) ({elapsed:.2f}s)")


def test_criterion_13_order_sixteen_battery():
    # the reconstruction row embeds the 273-point reduced system into
    # PG(2,16), which the default caps skip
    caps = Caps(solver_points=1000, solver_lines=1000, iso_points=1000)
    start = time.perf_counter()
    rows = verification_battery(16, caps=caps)
    elapsed = time.perf_counter() - start
    assert len(rows) == 15
    assert all(r.status == "pass" for r in rows), [
        (r.name, r.detail) for r in rows if r.status != "pass"
    ]
    assert elapsed < 1.5
    print(f"PASS criterion 13: verification_battery(16), raised caps ({elapsed:.2f}s)")
