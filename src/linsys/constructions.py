"""Derivations between uniform intersecting systems and projective planes.

The pipeline: a system of rank r whose domination number is r-1 contains an
r-uniform intersecting spanning subsystem in which every line keeps a
private degree-one point; deleting one such point per line yields an
(r-1)-uniform intersecting system. For r = q+2 with q an even prime power,
that reduced system is a spanning subsystem of the projective plane of
order q, and `check_plane_reconstruction` verifies the full clause list on
a concrete instance. `extend_with_pendant_points` is the inverse
construction used to generate inputs.
"""

import itertools
from dataclasses import dataclass
from typing import Dict, Tuple

from .core import (
    LinearSystem,
    _check_embed_caps,
    _check_pairs,
    _check_points,
    _Linear,
    degree_profile,
    delete_points,
    drop_isolated,
    embeds_in,
    induced_subsystem,
    is_intersecting,
    is_uniform,
    rank,
)
from .errors import (
    DerivationFailed,
    NotIntersecting,
    NotMember,
    NotUniform,
    OddOrder,
    SizeLimit,
)
from .field import _as_int
from .geometry import (
    PlaneModel,
    dual_conic_lines,
    dual_hyperoval_lines,
    hyperoval,
    is_arc,
    projective_plane,
    verify_plane_axioms,
)
from .limits import DEFAULT_CAPS, Caps
from .solvers import (
    _two_packing_value,
    check_packing_gap,
    domination_number,
    transversal_number,
    two_packing_number,
    verify_two_packing,
)


@dataclass(frozen=True)
class MembershipReport:
    """Does the system have rank = target, pairwise intersecting lines,
    no isolated points, and domination number target-1? gamma counts each
    isolated point, which every dominating set must hold, while the bound
    gamma <= r - 1 holds only when every point is on a line."""

    target_rank: int
    rank: int
    is_intersecting: bool
    gamma: int
    isolated: Tuple[int, ...]
    member: bool


def check_extremal_family(
    sys: LinearSystem, r: int, caps: Caps = DEFAULT_CAPS
) -> MembershipReport:
    rk = rank(sys)
    inter = is_intersecting(sys)
    gamma = domination_number(sys, caps=caps).value
    isolated = tuple(v for v in range(sys.num_points) if v not in sys.support)
    return MembershipReport(
        target_rank=r,
        rank=rk,
        is_intersecting=inter,
        gamma=gamma,
        isolated=isolated,
        member=(rk == r and inter and not isolated and gamma == r - 1),
    )


@dataclass(frozen=True)
class Derivation:
    """A spanning subsystem with one pendant point per line, and the
    reduced system left after deleting those pendants. chain records the
    equalities gamma(source) = gamma(spanning) = tau(spanning) =
    tau(reduced) = rank-1 verified after extraction."""

    source: LinearSystem
    spanning_line_indices: Tuple[int, ...]
    spanning: LinearSystem
    pendant_map: Dict[int, int]
    reduced: LinearSystem
    chain: Dict[str, int]


def _subset_is_valid(sys: LinearSystem, combo) -> bool:
    # spanning, and a degree-one point on each line; derive has required
    # sys to be intersecting, so any subset of its lines meets pairwise
    union = set()
    for i in combo:
        union.update(sys.line_tuples[i])
    if union != sys.support:
        return False
    deg: Dict[int, int] = {}
    for i in combo:
        for v in sys.line_tuples[i]:
            deg[v] = deg.get(v, 0) + 1
    return all(any(deg[v] == 1 for v in sys.line_tuples[i]) for i in combo)


def derive(sys: LinearSystem, r: int, caps: Caps = DEFAULT_CAPS) -> Derivation:
    """Extract the spanning subsystem and its pendant-deleted reduction.

    Searches r-sized line subsets in decreasing cardinality, lexicographic
    order; existence is guaranteed for family members, so exhausting the
    search raises DerivationFailed."""
    report = check_extremal_family(sys, r, caps=caps)
    if not report.member:
        isolated = (
            f", isolated points {list(report.isolated)}" if report.isolated else ""
        )
        raise NotMember(
            f"rank {report.rank} (want {r}), intersecting={report.is_intersecting},"
            f" domination {report.gamma} (want {r - 1}){isolated}"
        )

    candidates = [i for i, l in enumerate(sys.line_tuples) if len(l) == r]
    tried = 0
    found = None
    for k in range(len(candidates), 0, -1):
        for combo in itertools.combinations(candidates, k):
            tried += 1
            if tried > caps.derive_subsets:
                raise SizeLimit(
                    f"derivation explored {tried} line subsets,"
                    f" cap is {caps.derive_subsets}"
                )
            if _subset_is_valid(sys, combo):
                found = combo
                break
        if found:
            break
    if found is None:
        raise DerivationFailed(
            "no r-uniform intersecting spanning subsystem with pendant"
            " points exists; the input should not have passed membership"
        )

    spanning = induced_subsystem(sys, found)
    pendant_map: Dict[int, int] = {}
    for j, l in enumerate(spanning.line_tuples):
        pendant_map[j] = next(v for v in l if spanning.degrees[v] == 1)

    reduced = delete_points(spanning, pendant_map.values())

    # a spanning subsystem that keeps every line is the source itself
    if spanning == sys:
        gamma_spanning = report.gamma
    else:
        gamma_spanning = domination_number(spanning, caps=caps).value
    chain = {
        "gamma_source": report.gamma,
        "gamma_spanning": gamma_spanning,
        "tau_spanning": transversal_number(spanning, caps=caps).value,
        "tau_reduced": transversal_number(reduced, caps=caps).value,
        "target": r - 1,
    }
    values = {v for k, v in chain.items() if k != "target"}
    if values != {r - 1}:
        raise DerivationFailed(f"equality chain broken: {chain}")

    return Derivation(
        source=sys,
        spanning_line_indices=tuple(found),
        spanning=spanning,
        pendant_map=pendant_map,
        reduced=reduced,
        chain=chain,
    )


def extend_with_pendant_points(sys: LinearSystem, caps: Caps = DEFAULT_CAPS) -> LinearSystem:
    """Append one fresh point to every line of a uniform intersecting
    system; the result is (r+1)-uniform and pendant-reduces back. It is
    linear: a fresh point lies on one line only, so two lines share what
    they shared before. Its n + m points and m * C(r + 1, 2) point pairs
    on lines are held to the caps before any line is built."""
    r = rank(sys)
    if not is_uniform(sys, r):
        raise NotUniform("pendant extension needs an r-uniform input")
    if not is_intersecting(sys):
        raise NotIntersecting("pendant extension needs an intersecting input")
    n, m = sys.num_points, sys.num_lines
    _check_points(n + m, caps)
    _check_pairs(m * ((r + 1) * r // 2), caps)
    # the fresh point is above every old one, so each line stays ascending
    lines = [t + (n + i,) for i, t in enumerate(sys.line_tuples)]
    name = f"{sys.name}+pendants" if sys.name else None
    return LinearSystem(n + m, _Linear(lines), name)


def triangular_system(m: int, caps: Caps = DEFAULT_CAPS) -> LinearSystem:
    """Points are the unordered pairs from {1..m} in lexicographic order;
    line i collects the pairs containing i. (m-1)-uniform, intersecting,
    every point on exactly two lines, and linear: lines i != j share
    exactly the pair {i, j}. The C(m, 2) points and the m * C(m-1, 2)
    point pairs on lines are held to the caps before any line is built."""
    m = _as_int(m, "triangular_system", "m")
    if m < 3:
        raise ValueError(f"triangular system needs m >= 3, got {m}")
    n = m * (m - 1) // 2
    _check_points(n, caps)
    _check_pairs(m * ((m - 1) * (m - 2) // 2), caps)
    # counting from 0, pair a < b is point start[a] + b - a - 1, start[a]
    # being the number of pairs whose smaller entry is below a
    start = [a * m - a * (a + 1) // 2 for a in range(m)]
    # line i lists its pairs (a, i), a < i, then (i, b), b > i: ascending
    lines = [
        tuple(
            [start[a] + i - a - 1 for a in range(i)]
            + list(range(start[i], start[i] + m - 1 - i))
        )
        for i in range(m)
    ]
    return LinearSystem(n, _Linear(lines), name=f"triangular-{m}")


@dataclass(frozen=True)
class ClauseCheck:
    clause: str
    expected: object
    actual: object
    passed: bool

    def to_dict(self) -> dict:
        return {
            "clause": self.clause,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class SaturatedPackingReport:
    """For an r-uniform intersecting system with r even: when the
    2-packing number saturates at r+1, the line count must equal r+1 and
    the transversal number must be (r+2)/2."""

    rank: int
    num_lines: int
    nu2: int
    tau: int
    hypothesis_holds: bool
    clauses: Tuple[ClauseCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.clauses)


def check_saturated_packing(
    sys: LinearSystem, caps: Caps = DEFAULT_CAPS
) -> SaturatedPackingReport:
    """On an r-uniform intersecting system of even rank r with nu2 = r + 1,
    check that it has r + 1 lines and tau = (r + 2) / 2. The line-count
    clause is the solver's parity bound: with m >= r + 2 lines nu2 <= r,
    so the hypothesis fails, and nu2 <= m leaves m = r + 1."""
    r = rank(sys)
    if not is_uniform(sys, r):
        raise NotUniform("saturated-packing check needs an r-uniform input")
    if not is_intersecting(sys):
        raise NotIntersecting(
            "saturated-packing check needs an intersecting input"
        )
    if r % 2 != 0:
        raise ValueError(f"saturated-packing check needs even rank, got {r}")

    nu2 = two_packing_number(sys, caps=caps).value
    tau = transversal_number(sys, caps=caps).value
    hypothesis = nu2 == r + 1
    clauses = []
    if hypothesis:
        clauses.append(
            ClauseCheck("line-count", r + 1, sys.num_lines, sys.num_lines == r + 1)
        )
        expected_tau = (r + 2) // 2
        clauses.append(ClauseCheck("transversal", expected_tau, tau, tau == expected_tau))
    return SaturatedPackingReport(
        rank=r,
        num_lines=sys.num_lines,
        nu2=nu2,
        tau=tau,
        hypothesis_holds=hypothesis,
        clauses=tuple(clauses),
    )


@dataclass(frozen=True)
class ReconstructionReport:
    order: int
    derivation: Derivation
    clauses: Tuple[ClauseCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.clauses)

    def to_rows(self) -> list:
        return [c.to_dict() for c in self.clauses]


def check_plane_reconstruction(
    sys: LinearSystem, q: int, caps: Caps = DEFAULT_CAPS
) -> ReconstructionReport:
    """Verify, clause by clause, that the reduced system derived from sys
    at rank q+2 is a spanning (q+1)-uniform subsystem of the order-q plane
    with the predicted invariants."""
    plane = projective_plane(q, caps=caps)
    if q % 2 != 0:
        raise OddOrder(f"reconstruction is proved for even q, got {q}")
    return _reconstruction(sys, plane, caps)


def _reconstruction(sys: LinearSystem, plane: PlaneModel, caps: Caps) -> ReconstructionReport:
    """check_plane_reconstruction against a built plane of even order."""
    q = plane.order
    derivation = derive(sys, q + 2, caps=caps)
    red = derivation.reduced
    n_expected = q * q + q + 1

    clauses = []
    uniform_ok = is_uniform(red, q + 1)
    inter_ok = is_intersecting(red)
    clauses.append(
        ClauseCheck(
            "uniform-intersecting",
            {"uniform": q + 1, "intersecting": True},
            {"uniform": q + 1 if uniform_ok else sorted({len(l) for l in red.line_tuples}),
             "intersecting": inter_ok},
            uniform_ok and inter_ok,
        )
    )
    npts = len(red.support)
    clauses.append(ClauseCheck("point-count", n_expected, npts, npts == n_expected))
    m = red.num_lines
    clauses.append(
        ClauseCheck(
            "line-count-range",
            f"{3 * q}..{n_expected}",
            m,
            3 * q <= m <= n_expected,
        )
    )
    profile = degree_profile(red)
    max_deg2 = max(
        (sum(1 for v in l if profile.degrees[v] == 2) for l in red.line_tuples),
        default=0,
    )
    delta_ok = profile.max_degree == q + 1
    clauses.append(
        ClauseCheck(
            "degree-structure",
            {"max_degree": q + 1, "deg2_points_per_line": "<=1"},
            {"max_degree": profile.max_degree, "deg2_points_per_line": max_deg2},
            max_deg2 <= 1 and delta_ok,
        )
    )
    tau = derivation.chain["tau_reduced"]
    # the plane's dual hyperoval is a 2-packing of red when red has all
    # of its lines, as derived from the pendant plane, and settles nu2
    index = {l: i for i, l in enumerate(red.line_tuples)}
    dual = [plane.system.line_tuples[i] for i in dual_hyperoval_lines(plane)]
    incumbent = [index[l] for l in dual] if all(l in index for l in dual) else None
    nu2 = _two_packing_value(red, caps, incumbent)
    clauses.append(
        ClauseCheck(
            "tau-nu2",
            {"tau": q + 1, "nu2": q + 2},
            {"tau": tau, "nu2": nu2},
            tau == q + 1 and nu2 == q + 2,
        )
    )
    # When every line of red is a line of the plane, as when red comes
    # from the pendant plane, the identity embeds red, and embeds_in's
    # point map would cover red's support too, so the clause reads the
    # same. Only otherwise does the search run: its first map found need
    # not be the identity. The iso_points cap holds either way.
    _check_embed_caps(red, plane.system, caps)
    host = set(plane.system.line_tuples)
    if all(l in host for l in red.line_tuples):
        embeds, spanned = True, len(red.support)
    else:
        emb = embeds_in(red, plane.system, caps=caps)
        embeds, spanned = emb is not None, len(emb.point_map) if emb is not None else 0
    clauses.append(
        ClauseCheck(
            "plane-embedding",
            {"embeds": True, "spanned_points": n_expected},
            {"embeds": embeds, "spanned_points": spanned},
            embeds and spanned == n_expected,
        )
    )
    compacted, _ = drop_isolated(red)
    gamma = domination_number(compacted, caps=caps).value
    clauses.append(ClauseCheck("domination-one", 1, gamma, gamma == 1))

    return ReconstructionReport(order=q, derivation=derivation, clauses=tuple(clauses))


@dataclass(frozen=True)
class CheckRow:
    name: str
    status: str  # pass | fail | skip
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


def _row(name: str, ok: bool, detail: str) -> CheckRow:
    return CheckRow(name, "pass" if ok else "fail", detail)


def verification_battery(q: int, caps: Caps = DEFAULT_CAPS) -> list:
    """All order-q checks the package can machine-verify, as a flat list
    of pass/fail/skip rows. Rows that exceed the configured size caps are
    reported as skipped rather than failed."""
    rows = []
    plane = projective_plane(q, caps=caps)
    psys = plane.system
    n_expected = q * q + q + 1

    rep = verify_plane_axioms(psys)
    rows.append(
        _row(
            "plane-axioms",
            rep.is_plane and rep.order == q,
            f"order={rep.order}" if rep.is_plane else f"failed {rep.failed_axiom}",
        )
    )
    rows.append(
        _row(
            "plane-counts",
            psys.num_points == n_expected and psys.num_lines == n_expected,
            f"{psys.num_points} points, {psys.num_lines} lines",
        )
    )

    # the dual arc, a verified 2-packing as large as nu2's proved bound,
    # settles nu2 with no search
    dual = dual_hyperoval_lines(plane) if q % 2 == 0 else dual_conic_lines(plane)
    try:
        gap = check_packing_gap(psys, caps=caps, incumbent=dual)
        rows.append(_row("plane-transversal", gap.tau == q + 1, f"tau={gap.tau}"))
        nu2_want = q + 2 if q % 2 == 0 else q + 1
        rows.append(_row("plane-two-packing", gap.nu2 == nu2_want, f"nu2={gap.nu2}"))
        hyp = gap.hypothesis_holds
        rows.append(
            _row(
                "packing-gap-implication",
                (not hyp) or gap.conclusion_holds,
                f"m={gap.num_lines}, bound={gap.bound}, hypothesis={hyp}",
            )
        )
    except SizeLimit as e:
        rows.append(CheckRow("plane-solvers", "skip", f"size cap: {e}"))

    if q % 2 == 1:
        rows.append(CheckRow("hyperoval", "skip", "even q required"))
        rows.append(CheckRow("reconstruction", "skip", "even q required"))
        rows.append(CheckRow("saturated-packing", "skip", "even rank required"))
        return rows

    arc = hyperoval(plane)
    rows.append(
        _row(
            "hyperoval-arc",
            len(arc.points) == q + 2 and is_arc(plane, arc.points),
            f"{len(arc.points)} points",
        )
    )
    rows.append(
        _row(
            "hyperoval-dual-packing",
            len(dual) == q + 2 and verify_two_packing(psys, dual),
            f"{len(dual)} lines",
        )
    )

    try:
        ext = extend_with_pendant_points(psys, caps)
        report = _reconstruction(ext, plane, caps)
        for c in report.clauses:
            rows.append(
                _row(
                    f"reconstruction-{c.clause}",
                    c.passed,
                    f"expected {c.expected}, got {c.actual}",
                )
            )
    except SizeLimit as e:
        rows.append(CheckRow("reconstruction", "skip", f"size cap: {e}"))

    # triangular-(q+3) has rank q + 2, even with q
    try:
        rep = check_saturated_packing(triangular_system(q + 3, caps), caps=caps)
        rows.append(
            _row(
                "saturated-packing",
                rep.hypothesis_holds and rep.all_pass,
                f"rank={rep.rank}, nu2={rep.nu2}, tau={rep.tau},"
                f" lines={rep.num_lines}",
            )
        )
    except SizeLimit as e:
        rows.append(CheckRow("saturated-packing", "skip", f"size cap: {e}"))

    return rows
