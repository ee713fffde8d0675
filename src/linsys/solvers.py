"""Exact transversal, domination and 2-packing numbers with witnesses.

tau and gamma are minimum set covers and share one kernel: tau covers the
lines with points, through a uint8 point-line incidence matrix and its
transpose; gamma covers the points of the support with closed
neighbourhoods, through a dense symmetric uint8 matrix that is its own
transpose. nu2 runs its own kernel over the line-point incidence and its
transpose, and stops at a root bound: r + 1 on an intersecting system
of rank r, and r when r is also even and there are at least r + 2 lines
(both proved in ``kernels._nu2_search``). Each solver prepares its
kernel's arrays and runs the search, from a greedy incumbent for tau and
gamma and the empty packing for nu2.
Tie-breaking is by lowest index throughout, so identical inputs always
give identical witnesses. Witnesses are re-verified by independent
set-logic checkers that share no code with the search.
"""

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .core import LinearSystem, degree_profile, is_intersecting
from .errors import NoLines, SizeLimit
from .kernels import ACTIVE, KernelSet
from .limits import DEFAULT_CAPS, Caps

KIND_TRANSVERSAL = "transversal"
KIND_DOMINATION = "domination"
KIND_TWO_PACKING = "two_packing"


@dataclass(frozen=True)
class SolveResult:
    kind: str
    value: int
    witness: Tuple[int, ...]
    nodes_explored: int
    seconds: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "witness": list(self.witness),
            "nodes": self.nodes_explored,
            "ms": round(self.seconds * 1000.0, 3),
        }


def _check_caps(sys: LinearSystem, caps: Caps) -> None:
    if sys.num_points > caps.solver_points:
        raise SizeLimit(
            f"{sys.num_points} points exceeds solver cap {caps.solver_points}"
        )
    if sys.num_lines > caps.solver_lines:
        raise SizeLimit(
            f"{sys.num_lines} lines exceeds solver cap {caps.solver_lines}"
        )


def _padded_lines(sys: LinearSystem) -> Tuple[np.ndarray, np.ndarray]:
    m = sys.num_lines
    rmax = max(len(l) for l in sys.line_tuples)
    pts = np.full((m, rmax), -1, dtype=np.int32)
    sizes = np.zeros(m, dtype=np.int32)
    for i, l in enumerate(sys.line_tuples):
        pts[i, : len(l)] = l
        sizes[i] = len(l)
    return pts, sizes


def _incidence(lists: np.ndarray, sizes: np.ndarray, width: int) -> np.ndarray:
    """(rows, width) uint8 matrix with a 1 at each entry of the -1 padded
    row lists."""
    out = np.zeros((lists.shape[0], width), dtype=np.uint8)
    # the unpadded entries of lists, row after row
    out[np.repeat(np.arange(lists.shape[0]), sizes), lists[lists >= 0]] = 1
    return out


def greedy_transversal(sys: LinearSystem) -> Tuple[int, ...]:
    """Pick the point hitting the most uncovered lines (lowest index on
    ties) until every line is hit."""
    if not sys.lines:
        raise NoLines("a transversal needs at least one line")
    uncovered = set(range(sys.num_lines))
    chosen = []
    while uncovered:
        best, best_hits = -1, 0
        for v in range(sys.num_points):
            hits = sum(1 for i in sys.lines_through[v] if i in uncovered)
            if hits > best_hits:
                best, best_hits = v, hits
        chosen.append(best)
        uncovered.difference_update(sys.lines_through[best])
    return tuple(sorted(chosen))


def transversal_number(
    sys: LinearSystem, caps: Caps = DEFAULT_CAPS, kernels: KernelSet = None
) -> SolveResult:
    if not sys.lines:
        raise NoLines("a transversal needs at least one line")
    _check_caps(sys, caps)
    ks = kernels if kernels is not None else ACTIVE
    t0 = time.perf_counter()

    seed = greedy_transversal(sys)
    # points are the candidates and lines the elements to cover
    line_points, line_sizes = _padded_lines(sys)
    line_cover = _incidence(line_points, line_sizes, sys.num_points)
    best, improved, wit, nodes = ks.tau_search(
        np.ascontiguousarray(line_cover.T),
        line_cover,
        line_points,
        line_sizes,
        np.ones(sys.num_lines, dtype=np.uint8),
        len(seed),
    )
    witness = (
        tuple(sorted(int(v) for v in wit[: int(best)])) if improved else seed
    )
    dt = time.perf_counter() - t0
    return SolveResult(KIND_TRANSVERSAL, int(best), witness, int(nodes), dt)


def _greedy_domination(hoods: list, support: list) -> list:
    """Cover the support greedily by closed neighborhoods: most new points
    covered first, lowest index on ties. support is sorted."""
    left = set(support)
    chosen = []
    while left:
        best, best_new = -1, 0
        for v in support:
            new = len(hoods[v] & left)
            if new > best_new:
                best, best_new = v, new
        chosen.append(best)
        left -= hoods[best]
    return chosen


def domination_number(
    sys: LinearSystem, caps: Caps = DEFAULT_CAPS, kernels: KernelSet = None
) -> SolveResult:
    _check_caps(sys, caps)
    ks = kernels if kernels is not None else ACTIVE
    t0 = time.perf_counter()

    n = sys.num_points
    support = sorted(sys.support)
    forced = [v for v in range(n) if v not in sys.support]
    if not support:
        dt = time.perf_counter() - t0
        return SolveResult(KIND_DOMINATION, len(forced), tuple(forced), 0, dt)

    hoods = [{v} for v in range(n)]
    for l in sys.lines:
        for v in l:
            hoods[v] |= l
    cmax = max(len(h) for h in hoods)
    cover_lists = np.array(
        [sorted(h) + [-1] * (cmax - len(h)) for h in hoods], dtype=np.int32
    )
    cover_sizes = np.array([len(h) for h in hoods], dtype=np.int32)
    cover = _incidence(cover_lists, cover_sizes, n)
    universe = np.zeros(n, dtype=np.uint8)
    universe[support] = 1

    seed = _greedy_domination(hoods, support)
    # cover is symmetric, so it is its own transpose
    best, improved, wit, nodes = ks.gamma_search(
        cover, cover, cover_lists, cover_sizes, universe, len(seed)
    )
    inner = (
        [int(v) for v in wit[: int(best)]] if improved else list(seed)
    )
    witness = tuple(sorted(forced + inner))
    dt = time.perf_counter() - t0
    return SolveResult(
        KIND_DOMINATION, len(forced) + int(best), witness, int(nodes), dt
    )


def two_packing_number(
    sys: LinearSystem, caps: Caps = DEFAULT_CAPS, kernels: KernelSet = None
) -> SolveResult:
    if not sys.lines:
        raise NoLines("a 2-packing needs at least one line")
    _check_caps(sys, caps)
    ks = kernels if kernels is not None else ACTIVE
    t0 = time.perf_counter()

    line_points, line_sizes = _padded_lines(sys)
    incidence = _incidence(line_points, line_sizes, sys.num_points)
    # the meet and parity rules of the kernel's root bound
    m = sys.num_lines
    r = int(line_sizes.max())
    top = m
    if is_intersecting(sys):
        top = r if r % 2 == 0 and m >= r + 2 else min(m, r + 1)
    best, wit, nodes = ks.nu2_search(
        incidence, np.ascontiguousarray(incidence.T), top
    )
    witness = tuple(int(i) for i in wit[: int(best)])
    dt = time.perf_counter() - t0
    return SolveResult(KIND_TWO_PACKING, int(best), witness, int(nodes), dt)


def verify_transversal(sys: LinearSystem, points: Iterable[int]) -> bool:
    pts = set(points)
    if not all(0 <= v < sys.num_points for v in pts):
        return False
    return all(pts & l for l in sys.lines)


def verify_domination(sys: LinearSystem, points: Iterable[int]) -> bool:
    pts = set(points)
    if not all(0 <= v < sys.num_points for v in pts):
        return False
    covered = set()
    for v in pts:
        covered.add(v)
        for l in sys.lines:
            if v in l:
                covered |= l
    return covered == set(range(sys.num_points))


def verify_two_packing(sys: LinearSystem, line_indices: Iterable[int]) -> bool:
    idx = list(line_indices)
    if len(idx) != len(set(idx)):
        return False
    if not all(0 <= i < sys.num_lines for i in idx):
        return False
    counts = {}
    for i in idx:
        for v in sys.lines[i]:
            counts[v] = counts.get(v, 0) + 1
    return all(c <= 2 for c in counts.values())


@dataclass(frozen=True)
class PackingGapReport:
    """Checks the sufficient condition m <= deg1 + deg2 + nu2 - 3 for the
    bound tau <= nu2 - 1, where deg1, deg2 are the two largest point
    degrees. conclusion_holds records tau <= nu2 - 1 unconditionally."""

    num_lines: int
    max_degree: int
    second_max_degree: int
    tau: int
    nu2: int
    bound: int
    hypothesis_holds: bool
    conclusion_holds: bool

    def to_dict(self) -> dict:
        return {
            "num_lines": self.num_lines,
            "max_degree": self.max_degree,
            "second_max_degree": self.second_max_degree,
            "tau": self.tau,
            "nu2": self.nu2,
            "bound": self.bound,
            "hypothesis_holds": self.hypothesis_holds,
            "conclusion_holds": self.conclusion_holds,
        }


def check_packing_gap(
    sys: LinearSystem, caps: Caps = DEFAULT_CAPS
) -> PackingGapReport:
    """Evaluate the degree-sum condition relating line count to the
    2-packing number, and whether tau stays below nu2."""
    profile = degree_profile(sys)
    tau = transversal_number(sys, caps=caps).value
    nu2 = two_packing_number(sys, caps=caps).value
    bound = profile.max_degree + profile.second_max_degree + nu2 - 3
    return PackingGapReport(
        num_lines=sys.num_lines,
        max_degree=profile.max_degree,
        second_max_degree=profile.second_max_degree,
        tau=tau,
        nu2=nu2,
        bound=bound,
        hypothesis_holds=sys.num_lines <= bound,
        conclusion_holds=tau <= nu2 - 1,
    )
