"""Exact transversal, domination and 2-packing numbers with witnesses.

tau and gamma are minimum set covers and share one kernel; nu2 runs its
own. The solvers build all kernel input one way, as uint8 0/1 matrices:
the line-point incidence (``_incidence``) for tau and nu2, the symmetric
closed-neighbourhood matrix (``_closed_neighbourhoods``) for gamma. The
cover kernel reads each element's candidates from the matrix's columns,
and ``_greedy_cover`` gives tau and gamma their incumbent. nu2 stops at
the root bound proved in ``kernels._nu2_search``. Tie-breaking is by
lowest index throughout, so identical inputs always give identical
witnesses. ``verify_transversal``, ``verify_domination`` and
``verify_two_packing`` check a witness with plain set logic and share no
code with the search. No solver calls them; the tests and the benchmark
do. Checking each witness at runtime is open (ROADMAP item 8).
"""

import time
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Tuple

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


def _incidence(sys: LinearSystem) -> np.ndarray:
    """(m, n) uint8 line-point incidence matrix."""
    n = sys.num_points
    out = np.zeros(sys.num_lines * n, dtype=np.uint8)
    out[[i * n + v for i, l in enumerate(sys.line_tuples) for v in l]] = 1
    return out.reshape(-1, n)


def _closed_neighbourhoods(sys: LinearSystem) -> np.ndarray:
    """(n, n) symmetric uint8 matrix: row v marks v and every point
    collinear with it."""
    cover = np.eye(sys.num_points, dtype=np.uint8)
    pairs = np.fromiter(chain.from_iterable(sys.pair_line), dtype=np.intp)
    u, v = pairs.reshape(-1, 2).T
    cover[u, v] = 1
    cover[v, u] = 1
    return cover


def _greedy_cover(covers: np.ndarray, universe: np.ndarray) -> Tuple[int, ...]:
    """Pick the candidate (row of covers) covering the most uncovered
    elements of the universe, lowest index on ties, until all are covered.
    Returns the picks in ascending order."""
    # the columns of the elements still uncovered
    left = covers[:, universe == 1]
    chosen = []
    while left.shape[1]:
        # argmax takes the first of equal counts: the lowest index
        v = int(left.sum(axis=1).argmax())
        chosen.append(v)
        left = left[:, left[v] == 0]
    return tuple(sorted(chosen))


def greedy_transversal(sys: LinearSystem) -> Tuple[int, ...]:
    """Pick the point hitting the most uncovered lines (lowest index on
    ties) until every line is hit."""
    if not sys.lines:
        raise NoLines("a transversal needs at least one line")
    covers = np.ascontiguousarray(_incidence(sys).T)
    return _greedy_cover(covers, np.ones(sys.num_lines, dtype=np.uint8))


def transversal_number(
    sys: LinearSystem, caps: Caps = DEFAULT_CAPS, kernels: KernelSet = None
) -> SolveResult:
    if not sys.lines:
        raise NoLines("a transversal needs at least one line")
    _check_caps(sys, caps)
    ks = kernels if kernels is not None else ACTIVE
    t0 = time.perf_counter()

    # points are the candidates and lines the elements to cover
    point_cover = np.ascontiguousarray(_incidence(sys).T)
    universe = np.ones(sys.num_lines, dtype=np.uint8)
    seed = _greedy_cover(point_cover, universe)
    best, improved, wit, nodes = ks.tau_search(point_cover, universe, len(seed))
    witness = (
        tuple(sorted(int(v) for v in wit[: int(best)])) if improved else seed
    )
    dt = time.perf_counter() - t0
    return SolveResult(KIND_TRANSVERSAL, int(best), witness, int(nodes), dt)


def domination_number(
    sys: LinearSystem, caps: Caps = DEFAULT_CAPS, kernels: KernelSet = None
) -> SolveResult:
    _check_caps(sys, caps)
    ks = kernels if kernels is not None else ACTIVE
    t0 = time.perf_counter()

    n = sys.num_points
    forced = [v for v in range(n) if v not in sys.support]
    if not sys.support:
        dt = time.perf_counter() - t0
        return SolveResult(KIND_DOMINATION, len(forced), tuple(forced), 0, dt)

    cover = _closed_neighbourhoods(sys)
    universe = (sys.degrees > 0).astype(np.uint8)

    seed = _greedy_cover(cover, universe)
    best, improved, wit, nodes = ks.gamma_search(cover, universe, len(seed))
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

    incidence = _incidence(sys)
    # the meet and parity rules of the kernel's root bound, with r the most
    # points of degree >= 2 on one line
    m = sys.num_lines
    r = int((incidence & (sys.degrees >= 2)).sum(axis=1).max())
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
