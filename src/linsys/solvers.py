"""Exact transversal, domination and 2-packing numbers with witnesses.

Each invariant has one solve path. tau and gamma are minimum set covers
and share one kernel and one driver, ``_min_cover``, whose greedy seed
is the kernel's incumbent and the witness unless the kernel improves on
it. tau covers the lines with points; gamma covers the points with
closed neighbourhoods and forces its isolated points into the witness.
Each passes a proved floor, at which the search stops: tau the size of
a greedy set of disjoint lines, gamma the pendant-line floor proved in
``domination_number``. Ties go to the lowest index throughout, so
identical inputs always give identical witnesses.

The seeds come from the lines (``_tau_seed``, ``_gamma_seed``): pick
the point that covers the most uncovered elements, lowest index on
ties, until all are covered, lowering the counts as elements get
covered, in O(incidences) plus an argmax per pick. ``_min_cover`` runs
the kernel's root tests on the seed, before any matrix exists, and
builds the kernel's matrix (``_incidence`` of ``lines_through`` for
tau, ``_closed_neighbourhoods`` for gamma) only when they leave the
search open.

nu2 settles its free lines, those with no point on three or more lines,
before the search: adding one to a packing covers no point three times,
so each is in every maximum 2-packing. The kernel decides the other
lines over only the points on three or more lines, on every system: a
point on at most two lines is never covered three times, and on a
chosen line it is on at most one selectable line, so it adds 0 to the
meet bound (an isolated point is on none). The search over the rest
therefore prunes where the search over the whole incidence does below
the node that takes every free line, and its first maximum packing in
search order plus the free lines is the whole search's first. A system
of free lines only hands the kernel the empty matrix, settled at the
root in 1 node. ``_packing_bounds`` does this set-up from the lines and
the degrees and proves the search's root bound top by the meet, parity
and capacity rules; the kernel's (kept x heavy) incidence is built only
when kept lines exist, and the value path below builds none. The
search stops at top and starts from the size of ``incumbent=``, a
packing that ``verify_two_packing`` must accept, with no change to the
witness, as proved in ``kernels._nu2_search``.

The value path: ``check_packing_gap`` and the reconstruction's tau-nu2
clause read nu2's value alone, through ``_two_packing_value``. When
their verified incumbent has top lines it is a maximum 2-packing, so
nu2 is top and no search runs, as for the dual conic of PG(2,q) at odd
q and the dual hyperoval at even q; otherwise they take the value of
``two_packing_number``.

``verify_transversal``, ``verify_domination`` and ``verify_two_packing``
check a witness with plain set logic and share no code with the search;
an entry that is a bool, not an integer or out of range fails it. No
solver checks its own witness with them (nu2 checks only its incumbent);
the tests and the benchmark do. Checking each witness at runtime is open
(ROADMAP item 7).
"""

import time
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Optional, Tuple

import numpy as np

from .core import LinearSystem, _as_line, _line_arrays, degree_profile, is_intersecting
from .errors import NoLines, NotTwoPacking, SizeLimit
from .field import _is_int
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


def _incidence(rows, width: int) -> np.ndarray:
    """(len(rows), width) uint8 matrix with a 1 at (i, v) for each v in
    rows[i]: the point-line cover from (``lines_through``, m) for tau, the
    kept lines over all points for nu2."""
    out = np.zeros(len(rows) * width, dtype=np.uint8)
    out[[i * width + v for i, r in enumerate(rows) for v in r]] = 1
    return out.reshape(len(rows), width)


def _closed_neighbourhoods(sys: LinearSystem) -> np.ndarray:
    """(n, n) symmetric uint8 matrix: row v marks v and every point
    collinear with it. The lines of each size k set their (k, k) blocks
    in one broadcast assignment, which builds no index array beyond the
    lines themselves."""
    cover = np.eye(sys.num_points, dtype=np.uint8)
    for rows in _line_arrays(sys.line_tuples):
        cover[rows[:, :, None], rows[:, None, :]] = 1
    return cover


# the kernels' input when the solve is settled before the search: an
# empty matrix and an empty universe
_EMPTY = np.zeros((0, 0), dtype=np.uint8)
_EMPTY_ROW = np.zeros(0, dtype=np.uint8)


def _tau_seed(sys: LinearSystem) -> Tuple[Tuple[int, ...], int]:
    """(seed, maxcov): tau's greedy seed, ascending, and the most lines
    through one point. count[v] is the number of uncovered lines through
    v; a pick covers its uncovered lines and lowers the count of each of
    their points by one."""
    count = sys.degrees.tolist()
    maxcov = max(count)
    uncovered = bytearray(b"\x01") * sys.num_lines
    left = sys.num_lines
    chosen = []
    while left:
        # index takes the first of equal counts: the lowest index
        v = count.index(max(count))
        chosen.append(v)
        for l in sys.lines_through[v]:
            if uncovered[l]:
                uncovered[l] = 0
                left -= 1
                for w in sys.line_tuples[l]:
                    count[w] -= 1
    return tuple(sorted(chosen)), maxcov


def _gamma_seed(sys: LinearSystem) -> Tuple[Tuple[int, ...], int]:
    """(seed, maxcov): gamma's greedy seed, ascending, and the largest
    closed neighbourhood. With U the uncovered points, count[v] is
    |N[v] & U|, which is sum_{l through v} |l & U| - (deg v - 1)[v in U],
    as the lines through v meet only at v. A pick covers U', its
    neighbours in U; each line l loses |l & U'| uncovered points and each
    point of l as many from its count, and each point of U' then gets
    deg - 1 back."""
    lines, through = sys.line_tuples, sys.lines_through
    deg = sys.degrees.tolist()
    uncovered = bytearray(d > 0 for d in deg)
    # at the start every point of a line is in U: count[v] is |N[v]|, 1
    # plus |l| - 1 for each line l through v, or 0 when v is isolated
    count = [1 if d else 0 for d in deg]
    for l in lines:
        for w in l:
            count[w] += len(l) - 1
    maxcov = max(count)
    left = len(sys.support)
    chosen = []
    while left:
        # index takes the first of equal counts: the lowest index
        v = count.index(max(count))
        chosen.append(v)
        new = []
        for l in through[v]:
            for u in lines[l]:
                if uncovered[u]:
                    uncovered[u] = 0
                    new.append(u)
        left -= len(new)
        if left:
            for l, lost in Counter(chain.from_iterable(map(through.__getitem__, new))).items():
                for w in lines[l]:
                    count[w] -= lost
            for u in new:
                count[u] += deg[u] - 1
    return tuple(sorted(chosen)), maxcov


def greedy_transversal(sys: LinearSystem) -> Tuple[int, ...]:
    """Pick the point hitting the most uncovered lines (lowest index on
    ties) until every line is hit."""
    if not sys.line_tuples:
        raise NoLines("a transversal needs at least one line")
    return _tau_seed(sys)[0]


def _min_cover(kind, search, greedy, rem, floor, build, forced, t0) -> SolveResult:
    """The least number of candidates that cover the rem elements, plus
    the forced points. greedy is (seed, maxcov): the greedy cover, the
    search's incumbent and the witness unless the search improves on it,
    and the most elements one candidate covers. floor() is a lower bound
    that the search stops at; build() gives the kernel's (covers,
    universe).

    The kernel's root tests run here first: a seed s is minimum when
    s <= 1, s <= floor, or rem > (s - 1) * maxcov, as s - 1 candidates
    cover at most that many elements. A solve they settle builds no
    matrix and hands the kernel the empty one with floor s, so it
    returns at entry in 1 node."""
    seed, maxcov = greedy
    s = len(seed)
    low = s if s <= 1 or rem > (s - 1) * maxcov else floor()
    covers, universe = build() if s > low else (_EMPTY, _EMPTY_ROW)
    best, improved, wit, nodes = search(covers, universe, s, low)
    inner = wit[: int(best)].tolist() if improved else list(seed)
    witness = tuple(sorted(forced + inner))
    dt = time.perf_counter() - t0
    return SolveResult(kind, len(forced) + int(best), witness, int(nodes), dt)


def _disjoint_lines(sys: LinearSystem) -> int:
    """The size of a greedy set of pairwise disjoint lines, a floor for
    tau: disjoint lines need distinct transversal points. Lines are taken
    shortest first, lowest index on ties, each one that misses the lines
    taken so far."""
    held = set()
    count = 0
    for l in sorted(sys.line_tuples, key=len):
        if held.isdisjoint(l):
            held.update(l)
            count += 1
    return count


def transversal_number(
    sys: LinearSystem, caps: Caps = DEFAULT_CAPS, kernels: KernelSet = None
) -> SolveResult:
    """tau, with the disjoint-line floor."""
    if not sys.line_tuples:
        raise NoLines("a transversal needs at least one line")
    _check_caps(sys, caps)
    ks = kernels if kernels is not None else ACTIVE
    t0 = time.perf_counter()
    # points are the candidates and lines the elements to cover
    m = sys.num_lines
    return _min_cover(
        KIND_TRANSVERSAL, ks.tau_search, _tau_seed(sys), m,
        lambda: _disjoint_lines(sys),
        lambda: (_incidence(sys.lines_through, m), np.ones(m, dtype=np.uint8)), [], t0,
    )


def _pendant_line_floor(sys: LinearSystem) -> int:
    """ceil(|L1| / d), with L1 the lines that hold a point of degree 1 and
    d the most lines of L1 through one point: a floor for gamma less the
    isolated points (see ``domination_number``)."""
    ones = set(np.flatnonzero(sys.degrees == 1).tolist())
    if not ones:
        return 0
    through = [0] * sys.num_points
    count = 0
    for l in sys.line_tuples:
        if not ones.isdisjoint(l):
            count += 1
            for v in l:
                through[v] += 1
    return -(-count // max(through))


def domination_number(
    sys: LinearSystem, caps: Caps = DEFAULT_CAPS, kernels: KernelSet = None
) -> SolveResult:
    """gamma, with the isolated points forced and the pendant-line floor.
    A point p of degree 1 on line l has N[p] = l, so every dominating set
    meets every line of L1, the lines that hold such a point. A point is
    on at most d lines of L1, so a dominating set of the support has at
    least ceil(|L1| / d) points. On a pendant plane ext-PG(2,q) that is
    ceil((q^2 + q + 1) / (q + 1)) = q + 1, the greedy seed."""
    _check_caps(sys, caps)
    ks = kernels if kernels is not None else ACTIVE
    t0 = time.perf_counter()
    # isolated points dominate only themselves
    forced = [v for v in range(sys.num_points) if v not in sys.support]
    if not sys.support:
        dt = time.perf_counter() - t0
        return SolveResult(KIND_DOMINATION, len(forced), tuple(forced), 0, dt)
    return _min_cover(
        KIND_DOMINATION, ks.gamma_search, _gamma_seed(sys), len(sys.support),
        lambda: _pendant_line_floor(sys),
        lambda: (_closed_neighbourhoods(sys), (sys.degrees > 0).astype(np.uint8)),
        forced, t0,
    )


def _capacity(weights, h: int) -> int:
    """The most lines whose weights, smallest first, sum to at most 2h."""
    return int(np.searchsorted(np.cumsum(np.sort(weights)), 2 * h, "right"))


def _checked_packing(sys: LinearSystem, incumbent) -> Tuple[int, ...]:
    """The incumbent's line indices, once they are known to be distinct
    lines of sys that form a 2-packing."""
    idx = tuple(_as_line(i, sys.num_lines, "incumbent") for i in incumbent)
    if not verify_two_packing(sys, idx):
        raise NotTwoPacking(
            "incumbent: a line is repeated or a point is on three of its lines"
        )
    return idx


def _marked(lines, marks: np.ndarray):
    """The number of marked points on each line, lazily."""
    return map(sum, map(map, repeat(marks.tolist().__getitem__), lines))


def _packing_bounds(sys: LinearSystem):
    """The set-up of the nu2 search: (top, free, kept, heavy). top is an
    upper bound on nu2; free lists the free lines, those with no point on
    three or more lines, which are in every maximum 2-packing; kept
    indexes the other lines and heavy marks the h points on three or more
    lines, over which the kernel decides them. All four come from the
    lines and the degrees; no incidence matrix is built.

    Let r be the largest number of points of degree >= 2 on a line. Two
    rules bound nu2 on an intersecting system with m lines (any two lines
    meet in exactly one point); both use that lines meet only at points
    of degree >= 2, so pendant points do not count:
    - meet rule, nu2 <= r + 1: the other lines of a 2-packing R meet a
      line l of R at such points of l, and at distinct ones, since a
      point of l on two of them would be covered three times.
    - parity rule, nu2 <= r when r is even and m >= r + 2 (the dual of
      Bose 1947 and Qvist 1952: a plane of odd order has no (q+2)-arc):
      if |R| = r + 1, the meet rule holds with equality for each l in R,
      so each point of degree >= 2 on a line of R is on exactly two
      lines of R. As m > |R|, some line M is not in R; M meets each line
      of R once, at such a point, so |R| is the sum over p in M of the
      number of lines of R through p, each 0 or 2. Then |R| is even,
      while r + 1 is odd.
    A third rule holds on any system. Call a line's weight the number of
    its points on three or more lines, so the free lines, f of them, are
    those of weight 0.
    - capacity rule, nu2 <= f + t, with t the most lines whose weights,
      smallest first, sum to at most 2h: a packing covers each of the h
      points at most twice, so the weights of its lines that are not free
      sum to at most 2h.
    top is the least of m and the rules that apply, so a verified
    2-packing of top lines is maximum."""
    deg = sys.degrees
    m = sys.num_lines
    # the meet and parity rules, with r the most points of degree >= 2 on
    # one line
    r = max(_marked(sys.line_tuples, deg >= 2))
    top = m
    if is_intersecting(sys):
        top = r if r % 2 == 0 and m >= r + 2 else min(m, r + 1)

    heavy = deg >= 3
    h = int(heavy.sum())
    weights = list(_marked(sys.line_tuples, heavy))
    free = [i for i, w in enumerate(weights) if not w]
    kept = [i for i, w in enumerate(weights) if w]
    weights = [w for w in weights if w]
    f = len(free)
    # the capacity rule; with every weight at the largest one it is at
    # least that cheap count, so only a count below top needs the sort
    if f + min(m - f, 2 * h // max(weights, default=1)) < top:
        top = min(top, f + _capacity(weights, h))
    return top, free, kept, heavy


def two_packing_number(
    sys: LinearSystem,
    caps: Caps = DEFAULT_CAPS,
    kernels: KernelSet = None,
    incumbent: Optional[Iterable[int]] = None,
) -> SolveResult:
    """nu2 with the first maximum 2-packing in search order as witness.
    incumbent, a 2-packing of sys that is checked first, only speeds the
    search up: the value and witness are the same without it."""
    if not sys.line_tuples:
        raise NoLines("a 2-packing needs at least one line")
    _check_caps(sys, caps)
    if incumbent is not None:
        incumbent = _checked_packing(sys, incumbent)
    ks = kernels if kernels is not None else ACTIVE
    t0 = time.perf_counter()

    top, free, kept, heavy = _packing_bounds(sys)
    f = len(free)
    best0 = max(len(incumbent) - f - 1, 0) if incumbent is not None else 0
    # the kept lines over the heavy points; a system of free lines only
    # has neither, and hands the kernel the empty matrix
    lines = _EMPTY
    if kept:
        lines = _incidence([sys.line_tuples[i] for i in kept], sys.num_points)[:, heavy]
    best, wit, nodes = ks.nu2_search(lines, top - f, best0)
    witness = tuple(sorted(free + [kept[i] for i in wit[: int(best)].tolist()]))
    dt = time.perf_counter() - t0
    return SolveResult(
        KIND_TWO_PACKING, f + int(best), witness, int(nodes), dt
    )


def _two_packing_value(
    sys: LinearSystem, caps: Caps, incumbent: Optional[Iterable[int]]
) -> int:
    """nu2 alone. A verified incumbent of top lines (``_packing_bounds``)
    is a maximum 2-packing, so no search runs; otherwise the value of
    ``two_packing_number``."""
    if incumbent is not None and sys.line_tuples:
        _check_caps(sys, caps)
        incumbent = _checked_packing(sys, incumbent)
        if len(incumbent) == _packing_bounds(sys)[0]:
            return len(incumbent)
    return two_packing_number(sys, caps=caps, incumbent=incumbent).value


def _indices(values, bound: int) -> bool:
    """Whether every value is an int (not a bool) in 0..bound-1."""
    return all(_is_int(v) and 0 <= v < bound for v in values)


def verify_transversal(sys: LinearSystem, points: Iterable[int]) -> bool:
    pts = list(points)
    if not _indices(pts, sys.num_points):
        return False
    chosen = set(pts)
    return all(not chosen.isdisjoint(l) for l in sys.line_tuples)


def verify_domination(sys: LinearSystem, points: Iterable[int]) -> bool:
    pts = list(points)
    if not _indices(pts, sys.num_points):
        return False
    chosen = set(pts)
    covered = chosen.union(*(l for l in sys.line_tuples if not chosen.isdisjoint(l)))
    return covered == set(range(sys.num_points))


def verify_two_packing(sys: LinearSystem, line_indices: Iterable[int]) -> bool:
    idx = list(line_indices)
    if not _indices(idx, sys.num_lines) or len(idx) != len(set(idx)):
        return False
    counts = {}
    for i in idx:
        for v in sys.line_tuples[i]:
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
    sys: LinearSystem,
    caps: Caps = DEFAULT_CAPS,
    incumbent: Optional[Iterable[int]] = None,
) -> PackingGapReport:
    """Evaluate the degree-sum condition relating line count to the
    2-packing number, and whether tau stays below nu2. incumbent, a
    2-packing of sys, settles nu2 when it reaches the proved bound and
    starts the nu2 search otherwise."""
    profile = degree_profile(sys)
    tau = transversal_number(sys, caps=caps).value
    nu2 = _two_packing_value(sys, caps, incumbent)
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
