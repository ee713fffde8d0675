"""Projective planes over small finite fields.

PG(2,q) is built from normalized homogeneous triples (leftmost nonzero
coordinate 1) listed lexicographically; the same list indexes both points
and lines, and point x lies on line a iff a0*x0 + a1*x1 + a2*x2 = 0 in
GF(q). That relation is symmetric, so point i lies on line j exactly when
point j lies on line i: the labelling is self-dual (the standard polarity
is the identity on indices), lines_through equals line_tuples, and a set
of points names its dual set of lines by the same indices. Everything
downstream (conics, hyperovals, their duals) works on these indices.
"""

import math
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Tuple

import numpy as np

from .core import LinearSystem, _check_pairs, _check_points, _Linear, is_intersecting
from .errors import NotPrimePower, OddOrder, SizeLimit
from .field import FieldTable, _decimal, make_field
from .limits import DEFAULT_CAPS, Caps

Triple = Tuple[int, int, int]

# (line, point) cells per chunk of the plane's incidence test
_PLANE_CELLS = 1 << 20


@dataclass(frozen=True, eq=False)
class PlaneModel:
    """A projective plane of order q with its coordinatization."""

    system: LinearSystem
    point_coords: Tuple[Triple, ...]
    order: int
    field: FieldTable


@dataclass(frozen=True)
class Arc:
    points: FrozenSet[int]


@dataclass(frozen=True)
class PlaneReport:
    """Either the inferred order or the first violated plane axiom.

    Axioms are checked in a fixed sequence: point-pairs (two points on
    exactly one common line), line-pairs (two lines meet), general-position
    (four points, no three collinear). By the classical theorem on finite
    projective planes these three imply the other two: every line and
    every point has q + 1 incidences, and n = m = q^2+q+1.
    """

    is_plane: bool
    order: Optional[int]
    failed_axiom: Optional[str]
    detail: Optional[str]


def _prime_power(q: int) -> Tuple[int, int]:
    if q < 2:
        raise NotPrimePower(f"{_decimal(q)} is not a prime power")
    # the least divisor above 1 is prime; none up to sqrt(q) makes q prime
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    k, rest = 0, q
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise NotPrimePower(f"{_decimal(q)} is not a prime power")
    return p, k


def normalized_triples(q: int) -> Tuple[Triple, ...]:
    """All projective triples with leftmost nonzero coordinate 1, in
    lexicographic order. There are q*q + q + 1 of them."""
    out = [(0, 0, 1)]
    out.extend((0, 1, x) for x in range(q))
    out.extend((1, x, y) for x in range(q) for y in range(q))
    return tuple(sorted(out))


def projective_plane(q: int, caps: Caps = DEFAULT_CAPS) -> PlaneModel:
    """PG(2,q) for a prime power q within the configured order cap.

    The result is linear by construction, so the constructor takes its
    lines without its tests (``_Linear``): two distinct lines a and b
    meet exactly in the points x with a.x = b.x = 0, and two independent
    linear equations in three homogeneous unknowns have a one-dimensional
    solution space, one projective point (Hirschfeld, Projective
    Geometries over Finite Fields, ch. 2). The q^2 + q + 1 points and the
    C(q + 1, 2) point pairs on each line meet the caps before any line is
    built, with the messages that ``LinearSystem`` gives. The incidence
    test a.x = 0 runs on a chunk of lines against every point in one
    broadcast, a chunk holding about ``_PLANE_CELLS`` (line, point)
    cells."""
    if q > caps.plane_order:
        raise SizeLimit(
            f"plane order {_decimal(q)} exceeds cap {caps.plane_order}"
        )
    p, k = _prime_power(q)
    F = make_field(p, k, caps=caps)
    n = q * q + q + 1
    _check_points(n, caps)
    _check_pairs(n * (q * (q + 1) // 2), caps)

    coords = normalized_triples(q)
    C = np.array(coords, dtype=np.intp)
    # a.x = 0 iff a0*x0 + a1*x1 = -(a2*x2). Over all points x, row c of
    # first, second and minus holds q*c*x0 (a row offset in the flat
    # addition table), c*x1 and -(c*x2), so a chunk of lines reads whole
    # rows, and one lookup in the flat table adds the first two terms
    add = F.add_table
    first, second, third = (np.take(F.mul_table, x, axis=1).astype(np.int32) for x in C.T)
    first *= q
    minus = np.nonzero(add == 0)[1].astype(add.dtype)[third]

    # one int object per point, shared by every line through it
    points = np.array(range(n), dtype=object)
    lines = []
    step = max(1, _PLANE_CELLS // n)
    for at in range(0, n, step):
        a0, a1, a2 = C[at : at + step].T
        on = add.ravel()[first[a0] + second[a1]] == minus[a2]
        # each line holds q + 1 points, listed row by row in ascending order
        rows = np.nonzero(on)[1].reshape(-1, q + 1)
        lines.extend(map(frozenset, points[rows].tolist()))
    system = LinearSystem(n, _Linear(lines), name=f"PG(2,{q})")
    return PlaneModel(
        system=system,
        point_coords=coords,
        order=q,
        field=F,
    )


def _least_apart(members, groups, size: int) -> Tuple[int, int]:
    """The least pair a < b sharing no group, when two items share at most
    one: a meets sum(|g| - 1) others, so a is the least item short of size - 1."""
    sizes = list(map(len, groups))
    a = next(a for a, gs in enumerate(members) if sum(sizes[g] for g in gs) - len(gs) < size - 1)
    near = set().union(*(groups[g] for g in members[a]))
    return a, next(b for b in range(a + 1, size) if b not in near)


def verify_plane_axioms(sys: LinearSystem) -> PlaneReport:
    """Check the three projective-plane axioms on a linear system.
    Point-pairs holds by the pair count: lines share at most one point,
    so the lines hold sum C(|l|, 2) distinct point pairs, and that
    reaches C(n, 2) exactly when every pair is joined. Line-pairs holds
    by the degree count: lines meet at most once, so the sum over points
    of C(deg, 2) counts the meeting line pairs, and it reaches C(m, 2)
    exactly when every pair meets. General position follows from the
    size of the longest line, and uniformity and the counts from the
    three. A failing count names its least unjoined point pair or least
    disjoint line pair by ``_least_apart``, in O(incidences + n + m)."""
    n = sys.num_points

    # two distinct points on exactly one common line; linearity already
    # rules out two, so only unjoined pairs can occur
    joined = sum(k * (k - 1) // 2 for k in map(len, sys.line_tuples))
    if joined != n * (n - 1) // 2:
        u, v = _least_apart(sys.lines_through, sys.line_tuples, n)
        return PlaneReport(
            False, None, "point-pairs", f"points {u} and {v} lie on no common line"
        )

    if not is_intersecting(sys):
        i, j = _least_apart(sys.line_tuples, sys.lines_through, sys.num_lines)
        return PlaneReport(
            False, None, "line-pairs", f"lines {i} and {j} are disjoint"
        )

    # Once points are joined and lines meet, four points in general
    # position exist iff n >= 4 and the longest line L, with r points,
    # misses two points x and y. Then line xy meets L in one point z, and
    # two more points of L with x and y leave no three collinear; r >= 3,
    # since two disjoint 2-point lines would break line-pairs. Conversely,
    # a line on all points but one puts three of any four on it. Such a
    # system is a projective plane of order q = r - 1: every line has
    # q + 1 points, every point lies on q + 1 lines and n = m = q^2+q+1
    # (Hirschfeld, Projective Geometries over Finite Fields, ch. 2).
    r = max(map(len, sys.lines), default=0)
    if n < 4 or r > n - 2:
        return PlaneReport(
            False,
            None,
            "general-position",
            "no four points in general position",
        )
    return PlaneReport(True, r - 1, None, None)


def conic_points(plane: PlaneModel) -> FrozenSet[int]:
    """The q+1 points satisfying X1^2 = X0*X2: (1, t, t^2) plus (0,0,1)."""
    F = plane.field
    index = {c: i for i, c in enumerate(plane.point_coords)}
    pts = {index[(0, 0, 1)]}
    for t in range(plane.order):
        pts.add(index[(1, t, F.mul(t, t))])
    return frozenset(pts)


def hyperoval(plane: PlaneModel) -> Arc:
    """Conic plus nucleus (0,1,0): a (q+2)-arc, available for even q only."""
    if plane.order % 2 == 1:
        raise OddOrder(
            f"no hyperoval in a plane of odd order {plane.order}"
        )
    index = {c: i for i, c in enumerate(plane.point_coords)}
    pts = set(conic_points(plane))
    pts.add(index[(0, 1, 0)])
    return Arc(points=frozenset(pts))


def is_arc(plane: PlaneModel, points: Iterable[int]) -> bool:
    """True when no line of the plane meets the set in three points."""
    pts = set(points)
    return all(len(pts & l) <= 2 for l in plane.system.lines)


def dual_conic_lines(plane: PlaneModel) -> FrozenSet[int]:
    """The dual of the conic, a (q+1)-arc in every plane (Segre, Canad. J.
    Math. 1955): a 2-packing of q+1 lines, maximum for odd q. Point x is
    on line j iff point j is on line x, so the lines with the conic's
    point indices meet at x as often as line x meets the conic: at most
    twice, the conic being an arc."""
    return conic_points(plane)


def dual_hyperoval_lines(plane: PlaneModel) -> FrozenSet[int]:
    """The dual of the hyperoval: a 2-packing of maximum size q+2, for
    even q only; the lines with the hyperoval's point indices, by the
    argument of ``dual_conic_lines``."""
    return hyperoval(plane).points
