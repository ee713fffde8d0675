"""Projective planes over small finite fields.

PG(2,q) is built from normalized homogeneous triples (leftmost nonzero
coordinate 1) listed lexicographically; the same list indexes both points
and lines, and point x lies on line a iff a0*x0 + a1*x1 + a2*x2 = 0 in
GF(q). Everything downstream (conics, hyperovals, duals) works on plane
point/line indices.
"""

import math
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Tuple

import numpy as np

from .core import LinearSystem, is_intersecting
from .errors import NotPrimePower, OddOrder, SizeLimit
from .field import FieldTable, _decimal, make_field
from .limits import DEFAULT_CAPS, Caps

Triple = Tuple[int, int, int]


@dataclass(frozen=True, eq=False)
class PlaneModel:
    """A projective plane of order q with its coordinatization."""

    system: LinearSystem
    point_coords: Tuple[Triple, ...]
    line_coords: Tuple[Triple, ...]
    order: int
    field: FieldTable


@dataclass(frozen=True)
class Arc:
    points: FrozenSet[int]
    is_hyperoval: bool


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
    """PG(2,q) for a prime power q within the configured order cap."""
    if q > caps.plane_order:
        raise SizeLimit(
            f"plane order {_decimal(q)} exceeds cap {caps.plane_order}"
        )
    p, k = _prime_power(q)
    F = make_field(p, k, caps=caps)

    coords = normalized_triples(q)
    n = len(coords)
    C = np.array(coords, dtype=np.int64)
    add, mul = F.add_table, F.mul_table

    lines = []
    for a0, a1, a2 in coords:
        s = add[mul[a0, C[:, 0]], mul[a1, C[:, 1]]]
        s = add[s, mul[a2, C[:, 2]]]
        lines.append(np.nonzero(s == 0)[0].tolist())
    system = LinearSystem(n, lines, name=f"PG(2,{q})", caps=caps)
    return PlaneModel(
        system=system,
        point_coords=coords,
        line_coords=coords,
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
    return Arc(points=frozenset(pts), is_hyperoval=True)


def is_arc(plane: PlaneModel, points: Iterable[int]) -> bool:
    """True when no line of the plane meets the set in three points."""
    pts = set(points)
    return all(len(pts & l) <= 2 for l in plane.system.lines)


def dual_plane(plane: PlaneModel) -> PlaneModel:
    """Swap points and lines: dual point i is primal line i, dual line j
    collects the primal lines through primal point j."""
    system = LinearSystem(
        plane.system.num_lines,
        plane.system.lines_through,
        name=f"dual-PG(2,{plane.order})",
        caps=None,
    )
    return PlaneModel(
        system=system,
        point_coords=plane.line_coords,
        line_coords=plane.point_coords,
        order=plane.order,
        field=plane.field,
    )


def _dual_lines(plane: PlaneModel, points: Iterable[int]) -> FrozenSet[int]:
    """Indices of the lines whose coordinates are the given points'
    coordinates. A point x is on line a iff a . x = 0, so the number of
    these lines through x is the number of the points on the line with
    x's coordinates: for an arc, every plane point lies on at most two of
    them, and they form a 2-packing."""
    line_index = {c: i for i, c in enumerate(plane.line_coords)}
    return frozenset(line_index[plane.point_coords[p]] for p in points)


def dual_conic_lines(plane: PlaneModel) -> FrozenSet[int]:
    """The dual of the conic, a (q+1)-arc in every plane (Segre, Canad. J.
    Math. 1955): a 2-packing of q+1 lines, maximum for odd q."""
    return _dual_lines(plane, conic_points(plane))


def dual_hyperoval_lines(plane: PlaneModel) -> FrozenSet[int]:
    """The dual of the hyperoval: a 2-packing of maximum size q+2, for
    even q only."""
    return _dual_lines(plane, hyperoval(plane).points)
