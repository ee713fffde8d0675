"""Linear systems: point/line incidence structures with pairwise line
intersections of size at most one.

Points are integer indices 0..num_points-1; lines are nonempty distinct
point sets. Structural operations keep point indices stable, so a deleted
point simply becomes isolated and witness maps stay valid across
derivations. All systems are immutable once built.

Construction validates whole lines at C speed where it can. A line of
plain ints within range is accepted by one type-set test and its min and
max; any other line goes entry by entry, which converts numpy integers
and names the bad entry. Linearity is a count: the pair table gets every
line's point pairs, and it has sum C(|l|, 2) keys exactly when no pair
lies on two lines; only when it has fewer is the least clashing line pair
searched for. The declared point count and that pair count meet their
caps before either is allocated.
"""

import numbers
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, repeat
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BadIndex,
    DuplicateLine,
    EmptyLine,
    LinearityViolation,
    NoLines,
    SizeLimit,
)
from .field import _decimal
from .limits import DEFAULT_CAPS, Caps

_INT = {int}


def _as_point(x, num_points: int, where: str) -> int:
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise BadIndex(f"{where}: point {x!r} is not an integer")
    v = int(x)
    if not 0 <= v < num_points:
        raise BadIndex(
            f"{where}: point {_decimal(v)} outside 0..{_decimal(num_points - 1)}"
        )
    return v


def _least_clash(line_tuples) -> Tuple[int, int]:
    """The least (h, i) with lines h < i sharing a point pair. A pair met
    again on line i clashes with its first holder h, and every violating
    line pair through that point pair starts at h or later, so the least
    clash met this way is the least violating line pair."""
    pair = {}
    clash = None
    for i, l in enumerate(line_tuples):
        for h in map(pair.setdefault, combinations(l, 2), repeat(i)):
            if h != i and (clash is None or (h, i) < clash):
                clash = (h, i)
    return clash


class LinearSystem:
    """Validated linear system. Raises on empty/duplicate lines, bad
    indices, or any pair of lines sharing two or more points.

    caps bounds num_points and the number of point pairs on lines before
    either is allocated (SizeLimit). None skips both bounds; the package
    passes it only for systems derived from one already built, which are
    no larger."""

    __slots__ = (
        "num_points",
        "lines",
        "name",
        "line_tuples",
        "degrees",
        "support",
        "pair_line",
        "lines_through",
    )

    def __init__(
        self,
        num_points: int,
        lines: Iterable[Iterable[int]],
        name: Optional[str] = None,
        caps: Optional[Caps] = DEFAULT_CAPS,
    ):
        if not isinstance(num_points, numbers.Integral) or num_points < 0:
            shown = _decimal(num_points) if isinstance(num_points, int) else repr(num_points)
            raise BadIndex(f"num_points must be a nonnegative integer, got {shown}")
        n = int(num_points)
        if caps is not None and n > caps.system_points:
            raise SizeLimit(f"{_decimal(n)} points exceeds cap {caps.system_points}")

        cleaned = []
        seen: Dict[frozenset, int] = {}
        for i, raw in enumerate(lines):
            t = tuple(raw)
            # a line of plain ints in range is taken whole; any other goes
            # point by point, which converts numpy ints and names a bad one
            if set(map(type, t)) != _INT or min(t) < 0 or max(t) >= n:
                t = [_as_point(x, n, f"line {i}") for x in t]
            members = frozenset(t)
            if not members:
                raise EmptyLine(f"line {i} is empty")
            if members in seen:
                raise DuplicateLine(f"lines {seen[members]} and {i} are equal")
            seen[members] = i
            cleaned.append(members)

        self.num_points = n
        self.lines: Tuple[frozenset, ...] = tuple(cleaned)
        self.name = name
        self.line_tuples: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(l)) for l in cleaned
        )

        # Linearity: no point pair lies on two lines, so the pair table
        # holds exactly sum C(|l|, 2) keys. Only when it holds fewer is the
        # least clashing line pair searched for.
        total = sum(k * (k - 1) // 2 for k in map(len, self.line_tuples))
        if caps is not None and total > caps.system_pairs:
            raise SizeLimit(f"{total} point pairs on lines exceeds cap {caps.system_pairs}")
        pair = {}
        for i, l in enumerate(self.line_tuples):
            pair.update(zip(combinations(l, 2), repeat(i)))
        if len(pair) != total:
            h, i = _least_clash(self.line_tuples)
            raise LinearityViolation(h, i, self.lines[h] & self.lines[i])
        incident = [[] for _ in range(n)]
        for i, l in enumerate(self.line_tuples):
            for u in l:
                incident[u].append(i)
        self.lines_through: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, incident))
        degs = np.fromiter(map(len, incident), dtype=np.int32, count=n)
        degs.setflags(write=False)
        self.degrees = degs
        self.support = frozenset().union(*cleaned)
        self.pair_line = pair

    @property
    def num_lines(self) -> int:
        return len(self.lines)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearSystem):
            return NotImplemented
        return self.num_points == other.num_points and self.lines == other.lines

    __hash__ = None

    def __repr__(self) -> str:
        label = f", name={self.name!r}" if self.name else ""
        return f"LinearSystem(n={self.num_points}, m={self.num_lines}{label})"


@dataclass(frozen=True)
class DegreeProfile:
    degrees: Tuple[int, ...]
    max_degree: int
    second_max_degree: int


def degree_profile(sys: LinearSystem) -> DegreeProfile:
    """Per-point line counts plus the top two degrees (second computed
    after removing a single point of maximum degree)."""
    degs = tuple(int(d) for d in sys.degrees)
    ordered = sorted(degs, reverse=True)
    max_degree = ordered[0] if ordered else 0
    second = ordered[1] if len(ordered) > 1 else 0
    return DegreeProfile(degrees=degs, max_degree=max_degree, second_max_degree=second)


def rank(sys: LinearSystem) -> int:
    if not sys.lines:
        raise NoLines("rank is undefined for a system with no lines")
    return max(len(l) for l in sys.lines)


def is_intersecting(sys: LinearSystem) -> bool:
    """True when every pair of distinct lines shares exactly one point.
    Lines meet at most once, so the sum over points of C(deg, 2) counts
    the meeting line pairs, and it reaches C(m, 2) only when all meet."""
    m = sys.num_lines
    d = sys.degrees.astype(np.int64)
    return int((d * (d - 1)).sum()) == m * (m - 1)


def is_uniform(sys: LinearSystem, r: int) -> bool:
    return all(len(l) == r for l in sys.lines)


def delete_points(sys: LinearSystem, points: Iterable[int]) -> LinearSystem:
    """Remove a set of points from every line with one rebuild. Emptied
    lines are dropped; lines that collapse onto an earlier survivor are
    merged (the line list is a set), so the result equals deleting the
    points one at a time in any order. Indices stay stable: the removed
    points become isolated."""
    gone = {_as_point(p, sys.num_points, "delete_points") for p in points}
    out = []
    seen = set()
    for l in sys.lines:
        nl = l - gone
        if nl and nl not in seen:
            seen.add(nl)
            out.append(nl)
    return LinearSystem(sys.num_points, out, caps=None)


def delete_point(sys: LinearSystem, point: int) -> LinearSystem:
    """delete_points for a single point."""
    return delete_points(sys, [point])


def delete_line(sys: LinearSystem, line_index: int) -> LinearSystem:
    if not 0 <= line_index < sys.num_lines:
        raise BadIndex(
            f"line index {line_index} outside 0..{sys.num_lines - 1}"
        )
    out = [l for i, l in enumerate(sys.lines) if i != line_index]
    return LinearSystem(sys.num_points, out, caps=None)


def induced_subsystem(sys: LinearSystem, line_indices: Iterable[int]) -> LinearSystem:
    """Keep only the chosen lines. The induced point set (union of the
    kept lines) is available as the result's ``support``."""
    idx = sorted(set(line_indices))
    for i in idx:
        if not 0 <= i < sys.num_lines:
            raise BadIndex(f"line index {i} outside 0..{sys.num_lines - 1}")
    return LinearSystem(sys.num_points, [sys.lines[i] for i in idx], caps=None)


def is_spanning_subsystem(sub: LinearSystem, sys: LinearSystem) -> bool:
    """True when sub's lines all occur in sys and sub's induced point set
    equals sys's non-isolated point set."""
    if sub.num_points != sys.num_points:
        return False
    if sub.support != sys.support:
        return False
    host = set(sys.lines)
    return all(l in host for l in sub.lines)


def collinearity_adjacent(sys: LinearSystem, u: int, v: int) -> bool:
    """Two points are adjacent when some line contains both. A point is
    adjacent to itself by convention."""
    a = _as_point(u, sys.num_points, "collinearity_adjacent")
    b = _as_point(v, sys.num_points, "collinearity_adjacent")
    return a == b or (min(a, b), max(a, b)) in sys.pair_line


def closed_neighborhood(sys: LinearSystem, v: int) -> frozenset:
    p = _as_point(v, sys.num_points, "closed_neighborhood")
    out = {p}
    for i in sys.lines_through[p]:
        out |= sys.lines[i]
    return frozenset(out)


def drop_isolated(sys: LinearSystem) -> Tuple[LinearSystem, Dict[int, int]]:
    """Reindex onto the support, removing isolated points. Returns the
    compacted system and the old-index -> new-index map."""
    remap = {old: new for new, old in enumerate(sorted(sys.support))}
    lines = [[remap[v] for v in l] for l in sys.line_tuples]
    return LinearSystem(len(remap), lines, sys.name, caps=None), remap


def pendant_reduction(sys: LinearSystem) -> Tuple[LinearSystem, Tuple[int, ...]]:
    """Delete degree-1 points repeatedly until none remain. Deletion can
    cascade (a shrinking line creates new degree-1 points), so this runs
    to a fixed point. Returns the reduced system and the deleted points;
    isolated points need no deletion since indices are stable."""
    cur = sys
    removed = []
    while True:
        ones = [int(v) for v in np.nonzero(cur.degrees == 1)[0]]
        if not ones:
            return cur, tuple(removed)
        cur = delete_points(cur, ones)
        removed.extend(ones)


@dataclass(frozen=True)
class IsoCertificate:
    """Outcome of an isomorphism test on the pendant-reduced systems.
    point_bijection maps reduced_a's support onto reduced_b's support and
    is None when the systems are not isomorphic."""

    isomorphic: bool
    point_bijection: Optional[Dict[int, int]]
    reduced_a: LinearSystem
    reduced_b: LinearSystem


@dataclass(frozen=True)
class Embedding:
    """Injective point map carrying each source line into a distinct host
    line; line_map gives the host line index per source line index."""

    point_map: Dict[int, int]
    line_map: Dict[int, int]


def _refine_colors(sys: LinearSystem) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Joint point/line color refinement. Point colors start from
    (degree, incident line sizes) and are repeatedly split by the colors
    of incident lines, line colors by their point colors, until stable.
    Only support points are colored."""
    pts = sorted(sys.support)
    lns = range(sys.num_lines)
    pcol = {
        v: (
            int(sys.degrees[v]),
            tuple(sorted(len(sys.lines[i]) for i in sys.lines_through[v])),
        )
        for v in pts
    }
    lcol = {i: (len(sys.lines[i]),) for i in lns}

    def canon(raw):
        table = {}
        out = {}
        for k in sorted(raw, key=lambda k: (raw[k], k)):
            out[k] = table.setdefault(raw[k], len(table))
        return out

    pcol, lcol = canon(pcol), canon(lcol)
    while True:
        nl = {
            i: (lcol[i], tuple(sorted(pcol[v] for v in sys.lines[i])))
            for i in lns
        }
        npc = {
            v: (pcol[v], tuple(sorted(nl[i] for i in sys.lines_through[v])))
            for v in pts
        }
        npc, nl = canon(npc), canon(nl)
        if npc == pcol and nl == lcol:
            return pcol, lcol
        pcol, lcol = npc, nl


def are_isomorphic(a: LinearSystem, b: LinearSystem, caps: Caps = DEFAULT_CAPS) -> IsoCertificate:
    """Hypergraph isomorphism after pendant reduction of both systems.
    With equal support sizes, line counts and line-size multisets, any
    injective point map carrying the lines of one into distinct lines of
    the other is an isomorphism, so the embedding search decides it, with
    each point's candidates cut down to its colour class."""
    ra, _ = pendant_reduction(a)
    rb, _ = pendant_reduction(b)
    no = IsoCertificate(False, None, ra, rb)

    if len(ra.support) != len(rb.support) or ra.num_lines != rb.num_lines:
        return no
    if len(ra.support) > caps.iso_points:
        raise SizeLimit(
            f"reduced system has {len(ra.support)} points, cap is {caps.iso_points}"
        )
    if sorted(len(l) for l in ra.lines) != sorted(len(l) for l in rb.lines):
        return no

    pcol_a, _ = _refine_colors(ra)
    pcol_b, _ = _refine_colors(rb)
    if Counter(pcol_a.values()) != Counter(pcol_b.values()):
        return no

    b_by_color: Dict[int, list] = {}
    for w in sorted(rb.support):
        b_by_color.setdefault(pcol_b[w], []).append(w)
    candidates = {u: b_by_color[c] for u, c in pcol_a.items()}
    priority = {u: len(ws) for u, ws in candidates.items()}
    emb = _map_points(ra, rb, candidates, priority)
    if emb is None:
        return no
    return IsoCertificate(True, emb.point_map, ra, rb)


def _match_single_lines(singles, cand_lists):
    """Kuhn matching: assign each size-1 source line a distinct host line
    from its candidate list. Returns assignment list or None."""
    match_of = {}
    assign = [-1] * len(singles)

    def try_assign(i, banned):
        for j in cand_lists[i]:
            if j in banned:
                continue
            banned.add(j)
            if j not in match_of or try_assign(match_of[j], banned):
                match_of[j] = i
                assign[i] = j
                return True
        return False

    for i in range(len(singles)):
        if not try_assign(i, set()):
            return None
    return assign


def _map_points(sub: LinearSystem, host: LinearSystem, candidates, priority) -> Optional[Embedding]:
    """Backtracking search for an injective map of sub's support into host
    carrying every line of sub into a distinct host line. candidates[u]
    lists the host points u may map to, ascending. The next point to map
    has the most mapped neighbours, then the lowest priority[u], then the
    lowest index, so the first map found is deterministic.

    The state is updated on map and undone on unmap: near[v] counts the
    mapped points collinear with an unmapped v; per sub line, count is its
    number of mapped points, first the image of the first of them, and
    image the host line the first two fix. first and image are read only
    while count is at least 1 and 2, so unmapping just lowers count."""
    a_pts = sorted(sub.support)
    mapping: Dict[int, int] = {}
    used = set()
    near = [0] * sub.num_points
    count = [0] * sub.num_lines
    first = [0] * sub.num_lines
    image = [0] * sub.num_lines

    def feasible(u: int, w: int) -> bool:
        for i in sub.lines_through[u]:
            if count[i] >= 2 and w not in host.lines[image[i]]:
                return False
            if count[i] == 1:
                x = first[i]
                j = host.pair_line.get((min(x, w), max(x, w)))
                if j is None or len(host.lines[j]) < len(sub.lines[i]):
                    return False
        return True

    def finish() -> Optional[Dict[int, int]]:
        # feasible kept every line of two or more points on its image
        line_map: Dict[int, int] = {}
        taken = set()
        singles = []
        for i, l in enumerate(sub.line_tuples):
            if len(l) == 1:
                singles.append(i)
                continue
            if image[i] in taken:
                return None
            taken.add(image[i])
            line_map[i] = image[i]
        cands = []
        for i in singles:
            (x,) = sub.line_tuples[i]
            w = mapping[x]
            cands.append([j for j in host.lines_through[w] if j not in taken])
        assign = _match_single_lines(singles, cands)
        if assign is None:
            return None
        for i, j in zip(singles, assign):
            line_map[i] = j
        return line_map

    def rec() -> Optional[Dict[int, int]]:
        if len(mapping) == len(a_pts):
            return finish()
        _, _, u = min((-near[v], priority[v], v) for v in a_pts if v not in mapping)
        for w in candidates[u]:
            if w in used or not feasible(u, w):
                continue
            mapping[u] = w
            used.add(w)
            for i in sub.lines_through[u]:
                for v in sub.lines[i]:
                    near[v] += 1
                count[i] += 1
                if count[i] == 1:
                    first[i] = w
                elif count[i] == 2:
                    x = first[i]
                    image[i] = host.pair_line[(min(x, w), max(x, w))]
            line_map = rec()
            if line_map is not None:
                return line_map
            del mapping[u]
            used.discard(w)
            for i in sub.lines_through[u]:
                for v in sub.lines[i]:
                    near[v] -= 1
                count[i] -= 1
        return None

    line_map = rec()
    if line_map is None:
        return None
    return Embedding(point_map=dict(mapping), line_map=line_map)


def embeds_in(sub: LinearSystem, host: LinearSystem, caps: Caps = DEFAULT_CAPS) -> Optional[Embedding]:
    """Backtracking search for an injective map of sub's support into host
    carrying every line of sub into a distinct host line."""
    if len(sub.support) > caps.iso_points or len(host.support) > caps.iso_points:
        raise SizeLimit(
            f"embedding search over {len(sub.support)}/{len(host.support)} points,"
            f" cap is {caps.iso_points}"
        )
    if not sub.lines:
        return Embedding(point_map={}, line_map={})

    host_sizes = sorted((len(l) for l in host.lines), reverse=True)
    sub_sizes = sorted((len(l) for l in sub.lines), reverse=True)
    if len(sub_sizes) > len(host_sizes) or any(
        s > h for s, h in zip(sub_sizes, host_sizes)
    ):
        return None

    host_pts = sorted(host.support)
    candidates = {
        u: [w for w in host_pts if host.degrees[w] >= sub.degrees[u]]
        for u in sub.support
    }
    priority = {u: -int(sub.degrees[u]) for u in sub.support}
    return _map_points(sub, host, candidates, priority)
