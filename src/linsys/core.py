"""Linear systems: point/line incidence structures with pairwise line
intersections of size at most one.

Points are integer indices 0..num_points-1; lines are nonempty distinct
point sets. Structural operations keep point indices stable, so a deleted
point simply becomes isolated and witness maps stay valid across
derivations. All systems are immutable once built.

Construction validates whole lines at C speed where it can. A line of
plain ints within range is accepted by one type-set test and its min and
max; any other line goes entry by entry, which converts numpy integers
and names the bad entry. Linearity is a count of distinct point pairs,
which is sum C(|l|, 2) exactly when no pair lies on two lines. A system
with at most ``_TABLE_PAIRS`` pairs counts the keys of its pair table,
which it keeps as ``pair_line``; a larger one sorts every line's pair
keys in one numpy array and looks for a repeat, and builds the table
only when ``pair_line`` is first read. Only a system that fails is
searched for its least clashing line pair. The declared point count and
the pair count meet their caps before either is allocated.

Deleting points or lines, keeping some lines and dropping isolated
points keep a system linear, so those results are built from the
source's lines by the constructor's container code without its tests,
and build no pair table.
"""

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, repeat
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

# Up to this many point pairs on lines, counting the pair table's keys is
# the faster linearity test, and it leaves the table built; above it,
# sorting the pair keys is. Under timeit the two break even near 100
# pairs on planes and near 400 on random systems of mixed line sizes.
_TABLE_PAIRS = 256
# a pair key u * n + v is below n**2, which int64 holds up to this n
_KEYED_POINTS = math.isqrt(np.iinfo(np.int64).max)


def _as_point(x, num_points: int, where: str, kind: str = "point") -> int:
    """x as an index below num_points: an int or numpy int, not a bool."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise BadIndex(f"{where}: {kind} of type {type(x).__name__} is not an integer")
    v = int(x)
    if not 0 <= v < num_points:
        raise BadIndex(
            f"{where}: {kind} {_decimal(v)} outside 0..{_decimal(num_points - 1)}"
        )
    return v


def _as_line(x, num_lines: int, where: str) -> int:
    return _as_point(x, num_lines, where, "line")


def _pair_table(line_tuples) -> Dict[Tuple[int, int], int]:
    pair = {}
    for i, l in enumerate(line_tuples):
        pair.update(zip(combinations(l, 2), repeat(i)))
    return pair


@lru_cache(maxsize=64)
def _upper_pairs(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The positions (a, b), a < b, of a line's point pairs, read-only."""
    first, second = np.triu_indices(k, 1)
    first.setflags(write=False)
    second.setflags(write=False)
    return first, second


def _line_arrays(line_tuples) -> list:
    """The lines as one (count, k) int64 array per line size k, each in
    line order."""
    by_size: Dict[int, list] = {}
    for t in line_tuples:
        by_size.setdefault(len(t), []).append(t)
    return [
        np.fromiter(chain.from_iterable(group), np.int64, len(group) * k).reshape(len(group), k)
        for k, group in by_size.items()
    ]


def _pairs_distinct(line_tuples, n: int, total: int) -> bool:
    """True when no point pair lies on two lines. Every line's pair keys
    u * n + v (u < v) fill one int64 array of ``total`` entries, lines of
    one size at a time, and one sort puts any repeated key beside its
    copy. n must be at most ``_KEYED_POINTS``."""
    keys = np.empty(total, dtype=np.int64)
    at = 0
    for rows in _line_arrays(line_tuples):
        first, second = _upper_pairs(rows.shape[1])
        block = keys[at : at + rows.shape[0] * len(first)].reshape(rows.shape[0], len(first))
        np.multiply(rows[:, first], n, out=block)
        block += rows[:, second]
        at += block.size
    keys.sort()
    return not (keys[1:] == keys[:-1]).any()


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
    passes it only for the dual of a plane it built, which is no larger."""

    __slots__ = (
        "num_points",
        "lines",
        "name",
        "line_tuples",
        "degrees",
        "support",
        "lines_through",
        "_pair_line",
    )

    def __init__(
        self,
        num_points: int,
        lines: Iterable[Iterable[int]],
        name: Optional[str] = None,
        caps: Optional[Caps] = DEFAULT_CAPS,
    ):
        integral = isinstance(num_points, numbers.Integral)
        if not integral or num_points < 0:
            shown = _decimal(int(num_points)) if integral else f"type {type(num_points).__name__}"
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
        line_tuples = tuple(tuple(sorted(l)) for l in cleaned)

        # Linearity: no point pair lies on two lines, so the lines hold
        # exactly sum C(|l|, 2) distinct pairs. Only a system that holds
        # fewer is searched for its least clashing line pair.
        total = sum(k * (k - 1) // 2 for k in map(len, line_tuples))
        if caps is not None and total > caps.system_pairs:
            raise SizeLimit(f"{total} point pairs on lines exceeds cap {caps.system_pairs}")
        pair = None
        if total <= _TABLE_PAIRS or n > _KEYED_POINTS:
            pair = _pair_table(line_tuples)
            linear = len(pair) == total
        else:
            linear = _pairs_distinct(line_tuples, n, total)
        if not linear:
            h, i = _least_clash(line_tuples)
            raise LinearityViolation(h, i, cleaned[h] & cleaned[i])
        self._fill(n, tuple(cleaned), line_tuples, name)
        self._pair_line = pair

    @classmethod
    def _derived(cls, num_points: int, lines: Iterable[frozenset], name: Optional[str] = None):
        """The system on lines taken from a built system: nonempty,
        distinct, in range and linear, so none of it is tested again, and
        no pair table is built until ``pair_line`` is read."""
        self = object.__new__(cls)
        lines = tuple(lines)
        self._fill(num_points, lines, tuple(tuple(sorted(l)) for l in lines), name)
        return self

    def _fill(self, n: int, lines, line_tuples, name: Optional[str]) -> None:
        self.num_points = n
        self.lines: Tuple[frozenset, ...] = lines
        self.name = name
        self.line_tuples: Tuple[Tuple[int, ...], ...] = line_tuples
        incident = [[] for _ in range(n)]
        for i, l in enumerate(line_tuples):
            for u in l:
                incident[u].append(i)
        self.lines_through: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, incident))
        degs = np.fromiter(map(len, incident), dtype=np.int32, count=n)
        degs.setflags(write=False)
        self.degrees = degs
        self.support = frozenset().union(*lines)
        self._pair_line = None

    @property
    def pair_line(self) -> Dict[Tuple[int, int], int]:
        """The line through each collinear point pair (u, v), u < v, keyed
        line by line in ``combinations`` order. Built on first read unless
        the constructor's linearity test built it; do not modify it."""
        if self._pair_line is None:
            self._pair_line = _pair_table(self.line_tuples)
        return self._pair_line

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
    """Remove a set of points from every line in one pass. Emptied
    lines are dropped; lines that collapse onto an earlier survivor are
    merged (the line list is a set), so the result equals deleting the
    points one at a time in any order. Indices stay stable: the removed
    points become isolated."""
    gone = {_as_point(p, sys.num_points, "delete_points") for p in points}
    out = {}  # insertion-ordered set of the surviving lines
    for l in sys.lines:
        nl = l - gone
        if nl:
            out.setdefault(nl)
    return LinearSystem._derived(sys.num_points, out)


def delete_point(sys: LinearSystem, point: int) -> LinearSystem:
    """delete_points for a single point."""
    return delete_points(sys, [point])


def delete_line(sys: LinearSystem, line_index: int) -> LinearSystem:
    i = _as_line(line_index, sys.num_lines, "delete_line")
    out = sys.lines[:i] + sys.lines[i + 1 :]
    return LinearSystem._derived(sys.num_points, out)


def induced_subsystem(sys: LinearSystem, line_indices: Iterable[int]) -> LinearSystem:
    """Keep only the chosen lines. The induced point set (union of the
    kept lines) is available as the result's ``support``."""
    m = sys.num_lines
    idx = sorted({_as_line(i, m, "induced_subsystem") for i in line_indices})
    return LinearSystem._derived(sys.num_points, [sys.lines[i] for i in idx])


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
    return a == b or any(b in sys.lines[i] for i in sys.lines_through[a])


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
    lines = [frozenset(map(remap.__getitem__, l)) for l in sys.lines]
    return LinearSystem._derived(len(remap), lines, sys.name), remap


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


def _match_single_lines(cand_lists):
    """Kuhn matching: assign each size-1 source line a distinct host line
    from its candidate list. Returns assignment list or None. Each
    augmenting path is searched depth first on an explicit stack."""
    match_of = {}
    assign = [-1] * len(cand_lists)
    for root in range(len(cand_lists)):
        # [source line, index of its next candidate] per step of the path
        path = [[root, 0]]
        banned = set()
        while path:
            i, pos = path[-1]
            cands = cand_lists[i]
            while pos < len(cands) and cands[pos] in banned:
                pos += 1
            if pos == len(cands):
                path.pop()
                continue
            path[-1][1] = pos + 1
            banned.add(cands[pos])
            if cands[pos] in match_of:
                path.append([match_of[cands[pos]], 0])
                continue
            # a free host line: each step takes the line it tried
            for i, pos in path:
                match_of[cand_lists[i][pos - 1]] = i
                assign[i] = cand_lists[i][pos - 1]
            break
        else:
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
    while count is at least 1 and 2, so unmapping just lowers count. The
    search runs on an explicit stack of [point, index of its next
    candidate] frames, one per mapped point and one for the point tried."""
    a_pts = sorted(sub.support)
    pair_line = host.pair_line
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
                j = pair_line.get((min(x, w), max(x, w)))
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
        assign = _match_single_lines(cands)
        if assign is None:
            return None
        for i, j in zip(singles, assign):
            line_map[i] = j
        return line_map

    stack = []
    while True:
        if len(mapping) == len(a_pts):
            line_map = finish()
            if line_map is not None:
                return Embedding(point_map=dict(mapping), line_map=line_map)
        else:
            _, _, u = min((-near[v], priority[v], v) for v in a_pts if v not in mapping)
            stack.append([u, 0])
        # the deepest frame unmaps its point and takes its next feasible
        # candidate; a frame with none left is popped
        while stack:
            u, pos = stack[-1]
            if u in mapping:
                used.discard(mapping.pop(u))
                for i in sub.lines_through[u]:
                    for v in sub.lines[i]:
                        near[v] -= 1
                    count[i] -= 1
            cands = candidates[u]
            while pos < len(cands) and (cands[pos] in used or not feasible(u, cands[pos])):
                pos += 1
            if pos < len(cands):
                break
            stack.pop()
        else:
            return None
        stack[-1][1] = pos + 1
        w = cands[pos]
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
                image[i] = pair_line[(min(x, w), max(x, w))]


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

    # one candidate list per sub degree, shared by its points
    host_pts = sorted(host.support)
    host_deg = host.degrees.tolist()
    sub_deg = sub.degrees.tolist()
    by_degree = {
        d: [w for w in host_pts if host_deg[w] >= d]
        for d in {sub_deg[u] for u in sub.support}
    }
    candidates = {u: by_degree[sub_deg[u]] for u in sub.support}
    priority = {u: -sub_deg[u] for u in sub.support}
    return _map_points(sub, host, candidates, priority)
