"""Linear systems: point/line incidence structures with pairwise line
intersections of size at most one.

Points are integer indices 0..num_points-1; each line is a nonempty
distinct point set, stored once as an ascending tuple of ints in
``line_tuples``. Structural operations keep point indices stable, so a
deleted point simply becomes isolated and witness maps stay valid
across derivations. All systems are immutable once built.

Construction validates whole lines at C speed where it can. A line of
plain ints within range is accepted by one type-set test and its min and
max; any other line goes entry by entry, which converts numpy integers
and names the bad entry. Linearity, no point pair on two lines, is the
least-clash search for a system of at most ``_TABLE_PAIRS`` point pairs;
a larger one sorts every line's pair keys in one numpy array and is
searched only if a key repeats. No pair table is kept: two points share
at most one line, their ``_join``, read from ``lines_through``. The
declared point count and the pair count meet their caps before either
is allocated.

A system that is linear by construction is built by the constructor
from its lines as ``_Linear``, ascending int tuples that become its
``line_tuples`` as they are: no test and no sort. Deleting
points or lines, keeping some lines and dropping isolated points keep a
system linear and each source line ascending, so they take this path, as
do the projective planes, pendant extensions and triangular systems,
which hold their size to the caps (``_check_points``, ``_check_pairs``)
before they build a line.
"""

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, filterfalse, repeat
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .errors import (
    BadIndex,
    DuplicateLine,
    EmptyLine,
    LinearityViolation,
    NoLines,
    SizeLimit,
)
from .field import _as_int, _decimal, _is_int
from .limits import DEFAULT_CAPS, Caps

_INT = {int}


# Up to this many point pairs on lines, the least-clash search is the
# faster linearity test; above it, sorting the pair keys is. Under timeit
# on a 2-core x86-64 machine, the 208 systems of at most 256 pairs that
# one pass of the build benchmark parses take 1.15 ms by the search and
# 4.11 ms by the sort, and its 9 larger ones (planes and pendant planes
# from PG(2,5) to PG(2,16)) take 8.38 ms by the search and 1.03 ms by the
# sort.
_TABLE_PAIRS = 256
# a pair key u * n + v is below n**2, which int64 holds up to this n
_KEYED_POINTS = math.isqrt(np.iinfo(np.int64).max)


def _as_point(x, num_points: int, where: str, kind: str = "point") -> int:
    """x as an index below num_points: an int or numpy int, not a bool."""
    v = _as_int(x, where, kind)
    if not 0 <= v < num_points:
        raise BadIndex(
            f"{where}: {kind} {_decimal(v)} outside 0..{_decimal(num_points - 1)}"
        )
    return v


def _as_line(x, num_lines: int, where: str) -> int:
    return _as_point(x, num_lines, where, "line")


def _check_points(n: int, caps: Caps) -> None:
    if n > caps.system_points:
        raise SizeLimit(f"{_decimal(n)} points exceeds cap {caps.system_points}")


def _check_pairs(pairs: int, caps: Caps) -> None:
    """pairs is the number of point pairs on lines, the sum of C(|l|, 2)."""
    if pairs > caps.system_pairs:
        raise SizeLimit(f"{pairs} point pairs on lines exceeds cap {caps.system_pairs}")


class _Linear(tuple):
    """The lines of a system that is linear by construction, each an
    ascending tuple of ints: nonempty, distinct and within its points,
    their count and pairs held to the caps before they were built.
    ``LinearSystem`` takes them as its ``line_tuples``, without its tests
    and without sorting them."""


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


def _least_clash(line_tuples) -> Optional[Tuple[int, int]]:
    """The least (h, i) with lines h < i sharing a point pair, or None when
    the lines are linear: the whole linearity test of a small system, and
    the error search of a large one that failed the sort. A pair met again
    on line i clashes with its first holder h, and every violating line
    pair through that point pair starts at h or later, so the least clash
    met this way is the least violating line pair."""
    pair = {}
    clash = None
    for i, l in enumerate(line_tuples):
        for h in map(pair.setdefault, combinations(l, 2), repeat(i)):
            if h != i and (clash is None or (h, i) < clash):
                clash = (h, i)
    return clash


class LinearSystem:
    """Validated linear system, its lines stored once as ascending int
    tuples in ``line_tuples``. Raises on empty/duplicate lines, bad
    indices, or any pair of lines sharing two or more points.

    caps bounds num_points and the number of point pairs on lines before
    either is allocated (SizeLimit). Lines given as ``_Linear`` are taken
    as they are."""

    __slots__ = (
        "num_points",
        "name",
        "line_tuples",
        "degrees",
        "support",
        "lines_through",
    )

    def __init__(
        self,
        num_points: int,
        lines: Iterable[Iterable[int]],
        name: Optional[str] = None,
        caps: Caps = DEFAULT_CAPS,
    ):
        if type(lines) is _Linear:
            self._fill(num_points, tuple(lines), name)
            return
        integral = _is_int(num_points)
        if not integral or num_points < 0:
            shown = _decimal(int(num_points)) if integral else f"type {type(num_points).__name__}"
            raise BadIndex(f"num_points must be a nonnegative integer, got {shown}")
        n = int(num_points)
        _check_points(n, caps)

        seen: Dict[Tuple[int, ...], int] = {}
        for i, raw in enumerate(lines):
            t = tuple(raw)
            # a line of plain ints in range is taken whole; any other goes
            # point by point, which converts numpy ints and names a bad one
            if set(map(type, t)) != _INT or min(t) < 0 or max(t) >= n:
                t = [_as_point(x, n, f"line {i}") for x in t]
            # ascending tuples are equal exactly when their point sets are
            t = tuple(sorted(set(t)))
            if not t:
                raise EmptyLine(f"line {i} is empty")
            if t in seen:
                raise DuplicateLine(f"lines {seen[t]} and {i} are equal")
            seen[t] = i
        line_tuples = tuple(seen)

        # a large system with distinct pair keys is linear; any other is
        # searched for its least clashing line pair
        total = sum(k * (k - 1) // 2 for k in map(len, line_tuples))
        _check_pairs(total, caps)
        sortable = total > _TABLE_PAIRS and n <= _KEYED_POINTS
        if not (sortable and _pairs_distinct(line_tuples, n, total)):
            clash = _least_clash(line_tuples)
            if clash is not None:
                h, i = clash
                raise LinearityViolation(h, i, set(line_tuples[h]).intersection(line_tuples[i]))
        self._fill(n, line_tuples, name)

    def _fill(self, n: int, line_tuples, name: Optional[str]) -> None:
        self.num_points = n
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
        self.support = frozenset(np.flatnonzero(degs).tolist())

    @property
    def num_lines(self) -> int:
        return len(self.line_tuples)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearSystem):
            return NotImplemented
        return self.num_points == other.num_points and self.line_tuples == other.line_tuples

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
    if not sys.line_tuples:
        raise NoLines("rank is undefined for a system with no lines")
    return max(map(len, sys.line_tuples))


def is_intersecting(sys: LinearSystem) -> bool:
    """True when every pair of distinct lines shares exactly one point.
    Lines meet at most once, so the sum over points of C(deg, 2) counts
    the meeting line pairs, and it reaches C(m, 2) only when all meet."""
    m = sys.num_lines
    d = sys.degrees.astype(np.int64)
    return int((d * (d - 1)).sum()) == m * (m - 1)


def is_uniform(sys: LinearSystem, r: int) -> bool:
    return all(len(l) == r for l in sys.line_tuples)


def delete_points(sys: LinearSystem, points: Iterable[int]) -> LinearSystem:
    """Remove a set of points from every line in one pass. Emptied
    lines are dropped; lines that collapse onto an earlier survivor are
    merged (the line list is a set), so the result equals deleting the
    points one at a time in any order. Indices stay stable: the removed
    points become isolated."""
    gone = {_as_point(p, sys.num_points, "delete_points") for p in points}
    out = {}  # insertion-ordered set of the surviving lines
    for t in sys.line_tuples:
        # ascending tuples are equal exactly when their point sets are
        nt = tuple(filterfalse(gone.__contains__, t))
        if nt:
            out.setdefault(nt)
    return LinearSystem(sys.num_points, _Linear(out))


def delete_point(sys: LinearSystem, point: int) -> LinearSystem:
    """delete_points for a single point."""
    return delete_points(sys, [point])


def delete_line(sys: LinearSystem, line_index: int) -> LinearSystem:
    i = _as_line(line_index, sys.num_lines, "delete_line")
    out = sys.line_tuples[:i] + sys.line_tuples[i + 1 :]
    return LinearSystem(sys.num_points, _Linear(out))


def induced_subsystem(sys: LinearSystem, line_indices: Iterable[int]) -> LinearSystem:
    """Keep only the chosen lines. The induced point set (union of the
    kept lines) is available as the result's ``support``."""
    m = sys.num_lines
    idx = sorted({_as_line(i, m, "induced_subsystem") for i in line_indices})
    return LinearSystem(sys.num_points, _Linear(sys.line_tuples[i] for i in idx))


def is_spanning_subsystem(sub: LinearSystem, sys: LinearSystem) -> bool:
    """True when sub's lines all occur in sys and sub's induced point set
    equals sys's non-isolated point set."""
    if sub.num_points != sys.num_points:
        return False
    if sub.support != sys.support:
        return False
    host = set(sys.line_tuples)
    return all(l in host for l in sub.line_tuples)


def _join(sys: LinearSystem, u: int, v: int) -> Optional[int]:
    """The line through distinct points u and v, or None when no line holds
    both. Two lines share at most one point, so two points share at most
    one line: the first line through v that passes through u."""
    through = sys.lines_through[u]
    for i in sys.lines_through[v]:
        if i in through:
            return i
    return None


def collinearity_adjacent(sys: LinearSystem, u: int, v: int) -> bool:
    """Two points are adjacent when some line contains both. A point is
    adjacent to itself by convention."""
    a = _as_point(u, sys.num_points, "collinearity_adjacent")
    b = _as_point(v, sys.num_points, "collinearity_adjacent")
    return a == b or _join(sys, a, b) is not None


def closed_neighborhood(sys: LinearSystem, v: int) -> frozenset:
    p = _as_point(v, sys.num_points, "closed_neighborhood")
    out = {p}
    for i in sys.lines_through[p]:
        out.update(sys.line_tuples[i])
    return frozenset(out)


def drop_isolated(sys: LinearSystem) -> Tuple[LinearSystem, Dict[int, int]]:
    """Reindex onto the support, removing isolated points. Returns the
    compacted system and the old-index -> new-index map."""
    remap = {old: new for new, old in enumerate(sorted(sys.support))}
    # the remap preserves order, so each line stays ascending
    lines = _Linear(tuple(map(remap.__getitem__, t)) for t in sys.line_tuples)
    return LinearSystem(len(remap), lines, sys.name), remap


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
            tuple(sorted(len(sys.line_tuples[i]) for i in sys.lines_through[v])),
        )
        for v in pts
    }
    lcol = {i: (len(sys.line_tuples[i]),) for i in lns}

    def canon(raw):
        table = {}
        out = {}
        for k in sorted(raw, key=lambda k: (raw[k], k)):
            out[k] = table.setdefault(raw[k], len(table))
        return out

    pcol, lcol = canon(pcol), canon(lcol)
    while True:
        nl = {
            i: (lcol[i], tuple(sorted(pcol[v] for v in sys.line_tuples[i])))
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
    if sorted(map(len, ra.line_tuples)) != sorted(map(len, rb.line_tuples)):
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
    mapping: Dict[int, int] = {}
    used = set()
    near = [0] * sub.num_points
    count = [0] * sub.num_lines
    first = [0] * sub.num_lines
    image = [0] * sub.num_lines

    def feasible(u: int, w: int) -> bool:
        for i in sub.lines_through[u]:
            if count[i] >= 2 and w not in host.line_tuples[image[i]]:
                return False
            if count[i] == 1:
                j = _join(host, first[i], w)
                if j is None or len(host.line_tuples[j]) < len(sub.line_tuples[i]):
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
                    for v in sub.line_tuples[i]:
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
            for v in sub.line_tuples[i]:
                near[v] += 1
            count[i] += 1
            if count[i] == 1:
                first[i] = w
            elif count[i] == 2:
                image[i] = _join(host, first[i], w)


def _check_embed_caps(sub: LinearSystem, host: LinearSystem, caps: Caps) -> None:
    if len(sub.support) > caps.iso_points or len(host.support) > caps.iso_points:
        raise SizeLimit(
            f"embedding search over {len(sub.support)}/{len(host.support)} points,"
            f" cap is {caps.iso_points}"
        )


def embeds_in(sub: LinearSystem, host: LinearSystem, caps: Caps = DEFAULT_CAPS) -> Optional[Embedding]:
    """Backtracking search for an injective map of sub's support into host
    carrying every line of sub into a distinct host line."""
    _check_embed_caps(sub, host, caps)
    if not sub.line_tuples:
        return Embedding(point_map={}, line_map={})

    host_sizes = sorted(map(len, host.line_tuples), reverse=True)
    sub_sizes = sorted(map(len, sub.line_tuples), reverse=True)
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
