"""The exact searches.

Kernels take plain numpy arrays that their callers build right before the
call; ``LinearSystem`` itself holds no packed arrays. Two searches cover
all three invariants:

- ``_cover_search`` finds a minimum set cover, given as a (k, e) uint8
  matrix ``covers`` of k candidates over e elements, its one input: the
  candidates of an element are its column. For tau the candidates are
  the points and the elements the lines; for gamma both are the points,
  a point covering its closed neighbourhood. It tests the root at entry.
  A node hands its remaining count, residual row and allowed row down to
  its children, and settles in place each child that is a leaf or that
  its first bound tests would cut, so the tree is the one a node-by-node
  search visits, at a fraction of the numpy calls.
- ``_nu2_search`` finds a maximum 2-packing, given as the (m, n) uint8
  line-point incidence and its transpose, and stops when it reaches an
  upper bound that the caller proved (the meet and parity rules on
  intersecting systems, the capacity rule on all). It can start from the
  size of a packing the caller verified. Its state is one row per depth,
  O(m * n) in all; it needs no (m, m) table of meeting points.

``_pairwise``, one matrix product over an incidence, has no caller in
the package: the plane-axiom check names its least disjoint line pair
from ``lines_through``. It stays only because the benchmark tracer binds
every ``KernelSet`` field by name, and goes with that binding.

Both searches do each node in a fixed number of whole-array steps over
0/1 uint8 masks and small integer rows, but for one Python ``while``
loop: the cover search scans its branch element's candidates for the
next one still allowed, a step per candidate tried or skipped (3,621
steps for the 2,041 nodes of gamma on triangular-10). They keep to what numba
compiles for integer arrays: elementwise ufuncs with broadcasting,
``.sum(axis=...)``, ``.astype``, ``.max()``, ``.any()``, ``.argmin()``,
``np.where`` and ``[0] * n`` lists as stacks of per-depth integers; no
``@``/``np.dot`` (float-only in numba) and no boolean fancy indexing.

Each search kernel is written once in numba-compatible form. When numba is
importable and ``LINSYS_PURE_NUMPY`` is unset, jitted copies run; otherwise
the same functions execute as plain Python over numpy arrays. Both paths
perform the identical traversal, so values, witnesses and node counts match
bit for bit.

Both searches are self-contained on purpose: no calls into module helpers, so
the uncompiled fallback never leaks into jitted code or vice versa.
"""

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

PURE_NUMPY_ENV = "LINSYS_PURE_NUMPY"


def _pairwise(lines: np.ndarray) -> np.ndarray:
    """|line_i & line_j| for every row pair of an (m, n) 0/1 incidence, as
    an (m, m) int32 matrix. float64 sums of 0/1 products are exact, and the
    product runs in BLAS."""
    f = lines.astype(np.float64)
    return (f @ f.T).astype(np.int32)


def _cover_search(covers, universe, best0):
    """Branch and bound for a minimum set cover.

    covers:   (k, e) uint8, covers[v, u] = 1 when candidate v covers
              element u, so column u holds the candidates of element u.
    universe: (e,) uint8, 1 at the elements to cover (at least one).
    best0:    incumbent size (from a greedy cover).

    tau passes the points as candidates over the lines; gamma passes its
    closed-neighbourhood matrix.

    Branch rule: the uncovered element with the fewest candidates (its
    column sum, taken once), lowest index on ties; its candidates in
    ascending order, listed by one np.where over its column. Tried-
    candidate exclusion: once the subtree of candidate v of the branch
    element is finished, every cover containing v has been searched, so v
    is excluded from the subtrees of the later candidates. Bounds, in this
    order: a node at depth d that covers everything is a leaf; otherwise
    it is pruned when one more candidate cannot beat the incumbent
    (d + 1 >= best), or when remaining > (best - d - 1) * maxcov, maxcov
    being the largest residual cover of a candidate not excluded. For
    maxcov >= 1 that is d + ceil(remaining / maxcov) >= best; maxcov = 0
    always prunes, rightly, as no allowed candidate covers an uncovered
    element. The root is tested at entry, before any per-depth state is
    allocated; it is no leaf, as the universe is not empty.

    State is carried down from the parent. A node that expands keeps its
    maxcov, its candidate list and its residual row, the number of
    uncovered elements each candidate covers, so a child's remaining count
    is the parent's minus the chosen candidate's entry, with no row sum.
    The candidates not excluded form one allowed row per depth: the node
    at d copies its row to depth d + 1 once, when it expands, and clears
    each candidate v there as v is tried. The child of v then sees v
    cleared as well, which changes nothing: v covers no element still
    uncovered at the child or below, so v's residual there is 0 and v is
    in no column it branches on.

    Children settled at the parent. The child of v has remaining count
    left = remaining - residual[v]. Three cases decide it by its first
    steps: left = 0 makes it a leaf, which takes the incumbent when
    d + 1 < best; d + 2 >= best cuts it by d + 1 >= best; and
    left > (best - d - 2) * maxcov, with the parent's maxcov, cuts it by
    the residual bound. The last holds because the child's maxcov is at
    most the parent's: its uncovered elements and its allowed candidates
    are subsets of the parent's. In each case the child writes no row and
    expands nothing, so the parent does exactly what the child would: it
    counts the node and, for a leaf, takes the incumbent only while
    d + 1 < best still holds. A later sibling's cover of the same size
    fails that test, as it would in the child, so it never replaces the
    first witness. Nodes are counted in the same order and the incumbent
    changes at the same nodes as in a search that visits every child, so
    node counts and the witness are those of that search.

    A node that is not settled costs one masked row sum and a max; one
    that expands adds an argmin, a column scan and two row copies; a
    settled child costs a subtraction. Returns (best, improved,
    witness_buffer, nodes); the buffer has best0 + 2 entries, the first
    `best` meaningful only when improved == 1.
    """
    k, e = covers.shape
    nodes = 1
    best = best0
    improved = 0
    cap = best0 + 2
    witness = np.full(cap, -1, dtype=np.int32)
    if best <= 1:
        return best, improved, witness, nodes
    rem0 = np.int64(universe.sum())
    res = (covers & universe).sum(axis=1)
    maxcov = np.int64(res.max())
    if rem0 > (best - 1) * maxcov:
        return best, improved, witness, nodes

    uncovered = np.zeros((cap, e), dtype=np.uint8)
    residual = np.zeros((cap, k), dtype=np.int64)
    allowed = np.zeros((cap, k), dtype=np.uint8)
    cands = np.zeros((cap, k), dtype=np.int32)
    cand_sizes = covers.sum(axis=0).astype(np.int32)
    no_branch = np.full(e, k + 1, dtype=np.int32)
    branch_pos = [0] * cap
    branch_end = [0] * cap
    chosen = [0] * cap
    rem = [0] * cap
    cover_max = [0] * cap
    uncovered[0] = universe
    allowed[0] = 1
    rem[0] = rem0

    d = 0
    expand = True
    while d >= 0:
        if expand:
            # node d passed its tests with residual row res and maxcov
            expand = False
            residual[d] = res
            cover_max[d] = maxcov
            u = np.where(uncovered[d] == 1, cand_sizes, no_branch).argmin()
            end = cand_sizes[u]
            cands[d, :end] = np.where(covers[:, u] == 1)[0]
            branch_pos[d] = 0
            branch_end[d] = end
            allowed[d + 1] = allowed[d]
        pos = branch_pos[d]
        end = branch_end[d]
        v = -1
        while pos < end:
            v = cands[d, pos]
            pos += 1
            if allowed[d + 1, v] == 1:
                break
            v = -1
        branch_pos[d] = pos
        if v < 0:
            d -= 1
            continue
        allowed[d + 1, v] = 0
        left = rem[d] - residual[d, v]
        if left == 0 or d + 2 >= best or left > (best - d - 2) * cover_max[d]:
            # the child at d + 1, settled here
            nodes += 1
            if left == 0 and d + 1 < best:
                best = d + 1
                improved = 1
                for i in range(d):
                    witness[i] = chosen[i]
                witness[d] = v
            continue
        chosen[d] = v
        rem[d + 1] = left
        # ~ turns covers' 1s into 0xFE and its 0s into 0xFF, so the & clears
        # exactly the elements v covers
        uncovered[d + 1] = uncovered[d] & ~covers[v]
        d += 1
        # the child, not settled: neither a leaf nor at d + 1 >= best
        nodes += 1
        res = (covers & uncovered[d]).sum(axis=1)
        maxcov = np.int64((res * allowed[d]).max())
        expand = rem[d] <= (best - d - 1) * maxcov
        if not expand:
            d -= 1
    return best, improved, witness, nodes


def _nu2_search(lines, through, top, best0=0):
    """Branch and bound for the maximum 2-packing.

    lines: (m, n) uint8 line-point incidence; through: its C-contiguous
    (n, m) transpose; top: an upper bound on nu2 proved by the caller
    (m + 1 or more never stops the search early); best0: a size below
    nu2 proved by the caller (0 proves nothing).

    Lines are decided in index order, include branch first. Below depth d
    a line is selectable while its index is at least d and none of its
    points is covered twice. Meet bound: a line added below a node misses
    a chosen line l or meets it at a once-covered point of l, and no two
    added lines share such a point. A line meets l at most once, so with
    deg[p] the number of selectable lines through p and sel their number,
    at most b_l = (sel - sum_{p in l} deg[p]) + #{p in l: deg[p] > 0}
    = sel - sum_{p in l} max(deg[p] - 1, 0) lines can still be added.
    Prune when the size plus min(sel, min_l b_l) cannot beat the
    incumbent.

    Root bound: the search returns as soon as the incumbent reaches top.
    Up to that node the traversal is the full one, so the witness is the
    same. Let r be the largest number of points of degree >= 2 on a line.
    Two rules give top on an intersecting system with m lines (any two
    lines meet in exactly one point); both use that lines meet only at
    points of degree >= 2, so pendant points do not count:
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
    A third rule holds on any system. Call a line free when none of its
    points is on three or more lines, and its weight the number of its
    points that are; let f lines be free and h points be on three or more.
    - capacity rule, nu2 <= f + t, with t the most lines whose weights,
      smallest first, sum to at most 2h: a packing covers each of the h
      points at most twice, so the weights of its lines that are not free
      sum to at most 2h.
    The caller settles the free lines before the search and passes the
    other lines with top - f (see ``solvers``).

    Incumbent: the search starts as if it had found a packing of best0
    lines; the caller passes L - 1 for a packing of L lines that it
    verified. A subtree is pruned only when it holds no packing of more
    than best lines, and best stays below nu2 until the first packing of
    nu2 lines in search order is reached, so that packing, the witness of
    the search from 0, is still the first one found, and best rises at
    least once. At best0 = 0 the tree is the one from 0.

    Depth d keeps its own cover count per point, blocked lines (the lines
    below d among them), deg and sel, written from depth d - 1 on the way
    down, so backtracking undoes nothing; a stack holds the chosen lines'
    rows. deg and sel are recounted only when a chosen line covers some
    point twice. Returns (best, witness_buffer, nodes); the first `best`
    entries of the buffer are the chosen line indices (ascending).
    """
    m, n = lines.shape
    counts = np.zeros((m + 1, n), dtype=np.uint8)
    blocked = np.zeros((m + 1, m), dtype=np.uint8)
    deg = np.zeros((m + 1, n), dtype=np.int32)
    sel = np.zeros(m + 1, dtype=np.int64)
    rows = np.zeros((m + 1, n), dtype=np.int32)
    phase = np.zeros(m + 1, dtype=np.uint8)
    chosen = np.zeros(m + 1, dtype=np.int32)
    witness = np.zeros(m + 1, dtype=np.int32)
    best = np.int64(best0)
    nodes = np.int64(0)
    size = np.int64(0)
    deg[0] = through.sum(axis=1)
    sel[0] = m

    d = 0
    while d >= 0:
        ph = phase[d]
        if ph == 0:
            nodes += 1
            if size > best:
                best = size
                witness[:size] = chosen[:size]
                if best >= top:
                    break
            if d == m:
                d -= 1
                continue
            ub = sel[d]
            if size > 0 and size + ub > best:
                # dg - (dg > 0) is max(deg - 1, 0)
                dg = deg[d]
                ub -= (rows[:size] * (dg - (dg > 0))).sum(axis=1).max()
            if size + ub <= best:
                d -= 1
                continue
            if blocked[d, d] == 0:
                # include line d
                phase[d] = 1
                row = lines[d]
                full = counts[d] & row
                counts[d + 1] = counts[d] + row
                blocked[d + 1] = blocked[d]
                blocked[d + 1, d] = 1
                if full.any():
                    blocked[d + 1] |= (lines & full).sum(axis=1) > 0
                    open_lines = blocked[d + 1] == 0
                    deg[d + 1] = (through & open_lines).sum(axis=1)
                    sel[d + 1] = open_lines.sum()
                else:
                    deg[d + 1] = deg[d] - row
                    sel[d + 1] = sel[d] - 1
                rows[size] = row
                chosen[size] = d
                size += 1
                d += 1
                phase[d] = 0
                continue
        elif ph == 1:
            size -= 1
        else:
            d -= 1
            continue
        # exclude line d
        phase[d] = 2
        counts[d + 1] = counts[d]
        blocked[d + 1] = blocked[d]
        blocked[d + 1, d] = 1
        if blocked[d, d] == 0:
            deg[d + 1] = deg[d] - lines[d]
            sel[d + 1] = sel[d] - 1
        else:
            deg[d + 1] = deg[d]
            sel[d + 1] = sel[d]
        d += 1
        phase[d] = 0
    return best, witness, nodes


@dataclass(frozen=True)
class KernelSet:
    name: str
    pairwise_intersections: Callable
    tau_search: Callable
    gamma_search: Callable
    nu2_search: Callable


PY_KERNELS = KernelSet(
    name="numpy",
    pairwise_intersections=_pairwise,
    tau_search=_cover_search,
    gamma_search=_cover_search,
    nu2_search=_nu2_search,
)

_pure_requested = os.environ.get(PURE_NUMPY_ENV, "").strip().lower() in {
    "1",
    "true",
    "yes",
    "on",
}

JIT_KERNELS = None
if not _pure_requested:
    try:
        from numba import njit
    except ImportError:
        pass
    else:
        _jit = njit(cache=True)
        _jit_cover = _jit(_cover_search)
        JIT_KERNELS = KernelSet(
            name="numba",
            pairwise_intersections=_pairwise,
            tau_search=_jit_cover,
            gamma_search=_jit_cover,
            nu2_search=_jit(_nu2_search),
        )

ACTIVE = JIT_KERNELS if JIT_KERNELS is not None else PY_KERNELS
