"""Hot loops: pairwise intersection counts and the three exact searches.

Kernels take plain numpy arrays. Their callers build them right before the
call: the solvers pack point and line sets into uint64 bitsets with
``bitsets.pack_sets`` and pad line lists, and the plane-axiom check packs
the lines it counts. ``LinearSystem`` itself holds no packed arrays.

Each search kernel is written once in numba-compatible form. When numba is
importable and ``LINSYS_PURE_NUMPY`` is unset, jitted copies run; otherwise
the same functions execute as plain Python over numpy arrays. Both paths
perform the identical traversal, so values, witnesses and node counts match
bit for bit (``benchmarks/bench_kernels.py`` compares their speed).

All kernels are self-contained on purpose: no calls into module helpers, so
the uncompiled fallback never leaks into jitted code or vice versa.
"""

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

PURE_NUMPY_ENV = "LINSYS_PURE_NUMPY"


def _pairwise_numpy(words: np.ndarray) -> np.ndarray:
    """|set_i & set_j| for every row pair of an (m, W) uint64 matrix."""
    m = words.shape[0]
    out = np.zeros((m, m), dtype=np.int32)
    block = 256
    for start in range(0, m, block):
        chunk = words[start : start + block]
        inter = chunk[:, None, :] & words[None, :, :]
        out[start : start + block] = np.bitwise_count(inter).sum(
            axis=2, dtype=np.int32
        )
    return out


def _pairwise_loop(words):
    m = words.shape[0]
    w = words.shape[1]
    out = np.zeros((m, m), dtype=np.int32)
    for i in range(m):
        for j in range(i, m):
            c = np.int64(0)
            for t in range(w):
                x = words[i, t] & words[j, t]
                x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
                x = (x & np.uint64(0x3333333333333333)) + (
                    (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
                )
                x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
                x = x + (x >> np.uint64(8))
                x = x + (x >> np.uint64(16))
                x = x + (x >> np.uint64(32))
                c += np.int64(x & np.uint64(0x7F))
            out[i, j] = c
            out[j, i] = c
    return out


def _tau_search(point_lines, line_points, line_sizes, line_words, max_degree, best0):
    """Branch and bound for the minimum transversal.

    point_lines: (n, MW) uint64, lines through each point packed over lines.
    line_points: (m, rmax) int32, points of each line ascending, -1 padded.
    line_sizes:  (m,) int32.
    line_words:  (m, W) uint64, point set of each line.
    max_degree:  largest number of lines through one point (>= 1).
    best0:       incumbent size (from the greedy transversal).

    Branch rule: uncovered line of minimum size, lowest index; its points in
    ascending order. Bounds, tried in this order at a node with U >= 1
    uncovered lines: the degree bound ceil(U / max_degree), since one point
    hits at most max_degree lines (it is at least 1, so it also prunes
    every node where one more point cannot beat the incumbent); greedy
    pairwise-disjoint uncovered lines, scanned in index order. A node is
    pruned once a bound shows that its subtree holds no transversal smaller
    than the incumbent.
    Returns (best, improved, witness_buffer, nodes); the first `best`
    witness entries are meaningful only when improved == 1.
    """
    m = line_sizes.shape[0]
    mw = point_lines.shape[1]
    w = line_words.shape[1]
    nodes = np.int64(0)
    best = np.int64(best0)
    improved = np.int64(0)

    cap = best0 + 2
    witness = np.full(cap, -1, dtype=np.int32)
    cov = np.zeros((cap, mw), dtype=np.uint64)
    branch_line = np.zeros(cap, dtype=np.int32)
    branch_pos = np.zeros(cap, dtype=np.int32)
    chosen = np.zeros(cap, dtype=np.int32)
    used = np.zeros(w, dtype=np.uint64)

    d = 0
    pending = True
    while d >= 0:
        if pending:
            nodes += 1
            pending = False
            covered = np.int64(0)
            for i in range(mw):
                x = cov[d, i]
                x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
                x = (x & np.uint64(0x3333333333333333)) + (
                    (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
                )
                x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
                x = x + (x >> np.uint64(8))
                x = x + (x >> np.uint64(16))
                x = x + (x >> np.uint64(32))
                covered += np.int64(x & np.uint64(0x7F))
            if covered == m:
                if d < best:
                    best = d
                    improved = 1
                    for i in range(d):
                        witness[i] = chosen[i]
                d -= 1
                continue
            if d + (m - covered + max_degree - 1) // max_degree >= best:
                d -= 1
                continue
            # greedy disjoint-line matching among uncovered lines
            for i in range(w):
                used[i] = 0
            lb = 0
            for j in range(m):
                if (cov[d, j >> 6] >> np.uint64(j & 63)) & np.uint64(1):
                    continue
                disjoint = True
                for i in range(w):
                    if line_words[j, i] & used[i]:
                        disjoint = False
                        break
                if disjoint:
                    lb += 1
                    for i in range(w):
                        used[i] |= line_words[j, i]
            if d + lb >= best:
                d -= 1
                continue
            bl = -1
            for j in range(m):
                if (cov[d, j >> 6] >> np.uint64(j & 63)) & np.uint64(1):
                    continue
                if bl < 0 or line_sizes[j] < line_sizes[bl]:
                    bl = j
            branch_line[d] = bl
            branch_pos[d] = 0
            continue
        j = branch_line[d]
        if branch_pos[d] >= line_sizes[j]:
            d -= 1
            continue
        p = line_points[j, branch_pos[d]]
        branch_pos[d] += 1
        chosen[d] = p
        for i in range(mw):
            cov[d + 1, i] = cov[d, i] | point_lines[p, i]
        d += 1
        pending = True
    return best, improved, witness, nodes


def _gamma_search(cover_words, cover_lists, cover_sizes, universe, best0):
    """Branch and bound for minimum set cover by closed neighborhoods.

    cover_words: (n, W) uint64, closed neighborhood of each candidate point.
    cover_lists: (n, cmax) int32, neighborhood members ascending, -1 padded.
    cover_sizes: (n,) int32.
    universe:    (W,) uint64, points still needing domination (nonempty).

    Branch rule: uncovered point with the fewest covering candidates, lowest
    index; candidates in ascending order. Tried-candidate exclusion: once
    the subtree of candidate v of branch point u is finished, every cover
    containing v has been searched, so v is excluded from the subtrees of
    u's later candidates. Bounds over the candidates not excluded: a node
    where some uncovered point has no such candidate is pruned; otherwise
    ceil(remaining / best residual cover).
    """
    n = cover_words.shape[0]
    w = universe.shape[0]
    nodes = np.int64(0)
    best = np.int64(best0)
    improved = np.int64(0)

    cap = best0 + 2
    witness = np.full(cap, -1, dtype=np.int32)
    cov = np.zeros((cap, w), dtype=np.uint64)
    excluded = np.zeros((cap, w), dtype=np.uint64)
    tried = np.zeros((cap, w), dtype=np.uint64)
    reach = np.zeros(w, dtype=np.uint64)
    branch_point = np.zeros(cap, dtype=np.int32)
    branch_pos = np.zeros(cap, dtype=np.int32)
    chosen = np.zeros(cap, dtype=np.int32)

    d = 0
    pending = True
    while d >= 0:
        if pending:
            nodes += 1
            pending = False
            remaining = np.int64(0)
            for i in range(w):
                x = universe[i] & ~cov[d, i]
                x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
                x = (x & np.uint64(0x3333333333333333)) + (
                    (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
                )
                x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
                x = x + (x >> np.uint64(8))
                x = x + (x >> np.uint64(16))
                x = x + (x >> np.uint64(32))
                remaining += np.int64(x & np.uint64(0x7F))
            if remaining == 0:
                if d < best:
                    best = d
                    improved = 1
                    for i in range(d):
                        witness[i] = chosen[i]
                d -= 1
                continue
            if d + 1 >= best:
                d -= 1
                continue
            maxcov = np.int64(0)
            for i in range(w):
                reach[i] = 0
            for v in range(n):
                if (excluded[d, v >> 6] >> np.uint64(v & 63)) & np.uint64(1):
                    continue
                c = np.int64(0)
                for i in range(w):
                    x = cover_words[v, i] & universe[i] & ~cov[d, i]
                    reach[i] |= x
                    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
                    x = (x & np.uint64(0x3333333333333333)) + (
                        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
                    )
                    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
                    x = x + (x >> np.uint64(8))
                    x = x + (x >> np.uint64(16))
                    x = x + (x >> np.uint64(32))
                    c += np.int64(x & np.uint64(0x7F))
                if c > maxcov:
                    maxcov = c
            stranded = False
            for i in range(w):
                if universe[i] & ~cov[d, i] & ~reach[i]:
                    stranded = True
                    break
            if stranded:
                d -= 1
                continue
            lb = (remaining + maxcov - 1) // maxcov
            if d + lb >= best:
                d -= 1
                continue
            bu = -1
            for u in range(n):
                if ((universe[u >> 6] >> np.uint64(u & 63)) & np.uint64(1)) == 0:
                    continue
                if (cov[d, u >> 6] >> np.uint64(u & 63)) & np.uint64(1):
                    continue
                if bu < 0 or cover_sizes[u] < cover_sizes[bu]:
                    bu = u
            branch_point[d] = bu
            branch_pos[d] = 0
            for i in range(w):
                tried[d, i] = 0
            continue
        u = branch_point[d]
        v = -1
        while branch_pos[d] < cover_sizes[u]:
            v = cover_lists[u, branch_pos[d]]
            branch_pos[d] += 1
            if ((excluded[d, v >> 6] >> np.uint64(v & 63)) & np.uint64(1)) == 0:
                break
            v = -1
        if v < 0:
            d -= 1
            continue
        chosen[d] = v
        for i in range(w):
            cov[d + 1, i] = cov[d, i] | cover_words[v, i]
            excluded[d + 1, i] = excluded[d, i] | tried[d, i]
        tried[d, v >> 6] |= np.uint64(1) << np.uint64(v & 63)
        d += 1
        pending = True
    return best, improved, witness, nodes


def _nu2_search(line_points, line_sizes, num_points, meet):
    """Branch and bound for the maximum 2-packing.

    meet: (m, m) int32, the point shared by lines i and j, or -1 when they
    are disjoint (and on the diagonal).

    Lines are decided in index order, include branch first. A line is
    selectable while all its points are covered at most once. Meet bound:
    a line added below a node either misses a chosen line l or meets it at
    a once-covered point of l, and no two added lines share such a point.
    So at most (selectable lines missing l) + (points of l on a selectable
    line) lines can still be added, for every chosen l, and at most the
    number of selectable lines. For an intersecting system this gives
    nu2 <= rank + 1. Prune when current size plus the least of these cannot
    beat the incumbent. Returns (best, witness_buffer, nodes); the first
    `best` entries of the buffer are the chosen line indices (ascending).
    """
    m = line_sizes.shape[0]
    counts = np.zeros(num_points, dtype=np.uint8)
    stamp = np.zeros(num_points, dtype=np.int64)
    phase = np.zeros(m + 2, dtype=np.uint8)
    chosen = np.zeros(m + 1, dtype=np.int32)
    witness = np.zeros(m + 1, dtype=np.int32)
    selectable = np.zeros(m, dtype=np.int32)
    best = np.int64(0)
    nodes = np.int64(0)
    size = np.int64(0)
    tick = np.int64(0)

    d = 0
    phase[0] = 0
    while d >= 0:
        ph = phase[d]
        if ph == 0:
            nodes += 1
            if size > best:
                best = size
                for i in range(size):
                    witness[i] = chosen[i]
            if d == m:
                phase[d] = 2
                continue
            sel = np.int64(0)
            for j in range(d, m):
                ok = True
                for t in range(line_sizes[j]):
                    if counts[line_points[j, t]] > 1:
                        ok = False
                        break
                if ok:
                    selectable[sel] = j
                    sel += 1
            ub = sel
            for c in range(size):
                if size + ub <= best:
                    break
                l = chosen[c]
                tick += 1
                b = np.int64(0)
                for k in range(sel):
                    p = meet[l, selectable[k]]
                    if p < 0:
                        b += 1
                    elif stamp[p] != tick:
                        stamp[p] = tick
                        b += 1
                if b < ub:
                    ub = b
            if size + ub <= best:
                phase[d] = 2
                continue
            if sel > 0 and selectable[0] == d:
                phase[d] = 1
                for t in range(line_sizes[d]):
                    counts[line_points[d, t]] += 1
                chosen[size] = d
                size += 1
            else:
                phase[d] = 2
            d += 1
            phase[d] = 0
            continue
        if ph == 1:
            size -= 1
            for t in range(line_sizes[d]):
                counts[line_points[d, t]] -= 1
            phase[d] = 2
            d += 1
            phase[d] = 0
            continue
        d -= 1
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
    pairwise_intersections=_pairwise_numpy,
    tau_search=_tau_search,
    gamma_search=_gamma_search,
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
        JIT_KERNELS = KernelSet(
            name="numba",
            pairwise_intersections=_jit(_pairwise_loop),
            tau_search=_jit(_tau_search),
            gamma_search=_jit(_gamma_search),
            nu2_search=_jit(_nu2_search),
        )

ACTIVE = JIT_KERNELS if JIT_KERNELS is not None else PY_KERNELS
