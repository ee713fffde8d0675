"""Hot loops: pairwise intersection counts and the exact searches.

Kernels take plain numpy arrays that their callers build right before the
call; ``LinearSystem`` itself holds no packed arrays. Two searches cover
all three invariants:

- ``_cover_search`` finds a minimum set cover, given as a (k, e) uint8
  matrix ``covers`` of k candidates over e elements and its transpose.
  For tau the candidates are the points and the elements the lines; for
  gamma both are the points, a point covering its closed neighbourhood,
  so the matrix is symmetric and is passed as its own transpose.
- ``_nu2_search`` finds a maximum 2-packing over padded line lists and
  the (m, m) table of the points where two lines meet.

The plane-axiom check packs the lines it counts into uint64 words.

The cover search does each node in a fixed number of whole-array steps
over 0/1 uint8 masks, so the pure-numpy path runs no per-candidate Python
loop. It keeps to what numba compiles for integer arrays: elementwise
ufuncs with broadcasting, ``.sum(axis=1)``, ``.max()``, ``.any()``,
``.argmin()`` and three-array ``np.where``; no ``@``/``np.dot``
(float-only in numba), no ``np.bitwise_count`` and no boolean fancy
indexing.

Each search kernel is written once in numba-compatible form. When numba is
importable and ``LINSYS_PURE_NUMPY`` is unset, jitted copies run; otherwise
the same functions execute as plain Python over numpy arrays. Both paths
perform the identical traversal, so values, witnesses and node counts match
bit for bit.

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


def _cover_search(covers, covered_by, cand_lists, cand_sizes, universe, best0):
    """Branch and bound for a minimum set cover.

    covers:      (k, e) uint8, covers[v, u] = 1 when candidate v covers
                 element u.
    covered_by:  (e, k) uint8, the C-contiguous transpose of covers.
    cand_lists:  (e, cmax) int32, the candidates covering each element,
                 ascending, -1 padded.
    cand_sizes:  (e,) int32, the number of candidates covering each element.
    universe:    (e,) uint8, 1 at the elements to cover (at least one).
    best0:       incumbent size (from a greedy cover).

    tau passes the points as candidates over the lines; gamma passes its
    symmetric closed-neighbourhood matrix as both covers and covered_by.

    Branch rule: the uncovered element with the fewest candidates, lowest
    index on ties; its candidates in ascending order. Tried-candidate
    exclusion: once the subtree of candidate v of the branch element is
    finished, every cover containing v has been searched, so v is excluded
    from the subtrees of the later candidates. Bounds, in this order, over
    the candidates not excluded: a node is pruned when one more candidate
    cannot beat the incumbent, when some uncovered element has no such
    candidate left (stranded), or when ceil(remaining / maxcov) more are
    needed, maxcov being the largest residual cover of one candidate.

    Each depth keeps 0/1 uint8 masks over the elements (uncovered) and over
    the candidates (excluded, tried), so a node costs a fixed number of
    whole-array steps: two masked row sums, a max and an argmin.
    Returns (best, improved, witness_buffer, nodes); the first `best`
    witness entries are meaningful only when improved == 1.
    """
    k, e = covers.shape
    nodes = np.int64(0)
    best = np.int64(best0)
    improved = np.int64(0)

    cap = best0 + 2
    witness = np.full(cap, -1, dtype=np.int32)
    uncovered = np.zeros((cap, e), dtype=np.uint8)
    excluded = np.zeros((cap, k), dtype=np.uint8)
    tried = np.zeros((cap, k), dtype=np.uint8)
    no_branch = np.full(e, k + 1, dtype=np.int32)
    branch_elem = np.zeros(cap, dtype=np.int32)
    branch_pos = np.zeros(cap, dtype=np.int32)
    chosen = np.zeros(cap, dtype=np.int32)
    uncovered[0] = universe

    d = 0
    pending = True
    while d >= 0:
        if pending:
            nodes += 1
            pending = False
            uncov = uncovered[d]
            remaining = np.int64(uncov.sum())
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
            allowed = excluded[d] == 0
            reach = (covered_by & allowed).sum(axis=1)
            if ((reach == 0) & (uncov == 1)).any():
                d -= 1
                continue
            residual = (covers & uncov).sum(axis=1)
            maxcov = np.int64((residual * allowed).max())
            lb = (remaining + maxcov - 1) // maxcov
            if d + lb >= best:
                d -= 1
                continue
            branch_elem[d] = np.where(
                uncov == 1, cand_sizes, no_branch
            ).argmin()
            branch_pos[d] = 0
            tried[d] = 0
            continue
        u = branch_elem[d]
        v = -1
        while branch_pos[d] < cand_sizes[u]:
            v = cand_lists[u, branch_pos[d]]
            branch_pos[d] += 1
            if excluded[d, v] == 0:
                break
            v = -1
        if v < 0:
            d -= 1
            continue
        chosen[d] = v
        # ~ turns covers' 1s into 0xFE and its 0s into 0xFF, so the & clears
        # exactly the elements v covers
        uncovered[d + 1] = uncovered[d] & ~covers[v]
        excluded[d + 1] = excluded[d] | tried[d]
        tried[d, v] = 1
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
            pairwise_intersections=_jit(_pairwise_loop),
            tau_search=_jit_cover,
            gamma_search=_jit_cover,
            nu2_search=_jit(_nu2_search),
        )

ACTIVE = JIT_KERNELS if JIT_KERNELS is not None else PY_KERNELS
