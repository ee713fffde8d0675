"""Brute-force reference implementations for the three invariants and
for isomorphism, embedding and the projective-plane axioms, the
reference LinearSystem constructor, the reference greedy cover and
cover-search kernel, derive's reference subset test and the lex-first
dual conic of PG(2,q).

Deliberately naive: plain set arithmetic over itertools subsets and
permutations, sharing no code with the package (the reference
constructor takes only its exception types). Only usable at small scale
(the corpus keeps instances at <= 16 points and <= 12 lines; the
point-map oracles want at most about 7 points, the plane-axiom oracle
at most about 21). The reference kernel is not brute force: it is the
cover search one node at a time, whose tree, witness and node count
the package's kernel must reproduce; the reference greedy cover is the
seed taken from a dense cover matrix, whose picks the seeds built from
the lines must reproduce. The dual conic is geometry, not
search: it takes a built plane's coordinates and field tables as data.
``system_fields`` lists what a built system exposes, to compare a
system built without the constructor's tests with its validated rebuild.
"""

import itertools
import numbers
from collections import Counter

import numpy as np

from linsys.errors import BadIndex, DuplicateLine, EmptyLine, LinearityViolation


def _reference_point(x, num_points, where):
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise BadIndex(f"{where}: point of type {type(x).__name__} is not an integer")
    v = int(x)
    if not 0 <= v < num_points:
        raise BadIndex(f"{where}: point {v} outside 0..{num_points - 1}")
    return v


def reference_system(num_points, lines):
    """The LinearSystem constructor one entry and one point pair at a
    time: every entry through the Integral check, every pair through
    setdefault. Returns the attributes the package's constructor sets, by
    name, and ``pair_line``, the line through each collinear point pair
    (u, v), u < v, keyed line by line; or raises what it raises."""
    integral = isinstance(num_points, numbers.Integral) and not isinstance(num_points, bool)
    if not integral or num_points < 0:
        shown = int(num_points) if integral else f"type {type(num_points).__name__}"
        raise BadIndex(f"num_points must be a nonnegative integer, got {shown}")
    n = int(num_points)

    cleaned = []
    seen = {}
    for i, raw in enumerate(lines):
        members = frozenset(_reference_point(x, n, f"line {i}") for x in raw)
        if not members:
            raise EmptyLine(f"line {i} is empty")
        if members in seen:
            raise DuplicateLine(f"lines {seen[members]} and {i} are equal")
        seen[members] = i
        cleaned.append(members)
    line_tuples = tuple(tuple(sorted(l)) for l in cleaned)

    # a pair met again on line i clashes with its first holder h; the
    # least (h, i) clash is the least violating line pair
    incident = [[] for _ in range(n)]
    pair = {}
    clash = None
    for i, l in enumerate(line_tuples):
        for a, u in enumerate(l):
            incident[u].append(i)
            for v in l[a + 1 :]:
                h = pair.setdefault((u, v), i)
                if h != i and (clash is None or (h, i) < clash):
                    clash = (h, i)
    if clash is not None:
        h, i = clash
        raise LinearityViolation(h, i, cleaned[h] & cleaned[i])
    degrees = np.fromiter(map(len, incident), dtype=np.int32, count=n)
    return {
        "num_points": n,
        "line_tuples": line_tuples,
        "degrees": degrees,
        "support": frozenset(int(v) for v in np.nonzero(degrees)[0]),
        "pair_line": pair,
        "lines_through": tuple(map(tuple, incident)),
    }


def brute_transversal(num_points, lines):
    line_sets = [set(l) for l in lines]
    assert line_sets
    for k in range(0, num_points + 1):
        for combo in itertools.combinations(range(num_points), k):
            pts = set(combo)
            if all(pts & l for l in line_sets):
                return k
    raise AssertionError("some line is empty")


def brute_domination(num_points, lines):
    closed = []
    for v in range(num_points):
        nb = {v}
        for l in lines:
            if v in l:
                nb |= set(l)
        closed.append(nb)
    universe = set(range(num_points))
    for k in range(0, num_points + 1):
        for combo in itertools.combinations(range(num_points), k):
            dominated = set()
            for v in combo:
                dominated |= closed[v]
            if dominated == universe:
                return k
    raise AssertionError("unreachable: the full point set dominates")


def brute_two_packing(num_points, lines):
    m = len(lines)
    assert m > 0
    line_sets = [set(l) for l in lines]
    for k in range(m, 0, -1):
        for combo in itertools.combinations(range(m), k):
            counts = {}
            ok = True
            for i in combo:
                for v in line_sets[i]:
                    counts[v] = counts.get(v, 0) + 1
                    if counts[v] > 2:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return k
    return 0


def brute_pendant_reduction(lines):
    """Delete every degree-1 point, round after round, until none is
    left; emptied lines go and lines that become equal merge."""
    cur = {frozenset(l) for l in lines}
    while True:
        deg = Counter(v for l in cur for v in l)
        ones = {v for v, d in deg.items() if d == 1}
        if not ones:
            return cur
        cur = {l - ones for l in cur} - {frozenset()}


def reference_pendants(lines, combo):
    """derive's subset test and pendant loop, as they were: the chosen
    lines must cover every point that is on a line, and each must hold a
    point on no other chosen line. Returns the first such point of each
    chosen line, in combo's order, or None."""
    support = set()
    for l in lines:
        support.update(l)
    union = set()
    for i in combo:
        union.update(lines[i])
    if union != support:
        return None
    deg = {}
    for i in combo:
        for v in lines[i]:
            deg[v] = deg.get(v, 0) + 1
    if not all(any(deg[v] == 1 for v in lines[i]) for i in combo):
        return None
    return tuple(next(v for v in lines[i] if deg[v] == 1) for i in combo)


def brute_isomorphic(lines_a, lines_b):
    """The pendant reductions are isomorphic: some bijection of their
    point sets carries the line set of one onto the line set of the other."""
    a = brute_pendant_reduction(lines_a)
    b = brute_pendant_reduction(lines_b)
    pts_a = sorted(set().union(*a))
    pts_b = sorted(set().union(*b))
    if len(pts_a) != len(pts_b) or len(a) != len(b):
        return False
    for img in itertools.permutations(pts_b):
        phi = dict(zip(pts_a, img))
        if {frozenset(phi[v] for v in l) for l in a} == b:
            return True
    return False


def brute_embeds(sub_lines, host_lines):
    """Some injective map of sub's points into host's points carries each
    sub line inside a host line, with distinct sub lines in distinct host
    lines."""
    sub = sorted((frozenset(l) for l in sub_lines), key=len, reverse=True)
    host = [frozenset(l) for l in host_lines]
    inside = {
        frozenset(part)
        for h in host
        for k in range(1, len(h) + 1)
        for part in itertools.combinations(h, k)
    }
    pts = sorted(set().union(*sub))
    for img in itertools.permutations(sorted(set().union(*host)), len(pts)):
        phi = dict(zip(pts, img))
        if not all(frozenset(phi[v] for v in l) in inside for l in sub):
            continue
        cands = [[j for j, h in enumerate(host) if {phi[v] for v in l} <= h] for l in sub]
        if any(len(set(c)) == len(c) for c in itertools.product(*cands)):
            return True
    return False


def brute_plane_axioms(num_points, lines):
    """The projective-plane axioms in a fixed order, with the first
    failure's detail: point-pairs, line-pairs, general-position (some four
    points with no three on a line), uniformity (one line size, equal to
    every degree) and counts (n = m = q^2+q+1). Returns the tuple
    (is_plane, order, failed_axiom, detail)."""
    line_sets = [set(l) for l in lines]
    n, m = num_points, len(line_sets)

    def fail(axiom, detail):
        return (False, None, axiom, detail)

    for u, v in itertools.combinations(range(n), 2):
        if not any(u in l and v in l for l in line_sets):
            return fail("point-pairs", f"points {u} and {v} lie on no common line")
    for i, j in itertools.combinations(range(m), 2):
        if not line_sets[i] & line_sets[j]:
            return fail("line-pairs", f"lines {i} and {j} are disjoint")

    def collinear(triple):
        return any(set(triple) <= l for l in line_sets)

    if not any(
        not any(collinear(t) for t in itertools.combinations(quad, 3))
        for quad in itertools.combinations(range(n), 4)
    ):
        return fail("general-position", "no four points in general position")

    sizes = sorted({len(l) for l in line_sets})
    if len(sizes) != 1:
        return fail("uniformity", f"line sizes {sizes} differ")
    r = sizes[0]
    degs = sorted({sum(v in l for l in line_sets) for v in range(n)})
    if degs != [r]:
        return fail("uniformity", f"degrees {degs} differ from line size {r}")
    q = r - 1
    expected = q * q + q + 1
    if n != expected or m != expected:
        return fail(
            "counts",
            f"{n} points and {m} lines, expected {expected} for order {q}",
        )
    return (True, q, None, None)


# The greedy seed of tau and gamma as it was taken from their dense cover
# matrices, before the seeds were built from the lines. Unchanged but for
# its name.
def reference_greedy_cover(covers, universe):
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


# The cover-search kernel as it stood before its nodes carried their
# state down from the parent: every child runs its own tests, every node
# sums its uncovered row afresh, and excluded and tried are separate
# rows. Unchanged but for its name; the kernel must match it node for
# node.
def reference_cover_search(covers, cand_lists, cand_sizes, universe, best0):
    """Branch and bound for a minimum set cover.

    covers:      (k, e) uint8, covers[v, u] = 1 when candidate v covers
                 element u.
    cand_lists:  (e, cmax) int32, the candidates covering each element,
                 ascending, -1 padded.
    cand_sizes:  (e,) int32, the number of candidates covering each element.
    universe:    (e,) uint8, 1 at the elements to cover (at least one).
    best0:       incumbent size (from a greedy cover).

    tau passes the points as candidates over the lines; gamma passes its
    closed-neighbourhood matrix.

    Branch rule: the uncovered element with the fewest candidates, lowest
    index on ties; its candidates in ascending order. Tried-candidate
    exclusion: once the subtree of candidate v of the branch element is
    finished, every cover containing v has been searched, so v is excluded
    from the subtrees of the later candidates. Bounds, in this order: a
    node at depth d is pruned when one more candidate cannot beat the
    incumbent, or when remaining > (best - d - 1) * maxcov, maxcov being
    the largest residual cover of a candidate not excluded. For maxcov >= 1
    that is d + ceil(remaining / maxcov) >= best; maxcov = 0 always prunes,
    rightly, as no allowed candidate covers an uncovered element.

    Each depth keeps 0/1 uint8 masks over the elements (uncovered) and over
    the candidates (excluded, tried), so a node costs a fixed number of
    whole-array steps: one masked row sum, a max and an argmin.
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
            residual = (covers & uncov).sum(axis=1)
            maxcov = np.int64((residual * (excluded[d] == 0)).max())
            if remaining > (best - d - 1) * maxcov:
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


def lex_first_dual_conic(plane):
    """The dual conic through the first five lines of PG(2,q) that the
    greedy packing takes, for odd q, as line indices ascending.

    Lines are taken in index order, each one that leaves no point on three
    kept lines, until five are kept. No three of them are concurrent, so
    their coordinates, as points of the dual plane, lie on exactly one
    conic sum c_ij a_i a_j = 0 (Hirschfeld): the five linear equations in
    the six coefficients c over GF(q) have a one-dimensional solution
    space. The result is every line whose coordinates lie on that conic.
    For odd q every (q+1)-arc is a conic (Segre 1955), so every maximum
    2-packing of PG(2,q) is a dual conic, and the include-first search in
    index order finds this one first. A non-Desarguesian plane of order 9
    exists, so this holds only for ``projective_plane``'s PG(2,q), never
    for a system that merely passes the plane axioms.
    """
    q = plane.order
    assert q % 2 == 1 and q >= 5
    add, mul, inv = plane.field.add_table, plane.field.mul_table, plane.field.inv_table
    neg = [next(b for b in range(q) if add[a, b] == 0) for a in range(q)]

    def monomials(a):
        a0, a1, a2 = a
        return [int(mul[x, y]) for x, y in ((a0, a0), (a1, a1), (a2, a2), (a0, a1), (a0, a2), (a1, a2))]

    def on_conic(coef, a):
        total = 0
        for c, x in zip(coef, monomials(a)):
            total = int(add[total, mul[c, x]])
        return total == 0

    covered = Counter()
    five = []
    for i, l in enumerate(plane.system.line_tuples):
        if all(covered[v] < 2 for v in l):
            five.append(i)
            covered.update(l)
            if len(five) == 5:
                break

    # Gauss-Jordan elimination over GF(q); the one column without a pivot
    # is the free coefficient, set to 1
    rows = [monomials(plane.point_coords[i]) for i in five]
    pivots = []
    for c in range(6):
        r = len(pivots)
        p = next((i for i in range(r, 5) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        f = inv[rows[r][c]]
        rows[r] = [int(mul[f, x]) for x in rows[r]]
        for i in range(5):
            if i != r and rows[i][c]:
                g = neg[rows[i][c]]
                rows[i] = [int(add[x, mul[g, y]]) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    assert len(pivots) == 5, "five lines, no three concurrent, lie on one conic"
    (free,) = set(range(6)) - set(pivots)
    coef = [0] * 6
    coef[free] = 1
    for row, c in zip(rows, pivots):
        coef[c] = neg[row[free]]
    return tuple(i for i, a in enumerate(plane.point_coords) if on_conic(coef, a))


def system_fields(sys):
    """Every field of a built system."""
    return (
        sys.num_points,
        sys.name,
        sys.line_tuples,
        sys.degrees.dtype,
        sys.degrees.tolist(),
        sys.lines_through,
        sys.support,
    )
