"""Brute-force reference implementations for the three invariants and
for isomorphism, embedding and the projective-plane axioms.

Deliberately naive: plain set arithmetic over itertools subsets and
permutations, sharing no code with the package. Only usable at small
scale (the corpus keeps instances at <= 16 points and <= 12 lines; the
point-map oracles want at most about 7 points, the plane-axiom oracle
at most about 21).
"""

import itertools
from collections import Counter


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
