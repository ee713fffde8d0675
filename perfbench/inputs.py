"""Seeded input generation for the linsys benchmark.

Plain Python, independent of linsys: finite-field arithmetic, PG(2,q),
triangular systems, pendant extensions, random linear systems and random
relabellings. A system is a pair ``(num_points, lines)`` with every line a
sorted list of point indices. The same seed always gives byte-identical
JSON texts, because every random choice comes from a ``random.Random``
seeded by a string that names the seed and the stream.
"""

import itertools
import json
import random

# Monic irreducible moduli for the non-prime orders, low degree first.
_EXTENSIONS = {
    4: (2, (1, 1, 1)),
    8: (2, (1, 1, 0, 1)),
    9: (3, (1, 0, 1)),
    16: (2, (1, 1, 0, 0, 1)),
}
_PRIMES = (2, 3, 5, 7, 11, 13)


def rng_for(seed, stream):
    """An independent random stream per (seed, stream name)."""
    return random.Random(f"linsys-bench:{seed}:{stream}")


def field_tables(q):
    """(add, mul) tables of GF(q) for q prime or in ``_EXTENSIONS``.
    Element i stands for the polynomial with base-p digits of i."""
    if q in _PRIMES:
        rng = range(q)
        return (
            [[(a + b) % q for b in rng] for a in rng],
            [[(a * b) % q for b in rng] for a in rng],
        )
    if q not in _EXTENSIONS:
        raise ValueError(f"no field table for order {q}")
    p, modulus = _EXTENSIONS[q]
    k = len(modulus) - 1
    digits = [[(x // p**i) % p for i in range(k)] for x in range(q)]

    def encode(coeffs):
        return sum(c * p**i for i, c in enumerate(coeffs))

    def times(a, b):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(digits[a]):
            for j, y in enumerate(digits[b]):
                prod[i + j] = (prod[i + j] + x * y) % p
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d]
            if c:
                for i, m in enumerate(modulus):
                    prod[d - k + i] = (prod[d - k + i] - c * m) % p
        return encode(prod[:k])

    add = [
        [encode([(x + y) % p for x, y in zip(digits[a], digits[b])]) for b in range(q)]
        for a in range(q)
    ]
    mul = [[times(a, b) for b in range(q)] for a in range(q)]
    return add, mul


def projective_plane(q):
    """PG(2,q) from normalized homogeneous triples; the triple list indexes
    both points and lines, and x lies on a when a . x = 0."""
    add, mul = field_tables(q)
    triples = [(0, 0, 1)]
    triples += [(0, 1, x) for x in range(q)]
    triples += [(1, x, y) for x in range(q) for y in range(q)]
    lines = []
    for a0, a1, a2 in triples:
        row0, row1, row2 = mul[a0], mul[a1], mul[a2]
        lines.append(
            [
                i
                for i, (x0, x1, x2) in enumerate(triples)
                if add[add[row0[x0]][row1[x1]]][row2[x2]] == 0
            ]
        )
    return len(triples), lines


def triangular(m):
    """Points are the pairs of {1..m} in lexicographic order; line i holds
    the pairs that contain i."""
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    return len(pairs), [
        [j for j, pair in enumerate(pairs) if i in pair] for i in range(1, m + 1)
    ]


def pendant_extension(system):
    """Append a fresh point to every line: line i gains point n + i."""
    n, lines = system
    return n + len(lines), [list(l) + [n + i] for i, l in enumerate(lines)]


def random_linear_system(rng, n, target):
    """A random linear system on n points with up to `target` lines of 2..5
    points, each pair of lines sharing at most one point, at least one
    line."""
    lines = []
    for _ in range(200):
        if len(lines) == target:
            break
        cand = frozenset(rng.sample(range(n), rng.randint(2, min(5, n))))
        if cand in lines or any(len(cand & l) > 1 for l in lines):
            continue
        lines.append(cand)
    return n, [sorted(l) for l in lines]


def relabel(system, rng):
    """Apply a random point permutation and shuffle the line order.
    Returns the new system and the permutation (old point -> new point)."""
    n, lines = system
    perm = list(range(n))
    rng.shuffle(perm)
    out = [sorted(perm[v] for v in l) for l in lines]
    rng.shuffle(out)
    return (n, out), perm


def to_json(system, name=None):
    """Canonical JSON text in the linsys file format."""
    n, lines = system
    data = {"num_points": n, "lines": [list(l) for l in lines]}
    if name is not None:
        data["name"] = name
    return json.dumps(data, sort_keys=True, separators=(",", ":"))
