"""Answer checkers for the linsys benchmark.

Plain Python over ``(num_points, lines)`` pairs, sharing no code with
linsys, so a wrong value or a bad witness is caught even when the program
and its own verifiers agree on it. Every ``check_*`` function returns
None when the answer is right and a one-line reason when it is not.
Node counts are never checked: a search bound may legitimately change
them.
"""

import itertools


def _masks(n, lines):
    """Bitmask of the lines through each point."""
    through = [0] * n
    for i, l in enumerate(lines):
        for v in l:
            through[v] |= 1 << i
    return through


def _closed_hoods(n, lines):
    hood = [1 << v for v in range(n)]
    for l in lines:
        bits = sum(1 << v for v in l)
        for v in l:
            hood[v] |= bits
    return hood


def is_transversal(n, lines, points):
    pts = set(points)
    return all(0 <= v < n for v in pts) and all(pts & set(l) for l in lines)


def is_dominating(n, lines, points):
    pts = set(points)
    if not all(0 <= v < n for v in pts):
        return False
    hood = _closed_hoods(n, lines)
    covered = 0
    for v in pts:
        covered |= hood[v]
    return covered == (1 << n) - 1


def is_two_packing(lines, indices):
    idx = list(indices)
    if len(idx) != len(set(idx)) or not all(0 <= i < len(lines) for i in idx):
        return False
    counts = {}
    for i in idx:
        for v in lines[i]:
            counts[v] = counts.get(v, 0) + 1
    return all(c <= 2 for c in counts.values())


def brute_tau(n, lines):
    through = _masks(n, lines)
    full = (1 << len(lines)) - 1
    support = [v for v in range(n) if through[v]]
    for k in range(1, len(support) + 1):
        for combo in itertools.combinations(support, k):
            hit = 0
            for v in combo:
                hit |= through[v]
            if hit == full:
                return k
    raise ValueError("a system without lines has no transversal number")


def brute_gamma(n, lines):
    hood = _closed_hoods(n, lines)
    full = (1 << n) - 1
    for k in range(0, n + 1):
        for combo in itertools.combinations(range(n), k):
            hit = 0
            for v in combo:
                hit |= hood[v]
            if hit == full:
                return k
    raise AssertionError("unreachable: all points dominate")


def brute_nu2(lines):
    for k in range(len(lines), 0, -1):
        for combo in itertools.combinations(range(len(lines)), k):
            if is_two_packing(lines, combo):
                return k
    return 0


def oracle(n, lines):
    """Exact tau, gamma and nu2 by exhaustive search (small systems only)."""
    return {
        "tau": brute_tau(n, lines),
        "gamma": brute_gamma(n, lines),
        "nu2": brute_nu2(lines),
    }


def check_solve(kind, system, answer, expected_value):
    """answer: {"value": int, "witness": [...], "verified": bool}, where
    verified is the program's own verify_* verdict."""
    n, lines = system
    value, witness = answer["value"], answer["witness"]
    if value != expected_value:
        return f"{kind} = {value}, expected {expected_value}"
    if len(witness) != value or len(set(witness)) != value:
        return f"{kind} witness {witness} does not have {value} distinct entries"
    ok = {
        "tau": lambda: is_transversal(n, lines, witness),
        "gamma": lambda: is_dominating(n, lines, witness),
        "nu2": lambda: is_two_packing(lines, witness),
    }[kind]()
    if not ok:
        return f"{kind} witness {witness} fails the checker"
    if answer.get("verified") is not True:
        return f"{kind} witness {witness} rejected by the program's verifier"
    return None


def pendant_reduce(n, lines):
    """Delete degree-1 points until none remain; merge lines that become
    equal, drop lines that become empty. Returns (lines as frozensets,
    deleted points in deletion order)."""
    cur = [frozenset(l) for l in lines]
    removed = []
    while True:
        deg = [0] * n
        for l in cur:
            for v in l:
                deg[v] += 1
        ones = [v for v in range(n) if deg[v] == 1]
        if not ones:
            return cur, removed
        for v in ones:
            out = []
            for l in cur:
                nl = l - {v}
                if nl and nl not in out:
                    out.append(nl)
            cur = out
            removed.append(v)


def check_bijection(a, b, mapping):
    """mapping (point -> point) is an isomorphism between the
    pendant-reduced forms of systems a and b."""
    la, _ = pendant_reduce(*a)
    lb, _ = pendant_reduce(*b)
    sa = set().union(*la) if la else set()
    sb = set().union(*lb) if lb else set()
    if set(mapping) != sa or set(mapping.values()) != sb:
        return "bijection does not map support onto support"
    image = {frozenset(mapping[v] for v in l) for l in la}
    if image != set(lb):
        return "bijection does not map lines onto lines"
    return None


def check_embedding(sub, host, point_map, line_map):
    """point_map is injective and carries every sub line into the distinct
    host line that line_map names."""
    _, sub_lines = sub
    _, host_lines = host
    support = set().union(*map(set, sub_lines)) if sub_lines else set()
    if set(point_map) != support:
        return "embedding does not map exactly the sub support"
    if len(set(point_map.values())) != len(point_map):
        return "embedding point map is not injective"
    if set(line_map) != set(range(len(sub_lines))):
        return "embedding line map does not cover every sub line"
    if len(set(line_map.values())) != len(line_map):
        return "embedding line map is not injective"
    for i, l in enumerate(sub_lines):
        j = line_map[i]
        if not 0 <= j < len(host_lines):
            return f"sub line {i} maps to missing host line {j}"
        if not {point_map[v] for v in l} <= set(host_lines[j]):
            return f"sub line {i} is not carried into host line {j}"
    return None


def check_plane(system, q):
    """system is a projective plane of order q: right counts, uniform
    lines, and every point pair on exactly one line."""
    n, lines = system
    want = q * q + q + 1
    if n != want or len(lines) != want:
        return f"{n} points and {len(lines)} lines, expected {want}"
    if any(len(l) != q + 1 for l in lines):
        return f"a line does not have {q + 1} points"
    seen = set()
    for l in lines:
        for pair in itertools.combinations(sorted(l), 2):
            if pair in seen:
                return f"points {pair} lie on two lines"
            seen.add(pair)
    if len(seen) != n * (n - 1) // 2:
        return "some point pair lies on no line"
    return None


def check_arc(system, points, size):
    """points is a set of `size` points with no three on a line."""
    _, lines = system
    pts = set(points)
    if len(pts) != size:
        return f"arc has {len(pts)} points, expected {size}"
    if any(len(pts & set(l)) > 2 for l in lines):
        return "three arc points are collinear"
    return None


def same_lines(a, b):
    """Both systems have the same point count and the same set of lines."""
    return a[0] == b[0] and {frozenset(l) for l in a[1]} == {
        frozenset(l) for l in b[1]
    }


def system_of(data):
    """(num_points, lines) of a linsys JSON object."""
    return data["num_points"], data["lines"]


def check_derivation(source, report, r):
    """report is derive's --json output for source at rank r."""
    if report.get("member") is not True:
        return "derive reported not a member"
    chain = report["chain"]
    if chain.get("target") != r - 1 or any(v != r - 1 for v in chain.values()):
        return f"derive chain {chain} is not all {r - 1}"
    n, lines = source
    idx = report["spanning_line_indices"]
    spanning = [set(lines[i]) for i in idx]
    pendants = {int(k): v for k, v in report["pendant_map"].items()}
    if sorted(pendants) != list(range(len(spanning))):
        return "pendant map does not cover every spanning line"
    degree = {}
    for l in spanning:
        for v in l:
            degree[v] = degree.get(v, 0) + 1
    if set().union(*spanning) != set().union(*map(set, lines)):
        return "spanning lines do not cover the support"
    for j, v in pendants.items():
        if v not in spanning[j] or degree[v] != 1:
            return f"pendant {v} is not a degree-1 point of spanning line {j}"
    want = [sorted(l - {pendants[j]}) for j, l in enumerate(spanning)]
    red = system_of(report["reduced"])
    if not same_lines((n, want), red):
        return "reduced system is not the spanning lines minus their pendants"
    if any(len(l) != r - 1 for l in red[1]):
        return f"reduced system is not {r - 1}-uniform"
    return None
