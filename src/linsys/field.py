"""Dense arithmetic tables for small finite fields GF(p^k).

Element i encodes the polynomial whose base-p digit expansion is i, least
significant digit first. The modulus is the lexicographically smallest monic
irreducible of degree k (coefficients compared low-degree-first), so tables
are reproducible across runs and machines.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NotPrime, SizeLimit
from .limits import DEFAULT_CAPS, Caps


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True, eq=False)
class FieldTable:
    """Lookup tables for GF(p^k); q = p**k, elements are 0..q-1."""

    p: int
    k: int
    q: int
    add_table: np.ndarray
    mul_table: np.ndarray
    inv_table: np.ndarray
    modulus: tuple

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.inv_table[a])


def _poly_trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(num, den, p):
    """Remainder of num / den over GF(p), coefficients low-degree-first."""
    num = _poly_trim(num)
    den = _poly_trim(den)
    inv_lead = pow(den[-1], p - 2, p) if p > 2 else den[-1]
    while len(num) >= len(den):
        shift = len(num) - len(den)
        factor = (num[-1] * inv_lead) % p
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - factor * c) % p
        num = _poly_trim(num)
    return num


def _is_irreducible(coeffs, p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg//2."""
    k = len(coeffs) - 1
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            den = list(tail) + [1]
            if not _poly_mod(list(coeffs), den, p):
                return False
    # degree-1 divisors double as the root test, so nothing further needed
    return True


def _smallest_irreducible(p: int, k: int) -> tuple:
    if k == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=k):
        candidate = tail + (1,)
        if _is_irreducible(candidate, p):
            return candidate
    raise AssertionError(f"no irreducible of degree {k} over GF({p})")


def _decimal(x) -> str:
    """str(x), or the bit length of an int of more digits than str() takes."""
    try:
        return str(x)
    except ValueError:
        return f"<{x.bit_length()}-bit integer>"


def make_field(p: int, k: int, caps: Caps = DEFAULT_CAPS) -> FieldTable:
    """Build GF(p^k) tables. p must be prime, k >= 1, p**k within caps."""
    cap = caps.field_order
    # above the cap, refuse k < 1 and p**k > cap before the sqrt(p)-step
    # primality test; build p**k for the message only while that is cheap
    if k < 1 and (p > cap or is_prime(p)):
        raise ValueError(f"extension degree must be >= 1, got {_decimal(k)}")
    if p >= 2 and k >= 1 and (p > cap or k > cap.bit_length()):
        order = p**k if k <= cap.bit_length() else f"{_decimal(p)}^{_decimal(k)}"
        raise SizeLimit(f"field order {_decimal(order)} exceeds cap {cap}")
    if not is_prime(p):
        raise NotPrime(f"{_decimal(p)} is not prime")
    q = p**k
    if q > cap:
        raise SizeLimit(f"field order {q} exceeds cap {cap}")

    modulus = _smallest_irreducible(p, k)

    # digits[i] = base-p expansion of i, low digit first
    idx = np.arange(q)
    digits = np.empty((q, k), dtype=np.int32)
    for e in range(k):
        digits[:, e] = (idx // p**e) % p
    powers = p ** np.arange(k)

    add_table = (
        ((digits[:, None, :] + digits[None, :, :]) % p) @ powers
    ).astype(np.int16)

    # reduction[d] = digits of x^d mod modulus, for degrees up to 2k-2
    reduction = np.zeros((2 * k - 1, k), dtype=np.int32)
    cur = [1]
    for d in range(2 * k - 1):
        reduction[d, : len(cur)] = cur
        cur = _poly_mod([0] + cur, list(modulus), p)

    conv = np.zeros((q, q, 2 * k - 1), dtype=np.int64)
    for s in range(k):
        for t in range(k):
            conv[:, :, s + t] += np.multiply.outer(digits[:, s], digits[:, t])
    mul_digits = np.tensordot(conv, reduction, axes=([2], [0])) % p
    mul_table = (mul_digits @ powers).astype(np.int16)

    inv_table = np.zeros(q, dtype=np.int16)
    a_idx, b_idx = np.nonzero(mul_table == 1)
    inv_table[a_idx] = b_idx

    for arr in (add_table, mul_table, inv_table):
        arr.setflags(write=False)
    return FieldTable(
        p=p,
        k=k,
        q=q,
        add_table=add_table,
        mul_table=mul_table,
        inv_table=inv_table,
        modulus=tuple(int(c) for c in modulus),
    )
