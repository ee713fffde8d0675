import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from linsys import BadIndex, NotPrime, SizeLimit, make_field, projective_plane, triangular_system
from linsys.limits import Caps


def test_gf2_basics():
    F = make_field(2, 1)
    assert F.add(1, 1) == 0
    assert F.mul(1, 1) == 1
    assert F.modulus == (0, 1)


def test_gf4_modulus_and_generator_relation():
    F = make_field(2, 2)
    # modulus x^2 + x + 1, low-degree-first coefficients
    assert F.modulus == (1, 1, 1)
    # element 2 encodes x, and x*x = x + 1
    assert F.mul(2, 2) == F.add(2, 1)


def test_gf8_multiplicative_order():
    F = make_field(2, 3)
    assert F.modulus == (1, 0, 1, 1)
    for e in range(1, 8):
        x = 1
        for _ in range(7):
            x = F.mul(x, e)
        assert x == 1


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4)])
def test_field_axioms_exhaustive(p, k):
    F = make_field(p, k)
    q = F.q
    els = range(q)
    assert all(F.add(0, a) == a for a in els)
    assert all(F.mul(1, a) == a for a in els)
    assert all(F.mul(a, F.inv(a)) == 1 for a in els if a != 0)
    assert (F.add_table == F.add_table.T).all()
    assert (F.mul_table == F.mul_table.T).all()
    if q <= 16:
        for a, b, c in itertools.product(els, repeat=3):
            assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("p,k", [(2, 2), (3, 1), (2, 4), (7, 1)])
def test_multiplicative_group_cyclic(p, k):
    F = make_field(p, k)
    q = F.q

    def order(e):
        x, o = e, 1
        while x != 1:
            x = F.mul(x, e)
            o += 1
        return o

    assert any(order(e) == q - 1 for e in range(1, q))


def test_modulus_has_no_root():
    for p, k in [(2, 2), (2, 3), (3, 2), (2, 4)]:
        F = make_field(p, k)
        coeffs = F.modulus
        for x in range(p):
            acc = 0
            for i, c in enumerate(coeffs):
                acc = (acc + c * pow(x, i, p)) % p
            assert acc != 0, (p, k, x)


def test_rejects_bad_input():
    with pytest.raises(NotPrime):
        make_field(4, 1)
    with pytest.raises(NotPrime):
        make_field(1, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(SizeLimit):
        make_field(2, 9)
    # a tighter cap bites earlier
    with pytest.raises(SizeLimit):
        make_field(2, 3, caps=Caps(field_order=4))


# each generator's order, and make_field's p and k, as the call and the
# message's prefix
GENERATOR_ORDERS = {
    "projective_plane": (projective_plane, "projective_plane: order"),
    "triangular_system": (triangular_system, "triangular_system: m"),
    "make_field-p": (lambda x: make_field(x, 1), "make_field: p"),
    "make_field-k": (lambda x: make_field(2, x), "make_field: k"),
}


@pytest.mark.parametrize("value", [2.0, "3", None, Fraction(4, 1), True], ids=repr)
@pytest.mark.parametrize("call", list(GENERATOR_ORDERS))
def test_generator_orders_must_be_integers(call, value):
    build, where = GENERATOR_ORDERS[call]
    kind = type(value).__name__
    with pytest.raises(BadIndex, match=rf"^{where} of type {kind} is not an integer$"):
        build(value)


def test_generator_orders_take_numpy_integers():
    assert projective_plane(np.int64(3)).system == projective_plane(3).system
    assert triangular_system(np.int32(5)) == triangular_system(5)
    F = make_field(np.int64(3), np.int8(2))
    assert (F.p, F.k, F.q) == (3, 2, 9) and type(F.q) is int


def test_tables_are_read_only():
    F = make_field(2, 2)
    with pytest.raises(ValueError):
        F.add_table[0, 0] = 1


def test_field_cap_comes_before_primality_and_power():
    start = time.perf_counter()
    with pytest.raises(SizeLimit, match=r"field order 2\^1000000000 exceeds cap 256"):
        make_field(2, 10**9)
    assert time.perf_counter() - start < 1.0
    # p above the cap is refused before it is tested for primality
    with pytest.raises(SizeLimit, match="field order 258 exceeds cap 256"):
        make_field(258, 1)
    with pytest.raises(SizeLimit):
        make_field(10**18, 2)
    # below the cap, primality and the degree are still checked first
    with pytest.raises(NotPrime):
        make_field(4, 0)
    with pytest.raises(NotPrime):
        make_field(-7, 10**9)


def test_degree_comes_before_primality_above_the_cap():
    # trial division of a 61-bit prime would not finish
    start = time.perf_counter()
    for p in (10**12 + 39, 2**61 - 1, 258):
        with pytest.raises(ValueError, match="extension degree must be >= 1, got 0"):
            make_field(p, 0)
    assert time.perf_counter() - start < 1.0


def test_messages_past_the_int_string_limit():
    # str() refuses ints of more than 4,300 digits; the messages give the
    # bit length instead, and the exception keeps its type
    start = time.perf_counter()
    with pytest.raises(SizeLimit, match=r"^field order <16610-bit integer> exceeds cap 256$"):
        make_field(10**5000, 1)
    with pytest.raises(SizeLimit, match=r"^field order 2\^<16610-bit integer> exceeds"):
        make_field(2, 10**5000)
    with pytest.raises(NotPrime, match=r"^<16610-bit integer> is not prime$"):
        make_field(-(10**5000), 1)
    with pytest.raises(ValueError, match=r"got <16610-bit integer>$"):
        make_field(2, -(10**5000))
    assert time.perf_counter() - start < 1.0
