import itertools
import time

import pytest

from linsys import NotPrime, SizeLimit, make_field
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
