import math
import random
from itertools import product

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from abelsplit.groups import (
    FiniteAbelianGroup,
    factorize,
    is_prime,
    p_adic_valuation,
)
from abelsplit.scan import _factor_by_table, largest_prime_factors


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(105) == ((3, 1), (5, 1), (7, 1))
    assert factorize(81) == ((3, 4),)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-5)


def test_factorize_against_sympy_samples():
    rng = random.Random(7)
    samples = [rng.randrange(2, 10**9) for _ in range(200)]
    big = sympy.nextprime(10**6 + 3)  # 1000033
    huge = 10**12 + 39  # prime, above the trial-division limit squared
    samples += [2**40, 3 * big, huge, 3 * huge]
    for n in samples:
        expected = tuple(sorted(sympy.factorint(n).items()))
        assert factorize(n) == expected
    # a composite cofactor above the trial-division limit is not split
    for n in (big * big, big * sympy.nextprime(big)):
        with pytest.raises(ValueError, match=f"cannot factor {n}"):
            factorize(n)


def test_factorize_roundtrip_sweep_10_to_6():
    # full sweep against the sieve's factorization, an independent
    # algorithm: so the parts are primes, ascending, with exponents >= 1,
    # and their product is n
    lpf = largest_prime_factors(10**6)
    for n in range(1, 10**6 + 1):
        assert factorize(n) == _factor_by_table(n, lpf), n


def test_factorize_primality_of_parts():
    for n in (2, 97, 1009, 104729, 2**31 - 1):
        assert factorize(n) == ((n, 1),)


def test_is_prime_against_sympy():
    for n in range(0, 2000):
        assert is_prime(n) == sympy.isprime(n)


def test_p_adic_valuation_examples():
    assert p_adic_valuation(6, 3) == 1
    assert p_adic_valuation(20, 5) == 1
    assert p_adic_valuation(7, 3) == 0


def test_p_adic_valuation_rejects_bad_input():
    with pytest.raises(ValueError):
        p_adic_valuation(0, 3)
    with pytest.raises(ValueError):
        p_adic_valuation(10, 4)


def test_group_construction():
    g = FiniteAbelianGroup.cyclic(9)
    assert g.order == 9
    assert g.order_factorization == ((3, 2),)
    assert g.is_cyclic and g.modulus == 9
    h = FiniteAbelianGroup((2, 3))
    assert h.order == 6
    assert not h.is_cyclic
    with pytest.raises(ValueError):
        h.modulus
    with pytest.raises(ValueError):
        FiniteAbelianGroup((0, 3))
    with pytest.raises(ValueError):
        FiniteAbelianGroup(())


def test_scalar_mul_examples():
    z10 = FiniteAbelianGroup.cyclic(10)
    assert z10.scalar_mul(3, (4,)) == (2,)
    z11 = FiniteAbelianGroup.cyclic(11)
    assert z11.scalar_mul(0, (7,)) == (0,)
    z5 = FiniteAbelianGroup.cyclic(5)
    assert z5.scalar_mul(-1, (1,)) == (4,)


def test_element_reduction_and_validation():
    g = FiniteAbelianGroup((2, 3))
    assert g.element((5, 7)) == (1, 1)
    assert g.element((-1, -1)) == (1, 2)
    with pytest.raises(ValueError):
        g.element((1,))


def test_element_order_examples():
    z9 = FiniteAbelianGroup.cyclic(9)
    assert z9.element_order((0,)) == 1
    assert z9.element_order((3,)) == 3
    g = FiniteAbelianGroup((2, 3))
    assert g.element_order((1, 1)) == 6


@given(st.integers(2, 400), st.data())
def test_element_order_divides_group_order(n, data):
    g = FiniteAbelianGroup.cyclic(n)
    x = data.draw(st.integers(0, n - 1))
    assert g.order % g.element_order((x,)) == 0


@given(st.integers(2, 200), st.integers(-50, 50), st.data())
def test_order_of_scalar_multiple_law(n, m, data):
    g = FiniteAbelianGroup.cyclic(n)
    x = (data.draw(st.integers(0, n - 1)),)
    order = g.element_order(x)
    assert g.element_order(g.scalar_mul(m, x)) == order // math.gcd(m, order)


def test_elements_enumeration_order():
    g = FiniteAbelianGroup((2, 2))
    elements = list(product(*(range(d) for d in g.factors)))
    assert elements == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert g.identity() == (0, 0)
