import math

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from sandpiles.arith import (
    factorize,
    is_prime,
    multiplicative_order,
    nu,
    prime_factors,
    prime_power,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
    for n in range(-3, 60):
        assert is_prime(n) == (n in primes)


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(341)  # 2-pseudoprime
    assert is_prime(10**9 + 7)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287


@given(st.integers(min_value=2, max_value=100_000))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


def test_factorize_examples():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(1023) == {3: 1, 11: 1, 31: 1}
    assert factorize(2**20 - 1) == {3: 1, 5: 2, 11: 1, 31: 1, 41: 1}
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


@given(st.integers(min_value=1, max_value=10**12))
def test_factorize_round_trip(n):
    fac = factorize(n)
    assert math.prod(p**e for p, e in fac.items()) == n
    for p in fac:
        assert is_prime(p)
    assert list(fac) == sorted(fac)


def test_factorize_large_semiprime():
    p, q = 1_000_000_007, 998_244_353
    assert factorize(p * q) == {q: 1, p: 1}


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(360) == [2, 3, 5]


def test_prime_power():
    assert prime_power(2) == (2, 1)
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7**5) == (7, 5)
    assert prime_power(6) is None
    assert prime_power(1) is None
    assert prime_power(0) is None


def test_nu_and_pi():
    assert nu(48, 2) == 4
    assert nu(48, 3) == 1
    assert nu(-48, 2) == 4
    assert nu(5, 2) == 0
    with pytest.raises(ValueError):
        nu(0, 2)
    with pytest.raises(ValueError):
        nu(4, 4)


def test_multiplicative_order_examples():
    assert multiplicative_order(3, 8) == 2
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(1, 5) == 1
    assert multiplicative_order(7, 1) == 1
    with pytest.raises(ValueError):
        multiplicative_order(2, 8)
    with pytest.raises(ValueError):
        multiplicative_order(3, 0)


def test_multiplicative_order_prime_power_lifting():
    # ord(2 mod 25) = 20 != ord(2 mod 5), so the order lifts regularly:
    # ord(2 mod 5^(1+i)) = 4 * 5^i.
    for i in range(4):
        assert multiplicative_order(2, 5 ** (1 + i)) == 4 * 5**i
    # 7^4 = 2401 = 1 + 96*25 stalls one level: ord(7 mod 25) stays 4.
    assert multiplicative_order(7, 5) == 4
    assert multiplicative_order(7, 25) == 4
    assert multiplicative_order(7, 125) == 20


@given(st.integers(min_value=2, max_value=400), st.integers(min_value=-50, max_value=50))
def test_multiplicative_order_by_iteration(modulus, a):
    if math.gcd(a, modulus) != 1:
        with pytest.raises(ValueError):
            multiplicative_order(a, modulus)
        return
    order = multiplicative_order(a, modulus)
    x = a % modulus
    seen = 1
    while x != 1 % modulus:
        x = x * a % modulus
        seen += 1
    assert order == seen
