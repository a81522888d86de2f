"""Exact integer number theory shared across the package.

Everything here is deterministic and exact: primality testing uses a
Miller-Rabin base set that is proven deterministic below 3.3 * 10**24 and
falls back to a generous randomized round count above that, and factoring
combines trial division with Brent's cycle-finding variant of Pollard rho.
The sizes that actually occur in this package (moduli up to 2**20, torsion
orders with a few dozen digits) are comfortably inside these ranges.
"""

from __future__ import annotations

import math
import random

# Deterministic Miller-Rabin witnesses for n < 3_317_044_064_679_887_385_961_981.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Exact primality test (deterministic for all sizes used here)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _MR_DETERMINISTIC_LIMIT:
        bases = _MR_BASES
    else:
        rng = random.Random(n)
        bases = tuple(rng.randrange(2, n - 1) for _ in range(40))
    for a in bases:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """Find a nontrivial factor of composite odd n (Brent's Pollard rho)."""
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as a map prime -> exponent."""
    if n < 1:
        raise ValueError(f"can only factor positive integers, got {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # Trial division by 6k +- 1 up to a fixed bound, then rho on what is left.
    f = 49
    while f * f <= n and f < 100_000:
        for p in (f, f + 4):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    stack = [n] if n > 1 else []
    while stack:
        n = stack.pop()
        if n == 1:
            continue
        if is_prime(n):
            out[n] = out.get(n, 0) + 1
            continue
        g = _brent_rho(n)
        stack.append(g)
        stack.append(n // g)
    return dict(sorted(out.items()))


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime divisors of n >= 1."""
    return list(factorize(n))


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, r) with q = p**r if q is a prime power, else None."""
    if q < 2:
        return None
    fac = factorize(q)
    if len(fac) != 1:
        return None
    ((p, r),) = fac.items()
    return p, r


def nu(x: int, p: int) -> int:
    """p-adic valuation of x != 0: the largest e with p**e dividing x."""
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    if p < 2 or not is_prime(p):
        raise ValueError(f"{p} is not prime")
    x = abs(x)
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def _carmichael(modulus: int) -> int:
    lam = 1
    for p, e in factorize(modulus).items():
        if p == 2 and e >= 3:
            block = 2 ** (e - 2)
        else:
            block = p ** (e - 1) * (p - 1)
        lam = math.lcm(lam, block)
    return lam


def multiplicative_order(a: int, modulus: int) -> int:
    """Order of a in the unit group of Z_modulus.

    Computed by shrinking the Carmichael exponent: the order divides
    lambda(modulus), so repeatedly divide out primes of lambda while the
    power still equals 1.
    """
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    if modulus == 1:
        return 1
    a %= modulus
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not a unit modulo {modulus}")
    order = _carmichael(modulus)
    for p in factorize(order):
        while order % p == 0 and pow(a, order // p, modulus) == 1:
            order //= p
    return order
