"""Closed-form structure of sandpile groups of de Bruijn/Kautz digraphs.

Everything here works for a signed degree parameter d with |d| >= 2:
d >= 2 describes the generalized de Bruijn digraph DB(n, d), d <= -2 the
generalized Kautz digraph Ktz(n, |d|).  Two groups appear throughout:

* the sand dune group Sigma(n, d): the abelian group generated by symbols
  e_1, ..., e_{n-1} (with e_0 = 0) whose relation lattice is spanned by
  eps_v = d*e_v - e_{dv mod n}; and
* the sandpile group S(n, d) of the digraph, the index-n subgroup of
  elements sum(a_v e_v) with sum(v*a_v) = 0 mod n.

Both decompose in closed form through the d-sequence of n (the failure of
n to be coprime to d) and the d-ary cyclotomic cosets modulo the coprime
part m.  A coset's summand depends only on its size, so the group routes
count the cosets per divisor e of m, phi(e)/ord_e(d) of size ord_e(d),
from one order per prime power of m instead of a walk over Z_m;
:func:`cyclotomic_cosets` lists the orbits for the callers that need them.
Congruence conditions such as "d = 3 mod 4" are evaluated on the signed
integer d, which is what makes the Kautz case come out right; the
verification sweeps compare every value against Smith-form oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import abelian
from .abelian import AbelianGroup
from .arith import factorize, multiplicative_order, nu
from .exact_linalg import IntMatrix

__all__ = [
    "DSequence",
    "CosetSystem",
    "SigmaElement",
    "d_sequence",
    "d_type",
    "epsilon_expansion",
    "element_order_in_sigma",
    "element_order_formula",
    "sigma_element_order",
    "cyclotomic_cosets",
    "c_value",
    "sand_dune_group",
    "sandpile_group",
    "membership_in_sandpile",
    "sandpile_generators",
    "sigma_relation_matrix",
]


def _check_d(d: int) -> int:
    if abs(d) < 2:
        raise ValueError(f"need |d| >= 2, got d = {d}")
    return d


@dataclass(frozen=True)
class DSequence:
    """The d-sequence of n: n_0 = n, n_{i+1} = n_i / gcd(n_i, |d|).

    ``chain`` holds (n_0, ..., n_k, n_{k+1}) with the stationary value
    repeated once (n_{k+1} = n_k = m); ``gcds`` holds d_i = gcd(n_i, |d|)
    for i = 0..k, so gcds[-1] = 1.  n factors as delta * m with
    gcd(delta, m) = 1 and m coprime to d.
    """

    n: int
    d: int
    chain: tuple[int, ...]
    gcds: tuple[int, ...]
    k: int
    m: int
    delta: int


def d_sequence(n: int, d: int) -> DSequence:
    _check_d(d)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    ad = abs(d)
    chain = [n]
    gcds = []
    while True:
        g = math.gcd(chain[-1], ad)
        if g == 1:
            break
        gcds.append(g)
        chain.append(chain[-1] // g)
    k = len(chain) - 1
    m = chain[-1]
    gcds.append(1)
    chain.append(m)
    return DSequence(n, d, tuple(chain), tuple(gcds), k, m, n // m)


def d_type(v: int, n: int, d: int) -> tuple[int, int]:
    """Tail length f and cycle length e of v under x -> d*x mod n."""
    _check_d(d)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    first: dict[int, int] = {}
    x = v % n
    idx = 0
    while x not in first:
        first[x] = idx
        x = x * d % n
        idx += 1
    f = first[x]
    return f, idx - f


def epsilon_expansion(v: int, n: int, d: int) -> dict[int, Fraction]:
    """Exact rational coordinates of e_v in the eps basis.

    Returns {w: c_w} with e_v = sum c_w * eps_w, where w runs over the
    (distinct, nonzero) orbit elements of v.  Writing [f, e] for the d-type
    of v, the tail contributes eps_{d^i v} / d^{i+1} and the cycle
    contributes d^{e-1-j} * eps_{d^{f+j} v} / (d^f (d^e - 1)); terms at
    w = 0 vanish because eps_0 = 0.  (The cycle exponents solve the
    circulant system d*a_j - a_{j-1} = [j = 0], so they descend along the
    orbit rather than ascend.)
    """
    _check_d(d)
    f, e = d_type(v, n, d)
    coeffs: dict[int, Fraction] = {}
    x = v % n
    for i in range(f):
        if x != 0:
            coeffs[x] = Fraction(1, d ** (i + 1))
        x = x * d % n
    den = d**f * (d**e - 1)
    for j in range(e):
        if x != 0:
            coeffs[x] = Fraction(d ** (e - 1 - j), den)
        x = x * d % n
    return coeffs


def element_order_in_sigma(v: int, n: int, d: int) -> int:
    """Order of e_v in Sigma(n, d): lcm of the expansion denominators."""
    coeffs = epsilon_expansion(v, n, d)
    return math.lcm(*(c.denominator for c in coeffs.values())) if coeffs else 1


def element_order_formula(v: int, n: int, d: int) -> int:
    """|d^f (d^e - 1)| from the d-type of v.

    This matches :func:`element_order_in_sigma` whenever the orbit of v
    avoids 0; when d^f * v = 0 mod n the cycle part of the expansion
    collapses (eps_0 = 0) and the true order is |d|^f instead.
    """
    f, e = d_type(v, n, d)
    return abs(d**f * (d**e - 1))


@dataclass(frozen=True)
class SigmaElement:
    """Element sum(a_v * e_v) of Sigma(n, d), with coefficients a_1..a_{n-1}."""

    n: int
    d: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need n >= 1")
        if len(self.coeffs) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} coefficients, got {len(self.coeffs)}")

    @classmethod
    def zero(cls, n: int, d: int) -> "SigmaElement":
        return cls(n, d, (0,) * (n - 1))

    @classmethod
    def basis(cls, n: int, d: int, v: int) -> "SigmaElement":
        """e_v (the zero element when v = 0 mod n, since e_0 = 0)."""
        v %= n
        coeffs = [0] * (n - 1)
        if v:
            coeffs[v - 1] = 1
        return cls(n, d, tuple(coeffs))

    def coefficient(self, v: int) -> int:
        v %= self.n
        return self.coeffs[v - 1] if v else 0

    def _like(self, other: "SigmaElement") -> None:
        if (self.n, self.d) != (other.n, other.d):
            raise ValueError("mixing elements of different Sigma(n, d)")

    def __add__(self, other: "SigmaElement") -> "SigmaElement":
        self._like(other)
        return SigmaElement(
            self.n, self.d, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "SigmaElement") -> "SigmaElement":
        self._like(other)
        return SigmaElement(
            self.n, self.d, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rmul__(self, scalar: int) -> "SigmaElement":
        return SigmaElement(self.n, self.d, tuple(scalar * a for a in self.coeffs))

    def __neg__(self) -> "SigmaElement":
        return -1 * self


def membership_in_sandpile(a: SigmaElement) -> bool:
    """Whether a lies in the sandpile subgroup: sum(v * a_v) = 0 mod n."""
    return sum(v * c for v, c in enumerate(a.coeffs, start=1)) % a.n == 0


def sigma_element_order(a: SigmaElement) -> int:
    """Order of an arbitrary element of Sigma(n, d) via the eps expansion."""
    total: dict[int, Fraction] = {}
    for v, c in enumerate(a.coeffs, start=1):
        if c:
            for w, cw in epsilon_expansion(v, a.n, a.d).items():
                total[w] = total.get(w, Fraction(0)) + c * cw
    dens = [c.denominator for c in total.values() if c != 0]
    return math.lcm(*dens) if dens else 1


@dataclass(frozen=True)
class CosetSystem:
    """Orbits of x -> d*x on Z_m - {0} with gcd(m, d) = 1.

    ``representatives`` holds the minimal element of each orbit (ascending);
    every divisor of m is minimal in its orbit, so the distinguished set
    ``vstar`` = {p^t * M_p : p | m, 0 <= t < nu_p(m)} is automatically a set
    of representatives.  ``prime_parts`` lists (p, pi_p(m), M_p) per prime
    p | m with pi_p the p-part of m and M_p = m / pi_p.
    """

    m: int
    d: int
    orbits: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    vstar: tuple[int, ...]
    prime_parts: tuple[tuple[int, int, int], ...]

    def orbit_of(self, v: int) -> tuple[int, ...]:
        v %= self.m
        for orbit in self.orbits:
            if v in orbit:
                return orbit
        raise ValueError(f"{v} is 0 mod {self.m}; orbits cover Z_m - {{0}}")

    def orbit_size(self, v: int) -> int:
        return len(self.orbit_of(v))


def _check_coprime(m: int, d: int) -> None:
    _check_d(d)
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if math.gcd(m, d) != 1:
        raise ValueError(f"need gcd(m, d) = 1, got gcd({m}, {d}) != 1")


def _orbit(v: int, m: int, d: int) -> tuple[int, ...]:
    """The orbit v, d*v, d^2*v, ... of v under x -> d*x mod m."""
    orbit = [v]
    x = v * d % m
    while x != v:
        orbit.append(x)
        x = x * d % m
    return tuple(orbit)


def _prime_parts(m: int) -> tuple[tuple[int, int, int], ...]:
    """(p, pi_p(m), M_p) per prime p | m, with M_p = m / pi_p(m)."""
    return tuple((p, p**e, m // p**e) for p, e in factorize(m).items())


def cyclotomic_cosets(m: int, d: int) -> CosetSystem:
    """The d-ary cyclotomic cosets modulo m (requires gcd(m, d) = 1)."""
    _check_coprime(m, d)
    orbits = []
    seen = set()
    for v in range(1, m):
        if v not in seen:
            orbit = _orbit(v, m, d)
            seen.update(orbit)
            orbits.append(orbit)
    reps = tuple(o[0] for o in orbits)
    prime_parts = _prime_parts(m)
    vstar_t = tuple(
        sorted(p**t * big_m for p, pi, big_m in prime_parts for t in range(nu(pi, p)))
    )
    reps_set = set(reps)
    for v in vstar_t:
        if v not in reps_set:
            raise AssertionError(f"divisor {v} of {m} is not minimal in its orbit")
    return CosetSystem(m, d, tuple(orbits), reps, vstar_t, prime_parts)


def _c_value(v: int, m: int, d: int, prime_parts: tuple[tuple[int, int, int], ...]) -> int:
    """c(v) for a coset representative v modulo m (see :func:`c_value`)."""
    exceptional = m % 4 == 0 and d % 4 == 3
    for p, pi, big_m in prime_parts:
        if v == big_m:
            if p == 2 and exceptional:
                return pi // 2
            return pi
    if exceptional and v == m // 2:
        return 2
    return 1


def c_value(v: int, m: int, d: int) -> int:
    """The correction factor c(v) in the sandpile coset orders.

    c(v) = pi_p(m) when v = M_p (except: pi_2(m)/2 when p = 2, d = 3 mod 4
    and 4 | m), c(v) = 2 when v = m/2 with 4 | m and d = 3 mod 4, and 1 for
    every other representative.  Only the orbit of v is walked, to check
    that v is its minimum.
    """
    _check_coprime(m, d)
    if not 0 < v < m or min(_orbit(v, m, d)) != v:
        raise ValueError(f"{v} is not an orbit representative modulo {m}")
    return _c_value(v, m, d, _prime_parts(m))


def _tower_orders(ds: DSequence, reduce_first: bool) -> list[int]:
    ad = abs(ds.d)
    orders: list[int] = []
    for i in range(ds.k):
        mult = ds.chain[i] - 2 * ds.chain[i + 1] + ds.chain[i + 2]
        if reduce_first:
            orders.append(ad ** (i + 1) // ds.gcds[i])
            mult -= 1
        orders.extend([ad ** (i + 1)] * mult)
    return orders


def _coset_orders(m: int, d: int, reduced: bool) -> list[int]:
    """One order |d^o - 1| per coset modulo m, divided by c(v) at the
    representative v when ``reduced``.  The residues v with gcd(v, m) = m/e
    are m/e times the units modulo e: phi(e)/ord_e(d) cosets of size
    ord_e(d), of which only the divisor coset m/e (minimal in its orbit)
    can have c(v) != 1.  ord_e(d) is computed once per prime power of m."""
    prime_parts = _prime_parts(m)
    divisors = [(1, 1, 1)]  # (e, phi(e), ord_e(d)) over the divisors of m
    for p, pi, _ in prime_parts:
        powers = [p**t for t in range(nu(pi, p) + 1)]
        power_orders = [multiplicative_order(d, q) for q in powers]
        # phi(q) = q - q/p (1 at q = 1); ord_e(d) is the lcm over the CRT parts.
        divisors = [
            (e * q, phi * (q - q // p), math.lcm(o, o_q))
            for e, phi, o in divisors
            for q, o_q in zip(powers, power_orders)
        ]
    orders: list[int] = []
    for e, phi, o in divisors[1:]:
        full = abs(d**o - 1)
        count = phi // o
        if reduced:
            v = m // e
            c = _c_value(v, m, d, prime_parts)
            if full % c != 0:
                raise AssertionError(f"c({v}) = {c} does not divide {full}")
            orders.append(full // c)
            count -= 1
        orders.extend([full] * count)
    return orders


def sand_dune_group(n: int, d: int) -> AbelianGroup:
    """Sigma(n, d) in closed form: the |d|-power kernel tower plus one
    cyclic summand Z_{|d^o(v) - 1|} per cyclotomic coset of m, counted per
    divisor e of m (phi(e)/ord_e(d) cosets of size ord_e(d))."""
    ds = d_sequence(n, d)
    return abelian.from_cyclic_orders(_tower_orders(ds, False) + _coset_orders(ds.m, d, False))


def sandpile_group(n: int, d: int) -> AbelianGroup:
    """S(n, d) in closed form: the tower with its first summand divided by
    d_i, and coset summands Z_{|d^o(v) - 1| / c(v)} counted per divisor of
    m as for Sigma; c(v) != 1 only on the divisor cosets M_p and m/2."""
    ds = d_sequence(n, d)
    return abelian.from_cyclic_orders(_tower_orders(ds, True) + _coset_orders(ds.m, d, True))


def sigma_relation_matrix(n: int, d: int) -> IntMatrix:
    """The (n-1) x (n-1) relation matrix of Sigma(n, d).

    Row v expresses eps_v = d*e_v - e_{dv mod n} in the basis e_1..e_{n-1};
    the cokernel torsion of this matrix is Sigma(n, d).
    """
    _check_d(d)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rows = []
    for v in range(1, n):
        row = [0] * (n - 1)
        row[v - 1] += d
        w = d * v % n
        if w:
            row[w - 1] -= 1
        rows.append(row)
    if not rows:
        return IntMatrix.zeros(0, 0)
    return IntMatrix.from_rows(rows)


def _vstar_split(cs: CosetSystem, v: int) -> tuple[int, int, int, int]:
    """For v in V*, return (p, pi, M_p, t) with v = p^t * M_p."""
    for p, pi, big_m in cs.prime_parts:
        if v % big_m == 0:
            quo = v // big_m
            t = 0
            while quo % p == 0:
                quo //= p
                t += 1
            if quo == 1 and p**t < pi:
                return p, pi, big_m, t
    raise AssertionError(f"{v} is not of the form p^t * M_p modulo {cs.m}")


def sandpile_generators(m: int, d: int) -> dict[int, tuple[SigmaElement, int]]:
    """Explicit generators of S(m, d) inside Sigma(m, d), gcd(m, d) = 1.

    Returns {v: (element, claimed_order)} over the coset representatives.
    Ordinary representatives v (not of the form p^t * M_p) are corrected to
    e_v - sum_p lambda_p(v) e_{pi_p(v) M_p}; the distinguished ones get
    pi_p(m) * e_{M_p} at t = 0 and e_{p^t M_p} - lambda_{p,t} e_{M_p} at
    t >= 1, with lambda_{p,t} = ((d^{o(M_p)}-1)/(d^{o(p^t M_p)}-1)) * mu
    chosen so that lambda = p^t mod pi_p(m).  When d = 3 mod 4 and 4 | m
    the two 2-adic edge cases change shape (the claimed orders carry the
    c(v) corrections in exactly the same pattern).
    """
    _check_d(d)
    cs = cyclotomic_cosets(m, d)
    exceptional = m % 4 == 0 and d % 4 == 3
    s2 = nu(m, 2) if m % 2 == 0 else 0
    vstar_set = set(cs.vstar)
    out: dict[int, tuple[SigmaElement, int]] = {}
    for orbit in cs.orbits:
        v = orbit[0]
        full = abs(d ** len(orbit) - 1)
        c = _c_value(v, m, d, cs.prime_parts)
        claimed = full // c
        if v in vstar_set:
            p, pi, big_m, t = _vstar_split(cs, v)
            if p == 2 and exceptional and t == 0:
                half = 2 ** (s2 - 1)
                elem = SigmaElement.basis(m, d, half * big_m) - half * SigmaElement.basis(
                    m, d, big_m
                )
            elif p == 2 and exceptional and t == s2 - 1:
                elem = 2 * SigmaElement.basis(m, d, v)
            elif t == 0:
                elem = pi * SigmaElement.basis(m, d, big_m)
            else:
                o_m = cs.orbit_size(big_m)
                o_v = len(orbit)
                num = d**o_m - 1
                den = d**o_v - 1
                if num % den != 0:
                    raise AssertionError(
                        f"d^o(M_p)-1 = {num} not divisible by d^o(v)-1 = {den}"
                    )
                factor = num // den
                target = pow(p, t, pi)
                for mu in range(pi):
                    if factor * mu % pi == target:
                        break
                else:
                    raise AssertionError(
                        f"no multiplier mu with {factor}*mu = {p}^{t} mod {pi}"
                    )
                elem = SigmaElement.basis(m, d, v) - (factor * mu) * SigmaElement.basis(
                    m, d, big_m
                )
        else:
            elem = SigmaElement.basis(m, d, v)
            for p, pi, big_m in cs.prime_parts:
                pi_v = p ** nu(v, p)
                eta = pow(big_m, -1, pi)
                lam = eta * (v // pi_v)
                elem = elem - lam * SigmaElement.basis(m, d, pi_v * big_m % m)
        out[v] = (elem, claimed)
    return out
