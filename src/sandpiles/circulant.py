"""Unit groups of circulant matrices over finite fields.

An invertible n x n circulant over F_q (q = p^r) is the same thing as a
unit of R = F_q[x]/(x^n - 1); C(n, q) denotes the full unit group and
C'(n, q) the subgroup of units with value 1 at x = 1 (circulants fixing the
all-ones vector).  This module provides:

* explicit small finite fields and ring elements, with unit tests via
  polynomial gcd;
* closed forms by one rule: write n = p^k * m with gcd(m, p) = 1.  Then
  C'(n, q) is the Sylow tower 1 + (x^m - 1) plus the coprime part
  C'(m, q) = Sigma(m, q), and C'(n, q)/<x> is the tower without one
  Z_{p^k} of largest order plus S(m, q);
* torsion-count references: in characteristic p the p-th power map is a
  ring endomorphism, so the count #{u : u^(p^i) = 1} has a closed form that
  reconstructs the Sylow p-subgroup independently of the tower;
* a vectorized brute-force enumerator (numpy) that computes any of these
  groups by counting torsion directly, for q^n up to a configurable cap.
  It works in keys: an element's key is its enumeration index, the ring is
  unpacked into kernel blocks one chunk of keys at a time, and the power
  maps are kept as key arrays.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import abelian
from .abelian import AbelianGroup, structure_from_torsion_counts
from .arith import is_prime, multiplicative_order, nu, prime_factors, prime_power
from .closed_form import cyclotomic_cosets, sand_dune_group, sandpile_group

DEFAULT_ENUMERATION_CAP = 1 << 22
# A chunk holds as many keys as fit this many bytes of the kernel's multiply
# temporaries (its row_bytes per key).
_CHUNK_BYTES = 2 << 20
# Peak bytes per ring element of one enumeration (tracemalloc), at least the
# largest measured on rings of 2^18 elements or more.
_BYTES_PER_ELEMENT = 38


# ---------------------------------------------------------------------------
# Finite fields F_{p^r} and the ring F_q[x]/(x^n - 1)
# ---------------------------------------------------------------------------


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a: list[int], b: list[int], field: "FiniteField") -> list[int]:
    """Remainder of a by b over the field (coefficients ascending, b[-1] != 0)."""
    a = a[:]
    inv_lead = field.inv(b[-1])
    while len(a) >= len(b) and a:
        coef = field.mul(a[-1], inv_lead)
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] = field.sub(a[shift + i], field.mul(coef, bc))
        _poly_trim(a)
    return a


def _is_irreducible(poly: list[int], prime: "FiniteField") -> bool:
    """Whether poly (degree >= 2, over the prime field) has no proper monic factor."""
    p, deg = prime.p, len(poly) - 1
    for low_deg in range(1, deg // 2 + 1):
        for idx in range(p**low_deg):
            div = _digits_of(idx, p, low_deg) + [1]
            if not _poly_mod(poly, div, prime):
                return False
    return True


def _digits_of(value: int, base: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(value % base)
        value //= base
    return out


class FiniteField:
    """The field F_{p^r}, elements encoded as integers 0..p^r - 1.

    The integer encoding is positional base p: the element sum(c_t y^t) is
    the integer sum(c_t p^t), where y is a root of the modulus.  The modulus
    is the least monic irreducible of degree r in this encoding.

    Two O(r^2) tables, also read by the enumeration kernels: ``reduction[s]``
    holds the digits of y^s for s < 2r - 1, ``frobenius_rows[u]`` those of (y^u)^p.
    """

    def __init__(self, p: int, r: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if r < 1:
            raise ValueError(f"extension degree must be >= 1, got {r}")
        self.p = p
        self.r = r
        self.q = p**r
        if r == 1:
            self.modulus = (0, 1)
        else:
            prime = field_for(p)
            for idx in range(self.q):
                poly = _digits_of(idx, p, r) + [1]
                if _is_irreducible(poly, prime):
                    self.modulus = tuple(poly)
                    break
        # Past y^(r-1), y^s = y * y^(s-1) with y^r = -(m_0 + m_1 y + ... + m_(r-1) y^(r-1)).
        self.reduction = [[int(t == s) for t in range(r)] for s in range(r)]
        for _ in range(r - 1):
            last = self.reduction[-1]
            shifted = [0] + last[:-1]
            self.reduction.append([(shifted[t] - last[-1] * self.modulus[t]) % p for t in range(r)])
        self.frobenius_rows = [self._to_digits(self.pow(p**u, p)) for u in range(r)]

    def _to_digits(self, a: int) -> list[int]:
        return _digits_of(a, self.p, self.r)

    def _from_digits(self, digits) -> int:
        total = 0
        for t in reversed(range(self.r)):
            total = total * self.p + digits[t]
        return total

    def add(self, a: int, b: int) -> int:
        da, db = self._to_digits(a), self._to_digits(b)
        return self._from_digits([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        return self._from_digits([(-x) % self.p for x in self._to_digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        """Digit convolution, then each y^s folded back through reduction[s]."""
        r = self.r
        da, db = self._to_digits(a), self._to_digits(b)
        prod = [0] * (2 * r - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        out = [0] * r
        for c, row in zip(prod, self.reduction):
            if c:
                for t, w in enumerate(row):
                    out[t] += c * w
        return self._from_digits([c % self.p for c in out])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(a, self.q - 2)

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def __repr__(self) -> str:
        return f"FiniteField(p={self.p}, r={self.r})"


@lru_cache(maxsize=None)
def field_for(q: int) -> FiniteField:
    return FiniteField(*_ring_args(1, q))


@dataclass(frozen=True)
class RingElement:
    """Element c_0 + c_1 x + ... + c_{n-1} x^{n-1} of F_q[x]/(x^n - 1)."""

    field: FiniteField
    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need n >= 1")
        if len(self.coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficients")
        if any(not 0 <= c < self.field.q for c in self.coeffs):
            raise ValueError("coefficients must be field elements 0..q-1")

    @classmethod
    def one(cls, field: FiniteField, n: int) -> "RingElement":
        return cls(field, n, (1,) + (0,) * (n - 1))

    @classmethod
    def x_power(cls, field: FiniteField, n: int, t: int = 1) -> "RingElement":
        coeffs = [0] * n
        coeffs[t % n] = 1
        return cls(field, n, tuple(coeffs))

    def __mul__(self, other: "RingElement") -> "RingElement":
        if self.field is not other.field or self.n != other.n:
            raise ValueError("mixing elements of different rings")
        f, n = self.field, self.n
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        k = (i + j) % n
                        out[k] = f.add(out[k], f.mul(a, b))
        return RingElement(f, n, tuple(out))

    def __pow__(self, e: int) -> "RingElement":
        if e < 0:
            raise ValueError("negative ring powers are not defined here")
        result = RingElement.one(self.field, self.n)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def eval_at_one(self) -> int:
        total = 0
        for c in self.coeffs:
            total = self.field.add(total, c)
        return total


def is_unit(c: RingElement) -> bool:
    """Whether c is invertible in F_q[x]/(x^n - 1): gcd(c(x), x^n - 1) = 1
    over F_q, by the Euclidean algorithm (c = 0 leaves x^n - 1 itself)."""
    f = c.field
    a = [0] * c.n + [1]
    a[0] = f.neg(1)  # x^n - 1
    b = _poly_trim(list(c.coeffs))
    while b:
        a, b = b, _poly_mod(a, b, f)
    return len(a) == 1  # nonzero constant


def is_restricted_unit(c: RingElement) -> bool:
    """Whether c is a unit with c(1) = 1 (membership in C'(n, q))."""
    return c.eval_at_one() == 1 and is_unit(c)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def _ring_args(n: int, q: int) -> tuple[int, int]:
    """Validate the ring F_q[x]/(x^n - 1): q = p^r and n >= 1; returns (p, r)."""
    pp = prime_power(q)
    if pp is None:
        raise ValueError(f"{q} is not a prime power")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return pp


def relation_exponents(m: int, q: int) -> dict[int, int]:
    """The exponents r_v = (q^o(v) - 1) / (m / gcd(m, v)) of the quotient
    presentation of C'(m, q)/<x> (exposed for property tests)."""
    _ring_args(m, q)
    cs = cyclotomic_cosets(m, q)
    out = {}
    for orbit in cs.orbits:
        v = orbit[0]
        full = q ** len(orbit) - 1
        additive_order = m // math.gcd(m, v)
        if full % additive_order != 0:
            raise AssertionError(
                f"{full} not divisible by additive order {additive_order} of {v}"
            )
        out[v] = full // additive_order
    return out


def _sylow_tower(n: int, q: int) -> tuple[list[int], int]:
    """The Sylow p-subgroup 1 + (x^m - 1) of C'(n, q) for q = p^r and
    n = p^k * m with gcd(m, p) = 1: Z_{p^(k-1-i)} with multiplicity
    r p^i (p-1)^2 m for i < k - 1, then r (p-1) m copies of Z_{p^k}, listed
    last.  Returns the orders and m."""
    p, r = _ring_args(n, q)
    k = nu(n, p)
    m = n // p**k
    orders: list[int] = []
    if k >= 1:
        for i in range(k - 1):
            orders.extend([p ** (k - 1 - i)] * (r * p**i * (p - 1) ** 2 * m))
        orders.extend([p**k] * (r * (p - 1) * m))
    return orders, m


def star_group_closed(n: int, q: int) -> tuple[AbelianGroup, str]:
    """C'(n, q) in closed form, with its method tag: the Sylow tower plus the
    coprime part C'(m, q), which is the sand dune group Sigma(m, q)."""
    orders, m = _sylow_tower(n, q)
    group = abelian.direct_sum(abelian.from_cyclic_orders(orders), sand_dune_group(m, q))
    return group, "closed_form"


def quotient_group_closed(n: int, q: int) -> tuple[AbelianGroup, str]:
    """C'(n, q)/<x> in closed form, with its method tag.

    The p-part of x generates a Z_{p^k} of largest order in the tower, so it
    splits off and the tower loses its last summand; the prime-to-p part of
    x generates <x> in C'(m, q), whose quotient is S(m, q).  Over the prime
    field the result is checked against the sandpile group S(n, p); a
    mismatch means an implementation bug and raises.
    """
    orders, m = _sylow_tower(n, q)
    group = abelian.direct_sum(abelian.from_cyclic_orders(orders[:-1]), sandpile_group(m, q))
    if orders and is_prime(q):
        expected = sandpile_group(n, q)
        if group != expected:
            raise AssertionError(
                f"quotient tower for (n, p) = ({n}, {q}) gave {group}, "
                f"but the sandpile group is {expected}"
            )
    return group, "closed_form"


def unit_group_closed(
    n: int, q: int, restricted: bool = False, modulo_x: bool = False
) -> tuple[AbelianGroup, str]:
    """C(n, q), C'(n, q), or either modulo <x> in closed form, with its
    method tag.  C = C' + Z_{q-1}: the constants F_q^* complement C', the
    kernel of evaluation at x = 1, and <x> lies inside C', so the quotient
    splits the same way."""
    base, method = quotient_group_closed(n, q) if modulo_x else star_group_closed(n, q)
    if restricted:
        return base, method
    return abelian.direct_sum(base, abelian.from_cyclic_orders([q - 1])), method


# ---------------------------------------------------------------------------
# Torsion-count references (no enumeration)
# ---------------------------------------------------------------------------


def p_torsion_counts(n: int, q: int, max_i: int | None = None) -> list[int]:
    """N_i = #{u in C'(n, q) : u^(p^i) = 1} for i = 0..max_i, in closed form.

    With n = p^k * m (gcd(m, p) = 1), u^(p^i) = 1 iff (u - 1)^(p^i) = 0 iff
    (x^m - 1)^(p^(k-i)) divides u - 1, giving N_i = q^(n - m * p^(max(0,k-i))).
    """
    p, _ = _ring_args(n, q)
    k = nu(n, p)
    m = n // p**k
    if max_i is None:
        max_i = k + 1
    return [q ** (n - m * p ** max(0, k - i)) for i in range(max_i + 1)]


def quotient_p_torsion_counts(n: int, q: int, max_i: int | None = None) -> list[int]:
    """Torsion counts of C'(n, q)/<x> at the characteristic, for n = p^k.

    Counting cosets amounts to counting #{u : u^(p^i) in <x>} and dividing
    by n.  The image of the p^i-power endomorphism meets <x> exactly in the
    powers x^(j p^i), so the tally is N_i * p^(k-i) for i <= k.
    """
    p, _ = _ring_args(n, q)
    k = nu(n, p)
    if p**k != n:
        raise ValueError(
            f"quotient torsion counts need n to be a power of char {p}; got n = {n}"
        )
    if max_i is None:
        max_i = k + 1
    counts = []
    for i in range(max_i + 1):
        pw = p ** max(k - i, 0)
        tally = pw * q ** (n - pw)
        if tally % n != 0:
            raise AssertionError(f"tally {tally} not divisible by n = {n}")
        counts.append(tally // n)
    return counts


# ---------------------------------------------------------------------------
# Brute-force enumeration (numpy)
# ---------------------------------------------------------------------------


def enumeration_cap(cap: int | None = None) -> int:
    """Resolve the element cap: the explicit argument, else 2^22."""
    return DEFAULT_ENUMERATION_CAP if cap is None else cap


def _physical_memory_bytes() -> int | None:
    """Installed physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


class _DigitKernel:
    """Vectorized arithmetic for blocks of F_q[x]/(x^n - 1) elements, any p.

    A block is plane-major, shape (n, r, N): row (j, t) holds base-p digit t
    of coefficient j for the N elements of a chunk, so every numpy operation
    runs over contiguous rows of N.  Digit t of coefficient j is digit j r + t
    of the element's key, so the key is the element's enumeration index.

    A product accumulates acc[(i + j) % n, u:u+r] += a[i, u] * b[j] over
    (i, u), all j at once: rows n - i .. 2n - i of b stacked twice are b
    rotated by i.  The (n, 2r - 1, N) accumulator then folds y^s, s >= r,
    back through the field's reduction table.  It is int32 whenever the
    largest unreduced coefficient, n r (p-1)^2 (1 + (r-1)(p-1)), fits, else
    int64.
    """

    def __init__(self, n: int, q: int):
        self.p, self.r = _ring_args(n, q)
        self.q = q
        self.n = n
        self.digit_dtype = np.uint8 if self.p < 256 else np.int64
        self.key_dtype = np.int32 if q**n <= 1 << 31 else np.int64
        bound = n * self.r * (self.p - 1) ** 2 * (1 + (self.r - 1) * (self.p - 1))
        self.acc_dtype = np.int32 if bound < 1 << 31 else np.int64
        self.field = field_for(q)
        self.frobenius_matrix = np.array(self.field.frobenius_rows, dtype=self.acc_dtype).T
        self.pack_weights = self.p ** np.arange(n * self.r, dtype=np.int64)
        # multiply's temporaries per row: a widened, b doubled, one product
        # and the accumulator.
        self.row_bytes = np.dtype(self.acc_dtype).itemsize * n * (6 * self.r - 1)

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        # One floor division by a scalar per digit: measured 1.6x faster than
        # np.divmod and 6x faster than dividing by the array of weights, and
        # 3x faster again in int32 where every key fits.
        keys = keys.astype(self.key_dtype, copy=False)
        digits = np.empty((self.n * self.r, keys.size), dtype=self.digit_dtype)
        for t in range(self.n * self.r):
            quotient = keys // self.p
            digits[t] = keys - quotient * self.p
            keys = quotient
        return digits.reshape(self.n, self.r, -1)

    def pack(self, block: np.ndarray) -> np.ndarray:
        return self.pack_weights @ block.reshape(self.n * self.r, -1)

    def restricted_mask(self, block: np.ndarray) -> np.ndarray:
        sums = block.sum(axis=0, dtype=np.int64) % self.p
        return (sums[0] == 1) & ~sums[1:].any(axis=0)

    def x_keys(self) -> np.ndarray:
        return self.pack_weights[np.arange(self.n) * self.r]

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        n, r, rows = a.shape
        wide = a.astype(self.acc_dtype)
        doubled = np.concatenate((b, b)).astype(self.acc_dtype)
        term = np.empty((n, r, rows), dtype=self.acc_dtype)
        acc = np.zeros((n, 2 * r - 1, rows), dtype=self.acc_dtype)
        for i in range(n):
            rotated = doubled[n - i : 2 * n - i]  # rotated[k] = b[(k - i) % n]
            for u in range(r):
                np.multiply(wide[i, u], rotated, out=term)
                acc[:, u : u + r] += term
        out = acc[:, :r]
        for s in range(r, 2 * r - 1):
            for t, c in enumerate(self.field.reduction[s]):
                if c:
                    out[:, t] += c * acc[:, s]
        return (out % self.p).astype(self.digit_dtype)

    def frobenius(self, block: np.ndarray) -> np.ndarray:
        """block ** p via the characteristic-p shortcut: coefficientwise
        Frobenius (the F_p-linear map with the field's frobenius_rows) plus
        the monomial substitution x^j -> x^(j p mod n)."""
        n, p = self.n, self.p
        coeffs = block
        if self.r > 1:  # at r = 1 the map is the identity
            coeffs = self.frobenius_matrix @ block % p
        # With g = gcd(n, p), x^j and x^(j + n/g) land on the same monomial.
        g = math.gcd(n, p)
        folded = coeffs.reshape(g, n // g, self.r, -1).sum(axis=0, dtype=self.acc_dtype)
        out = np.zeros_like(block)
        out[np.arange(n // g) * p % n] = folded % p
        return out


class _BitKernel:
    """Characteristic-2 kernel: blocks are r bit-planes of packed uint64.

    A block has shape (r, N); plane u holds bit j = the y^u component of
    the x^j coefficient, so a whole ring element occupies one bit column
    across the planes, and its key, plane u shifted by u n, is its
    enumeration index.

    A plane product is a cyclic carry-less product, formed by integer
    multiplies.  Each operand is split into s residue classes of bit
    positions, s the least with ceil(n/s) < 2^s.  In the integer product of
    classes k and l, a position of class k + l (mod s) sums at most
    ceil(n/s) one-bit terms, fewer than 2^s, so the carries from the lower
    positions of its class stay below it and its bit is the parity of its
    terms.  Those bits of the s^2 products xor to the carry-less product,
    and one fold, (z & mask) ^ (z >> n), makes it cyclic; this needs
    2n - 1 <= 64.  Plane pairs combine by y power, which then reduces
    through the field's reduction table.

    Squaring, the Frobenius, is F_2-linear on the n r-bit key: bit (u, j)
    maps to frobenius_rows[u] at x^(2j mod n).  From these images one table
    of 256 keys per key byte is built once, and the map is one gather per
    byte, xored together.

    Keys need n r <= 62 bits and products 2n - 1 <= 64; unit_group_brute
    refuses larger rings.
    """

    def __init__(self, n: int, q: int):
        self.p, self.r = _ring_args(n, q)
        if self.p != 2:
            raise ValueError("bit kernel requires characteristic 2")
        self.q = q
        self.n = n
        self.bit_mask = (1 << n) - 1
        self.field = field_for(q)
        s = 1
        while -(-n // s) >= 1 << s:
            s += 1
        self.spacing = s
        # Every s-th bit, over the 2n - 1 bits of a product (at most 64).
        self.class_masks = np.array(
            [[sum(1 << i for i in range(k, min(2 * n - 1, 64), s))] for k in range(s)],
            dtype=np.uint64,
        )
        rows = self.field.frobenius_rows
        images = [
            sum(rows[u][t] << (t * n + 2 * j % n) for t in range(self.r))
            for u in range(self.r)
            for j in range(n)
        ]
        self.frobenius_tables = np.zeros((-(-n * self.r // 8), 256), dtype=np.uint64)
        for byte, table in enumerate(self.frobenius_tables):
            for i, image in enumerate(images[8 * byte : 8 * byte + 8]):
                table[1 << i : 2 << i] = table[: 1 << i] ^ np.uint64(image)
        # multiply's temporaries per row: the split operands, b's doubled,
        # one product and the accumulator.
        self.row_bytes = 8 * s * (6 * self.r - 1)

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        keys = keys.astype(np.uint64, copy=False)
        planes = np.empty((self.r, keys.size), dtype=np.uint64)
        for u in range(self.r):
            np.right_shift(keys, u * self.n, out=planes[u])
            planes[u] &= self.bit_mask
        return planes

    def pack(self, block: np.ndarray) -> np.ndarray:
        out = block[0].copy()
        for u in range(1, self.r):
            out |= block[u] << (u * self.n)
        return out

    def restricted_mask(self, block: np.ndarray) -> np.ndarray:
        # Parity of each plane by xor-folding its (at most 62) bits.
        parity = block.copy()
        for shift in (32, 16, 8, 4, 2, 1):
            parity ^= parity >> shift
        parity &= 1
        mask = parity[0] == 1
        for u in range(1, self.r):
            mask &= parity[u] == 0
        return mask

    def x_keys(self) -> np.ndarray:
        return np.int64(1) << np.arange(self.n, dtype=np.int64)

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        r, s = self.r, self.spacing
        rows = a.shape[1]
        split = a[:, None] & self.class_masks
        doubled = np.empty((r, 2 * s, rows), dtype=np.uint64)
        np.bitwise_and(b[:, None], self.class_masks, out=doubled[:, :s])
        doubled[:, s:] = doubled[:, :s]
        term = np.empty((r, s, rows), dtype=np.uint64)
        acc = np.zeros((2 * r - 1, s, rows), dtype=np.uint64)
        for u in range(r):
            for k in range(s):
                # term[v, c] = a_u^(k) * b_v^(c - k): its class-c bits are valid.
                np.multiply(split[u, k], doubled[:, s - k : 2 * s - k], out=term)
                acc[u : u + r] ^= term
        acc &= self.class_masks
        conv = np.bitwise_or.reduce(acc, axis=1)
        conv = (conv & self.bit_mask) ^ (conv >> self.n)
        for w in range(r, 2 * r - 1):
            for t in range(r):
                if self.field.reduction[w][t]:
                    conv[t] ^= conv[w]
        return conv[:r]

    def frobenius(self, block: np.ndarray) -> np.ndarray:
        key_bytes = self.pack(block).astype("<u8", copy=False).view(np.uint8)
        out = np.zeros(block.shape[1], dtype=np.uint64)
        for byte, table in enumerate(self.frobenius_tables):
            out ^= table[key_bytes[byte::8]]
        return self.unpack(out)


def _power(kernel, block: np.ndarray, e: int) -> np.ndarray:
    """block ** e elementwise in the ring (e >= 1), by base-p Horner:
    block^e = frobenius(block^(e // p)) * block^(e mod p), since u -> u^p is
    a ring endomorphism in characteristic p.  A digit power block^d, d < p,
    is square-and-multiply through kernel.multiply.  For p = 2 this is
    binary square-and-multiply with the Frobenius as the squaring."""
    p = kernel.p
    if e >= p:
        result = kernel.frobenius(_power(kernel, block, e // p))
        if e % p:
            result = kernel.multiply(result, _power(kernel, block, e % p))
        return result
    if e == 1:
        return block
    half = _power(kernel, block, e // 2)
    result = kernel.multiply(half, half)
    return kernel.multiply(result, block) if e % 2 else result


def _over_ring(kernel, blockwise, dtype) -> np.ndarray:
    """blockwise(block) for every ring element, in key order: the ring is
    unpacked one chunk of keys at a time and never held whole."""
    total = kernel.q**kernel.n
    rows = max(1, _CHUNK_BYTES // kernel.row_bytes)
    out = np.empty(total, dtype=dtype)
    for lo in range(0, total, rows):
        hi = min(lo + rows, total)
        out[lo:hi] = blockwise(kernel.unpack(np.arange(lo, hi, dtype=np.int64)))
    return out


def _candidate_primes(n: int, q: int) -> list[int]:
    """Every prime that can divide |C(n, q)|: p, and the primes of q^o - 1
    where o is the order of q modulo the p-free part of n."""
    p, _ = _ring_args(n, q)
    m = n // p ** nu(n, p)
    field_order = multiplicative_order(q, m) if m > 1 else 1
    return sorted({p} | set(prime_factors(q**field_order - 1)))


def _compute_levels(kernel, in_x, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-element torsion levels for the prime ell: level_id[g] is the least
    i with g^(ell^i) = 1, level_x[g] the least i with g^(ell^i) in <x>
    (-1 when never reached); in_x marks the keys of <x>.

    The ring is powered once.  An element's key is its enumeration index,
    so the keys of the ell-th powers are the ell-power map as an index
    array, and every later round is one gather through it.
    """
    step = _over_ring(kernel, lambda block: kernel.pack(_power(kernel, block, ell)), np.int64)
    level_id = np.full(in_x.size, -1, dtype=np.int16)
    level_x = np.full(in_x.size, -1, dtype=np.int16)
    cur = np.arange(in_x.size)
    for i in range(64):
        new_id = (cur == 1) & (level_id < 0)
        new_x = in_x[cur] & (level_x < 0)
        level_id[new_id] = i
        level_x[new_x] = i
        if i > 0 and not new_id.any() and not new_x.any():
            return level_id, level_x
        cur = step[cur]
    raise AssertionError(f"torsion levels for prime {ell} did not stabilize in 64 rounds")


def _level_histograms(kernel) -> dict[int, dict[tuple[bool, bool], np.ndarray]]:
    """Torsion-level histograms of the whole ring, serving all group modes.

    hist[ell][(restricted, modulo_x)][i] counts the elements (only those
    with value 1 at x = 1 when restricted) whose level for ell is i, with
    levels to the identity, or into <x> when modulo_x, as in _compute_levels.
    """
    restricted = _over_ring(kernel, kernel.restricted_mask, bool)
    in_x = np.zeros(restricted.size, dtype=bool)
    in_x[kernel.x_keys()] = True
    hist = {}
    for ell in _candidate_primes(kernel.n, kernel.q):
        level_id, level_x = _compute_levels(kernel, in_x, ell)
        hist[ell] = {}
        for modulo_x, level in ((False, level_id), (True, level_x)):
            for only_restricted in (False, True):
                selected = level[restricted] if only_restricted else level
                hist[ell][only_restricted, modulo_x] = np.bincount(selected[selected >= 0])
    return hist


@lru_cache(maxsize=2)
def _brute_analysis(n: int, q: int) -> dict[int, dict[tuple[bool, bool], np.ndarray]]:
    kernel = _BitKernel(n, q) if q % 2 == 0 else _DigitKernel(n, q)
    return _level_histograms(kernel)


def _torsion_series(histogram: np.ndarray, divisor: int) -> list[int]:
    """Cumulative counts #{g : level(g) <= i}, divided by divisor, listed
    through the first repeated value (where the series provably stays)."""
    counts = []
    for tally in np.cumsum(histogram).tolist():
        if tally % divisor != 0:
            raise AssertionError(f"tally {tally} is not a multiple of {divisor}")
        counts.append(tally // divisor)
    counts.append(counts[-1])
    for i in range(1, len(counts)):
        if counts[i] == counts[i - 1]:
            return counts[: i + 1]
    raise AssertionError("torsion series failed to stabilize")


def unit_group_brute(
    n: int,
    q: int,
    restricted: bool = False,
    modulo_x: bool = False,
    cap: int | None = None,
) -> AbelianGroup:
    """Group structure of C(n, q), C'(n, q), or either modulo <x>, computed
    by enumerating ring elements and counting torsion per prime.

    Only elements with g^(ell^i) landing on the identity (or inside <x>)
    are ever tallied, and such elements are automatically units, so no
    explicit unit filter is needed.  For the quotients, the tallies count
    every coset of <x> exactly n times and are divided accordingly.  The
    number of ring elements q^n must not exceed the cap (argument, else
    2^22), and q^n times the measured peak bytes per element must not
    exceed physical memory.
    """
    _ring_args(n, q)
    limit = enumeration_cap(cap)
    total = q**n
    if total > limit:
        raise ValueError(
            f"q^n = {total} ring elements exceeds the enumeration cap {limit}; "
            f"raise it via the cap argument"
        )
    if total >= 1 << 62:
        raise ValueError("q^n too large to pack element keys into 64 bits")
    if q % 2 == 0 and 2 * n - 1 > 64:
        raise ValueError(
            f"characteristic-2 enumeration multiplies n-bit planes in 64-bit "
            f"integers and needs 2n - 1 <= 64, i.e. n <= 32; got n = {n}"
        )
    memory = _physical_memory_bytes()
    if memory is not None and total * _BYTES_PER_ELEMENT > memory:
        raise ValueError(
            f"enumerating q^n = {total} ring elements needs about "
            f"{total * _BYTES_PER_ELEMENT // 10**6} MB, more than the "
            f"{memory // 10**6} MB of physical memory"
        )

    parts = []
    for ell, histograms in _brute_analysis(n, q).items():
        counts = _torsion_series(histograms[restricted, modulo_x], n if modulo_x else 1)
        part = structure_from_torsion_counts(ell, counts)
        if not part.is_trivial:
            parts.append(part)
    return abelian.direct_sum(*parts)
