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
  ring endomorphism, so the counts #{u : u^(p^i) = 1} in C'(n, q) and
  #{u : u^(p^i) in <x>} have closed forms that reconstruct the Sylow
  p-subgroups of C'(n, q) and C'(n, q)/<x> independently of the tower;
* a vectorized brute-force enumerator (numpy) that computes any of these
  groups by counting torsion directly, for q^n up to a configurable cap.
  It works in keys: an element's key is its enumeration index, the ring is
  unpacked into kernel blocks one chunk of keys at a time, and the power
  maps are kept as key arrays.  The low digits of a key hold coefficients
  0..n-2 and its top digit u(1), so M = {u : u(1) = 1}, which holds C' and
  <x>, is the key range [q^(n-1), 2 q^(n-1)), and only M is powered;
  C = F_q^* x C' by u -> (u(1), u/u(1)), with F_q^* enumerated apart.
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
# Peak bytes per enumerated element (tracemalloc), at least the largest
# measured on enumerations of 2^18 elements or more.
_BYTES_PER_ELEMENT = 36


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
    presentation of C'(m, q)/<x>, for gcd(m, q) = 1.  Each must be an
    integer; the verification battery calls this to check that, and a
    fraction raises AssertionError."""
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
    field with p | n the paper's identity C'(n, p)/<x> = S(n, p) also
    holds; the ``circulant`` command and the verification battery compare
    the two, not this function.
    """
    orders, m = _sylow_tower(n, q)
    group = abelian.direct_sum(abelian.from_cyclic_orders(orders[:-1]), sandpile_group(m, q))
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
    """Torsion counts of C'(n, q)/<x> at the characteristic p, for i = 0..max_i.

    Counting cosets amounts to counting #{u : u^(p^i) in <x>} and dividing
    by n.  The map 1 + a -> (1 + a)^(p^i) = 1 + a^(p^i) is additive in a,
    so each element of its image has N_i = #{u : u^(p^i) = 1} preimages,
    and x^t lies in the image exactly when g | t, where g = p^min(i, k)
    for n = p^k * m.  The tally is N_i * n / g, so the count is N_i / g.
    """
    p, _ = _ring_args(n, q)
    k = nu(n, p)
    counts = []
    for i, total in enumerate(p_torsion_counts(n, q, max_i)):
        count, rest = divmod(total, p ** min(i, k))
        if rest:
            raise AssertionError(f"N_{i} = {total} not divisible by {p}^{min(i, k)}")
        counts.append(count)
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


class _Scratch:
    """multiply's temporaries, kept from one call to the next while the
    chunk size stays the same.  Allocated afresh for every call, they are
    mapped and unmapped each time, and every page of them faults again."""

    def __init__(self):
        self.rows = None
        self.arrays: list[np.ndarray] = []

    def arrays_for(self, rows: int, shapes, dtype) -> list[np.ndarray]:
        if rows != self.rows:
            self.rows = rows
            self.arrays = [np.empty(shape, dtype=dtype) for shape in shapes]
        return self.arrays

    def release(self) -> None:
        self.rows = None
        self.arrays = []


class _DigitKernel:
    """Vectorized arithmetic for blocks of F_q[x]/(x^n - 1) elements, any p.

    A block is plane-major, shape (n, r, N): row (j, t) holds base-p digit t
    of coefficient j for the N elements of a chunk, so every numpy operation
    runs over contiguous rows of N.  A key's base-q digit j is coefficient j
    for j < n - 1, and its top digit is u(1), the sum of all n coefficients;
    unpack derives coefficient n - 1 as u(1) minus the others.  Field
    elements are base-p digit strings, so base-p digit t of key digit j is
    key digit j r + t.

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
        self.scratch = _Scratch()

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
        block = digits.reshape(self.n, self.r, -1)
        block[-1] = (block[-1] - block[:-1].sum(axis=0, dtype=self.acc_dtype)) % self.p
        return block

    def pack(self, block: np.ndarray) -> np.ndarray:
        keyed = block.copy()
        keyed[-1] = block.sum(axis=0, dtype=self.acc_dtype) % self.p  # u(1)
        return self.pack_weights @ keyed.reshape(self.n * self.r, -1)

    def x_keys(self) -> np.ndarray:
        # x^t for t < n - 1 is coefficient t = 1 plus u(1) = 1; x^(n-1) is u(1) alone.
        top = self.q ** (self.n - 1)
        return np.append(top + self.pack_weights[: (self.n - 1) * self.r : self.r], top)

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        n, r, rows = a.shape
        shapes = ((n, r, rows), (2 * n, r, rows), (n, r, rows), (n, 2 * r - 1, rows))
        wide, doubled, term, acc = self.scratch.arrays_for(rows, shapes, self.acc_dtype)
        wide[...] = a
        doubled[:n] = b
        doubled[n:] = b
        acc.fill(0)
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


def _parity(values: np.ndarray, bits: int) -> np.ndarray:
    """The parity of each uint64's low `bits` bits (the rest zero), by xor-folding."""
    folded = values.copy()
    for k in reversed(range((bits - 1).bit_length())):
        folded ^= folded >> (1 << k)
    return folded & 1


class _BitKernel:
    """Characteristic-2 kernel: blocks are r bit-planes of packed uint64.

    A block has shape (r, N); plane u holds bit j = the y^u component of
    the x^j coefficient, so a whole ring element occupies one bit column
    across the planes.  Its key holds bits 0..n-2 of plane u at u (n - 1),
    and at (n - 1) r + u the parity of plane u, the y^u component of u(1);
    unpack derives bit n - 1 of each plane from that parity and the others.

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

    Squaring, the Frobenius, is F_2-linear on the planes laid side by side,
    plane u shifted by u n: bit (u, j) maps to frobenius_rows[u] at
    x^(2j mod n).  From these images one table of 256 entries per byte is
    built once, and the map is one gather per byte, xored together.  Side
    by side, unlike in a key, no bit is derived, so squaring takes no parity.

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
        self.low_mask = (1 << n - 1) - 1
        planes = np.arange(self.r, dtype=np.uint64)[:, None]
        self.plane_shifts = planes * np.uint64(n)
        self.low_shifts = planes * np.uint64(n - 1)
        self.top_shifts = planes + np.uint64((n - 1) * self.r)
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
        self.scratch = _Scratch()

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        keys = keys.astype(np.uint64, copy=False)
        planes = (keys >> self.low_shifts) & np.uint64(self.low_mask)
        last = ((keys >> self.top_shifts) ^ _parity(planes, self.n - 1)) & np.uint64(1)
        planes |= last << np.uint64(self.n - 1)
        return planes

    def pack(self, block: np.ndarray) -> np.ndarray:
        low = (block & np.uint64(self.low_mask)) << self.low_shifts
        return np.bitwise_or.reduce(low | (_parity(block, self.n) << self.top_shifts), axis=0)

    def x_keys(self) -> np.ndarray:
        # As for the digit kernel: bit t of plane 0 plus u(1) = 1.
        top = 1 << (self.n - 1) * self.r
        return np.append(top + (np.int64(1) << np.arange(self.n - 1, dtype=np.int64)), top)

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        r, s = self.r, self.spacing
        rows = a.shape[1]
        shapes = ((r, s, rows), (r, 2 * s, rows), (r, s, rows), (2 * r - 1, s, rows))
        split, doubled, term, acc = self.scratch.arrays_for(rows, shapes, np.uint64)
        np.bitwise_and(a[:, None], self.class_masks, out=split)
        np.bitwise_and(b[:, None], self.class_masks, out=doubled[:, :s])
        doubled[:, s:] = doubled[:, :s]
        acc.fill(0)
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
        side_by_side = np.bitwise_or.reduce(block << self.plane_shifts, axis=0)
        side_bytes = side_by_side.astype("<u8", copy=False).view(np.uint8)
        out = np.zeros(block.shape[1], dtype=np.uint64)
        for byte, table in enumerate(self.frobenius_tables):
            out ^= table[side_bytes[byte::8]]
        return (out >> self.plane_shifts) & np.uint64(self.bit_mask)


def _kernel(n: int, q: int):
    return _BitKernel(n, q) if q % 2 == 0 else _DigitKernel(n, q)


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


def _over_ring(kernel, lo: int, hi: int, blockwise, dtype) -> np.ndarray:
    """blockwise(block) for the elements with keys lo..hi-1, in key order:
    they are unpacked one chunk of keys at a time and never held whole."""
    rows = max(1, _CHUNK_BYTES // kernel.row_bytes)
    out = np.empty(hi - lo, dtype=dtype)
    for start in range(lo, hi, rows):
        stop = min(start + rows, hi)
        keys = np.arange(start, stop, dtype=np.int64)
        out[start - lo : stop - lo] = blockwise(kernel.unpack(keys))
    kernel.scratch.release()  # before the caller's own arrays are allocated
    return out


def _candidate_primes(n: int, q: int) -> list[int]:
    """Every prime that can divide |C(n, q)|: p, and the primes of q^o - 1
    where o is the order of q modulo the p-free part of n."""
    p, _ = _ring_args(n, q)
    m = n // p ** nu(n, p)
    field_order = multiplicative_order(q, m) if m > 1 else 1
    return sorted({p} | set(prime_factors(q**field_order - 1)))


def _compute_levels(kernel, lo: int, hi: int, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Torsion levels for the prime ell of the elements with keys lo..hi-1,
    a range closed under ell-th powers that holds <x>: level_id[i] is the
    least j with g^(ell^j) = 1 for the element g of key lo + i, level_x[i]
    the least j with g^(ell^j) in <x> (-1 when never reached).

    The range is powered once.  An element's key is its enumeration index,
    so the keys of the ell-th powers, less lo, are the ell-power map as an
    index array, and every later round is one gather through it.
    """
    step = _over_ring(
        kernel, lo, hi, lambda block: kernel.pack(_power(kernel, block, ell)) - lo, np.int64
    )
    x_indices = kernel.x_keys() - lo  # x^0 = 1 first
    in_x = np.zeros(hi - lo, dtype=bool)
    in_x[x_indices] = True
    level_id = np.full(hi - lo, -1, dtype=np.int16)
    level_x = np.full(hi - lo, -1, dtype=np.int16)
    cur = np.arange(hi - lo)
    for i in range(64):
        new_id = (cur == x_indices[0]) & (level_id < 0)
        new_x = in_x[cur] & (level_x < 0)
        level_id[new_id] = i
        level_x[new_x] = i
        if i > 0 and not new_id.any() and not new_x.any():
            return level_id, level_x
        cur = step[cur]
    raise AssertionError(f"torsion levels for prime {ell} did not stabilize in 64 rounds")


def _level_histograms(kernel, lo: int, hi: int, primes) -> dict[int, tuple[np.ndarray, ...]]:
    """hist[ell] = (by_identity, by_x): per level i, how many elements with
    keys lo..hi-1 have level i for ell, to the identity and into <x>, as in
    _compute_levels."""
    hist = {}
    for ell in primes:
        levels = _compute_levels(kernel, lo, hi, ell)
        hist[ell] = tuple(np.bincount(level[level >= 0]) for level in levels)
    return hist


def _field_unit_histograms(q: int, primes) -> dict[int, np.ndarray]:
    """Identity-level histograms of F_q^*, counted on the keys 1..q-1 of the
    (1, q) ring, which are its nonzero constants."""
    histograms = _level_histograms(_kernel(1, q), 1, q, primes)
    return {ell: by_identity for ell, (by_identity, _) in histograms.items()}


@lru_cache(maxsize=2)
def _brute_analysis(n: int, q: int) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per candidate prime ell: the level histograms of M = {u : u(1) = 1}
    to the identity and into <x>, and that of F_q^* to the identity.  M is
    the key range [q^(n-1), 2 q^(n-1)) of the (n, q) ring, whose top key
    digit is u(1), and its elements with a level are those of C'."""
    primes = _candidate_primes(n, q)
    base = q ** (n - 1)
    star = _level_histograms(_kernel(n, q), base, 2 * base, primes)
    constants = _field_unit_histograms(q, primes)
    return {ell: star[ell] + (constants[ell],) for ell in primes}


def _product_tallies(tallies: list[int], other: list[int]) -> list[int]:
    """Cumulative torsion tallies of a direct product from its factors':
    #{(g, h) : (g, h)^(ell^i) = 1} = #{g : ...} * #{h : ...}, each series
    held at its last value once it ends."""
    return [
        tallies[min(i, len(tallies) - 1)] * other[min(i, len(other) - 1)]
        for i in range(max(len(tallies), len(other)))
    ]


def _torsion_series(tallies: list[int], divisor: int) -> list[int]:
    """Cumulative tallies divided by divisor, listed through the first
    repeated value (where the series provably stays)."""
    counts = []
    for tally in tallies:
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

    Only the q^(n-1) elements of M = {u : u(1) = 1}, a key range closed
    under powers that holds <x>, are powered.  Only elements with
    g^(ell^i) landing on the identity (or inside <x>) are ever tallied, and
    such elements are automatically units, so no explicit unit filter is
    needed: M's tallies are those of C'.  For the quotients, the tallies
    count every coset of <x> exactly n times and are divided accordingly.
    The full group splits as C = F_q^* x C' by u -> (u(1), u/u(1)), so its
    tallies are C''s times those of F_q^*, which are counted on the q - 1
    nonzero keys of the (1, q) ring.  The number of ring elements q^n must
    not exceed the cap (argument, else 2^22), and the larger enumeration,
    max(q^(n-1), q - 1) elements, times the measured peak bytes per
    enumerated element must not exceed physical memory.
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
    enumerated = max(q ** (n - 1), q - 1)
    if memory is not None and enumerated * _BYTES_PER_ELEMENT > memory:
        raise ValueError(
            f"enumerating {enumerated} elements of the q^n = {total} element ring "
            f"needs about {enumerated * _BYTES_PER_ELEMENT // 10**6} MB, more than the "
            f"{memory // 10**6} MB of physical memory"
        )

    parts = []
    for ell, (by_identity, by_x, constants) in _brute_analysis(n, q).items():
        tallies = np.cumsum(by_x if modulo_x else by_identity).tolist()
        if not restricted:
            tallies = _product_tallies(tallies, np.cumsum(constants).tolist())
        counts = _torsion_series(tallies, n if modulo_x else 1)
        part = structure_from_torsion_counts(ell, counts)
        if not part.is_trivial:
            parts.append(part)
    return abelian.direct_sum(*parts)
