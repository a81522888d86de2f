import itertools
import math
import tracemalloc

import numpy as np
import pytest

from sandpiles import circulant
from sandpiles.abelian import (
    TRIVIAL_GROUP,
    direct_sum,
    from_cyclic_orders,
    structure_from_torsion_counts,
)
from sandpiles.arith import prime_power
from sandpiles.circulant import (
    DEFAULT_ENUMERATION_CAP,
    _BitKernel,
    _DigitKernel,
    _brute_analysis,
    _candidate_primes,
    _compute_levels,
    _level_histograms,
    _parity,
    _power,
    _torsion_series,
    FiniteField,
    RingElement,
    enumeration_cap,
    field_for,
    is_restricted_unit,
    is_unit,
    p_torsion_counts,
    quotient_group_closed,
    quotient_p_torsion_counts,
    relation_exponents,
    star_group_closed,
    unit_group_brute,
    unit_group_closed,
)
from sandpiles.closed_form import sand_dune_group, sandpile_group


def test_finite_field_moduli():
    assert FiniteField(2, 2).modulus == (1, 1, 1)
    assert FiniteField(2, 3).modulus == (1, 1, 0, 1)
    assert FiniteField(3, 2).modulus == (1, 0, 1)
    assert FiniteField(5).modulus == (0, 1)
    with pytest.raises(ValueError):
        FiniteField(4, 1)
    with pytest.raises(ValueError):
        FiniteField(2, 0)


def test_finite_field_ops():
    f = FiniteField(3, 2)
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1
    for a in range(f.q):
        assert f.pow(a, 3) == f.frobenius(a)
        for b in range(f.q):
            assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))
            assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))
            assert f.mul(a, b) == f.mul(b, a)
    assert f.sub(1, 1) == 0
    assert f.add(1, f.neg(1)) == 0
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_field_for():
    assert field_for(9) is field_for(9)
    assert field_for(8).p == 2 and field_for(8).r == 3
    assert field_for(7).q == 7
    with pytest.raises(ValueError):
        field_for(6)
    with pytest.raises(ValueError):
        field_for(1)


def test_ring_element_basics():
    f = field_for(2)
    x = RingElement.x_power(f, 5)
    assert x**5 == RingElement.one(f, 5)
    assert x**7 == RingElement.x_power(f, 5, 2)
    one_plus_x = RingElement(f, 3, (1, 1, 0))
    assert one_plus_x.eval_at_one() == 0
    assert RingElement.x_power(f, 3).eval_at_one() == 1
    with pytest.raises(ValueError):
        RingElement(f, 3, (1, 1))
    with pytest.raises(ValueError):
        RingElement(f, 3, (1, 2, 0))
    with pytest.raises(ValueError):
        RingElement(f, 3, (1, 0, 0)) * RingElement(f, 4, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        x ** (-1)


def test_is_unit_examples():
    f2 = field_for(2)
    assert not is_unit(RingElement(f2, 3, (1, 1, 0)))  # 1 + x divides x^3 - 1
    assert is_unit(RingElement.x_power(f2, 3))
    assert is_restricted_unit(RingElement.x_power(f2, 3))
    assert not is_unit(RingElement(f2, 3, (0, 0, 0)))
    f3 = field_for(3)
    two = RingElement(f3, 4, (2, 0, 0, 0))
    assert is_unit(two)
    assert not is_restricted_unit(two)  # evaluates to 2 at x = 1


def test_coprime_groups():
    assert star_group_closed(3, 2)[0] == from_cyclic_orders([3])
    assert star_group_closed(4, 3)[0] == from_cyclic_orders([8, 2])
    assert star_group_closed(1, 7)[0] == TRIVIAL_GROUP
    assert quotient_group_closed(3, 2)[0] == TRIVIAL_GROUP
    assert quotient_group_closed(4, 3)[0] == from_cyclic_orders([4])
    with pytest.raises(ValueError):
        star_group_closed(5, 6)
    # The coprime circulant groups are literally the dune/sandpile groups.
    for m, q in ((5, 2), (7, 2), (8, 3), (5, 4), (10, 9)):
        assert star_group_closed(m, q)[0] == sand_dune_group(m, q)
        assert quotient_group_closed(m, q)[0] == sandpile_group(m, q)


def test_relation_exponents():
    assert relation_exponents(4, 3) == {1: 2, 2: 1}
    assert relation_exponents(1, 3) == {}
    exps = relation_exponents(15, 2)
    cs_orders = {1: 15, 3: 15, 5: 3, 7: 15}
    for v, r in exps.items():
        assert r * (15 // math.gcd(15, v)) == cs_orders[v]


def test_star_group_prime():
    assert star_group_closed(4, 2)[0] == from_cyclic_orders([2, 4])
    assert star_group_closed(3, 2)[0] == from_cyclic_orders([3])
    assert star_group_closed(9, 3)[0] == from_cyclic_orders([3] * 4 + [9] * 2)
    # n = 12 = 2^2 * 3: tower Z_2^((p-1)^2 m) + Z_4^((p-1) m) on top of C'(3, 2).
    assert star_group_closed(12, 2)[0] == direct_sum(
        from_cyclic_orders([2] * 3 + [4] * 3), sand_dune_group(3, 2)
    )


def test_quotient_group_prime():
    assert quotient_group_closed(4, 2)[0] == from_cyclic_orders([2])
    assert quotient_group_closed(3, 2)[0] == TRIVIAL_GROUP
    expected = sandpile_group(9, 3)
    assert quotient_group_closed(9, 3)[0] == expected
    assert expected == from_cyclic_orders([3] * 4 + [9])


def test_quotient_builds_the_sandpile_group_of_the_coprime_part_only(monkeypatch):
    asked = []

    def spy(n, d):
        asked.append(n)
        return sandpile_group(n, d)

    monkeypatch.setattr(circulant, "sandpile_group", spy)
    group, _ = quotient_group_closed(24, 2)
    assert asked == [3]
    assert group == sandpile_group(24, 2)


def test_p_torsion_counts():
    assert p_torsion_counts(9, 9) == [1, 3**12, 3**16, 3**16]
    assert p_torsion_counts(4, 2) == [1, 4, 8, 8]
    assert p_torsion_counts(5, 2) == [1, 1]
    assert p_torsion_counts(12, 2, max_i=4) == [
        2 ** (12 - 3 * 4),
        2 ** (12 - 3 * 2),
        2 ** (12 - 3),
        2**9,
        2**9,
    ]
    with pytest.raises(ValueError):
        p_torsion_counts(4, 6)


def test_quotient_p_torsion_counts():
    assert quotient_p_torsion_counts(4, 2) == [1, 2, 2, 2]
    assert quotient_p_torsion_counts(9, 9) == [1, 3**11, 3**14, 3**14]
    # n = 12 = 2^2 * 3: N_i = 2^(12 - 12/g) / g with g = 2^min(i, 2).
    assert quotient_p_torsion_counts(12, 2) == [1, 32, 128, 128]


def test_closed_dispatchers():
    group, method = star_group_closed(5, 4)
    assert method == "closed_form" and group == sand_dune_group(5, 4)
    # Over F_4 every tower multiplicity doubles: C'(2, 4) = Z_2^2.
    assert star_group_closed(2, 4) == (from_cyclic_orders([2, 2]), "closed_form")
    group, method = star_group_closed(6, 4)
    assert method == "closed_form"
    assert group == unit_group_brute(6, 4, restricted=True)
    group, method = quotient_group_closed(4, 4)
    assert method == "closed_form"
    assert group == unit_group_brute(4, 4, restricted=True, modulo_x=True)
    # Mixed modulus over a proper extension: Z_2^4 + Z_6, not S(6, 4).
    group, method = quotient_group_closed(6, 4)
    assert method == "closed_form" and group == from_cyclic_orders([2, 2, 2, 2, 6])
    assert group == unit_group_brute(6, 4, restricted=True, modulo_x=True)
    assert group != sandpile_group(6, 4) and group.order == sandpile_group(6, 4).order


def test_unit_group_closed_modes():
    # C = C' + Z_{q-1} in both the plain and the quotient mode.
    for n, q in ((5, 4), (12, 2), (6, 4), (4, 4), (9, 3), (10, 9)):
        star, star_method = star_group_closed(n, q)
        constants = from_cyclic_orders([q - 1])
        assert unit_group_closed(n, q, restricted=True) == (star, star_method)
        assert unit_group_closed(n, q) == (direct_sum(star, constants), star_method)
        quotient, method = quotient_group_closed(n, q)
        assert unit_group_closed(n, q, restricted=True, modulo_x=True) == (quotient, method)
        assert unit_group_closed(n, q, modulo_x=True) == (direct_sum(quotient, constants), method)
    with pytest.raises(ValueError):
        unit_group_closed(0, 4)


def test_enumeration_cap():
    assert enumeration_cap() == DEFAULT_ENUMERATION_CAP
    assert enumeration_cap(123) == 123
    with pytest.raises(ValueError):
        unit_group_brute(10, 3, cap=100)
    try:
        unit_group_brute(10, 3, cap=100)
    except ValueError as exc:
        assert "100" in str(exc)


def test_brute_refuses_rings_beyond_physical_memory(monkeypatch):
    monkeypatch.setattr(circulant, "_physical_memory_bytes", lambda: 10**6)
    # Only M = {u : u(1) = 1} is enumerated: the 3^11 keys with top digit 1.
    estimate = 3**11 * circulant._BYTES_PER_ELEMENT // 10**6
    with pytest.raises(ValueError, match=f"about {estimate} MB"):
        unit_group_brute(12, 3)
    # Where physical memory is unknown, the cap alone decides.
    monkeypatch.setattr(circulant, "_physical_memory_bytes", lambda: None)
    assert unit_group_brute(4, 2, restricted=True) == from_cyclic_orders([2, 4])


def test_brute_refuses_wide_characteristic_two_rings(monkeypatch):
    # Refused before anything is allocated, even where memory is unknown.
    monkeypatch.setattr(circulant, "_physical_memory_bytes", lambda: None)
    for n in (33, 61):
        with pytest.raises(ValueError, match="2n - 1 <= 64"):
            unit_group_brute(n, 2, cap=1 << 61)


def _peak_bytes_per_element(n, q):
    _brute_analysis.cache_clear()
    tracemalloc.start()
    try:
        unit_group_brute(n, q, restricted=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / q ** (n - 1)


def test_enumeration_memory_per_element():
    # M, 2.6e5 keys, is unpacked one chunk of keys at a time, never whole.
    assert _peak_bytes_per_element(10, 4) <= 48


def test_enumeration_memory_per_element_on_a_small_ring():
    # Chunks are sized in bytes, so at 1.8e5 enumerated elements one chunk's
    # buffers still weigh little against them.
    assert _peak_bytes_per_element(12, 3) <= 48


def test_unit_group_brute_examples():
    assert unit_group_brute(4, 2, restricted=True) == from_cyclic_orders([2, 4])
    assert unit_group_brute(3, 2, restricted=True, modulo_x=True) == TRIVIAL_GROUP
    assert unit_group_brute(5, 2, restricted=True) == from_cyclic_orders([15])
    assert unit_group_brute(1, 5, restricted=True) == TRIVIAL_GROUP
    assert unit_group_brute(1, 5) == from_cyclic_orders([4])
    with pytest.raises(ValueError):
        unit_group_brute(0, 2)
    with pytest.raises(ValueError):
        unit_group_brute(3, 6)


def test_brute_full_group_splits_off_constants():
    # C(n, q) = C'(n, q) + Z_{q-1}: the constants complement the kernel of
    # evaluation at 1.
    for n, q in ((4, 3), (3, 4), (6, 2), (5, 3), (2, 9)):
        star = unit_group_brute(n, q, restricted=True)
        assert unit_group_brute(n, q) == direct_sum(star, from_cyclic_orders([q - 1]))


def test_brute_matches_closed_forms():
    for q in (2, 3, 4, 5, 7, 8, 9):
        n = 1
        while q**n <= 1 << 14:
            star, _ = star_group_closed(n, q)
            assert unit_group_brute(n, q, restricted=True) == star
            brute_quot = unit_group_brute(n, q, restricted=True, modulo_x=True)
            assert star.order == n * brute_quot.order
            quot, _ = quotient_group_closed(n, q)
            assert brute_quot == quot
            n += 1


def _value_at_one(kernel, block):
    """u(1) of every element of an unpacked block, as field elements, summed
    from the coefficients without the kernels' key layout."""
    if isinstance(kernel, _BitKernel):
        bits = sum((block >> np.uint64(j)) & np.uint64(1) for j in range(kernel.n))
        return sum((bits[u] & np.uint64(1)).astype(np.int64) << u for u in range(kernel.r))
    digits = block.sum(axis=0, dtype=np.int64) % kernel.p
    return sum(digits[t] * kernel.p**t for t in range(kernel.r))


def _whole_ring_group(kernel, restricted, modulo_x):
    """The group by the whole-ring route: all q^n keys are powered, C' is
    selected by u(1) = 1 read off their coefficients, and C is every key
    whose powers reach 1, with no split C = F_q^* x C'."""
    total = kernel.q**kernel.n
    in_star = _value_at_one(kernel, kernel.unpack(np.arange(total, dtype=np.int64))) == 1
    group = TRIVIAL_GROUP
    for ell in _candidate_primes(kernel.n, kernel.q):
        level_id, level_x = _compute_levels(kernel, 0, total, ell)
        level = level_x if modulo_x else level_id
        if restricted:
            level = level[in_star]
        tallies = np.cumsum(np.bincount(level[level >= 0])).tolist()
        counts = _torsion_series(tallies, kernel.n if modulo_x else 1)
        group = direct_sum(group, structure_from_torsion_counts(ell, counts))
    return group


_MODES = [(False, False), (True, False), (False, True), (True, True)]


def test_brute_matches_the_whole_ring_route():
    for q in (2, 3, 4, 5, 7, 8, 9):
        n = 1
        while q**n <= 1 << 14:
            kernel = circulant._kernel(n, q)
            for restricted, modulo_x in _MODES:
                assert unit_group_brute(n, q, restricted, modulo_x) == _whole_ring_group(
                    kernel, restricted, modulo_x
                ), (n, q, restricted, modulo_x)
            n += 1


def test_brute_matches_the_whole_ring_route_on_fields():
    # n = 1: M = C' = {1} is the key range [1, 2) and F_q^* the keys 1..q-1.
    # Every prime power q <= 2^12, except that of the 510 primes above 2^8,
    # which all take the int64-digit path, only every 16th and the last.
    fields = [q for q in range(2, (1 << 12) + 1) if prime_power(q) is not None]
    big_primes = [q for q in fields if q > 1 << 8 and prime_power(q)[1] == 1]
    skipped = set(big_primes) - set(big_primes[::16] + big_primes[-1:])
    for q in fields:
        if q in skipped:
            continue
        kernel = circulant._kernel(1, q)
        for restricted, modulo_x in _MODES:
            assert unit_group_brute(1, q, restricted, modulo_x) == _whole_ring_group(
                kernel, restricted, modulo_x
            ), (q, restricted, modulo_x)


def brute_unit_counts(n, q):
    field = field_for(q)
    units = restricted = 0
    for coeffs in itertools.product(range(q), repeat=n):
        c = RingElement(field, n, coeffs)
        if is_unit(c):
            units += 1
            if is_restricted_unit(c):
                restricted += 1
    return units, restricted


def test_unit_counts_by_direct_filter():
    # Slow, definition-level counting of units agrees with the group orders.
    for n, q in ((3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (3, 4), (2, 9), (1, 7)):
        units, restricted = brute_unit_counts(n, q)
        star, _ = star_group_closed(n, q)
        assert restricted == star.order
        assert units == star.order * (q - 1)


def test_bit_kernel_parity_matches_popcount():
    # Over F_2 with n = 62, key bits 0..60 are coefficients 0..60 and bit 61
    # is u(1), so the derived coefficient 61 makes the plane's parity bit 61.
    keys = np.random.default_rng(7).integers(0, 1 << 62, size=2000, dtype=np.int64)
    keys[:3] = (0, 1, (1 << 62) - 1)
    popcounts = [bin(int(k)).count("1") for k in keys]
    assert _parity(keys.astype(np.uint64), 62).tolist() == [c & 1 for c in popcounts]
    kernel = _BitKernel(62, 2)
    planes = kernel.unpack(keys)
    low = (1 << 61) - 1
    for key, plane in zip(keys.tolist(), planes[0].tolist()):
        assert plane & low == key & low
        assert bin(plane).count("1") & 1 == key >> 61
    assert kernel.pack(planes).tolist() == keys.tolist()


def _decode(kernel, key, field):
    """The ring element with the given key, read off each kernel's layout:
    coefficients 0..n-2 in the low digits, u(1) in the top digit, and
    coefficient n - 1 derived as u(1) minus the others."""
    n, q, r = kernel.n, kernel.q, kernel.r
    if isinstance(kernel, _BitKernel):
        coeffs = [
            sum(((key >> (u * (n - 1) + j)) & 1) << u for u in range(r)) for j in range(n - 1)
        ]
    else:
        coeffs = [(key // q**j) % q for j in range(n - 1)]
    last = key // q ** (n - 1)
    for c in coeffs:
        last = field.sub(last, c)
    return RingElement(field, n, tuple(coeffs + [last]))


def _coefficients(kernel, block, row):
    """The coefficients of one element of an unpacked block, as field elements."""
    if isinstance(kernel, _BitKernel):
        return tuple(
            sum(((int(block[u, row]) >> j) & 1) << u for u in range(kernel.r))
            for j in range(kernel.n)
        )
    return tuple(sum(int(d) * kernel.p**t for t, d in enumerate(c)) for c in block[:, :, row])


@pytest.mark.parametrize("n, q", [(4, 2), (3, 3), (2, 4), (2, 9), (3, 8), (1, 4), (1, 9)])
def test_pack_inverts_unpack(n, q):
    keys = np.arange(q**n, dtype=np.int64)
    field = field_for(q)
    kernels = [_DigitKernel(n, q)] + ([_BitKernel(n, q)] if q % 2 == 0 else [])
    for kernel in kernels:
        block = kernel.unpack(keys)
        assert kernel.pack(block).tolist() == keys.tolist()
        for key in range(q**n):
            element = _decode(kernel, key, field)
            assert _coefficients(kernel, block, key) == element.coeffs
            assert element.eval_at_one() == key // q ** (n - 1)


def _reference_levels(g, ell, one, x_powers):
    """Least i with g^(ell^i) = 1 and least i with g^(ell^i) in <x> (-1 when
    never), by powering until the sequence g^(ell^i) repeats."""
    level_id = level_x = -1
    seen = set()
    h, i = g, 0
    while h not in seen:
        if level_id < 0 and h == one:
            level_id = i
        if level_x < 0 and h in x_powers:
            level_x = i
        seen.add(h)
        h, i = h**ell, i + 1
    return level_id, level_x


@pytest.mark.parametrize(
    "n, q", [(4, 2), (3, 3), (2, 4), (3, 5), (2, 9), (2, 25), (2, 27), (3, 9), (1, 8), (1, 9)]
)
def test_gathered_levels_match_ring_powers(n, q):
    # Over C', the keys [q^(n-1), 2 q^(n-1)), and over F_q^*, the keys 1..q-1
    # of the (1, q) ring, whose only power of x is 1.
    field = field_for(q)
    for m, lo, hi in ((n, q ** (n - 1), 2 * q ** (n - 1)), (1, 1, q)):
        kernel = circulant._kernel(m, q)
        elements = [_decode(kernel, key, field) for key in range(lo, hi)]
        one = RingElement.one(field, m)
        x_powers = {RingElement.x_power(field, m, t) for t in range(m)}
        assert x_powers <= set(elements)
        for ell in _candidate_primes(n, q):
            level_id, level_x = _compute_levels(kernel, lo, hi, ell)
            expected = [_reference_levels(g, ell, one, x_powers) for g in elements]
            assert level_id.tolist() == [e[0] for e in expected]
            assert level_x.tolist() == [e[1] for e in expected]


@pytest.mark.parametrize("n, q", [(10, 2), (5, 4), (4, 8), (1, 16)])
def test_digit_and_bit_kernels_agree_in_characteristic_two(n, q):
    # Over C' and over F_q^*, and in the whole-ring route in every mode.
    primes = _candidate_primes(n, q)
    for m, lo, hi in ((n, q ** (n - 1), 2 * q ** (n - 1)), (1, 1, q)):
        digit = _level_histograms(_DigitKernel(m, q), lo, hi, primes)
        bit = _level_histograms(_BitKernel(m, q), lo, hi, primes)
        assert digit.keys() == bit.keys()
        for ell in digit:
            assert [h.tolist() for h in digit[ell]] == [h.tolist() for h in bit[ell]]
    for restricted, modulo_x in _MODES:
        assert _whole_ring_group(_DigitKernel(n, q), restricted, modulo_x) == _whole_ring_group(
            _BitKernel(n, q), restricted, modulo_x
        )


@pytest.mark.parametrize(
    "kernel_class, n, q",
    [(_DigitKernel, 3, 5), (_DigitKernel, 2, 9), (_DigitKernel, 2, 7), (_BitKernel, 3, 4)],
)
def test_power_matches_ring_powers(kernel_class, n, q):
    # Exponents up to 3 p^2 have base-p digits that are zero and digits >= 2.
    kernel = kernel_class(n, q)
    field = field_for(q)
    block = kernel.unpack(np.arange(q**n, dtype=np.int64))
    elements = [_decode(kernel, key, field) for key in range(q**n)]
    for e in range(1, 3 * kernel.p**2 + 1):
        powered = _power(kernel, block, e)
        for key, g in enumerate(elements):
            assert _coefficients(kernel, powered, key) == (g**e).coeffs, (e, key)


class _CountingDigitKernel(_DigitKernel):
    multiplies = 0

    def multiply(self, a, b):
        self.multiplies += 1
        return super().multiply(a, b)


@pytest.mark.parametrize("n, q, multiplies", [(2, 27, 3), (7, 5, 7)])
def test_power_multiplies_per_chunk(n, q, multiplies):
    # Base-p Horner: each nonzero lower digit costs one multiply plus its
    # digit power; the Frobenius maps cost none.
    kernel = _CountingDigitKernel(n, q)
    block = kernel.unpack(np.arange(16, dtype=np.int64))
    for ell in _candidate_primes(n, q):
        _power(kernel, block, ell)
    assert kernel.multiplies == multiplies


def _cyclic_clmul_reference(a, b, n):
    """The cyclic carry-less product of two n-bit integers, bit by bit."""
    out = 0
    for i in range(n):
        if a >> i & 1:
            out ^= ((b << i) | (b >> (n - i))) & ((1 << n) - 1)
    return out


def test_carry_less_spacing():
    # The least s with ceil(n/s) < 2^s.
    spacings = {n: _BitKernel(n, 2).spacing for n in (1, 2, 6, 7, 21, 22, 32)}
    assert spacings == {1: 1, 2: 2, 6: 2, 7: 3, 21: 3, 22: 4, 32: 4}


@pytest.mark.parametrize("n", range(1, 33))
def test_spaced_carry_less_product(n):
    kernel = _BitKernel(n, 2)
    ones = (1 << n) - 1
    rng = np.random.default_rng(n)
    a = rng.integers(0, ones, size=200, dtype=np.uint64, endpoint=True)
    b = rng.integers(0, ones, size=200, dtype=np.uint64, endpoint=True)
    # All-ones operands put the most terms on every product position.
    a[:2] = b[:2] = ones
    a[2], b[3] = 0, 0
    product = kernel.multiply(a[None], b[None])[0]
    assert product.tolist() == [_cyclic_clmul_reference(int(x), int(y), n) for x, y in zip(a, b)]


@pytest.mark.parametrize("n, q", [(5, 2), (3, 4), (2, 8)])
def test_table_frobenius_squares_every_element(n, q):
    kernel = _BitKernel(n, q)
    field = field_for(q)
    squared = kernel.frobenius(kernel.unpack(np.arange(q**n, dtype=np.int64)))
    for key in range(q**n):
        assert _coefficients(kernel, squared, key) == (_decode(kernel, key, field) ** 2).coeffs
