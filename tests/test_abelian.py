import math

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sandpiles.abelian import (
    TRIVIAL_GROUP,
    AbelianGroup,
    direct_sum,
    from_cyclic_orders,
    structure_from_torsion_counts,
)

orders_lists = st.lists(st.integers(min_value=1, max_value=600), max_size=8)

# Few distinct orders, each repeated up to a few hundred times, as in the
# towers of the closed forms: divisors of 720 plus some large composites.
ORDER_POOL = sympy.divisors(720) + [2**40 * 3**5, 10**18, 6**30, 720**5, (2**61 - 1) * 15]
repeated_orders = (
    st.lists(st.tuples(st.sampled_from(ORDER_POOL), st.integers(1, 200)), max_size=5)
    .map(lambda pairs: [m for m, c in pairs for _ in range(c)])
    .flatmap(st.permutations)
)


def merge_one_by_one(orders):
    """Reference canonicalization: merge one cyclic order at a time into the
    whole chain, by Z_a + Z_b = Z_gcd(a,b) + Z_lcm(a,b) down the chain."""
    chain = []
    for m in orders:
        if m < 2:
            continue
        out = []
        carry = m
        for s in chain:
            g = math.gcd(s, carry)
            if g > 1:
                out.append(g)
            carry = s // g * carry
        out.append(carry)
        chain = out
    return tuple(chain)


def canonical_via_sympy(orders):
    """Independent canonicalization: factor every order with sympy, pool the
    prime-power exponents, and zip the largest exponents across primes into
    a divisor chain."""
    exponents: dict[int, list[int]] = {}
    for m in orders:
        for p, e in sympy.factorint(m).items():
            exponents.setdefault(p, []).append(e)
    for es in exponents.values():
        es.sort(reverse=True)
    depth = max((len(es) for es in exponents.values()), default=0)
    chain = []
    for i in range(depth):
        factor = 1
        for p, es in exponents.items():
            if i < len(es):
                factor *= p ** es[i]
        chain.append(factor)
    return tuple(reversed(chain))


def test_from_cyclic_orders_examples():
    assert from_cyclic_orders([8, 2]).invariant_factors == (2, 8)
    assert from_cyclic_orders([6, 4]).invariant_factors == (2, 12)
    assert from_cyclic_orders([1, 1, 1]) == TRIVIAL_GROUP
    assert from_cyclic_orders([]) == TRIVIAL_GROUP
    with pytest.raises(ValueError):
        from_cyclic_orders([0])
    with pytest.raises(ValueError):
        from_cyclic_orders([6, -2])


def test_constructor_validates_chain():
    with pytest.raises(ValueError):
        AbelianGroup((1, 4))
    with pytest.raises(ValueError):
        AbelianGroup((4, 6))  # 4 does not divide 6
    assert AbelianGroup((2, 4)).invariant_factors == (2, 4)


def test_direct_sum_examples():
    a = from_cyclic_orders([2, 4])
    b = from_cyclic_orders([6])
    assert direct_sum(a, b).invariant_factors == (2, 2, 12)
    assert direct_sum(a, TRIVIAL_GROUP) == a
    assert direct_sum() == TRIVIAL_GROUP
    assert direct_sum(from_cyclic_orders([8]), from_cyclic_orders([2])) == from_cyclic_orders(
        [2, 8]
    )


def test_isomorphism_and_order():
    z8z2 = from_cyclic_orders([8, 2])
    assert z8z2 != from_cyclic_orders([4, 4])
    assert z8z2 == from_cyclic_orders([2, 8])
    assert z8z2.order == 16
    assert TRIVIAL_GROUP.order == 1
    assert z8z2.exponent == 8
    assert z8z2.rank == 2
    assert TRIVIAL_GROUP.is_trivial and not z8z2.is_trivial


def test_str_and_json():
    g = from_cyclic_orders([6, 4])
    assert str(g) == "Z_2 + Z_12"
    assert str(TRIVIAL_GROUP) == "0"
    assert g.to_json_dict() == {"invariant_factors": ["2", "12"], "order": "24"}


def test_sylow():
    g = from_cyclic_orders([4, 12, 360])
    assert g.sylow(2) == from_cyclic_orders([4, 4, 8])
    assert g.sylow(3) == from_cyclic_orders([3, 9])
    assert g.sylow(5) == from_cyclic_orders([5])
    assert g.sylow(7) == TRIVIAL_GROUP
    with pytest.raises(ValueError):
        g.sylow(6)


@given(orders_lists)
def test_canonicalization_matches_sympy_route(orders):
    assert from_cyclic_orders(orders).invariant_factors == canonical_via_sympy(orders)


@given(orders_lists)
def test_canonicalization_matches_one_by_one_merge(orders):
    assert from_cyclic_orders(orders).invariant_factors == merge_one_by_one(orders)


@settings(max_examples=50, deadline=None)
@given(repeated_orders)
def test_multiplicities_match_both_references(orders):
    chain = from_cyclic_orders(orders).invariant_factors
    assert chain == merge_one_by_one(orders)
    assert chain == canonical_via_sympy(orders)


@given(orders_lists)
def test_round_trip_and_order(orders):
    g = from_cyclic_orders(orders)
    assert from_cyclic_orders(g.invariant_factors) == g
    assert g.order == math.prod(orders)
    chain = g.invariant_factors
    for a, b in zip(chain, chain[1:]):
        assert b % a == 0


@given(orders_lists, st.integers(min_value=1, max_value=600))
def test_append_cyclic_chain_formula(orders, m):
    """Appending Z_m to a canonical chain s_1..s_r lands on the chain
    s_1' = gcd(s_1, m), s_i' = gcd(s_i, lcm(s_{i-1}, m)), s_{r+1}' =
    lcm(s_r, m)."""
    g = from_cyclic_orders(orders)
    s = g.invariant_factors
    expected = []
    prev_lcm = m
    for i, si in enumerate(s):
        expected.append(math.gcd(si, prev_lcm))
        prev_lcm = math.lcm(si, prev_lcm)
    expected.append(prev_lcm)
    expected = tuple(x for x in expected if x > 1)
    assert direct_sum(g, from_cyclic_orders([m])).invariant_factors == expected


@given(orders_lists, orders_lists, orders_lists)
def test_cancellation(a, b, k):
    ga, gb, gk = from_cyclic_orders(a), from_cyclic_orders(b), from_cyclic_orders(k)
    assert direct_sum(ga, gb) == from_cyclic_orders(a + b)
    if direct_sum(ga, gk) == direct_sum(gb, gk):
        assert ga == gb
    else:
        assert ga != gb


def test_structure_from_torsion_counts_examples():
    assert structure_from_torsion_counts(
        3, (1, 3**12, 3**16, 3**16)
    ) == from_cyclic_orders([3] * 8 + [9] * 4)
    assert structure_from_torsion_counts(2, (1, 2, 4, 8, 8)) == from_cyclic_orders([8])
    assert structure_from_torsion_counts(5, (1, 1)) == TRIVIAL_GROUP
    assert structure_from_torsion_counts(2, (1,)) == TRIVIAL_GROUP


def test_structure_from_torsion_counts_errors():
    with pytest.raises(ValueError):
        structure_from_torsion_counts(4, (1, 4, 4))  # p not prime
    with pytest.raises(ValueError):
        structure_from_torsion_counts(2, ())
    with pytest.raises(ValueError):
        structure_from_torsion_counts(2, (2, 4, 4))  # N_0 != 1
    with pytest.raises(ValueError):
        structure_from_torsion_counts(2, (1, 2, 4))  # not stabilized
    with pytest.raises(ValueError):
        structure_from_torsion_counts(2, (1, 3, 3))  # ratio not a power of 2
    with pytest.raises(ValueError):
        structure_from_torsion_counts(2, (1, 2, 8, 8))  # deeper layer grows


def _torsion_counts(g: AbelianGroup, p: int, max_i: int) -> list[int]:
    """#{h in g : h^(p^i) = 1} for i = 0..max_i, the inverse of
    structure_from_torsion_counts."""
    return [math.prod(math.gcd(s, p**i) for s in g.invariant_factors) for i in range(max_i + 1)]


@given(
    st.sampled_from([2, 3, 5]),
    st.lists(st.integers(min_value=1, max_value=5), max_size=5),
)
def test_torsion_counts_round_trip(p, depths):
    g = from_cyclic_orders([p**e for e in depths])
    max_i = max(depths, default=0) + 1
    counts = _torsion_counts(g, p, max_i)
    assert counts[0] == 1
    assert counts[-1] == g.order
    assert structure_from_torsion_counts(p, counts) == g


def test_torsion_counts_values():
    g = from_cyclic_orders([2, 4, 3])
    assert _torsion_counts(g, 2, 3) == [1, 4, 8, 8]
    assert _torsion_counts(g, 3, 2) == [1, 3, 3]
