import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sandpiles.abelian import TRIVIAL_GROUP, from_cyclic_orders
from sandpiles.arith import prime_factors
from sandpiles.closed_form import (
    SigmaElement,
    _coset_orders,
    c_value,
    cyclotomic_cosets,
    d_sequence,
    d_type,
    element_order_formula,
    element_order_in_sigma,
    epsilon_expansion,
    membership_in_sandpile,
    sand_dune_group,
    sandpile_generators,
    sandpile_group,
    sigma_element_order,
    sigma_relation_matrix,
)
from sandpiles.digraphs import de_bruijn, kautz, sandpile_group_snf
from sandpiles.exact_linalg import smith_group, smith_normal_form

signed_d = st.one_of(
    st.integers(min_value=2, max_value=7), st.integers(min_value=-7, max_value=-2)
)


def test_d_sequence_examples():
    ds = d_sequence(12, 2)
    assert ds.chain == (12, 6, 3, 3)
    assert ds.gcds == (2, 2, 1)
    assert (ds.k, ds.m, ds.delta) == (2, 3, 4)
    ds = d_sequence(5, 2)
    assert ds.chain == (5, 5)
    assert (ds.k, ds.m, ds.delta) == (0, 5, 1)
    ds = d_sequence(9, 9)
    assert ds.chain == (9, 1, 1)
    assert (ds.k, ds.m, ds.delta) == (1, 1, 9)
    ds = d_sequence(12, -2)  # sign of d never matters here
    assert ds.chain == (12, 6, 3, 3)
    with pytest.raises(ValueError):
        d_sequence(12, 1)
    with pytest.raises(ValueError):
        d_sequence(12, 0)
    with pytest.raises(ValueError):
        d_sequence(0, 2)


@given(st.integers(min_value=1, max_value=400), signed_d)
def test_d_sequence_properties(n, d):
    ds = d_sequence(n, d)
    assert ds.m * ds.delta == n
    assert math.gcd(ds.m, d) == 1
    # delta is a product of gcds with d, so its primes all divide d and
    # never touch m.
    assert math.gcd(ds.m, ds.delta) == 1
    assert all(abs(d) % p == 0 for p in prime_factors(ds.delta))
    assert ds.chain[-1] == ds.chain[-2] == ds.m
    assert ds.gcds[-1] == 1
    for i in range(ds.k):
        assert ds.chain[i + 1] * ds.gcds[i] == ds.chain[i]
        assert ds.gcds[i] == math.gcd(ds.chain[i], abs(d))


def test_d_type_examples():
    assert d_type(1, 4, 3) == (0, 2)
    assert d_type(1, 12, 2) == (2, 2)
    assert d_type(0, 7, 3) == (0, 1)
    assert d_type(1, 9, 3) == (2, 1)  # orbit 1 -> 3 -> 0 -> 0
    assert d_type(2, 4, 3) == (0, 1)


def test_element_order_examples():
    assert element_order_in_sigma(1, 4, 3) == 8
    assert element_order_in_sigma(1, 12, 2) == 12
    assert element_order_in_sigma(2, 4, 3) == 2
    # When the orbit of v reaches 0 the formula overshoots: the cycle part
    # of the expansion collapses and the true order is |d|^f.
    assert element_order_in_sigma(1, 9, 3) == 9
    assert element_order_formula(1, 9, 3) == 18


@given(st.integers(min_value=1, max_value=60), signed_d, st.integers(min_value=0, max_value=59))
def test_element_order_vs_formula(n, d, v):
    v %= n
    got = element_order_in_sigma(v, n, d)
    formula = element_order_formula(v, n, d)
    assert formula % got == 0
    f, _ = d_type(v, n, d)
    if (v * d**f) % n != 0:
        assert got == formula
    elif v % n != 0:
        assert got == abs(d) ** f


@given(st.integers(min_value=2, max_value=24), signed_d, st.integers(min_value=1, max_value=23))
def test_epsilon_expansion_identity(n, d, v):
    """e_v must reconstruct exactly from its expansion: with eps_w =
    d*e_w - e_{dw}, the sum c_w * eps_w returns the unit vector at v."""
    v %= n
    coeffs = epsilon_expansion(v, n, d)
    vec = [Fraction(0)] * n  # coordinates of e_0..e_{n-1}, e_0 fixed at 0
    for w, c in coeffs.items():
        vec[w] += c * d
        vec[d * w % n] -= c
    vec[0] = Fraction(0)
    expected = [Fraction(0)] * n
    if v:
        expected[v] = Fraction(1)
    assert vec == expected


def test_cyclotomic_cosets_examples():
    cs = cyclotomic_cosets(4, 3)
    assert cs.orbits == ((1, 3), (2,))
    assert cs.representatives == (1, 2)
    assert cs.vstar == (1, 2)
    assert cs.prime_parts == ((2, 4, 1),)
    cs = cyclotomic_cosets(3, 2)
    assert cs.orbits == ((1, 2),)
    assert cs.vstar == (1,)
    cs = cyclotomic_cosets(1, 5)
    assert cs.orbits == ()
    assert cs.vstar == ()
    with pytest.raises(ValueError):
        cyclotomic_cosets(4, 2)
    with pytest.raises(ValueError):
        cyclotomic_cosets(0, 3)


def test_coset_system_lookup():
    cs = cyclotomic_cosets(15, 2)
    assert cs.orbit_of(4) == (1, 2, 4, 8)
    assert cs.orbit_size(9) == 4
    assert min(cs.orbit_of(10)) == 5
    assert min(cs.orbit_of(2 * 7 % 15)) == min(cs.orbit_of(7))
    with pytest.raises(ValueError):
        cs.orbit_of(0)


@given(st.integers(min_value=1, max_value=200), signed_d)
def test_coset_system_properties(m, d):
    if math.gcd(m, d) != 1:
        m = m // math.gcd(m, d)  # keep the draw, shrink to a coprime modulus
    if math.gcd(m, d) != 1:
        return
    cs = cyclotomic_cosets(m, d)
    covered = sorted(v for orbit in cs.orbits for v in orbit)
    assert covered == list(range(1, m))
    for orbit in cs.orbits:
        assert orbit[0] == min(orbit)
        for a, b in zip(orbit, orbit[1:] + orbit[:1]):
            assert a * d % m == b
    assert set(cs.vstar) <= set(cs.representatives)
    # Every proper divisor of m is minimal in its own orbit.
    divisors = {v for v in range(1, m) if m % v == 0}
    assert divisors <= set(cs.representatives)


def test_c_value_examples():
    assert c_value(1, 4, 3) == 2  # exceptional 2-adic case: d = 3 mod 4
    assert c_value(2, 4, 3) == 2
    assert c_value(1, 3, 2) == 3
    assert c_value(1, 4, -5) == 2  # -5 = 3 mod 4: same exceptional shape
    assert c_value(1, 4, 5) == 4  # d = 1 mod 4: plain prime-part factor
    assert c_value(2, 4, 5) == 1
    # Multi-prime m: only the reps M_p = m / pi_p carry a factor, and the
    # factors multiply out to m (here 5 * 3 = 15).
    assert c_value(1, 15, 2) == 1
    assert c_value(3, 15, 2) == 5
    assert c_value(5, 15, 2) == 3
    assert c_value(7, 15, 2) == 1
    with pytest.raises(ValueError):
        c_value(3, 4, 3)  # 3 sits in the orbit of 1


def test_c_value_at_a_million():
    # m = 1000001 = 101 * 9901: only v's own orbit is walked, never Z_m.
    m = 101 * 9901
    assert c_value(9901, m, 2) == 101
    assert c_value(101, m, 2) == 9901
    assert c_value(1, m, 2) == 1
    with pytest.raises(ValueError):
        c_value(2, m, 2)  # 2 sits in the orbit of 1


def coset_orders_by_walk(m, d, reduced):
    """Reference for the per-divisor coset count: walk Z_m into its orbits
    and take one order |d^o - 1| per orbit, divided by c at the orbit's
    representative when reduced."""
    orders = []
    for orbit in cyclotomic_cosets(m, d).orbits:
        full = abs(d ** len(orbit) - 1)
        if reduced:
            c = c_value(orbit[0], m, d)
            assert full % c == 0
            full //= c
        orders.append(full)
    return orders


def test_coset_count_matches_walk_on_every_small_modulus():
    # Every coprime (m, d) with m <= 400 and d in +-{2..9}; this includes
    # the exceptional 2-adic cases 4 | m, d = 3 mod 4.
    for d in [*range(2, 10), *range(-9, -1)]:
        for m in range(1, 401):
            if math.gcd(m, d) != 1:
                continue
            for reduced in (False, True):
                assert Counter(_coset_orders(m, d, reduced)) == Counter(
                    coset_orders_by_walk(m, d, reduced)
                ), (m, d, reduced)


@given(
    st.integers(min_value=1, max_value=10**4),
    st.one_of(st.integers(min_value=2, max_value=9), st.integers(min_value=-9, max_value=-2)),
)
def test_coset_count_matches_walk(m, d):
    while math.gcd(m, d) != 1:  # shrink to the coprime part
        m //= math.gcd(m, d)
    for reduced in (False, True):
        assert Counter(_coset_orders(m, d, reduced)) == Counter(
            coset_orders_by_walk(m, d, reduced)
        )


def test_sand_dune_group_examples():
    assert sand_dune_group(4, 3) == from_cyclic_orders([8, 2])
    assert sand_dune_group(2, 2) == from_cyclic_orders([2])
    assert sand_dune_group(3, -2) == from_cyclic_orders([3, 3])
    assert sand_dune_group(1, 5) == TRIVIAL_GROUP
    assert sand_dune_group(9, 9) == from_cyclic_orders([9] * 8)
    assert sand_dune_group(9, 3) == from_cyclic_orders([3] * 4 + [9] * 2)


def test_sandpile_group_examples():
    assert sandpile_group(4, 3) == from_cyclic_orders([4])
    assert sandpile_group(9, 9) == from_cyclic_orders([9] * 7)
    assert sandpile_group(3, -2) == from_cyclic_orders([3])
    assert sandpile_group(9, 3) == from_cyclic_orders([3] * 4 + [9])
    assert sandpile_group(5, 2) == from_cyclic_orders([3])
    assert sandpile_group(1, 3) == TRIVIAL_GROUP


@given(st.integers(min_value=1, max_value=60), signed_d)
def test_index_identity(n, d):
    assert sand_dune_group(n, d).order == n * sandpile_group(n, d).order


@given(st.integers(min_value=1, max_value=14), signed_d)
def test_sigma_matches_relation_matrix_snf(n, d):
    free_rank, torsion = smith_group(sigma_relation_matrix(n, d))
    assert free_rank == 0
    assert torsion == sand_dune_group(n, d)


@given(st.integers(min_value=1, max_value=14), signed_d)
def test_sandpile_matches_digraph_snf(n, d):
    graph = de_bruijn(n, d) if d > 0 else kautz(n, -d)
    assert sandpile_group_snf(graph, 0) == sandpile_group(n, d)


def test_sigma_relation_matrix_examples():
    M = sigma_relation_matrix(4, 3)
    assert M.to_rows() == [[3, 0, -1], [0, 2, 0], [-1, 0, 3]]
    assert smith_normal_form(M).invariant_factors == (1, 2, 8)
    M = sigma_relation_matrix(3, 2)
    assert M.to_rows() == [[2, -1], [-1, 2]]
    assert smith_normal_form(M).invariant_factors == (1, 3)
    assert sigma_relation_matrix(2, 2).to_rows() == [[2]]
    assert sigma_relation_matrix(1, 2).rows == 0


def test_membership_in_sandpile():
    n, d = 4, 3
    e = lambda v: SigmaElement.basis(n, d, v)
    assert membership_in_sandpile(e(1) + e(3))
    assert not membership_in_sandpile(e(1) - e(3))
    assert membership_in_sandpile(e(2) - 2 * e(1))
    assert membership_in_sandpile(SigmaElement.zero(n, d))


def test_sigma_element_arithmetic():
    a = SigmaElement.basis(5, 2, 2)
    b = SigmaElement.basis(5, 2, 4)
    assert (a + b).coeffs == (0, 1, 0, 1)
    assert (a - b).coeffs == (0, 1, 0, -1)
    assert (3 * a).coeffs == (0, 3, 0, 0)
    assert (-a).coeffs == (0, -1, 0, 0)
    assert a.coefficient(2) == 1 and a.coefficient(0) == 0
    assert SigmaElement.basis(5, 2, 5).coeffs == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        a + SigmaElement.basis(6, 2, 2)
    with pytest.raises(ValueError):
        SigmaElement(4, 2, (1, 2))


@given(st.integers(min_value=2, max_value=20), signed_d, st.integers(min_value=1, max_value=19))
def test_sigma_element_order_of_basis(n, d, v):
    v %= n
    a = SigmaElement.basis(n, d, v)
    assert sigma_element_order(a) == element_order_in_sigma(v, n, d)


def test_sigma_element_order_mixed_orbit():
    # In Sigma(7, 2) the relations force e_2 = 2 e_1 and 7 e_1 = 0, so
    # e_1 - 2 e_2 = -3 e_1 still has order 7.  This mixes two basis vectors
    # from one cyclotomic orbit, which only works when the expansion
    # coefficients sit on the right orbit elements.
    a = SigmaElement.basis(7, 2, 1) - 2 * SigmaElement.basis(7, 2, 2)
    assert sigma_element_order(a) == 7
    assert sigma_element_order(SigmaElement.basis(3, 2, 1) + SigmaElement.basis(3, 2, 2)) == 1


@given(
    st.integers(min_value=2, max_value=12),
    signed_d,
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=11),
)
def test_sigma_element_order_vs_snf_annihilator(n, d, raw):
    """Cross-check arbitrary element orders against the relation matrix:
    the order of a is the least t with t*a in the relation lattice, read
    off from the Smith transform of the lattice basis."""
    coeffs = tuple((raw * n)[: n - 1])
    a = SigmaElement(n, d, coeffs)
    M = sigma_relation_matrix(n, d)
    res = smith_normal_form(M, want_transforms=True)
    assert len(res.invariant_factors) == n - 1  # Sigma(n, d) is finite
    # Solve y @ M = a over Q: with P M Q = D, y = (a Q) D^{-1} P; the order
    # of a in the cokernel is the lcm of denominators of (a Q) D^{-1}.
    aq = [
        sum(a.coeffs[i] * res.Q.entry(i, j) for i in range(n - 1))
        for j in range(n - 1)
    ]
    order = 1
    for j, s in enumerate(res.invariant_factors):
        frac = Fraction(aq[j], s)
        order = math.lcm(order, frac.denominator)
    assert sigma_element_order(a) == order


def test_sandpile_generators_examples():
    gens = sandpile_generators(4, 3)
    assert set(gens) == {1, 2}
    elem, order = gens[1]
    assert elem.coeffs == (-2, 1, 0)  # e_2 - 2 e_1
    assert order == 4
    elem, order = gens[2]
    assert elem.coeffs == (0, 2, 0)  # 2 e_2
    assert order == 1
    gens = sandpile_generators(3, 2)
    assert set(gens) == {1}
    elem, order = gens[1]
    assert elem.coeffs == (3, 0)
    assert order == 1


@given(st.integers(min_value=1, max_value=30), signed_d)
def test_sandpile_generators_properties(m, d):
    if math.gcd(m, d) != 1:
        m = m // math.gcd(m, d)
    if math.gcd(m, d) != 1:
        return
    gens = sandpile_generators(m, d)
    product = 1
    for v, (elem, claimed) in gens.items():
        assert membership_in_sandpile(elem)
        assert sigma_element_order(elem) == claimed
        product *= claimed
    assert product == sandpile_group(m, d).order
    assert sorted(gens) == sorted(cyclotomic_cosets(m, d).representatives)
