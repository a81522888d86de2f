"""Verification sweeps: every closed form checked against an independent oracle.

Each check_* function sweeps a parameter grid, compares a closed-form group
(or order, or generator set) against a value computed by a structurally
different route — Smith forms of Laplacians, determinants, exhaustive
enumeration, literal order iteration — and raises VerificationFailure with
the offending parameters on the first mismatch.  The return value is the
number of comparisons performed.  run_all bundles the checks at configurable
scale for the command-line front end.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

from . import abelian, circulant, closed_form, digraphs
from .abelian import AbelianGroup, structure_from_torsion_counts
from .arith import is_prime, multiplicative_order, nu, prime_power
from .circulant import RingElement, enumeration_cap, field_for, is_restricted_unit
from .exact_linalg import IntMatrix, determinant, smith_group

Progress = Callable[[str], None] | None


class VerificationFailure(AssertionError):
    """A closed form disagreed with its oracle; the message is the witness."""


def _fail(check: str, params: str, detail: str) -> None:
    raise VerificationFailure(f"{check} failed at {params}: {detail}")


def _signed(d_max: int):
    for d_abs in range(2, d_max + 1):
        yield d_abs
        yield -d_abs


# ---------------------------------------------------------------------------
# Sandpile / sand dune closed forms vs Smith-form oracles
# ---------------------------------------------------------------------------


def check_family_main(
    n_max: int = 60, d_max: int = 8, sign: int = 1, progress: Progress = None
) -> int:
    """For the de Bruijn family (sign = 1) or the Kautz family (sign = -1):
    S(n, sign*d) vs the Smith form of the reduced Laplacian, and
    Sigma(n, sign*d) vs the Smith form of the sigma relation matrix."""
    family, label, build = (
        ("de_bruijn", "de Bruijn", digraphs.de_bruijn)
        if sign > 0
        else ("kautz", "Kautz", digraphs.kautz)
    )
    checks = 0
    for d in range(2, d_max + 1):
        if progress:
            progress(f"{label} sweep d={d}, n up to {n_max}")
        for n in range(2, n_max + 1):
            oracle = digraphs.sandpile_group_snf(build(n, d), 0)
            closed = closed_form.sandpile_group(n, sign * d)
            if oracle != closed:
                _fail(f"{family} sandpile", f"(n, d)=({n}, {d})",
                      f"SNF oracle {oracle} vs closed form {closed}")
            free, torsion = smith_group(closed_form.sigma_relation_matrix(n, sign * d))
            closed_sigma = closed_form.sand_dune_group(n, sign * d)
            if free != 0:
                _fail(f"{family} sigma matrix rank", f"(n, d)=({n}, {d})",
                      f"free rank {free}, expected 0")
            if torsion != closed_sigma:
                _fail(f"{family} sand dune", f"(n, d)=({n}, {d})",
                      f"SNF oracle {torsion} vs closed form {closed_sigma}")
            checks += 2
    return checks


def check_index_identity(n_max: int = 60, d_max: int = 8) -> int:
    """|Sigma(n, d)| = n * |S(n, d)| for both signs of d."""
    checks = 0
    for d in _signed(d_max):
        for n in range(1, n_max + 1):
            sigma = closed_form.sand_dune_group(n, d).order
            sand = closed_form.sandpile_group(n, d).order
            if sigma != n * sand:
                _fail("index identity", f"(n, d)=({n}, {d})",
                      f"|Sigma|={sigma} but n*|S|={n * sand}")
            checks += 1
    return checks


def check_order_recursion(n_max: int = 60, d_max: int = 8) -> int:
    """|Sigma(n, d)| = |d|^(n - n_1) * |Sigma(n_1, d)| with n_1 = n/gcd(n, |d|)."""
    checks = 0
    for d in _signed(d_max):
        for n in range(1, n_max + 1):
            n1 = n // math.gcd(n, abs(d))
            lhs = closed_form.sand_dune_group(n, d).order
            rhs = abs(d) ** (n - n1) * closed_form.sand_dune_group(n1, d).order
            if lhs != rhs:
                _fail("order recursion", f"(n, d)=({n}, {d})",
                      f"|Sigma(n)|={lhs} vs |d|^(n-n1)*|Sigma(n1)|={rhs}")
            checks += 1
    return checks


def check_coprime_cosets(m_max: int = 60, d_max: int = 8) -> int:
    """For gcd(m, d) = 1: Sigma(m, d) is exactly one Z_{|d^o(v)-1|} per coset
    and S(m, d) one Z_{|d^o(v)-1| / c(v)}, with the cosets walked out of Z_m
    (the closed forms count them per divisor of m instead)."""
    checks = 0
    for d in _signed(d_max):
        for m in range(1, m_max + 1):
            if math.gcd(m, abs(d)) != 1:
                continue
            full = {
                orbit[0]: abs(d ** len(orbit) - 1)
                for orbit in closed_form.cyclotomic_cosets(m, d).orbits
            }
            expected = abelian.from_cyclic_orders(full.values())
            got = closed_form.sand_dune_group(m, d)
            if got != expected:
                _fail("coprime cosets", f"(m, d)=({m}, {d})",
                      f"coset product {expected} != Sigma {got}")
            expected = abelian.from_cyclic_orders(
                order // closed_form.c_value(v, m, d) for v, order in full.items()
            )
            got = closed_form.sandpile_group(m, d)
            if got != expected:
                _fail("coprime cosets", f"(m, d)=({m}, {d})",
                      f"reduced coset product {expected} != S {got}")
            checks += 2
    return checks


def check_tree_counts(n_max: int = 20, d_max: int = 4, progress: Progress = None) -> int:
    """|S(n, d)| equals the spanning-tree count at EVERY root of DB(n, d),
    and |S(n, -d)| at every root of Ktz(n, d) (both are Eulerian)."""
    checks = 0
    for d in range(2, d_max + 1):
        if progress:
            progress(f"tree counts d={d}")
        for n in range(1, n_max + 1):
            for family, graph, order in (
                ("de_bruijn", digraphs.de_bruijn(n, d), closed_form.sandpile_group(n, d).order),
                ("kautz", digraphs.kautz(n, d), closed_form.sandpile_group(n, -d).order),
            ):
                for root in range(n):
                    trees = digraphs.spanning_tree_count(graph, root)
                    if trees != order:
                        _fail("tree count", f"{family} (n, d)=({n}, {d}) root {root}",
                              f"{trees} trees vs group order {order}")
                    checks += 1
    return checks


# ---------------------------------------------------------------------------
# Generators and element orders
# ---------------------------------------------------------------------------


def check_generators(m_max: int = 40, d_max: int = 8) -> int:
    """Every reduced generator lies in the sandpile subgroup and its
    expansion order matches the claimed order, and the generators generate
    S(m, d) as the direct sum of their cyclic groups: stacked under the
    relation matrix of Sigma(m, d), their rows leave a finite quotient of
    order m, the index of S, and the claimed orders times m give |Sigma|,
    the relation matrix's determinant."""
    checks = 0
    for d in _signed(d_max):
        for m in range(1, m_max + 1):
            if math.gcd(m, abs(d)) != 1:
                continue
            params = f"(m, d)=({m}, {d})"
            generators = closed_form.sandpile_generators(m, d)
            order_product = 1
            for v, (element, claimed) in generators.items():
                if not closed_form.membership_in_sandpile(element):
                    _fail("generator membership", f"(m, d, v)=({m}, {d}, {v})",
                          f"element {element.coeffs} fails the weight test")
                got = closed_form.sigma_element_order(element)
                if got != claimed:
                    _fail("generator order", f"(m, d, v)=({m}, {d}, {v})",
                          f"expansion order {got} vs claimed {claimed}")
                order_product *= claimed
                checks += 2
            relations = closed_form.sigma_relation_matrix(m, d)
            rows = relations.to_rows() + [element.coeffs for element, _ in generators.values()]
            free, quotient = smith_group(IntMatrix.from_rows(rows))
            if free != 0 or quotient.order != m:
                _fail("generator span", params,
                      f"Sigma/<generators> has free rank {free} and order "
                      f"{quotient.order}, expected 0 and m = {m}")
            sigma_order = abs(determinant(relations))
            if order_product * m != sigma_order:
                _fail("generator completeness", params,
                      f"order product {order_product} times m vs |Sigma|={sigma_order}")
            checks += 2
    return checks


def check_element_orders(n_max: int = 60, d_max: int = 8) -> int:
    """The order of e_v from exact rational expansion versus the
    |d^f (d^e - 1)| formula; on orbits that fall into 0 the cycle
    contribution vanishes and the true order is |d|^f instead."""
    checks = 0
    for d in _signed(d_max):
        for n in range(2, n_max + 1):
            for v in range(1, n):
                orbit = [v]
                seen = {v}
                while True:
                    w = orbit[-1] * d % n
                    if w in seen:
                        break
                    seen.add(w)
                    orbit.append(w)
                expansion_order = closed_form.element_order_in_sigma(v, n, d)
                if 0 in seen:
                    steps_to_zero = orbit.index(0)
                    expected = abs(d) ** steps_to_zero
                else:
                    expected = closed_form.element_order_formula(v, n, d)
                if expansion_order != expected:
                    _fail("element order", f"(n, d, v)=({n}, {d}, {v})",
                          f"expansion {expansion_order} vs formula {expected}")
                checks += 1
    return checks


def check_order_gap(m_max: int = 60, d_max: int = 8) -> int:
    """nu_p(d^o(M_p) - 1) - nu_p(d^o(p^t M_p) - 1) <= t, for p | m and t up
    to nu_p(m) - 1 (one less in the exceptional 2-adic case)."""
    checks = 0
    for d in _signed(d_max):
        for m in range(2, m_max + 1):
            if math.gcd(m, abs(d)) != 1:
                continue
            cs = closed_form.cyclotomic_cosets(m, d)
            for p, pi_p, big_m in cs.prime_parts:
                e = nu(m, p)
                t_top = e - 1
                if p == 2 and d % 4 == 3:
                    t_top = e - 2
                base = nu(d ** cs.orbit_size(big_m) - 1, p)
                for t in range(1, t_top + 1):
                    v = p**t * big_m % m
                    gap = base - nu(d ** cs.orbit_size(v) - 1, p)
                    if gap > t:
                        _fail("order gap", f"(m, d, p, t)=({m}, {d}, {p}, {t})",
                              f"valuation gap {gap} exceeds {t}")
                    checks += 1
    return checks


# ---------------------------------------------------------------------------
# Circulant unit groups
# ---------------------------------------------------------------------------

PRIME_POWERS_TO_9 = (2, 3, 4, 5, 7, 8, 9)


def _star_order_by_root_count(n: int, q: int) -> int:
    """|C'(n, q)| from the roots of x^m - 1, n = p^k * m with gcd(m, p) = 1.

    F_{q^j} holds gcd(m, q^j - 1) of them, so Moebius inversion gives N_j,
    the number of degree exactly j, and x^m - 1 has N_j / j irreducible
    factors of degree j, each giving a unit factor F_{q^j}^*.  The kernel
    1 + (x^m - 1) of reduction mod x^m - 1 has q^(n - m) elements, and C'
    is C modulo the constants.  No multiplicative order, no coset.
    """
    p, _ = prime_power(q)
    m = n // p ** nu(n, p)
    order, exact, j = q ** (n - m), {}, 0
    while sum(exact.values()) < m:
        j += 1
        exact[j] = math.gcd(m, q**j - 1) - sum(exact[e] for e in exact if j % e == 0)
        order *= (q**j - 1) ** (exact[j] // j)
    return order // (q - 1)


def check_circulant_closed(n_max: int = 40, q_max: int = 9) -> int:
    """The tower forms of C'(n, q) and C'(n, q)/<x>, for every q = p^r and
    n, against routes they do not share: |C'| from the roots of x^m - 1,
    the index |C'| = n |C'/<x>|, and, over the prime field with p | n,
    Sigma(n, p) and S(n, p) from the d-sequence of n.  Where gcd(n, q) = 1
    the exponents of the quotient presentation must also be integers."""
    checks = 0
    for q in PRIME_POWERS_TO_9:
        if q > q_max:
            continue
        for n in range(1, n_max + 1):
            params = f"(n, q)=({n}, {q})"
            star, _ = circulant.star_group_closed(n, q)
            quotient, _ = circulant.quotient_group_closed(n, q)
            roots = _star_order_by_root_count(n, q)
            if star.order != roots:
                _fail("circulant root count", params,
                      f"|C'|={star.order} vs {roots} from the roots of x^m - 1")
            if star.order != n * quotient.order:
                _fail("circulant index", params,
                      f"|C'|={star.order} != n*|C'/<x>|={n * quotient.order}")
            checks += 2
            if is_prime(q) and n % q == 0:
                sigma = closed_form.sand_dune_group(n, q)
                sand = closed_form.sandpile_group(n, q)
                if star != sigma:
                    _fail("circulant prime star", params, f"{star} != Sigma {sigma}")
                if quotient != sand:
                    _fail("circulant prime quotient", params, f"{quotient} != S {sand}")
                checks += 2
            if math.gcd(n, q) == 1:
                circulant.relation_exponents(n, q)  # integrality asserted inside
                checks += 1
    return checks


def check_torsion_oracle(n_max: int = 64, q_max: int = 7) -> int:
    """For every q = p^r: the Sylow p-subgroups reconstructed from
    closed-form torsion counts equal the Sylow p-parts of the tower forms
    of C'(n, q) and C'(n, q)/<x>."""
    checks = 0
    for q in PRIME_POWERS_TO_9:
        if q > q_max:
            continue
        p, _ = prime_power(q)
        for n in range(1, n_max + 1):
            rebuilt = structure_from_torsion_counts(p, circulant.p_torsion_counts(n, q))
            expected = circulant.star_group_closed(n, q)[0].sylow(p)
            if rebuilt != expected:
                _fail("torsion oracle", f"(n, q)=({n}, {q})",
                      f"reconstruction {rebuilt} vs tower Sylow {expected}")
            rebuilt = structure_from_torsion_counts(p, circulant.quotient_p_torsion_counts(n, q))
            expected = circulant.quotient_group_closed(n, q)[0].sylow(p)
            if rebuilt != expected:
                _fail("quotient torsion oracle", f"(n, q)=({n}, {q})",
                      f"reconstruction {rebuilt} vs tower quotient Sylow {expected}")
            checks += 2
    return checks


def check_x_subgroup(n_max: int = 16, q_max: int = 9) -> int:
    """<x> really is a cyclic subgroup of order n inside C'(n, q)."""
    checks = 0
    for q in PRIME_POWERS_TO_9:
        if q > q_max:
            continue
        field = field_for(q)
        for n in range(1, n_max + 1):
            x = RingElement.x_power(field, n, 1)
            power = RingElement.one(field, n)
            seen = set()
            for _ in range(n):
                if not is_restricted_unit(power):
                    _fail("x subgroup", f"(n, q)=({n}, {q})",
                          f"power {power.coeffs} is not a restricted unit")
                seen.add(power.coeffs)
                power = power * x
            if power != RingElement.one(field, n) or len(seen) != n:
                _fail("x subgroup", f"(n, q)=({n}, {q})",
                      f"<x> has {len(seen)} elements, x^n - 1 {'=' if power == RingElement.one(field, n) else '!'}= 0")
            checks += 1
    return checks


def check_circulant_brute(
    n_max: int = 40,
    q_max: int = 9,
    cap: int | None = None,
    progress: Progress = None,
) -> int:
    """Exhaustive-enumeration agreement for every (n, q) under the cap:
    C'(n, q), C(n, q) and the quotient C'(n, q)/<x> against the closed
    routes, and the order identities
    |C| = (q-1)|C'| = (q-1) n |C'/<x>| unconditionally."""
    checks = 0
    limit = enumeration_cap(cap)
    for q in PRIME_POWERS_TO_9:
        if q > q_max:
            continue
        for n in range(1, n_max + 1):
            if q**n > limit:
                break
            if progress:
                progress(f"brute enumeration n={n} q={q} ({q ** n} elements)")
            star_closed, _ = circulant.star_group_closed(n, q)
            star_brute = circulant.unit_group_brute(n, q, restricted=True, cap=limit)
            if star_brute != star_closed:
                _fail("brute star", f"(n, q)=({n}, {q})",
                      f"enumeration {star_brute} vs closed {star_closed}")
            full_brute = circulant.unit_group_brute(n, q, cap=limit)
            full_closed, _ = circulant.unit_group_closed(n, q)
            if full_brute != full_closed:
                _fail("brute full group", f"(n, q)=({n}, {q})",
                      f"enumeration {full_brute} vs closed {full_closed}")
            quotient_brute = circulant.unit_group_brute(
                n, q, restricted=True, modulo_x=True, cap=limit
            )
            quotient_closed, _ = circulant.quotient_group_closed(n, q)
            if quotient_brute != quotient_closed:
                _fail("brute quotient", f"(n, q)=({n}, {q})",
                      f"enumeration {quotient_brute} vs closed {quotient_closed}")
            if star_brute.order != n * quotient_brute.order:
                _fail("brute index", f"(n, q)=({n}, {q})",
                      f"|C'|={star_brute.order} != n*|C'/<x>|={n * quotient_brute.order}")
            checks += 4
    return checks


def witness_non_isomorphism() -> tuple[AbelianGroup, AbelianGroup]:
    """The quotient C'(9, 9)/<x> versus the sandpile group S(9, 9): equal
    orders, provably different structures.  Returns (quotient, sandpile);
    raises if they turn out isomorphic or the orders disagree."""
    counts = circulant.quotient_p_torsion_counts(9, 9)
    quotient = structure_from_torsion_counts(3, counts)
    sandpile = closed_form.sandpile_group(9, 9)
    if sandpile != abelian.from_cyclic_orders([9] * 7):
        _fail("non-isomorphism witness", "(n, q)=(9, 9)",
              f"S(9, 9) = {sandpile}, expected Z_9^7")
    if quotient.order != sandpile.order:
        _fail("non-isomorphism witness", "(n, q)=(9, 9)",
              f"orders differ: {quotient.order} vs {sandpile.order}")
    if quotient == sandpile:
        _fail("non-isomorphism witness", "(n, q)=(9, 9)",
              "quotient and sandpile group are isomorphic; they must differ")
    return quotient, sandpile


# ---------------------------------------------------------------------------
# Multiplicative order lifting
# ---------------------------------------------------------------------------


def check_order_lifting(
    p_max: int = 50,
    d_limit: int = 20,
    modulus_cap: int = 1 << 20,
    iterate_cap: int = 1 << 10,
) -> int:
    """ord(d mod p^t) follows the lifting pattern: constant e = ord(d mod p)
    for t <= a = nu_p(d^e - 1), then e p^(t-a); for p = 2, d = 3 mod 4 the
    pattern is 1, then 2 up to b = nu_2(d^2 - 1), then 2^(t-b+1).  Orders
    are recomputed by literal iteration for moduli up to iterate_cap."""
    checks = 0
    for p in range(2, p_max + 1):
        if not is_prime(p):
            continue
        for d in range(-d_limit, d_limit + 1):
            if abs(d) < 2 or d % p == 0:
                continue
            if p == 2 and d % 4 == 3:
                b = nu(d * d - 1, 2)
                schedule = lambda t: 1 if t == 1 else (2 if t <= b else 2 ** (t - b + 1))
            else:
                e = multiplicative_order(d, p)
                a = nu(d**e - 1, p)
                schedule = lambda t: e if t <= a else e * p ** (t - a)
            modulus = p
            t = 1
            while modulus <= modulus_cap:
                expected = schedule(t)
                got = multiplicative_order(d, modulus)
                if got != expected:
                    _fail("order lifting", f"(p, d, t)=({p}, {d}, {t})",
                          f"order {got} vs pattern {expected}")
                checks += 1
                if modulus <= iterate_cap:
                    value = d % modulus
                    steps = 1
                    while value != 1:
                        value = value * d % modulus
                        steps += 1
                    if steps != got:
                        _fail("order iteration", f"(p, d, t)=({p}, {d}, {t})",
                              f"iterated order {steps} vs computed {got}")
                    checks += 1
                modulus *= p
                t += 1
    return checks


# ---------------------------------------------------------------------------
# Battery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """Scale knobs for the full verification battery."""

    n_max: int = 60
    d_max: int = 8
    q_max: int = 9
    brute_cap: int | None = None


def _witness_checks() -> int:
    witness_non_isomorphism()
    return 3


def run_all(
    config: SweepConfig | None = None, progress: Progress = None
) -> tuple[dict[str, int], dict[str, float]]:
    """Run every sweep at the configured scale; returns the check counts and
    the wall seconds of each sweep, both keyed by sweep name.

    Raises VerificationFailure on the first disagreement.
    """
    cfg = config or SweepConfig()
    small_n = min(cfg.n_max, 40)
    checks: dict[str, int] = {}
    seconds: dict[str, float] = {}

    def run(name: str, fn, *args) -> None:
        if progress:
            progress(f"[{name}] starting")
        t0 = time.perf_counter()
        checks[name] = fn(*args)
        seconds[name] = round(time.perf_counter() - t0, 3)

    run("de_bruijn_main", check_family_main, cfg.n_max, cfg.d_max, 1, progress)
    run("kautz_main", check_family_main, cfg.n_max, cfg.d_max, -1, progress)
    run("index_identity", check_index_identity, cfg.n_max, cfg.d_max)
    run("order_recursion", check_order_recursion, cfg.n_max, cfg.d_max)
    run("coprime_cosets", check_coprime_cosets, cfg.n_max, cfg.d_max)
    run("tree_counts", check_tree_counts, min(cfg.n_max, 20), min(cfg.d_max, 4), progress)
    run("generators", check_generators, small_n, cfg.d_max)
    run("element_orders", check_element_orders, cfg.n_max, cfg.d_max)
    run("order_gap", check_order_gap, cfg.n_max, cfg.d_max)
    run("circulant_closed", check_circulant_closed, small_n, cfg.q_max)
    run("torsion_oracle", check_torsion_oracle, max(cfg.n_max, 64), cfg.q_max)
    run("x_subgroup", check_x_subgroup, min(cfg.n_max, 16), cfg.q_max)
    run("circulant_brute", check_circulant_brute, small_n, cfg.q_max, cfg.brute_cap, progress)
    run("order_lifting", check_order_lifting)
    run("non_isomorphism_witness", _witness_checks)
    return checks, seconds
