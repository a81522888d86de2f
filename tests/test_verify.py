"""Mutation kills: each named single fault, a monkeypatch of one function,
must make the small verification battery fail.  A fault that survives shows
a rule of the closed forms that no sweep checks against another route."""

import numpy as np
import pytest

from sandpiles import abelian, circulant, closed_form
from sandpiles.verify import SweepConfig, VerificationFailure, run_all

SMALL = SweepConfig(n_max=12, d_max=4, q_max=9, brute_cap=1 << 12)

_sylow_tower = circulant._sylow_tower
_coset_orders = closed_form._coset_orders
_tower_orders = closed_form._tower_orders
_merge_copies = abelian._merge_copies
_compute_levels = circulant._compute_levels
_sandpile_generators = closed_form.sandpile_generators


def _sylow_tower_without_r(n, q):
    # The tower of F_p[x]/(x^n - 1) stands in for that of F_q: every
    # multiplicity r p^i (p - 1)^2 m loses its factor r.
    p, _ = circulant._ring_args(n, q)
    return _sylow_tower(n, p)


def _quotient_dropping_the_first_summand(n, q):
    orders, m = _sylow_tower(n, q)
    group = abelian.direct_sum(
        abelian.from_cyclic_orders(orders[1:]), closed_form.sandpile_group(m, q)
    )
    return group, "closed_form"


def _levels_one_late(kernel, lo, hi, ell):
    # Every level past 0 one too high: an element of order ell reads as
    # having order ell^2.
    levels = _compute_levels(kernel, lo, hi, ell)
    return tuple(np.where(level > 0, level + 1, level) for level in levels)


def _generators_with_one_duplicated(m, d):
    # One generator replaced by an earlier one of the same claimed order, so
    # membership, each order and the product of the orders still hold.
    generators = _sandpile_generators(m, d)
    first = {}
    for v, (_, claimed) in sorted(generators.items()):
        if claimed > 1 and claimed in first:
            generators[v] = generators[first[claimed]]
            break
        first[claimed] = v
    return generators


MUTANTS = {
    "c_value_one": (closed_form, "_c_value", lambda v, m, d, prime_parts: 1),
    "sylow_tower_without_r": (circulant, "_sylow_tower", _sylow_tower_without_r),
    "quotient_drops_first_summand": (
        circulant,
        "quotient_group_closed",
        _quotient_dropping_the_first_summand,
    ),
    "coset_summand_lost": (
        closed_form,
        "_coset_orders",
        lambda m, d, reduced: _coset_orders(m, d, reduced)[1:],
    ),
    "tower_summand_lost": (
        closed_form,
        "_tower_orders",
        lambda ds, reduce_first: _tower_orders(ds, reduce_first)[1:],
    ),
    "merge_places_c_minus_one": (
        abelian,
        "_merge_copies",
        lambda chain, m, c: _merge_copies(chain, m, c - 1),
    ),
    # C = F_q^* x C' loses its Z_{q-1}: F_q^* counted as the trivial group.
    "field_units_trivial": (
        circulant,
        "_field_unit_histograms",
        lambda q, primes: {ell: np.ones(1, dtype=np.int64) for ell in primes},
    ),
    "levels_one_late": (circulant, "_compute_levels", _levels_one_late),
    "generator_duplicated": (closed_form, "sandpile_generators", _generators_with_one_duplicated),
}


def test_small_battery_passes_unmutated():
    checks, _ = run_all(SMALL)
    assert all(count > 0 for count in checks.values())


@pytest.fixture
def fresh_enumerations():
    """No enumeration cached before or after a test serves another."""
    circulant._brute_analysis.cache_clear()
    yield
    circulant._brute_analysis.cache_clear()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_small_battery_kills_mutant(monkeypatch, fresh_enumerations, name):
    module, attribute, fault = MUTANTS[name]
    monkeypatch.setattr(module, attribute, fault)
    with pytest.raises(VerificationFailure):
        run_all(SMALL)
