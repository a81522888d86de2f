"""Mutation kills: each named single fault, a monkeypatch of one function,
must make the small verification battery fail.  A fault that survives shows
a rule of the closed forms that no sweep checks against another route."""

import pytest

from sandpiles import abelian, circulant, closed_form
from sandpiles.verify import SweepConfig, VerificationFailure, run_all

SMALL = SweepConfig(n_max=12, d_max=4, q_max=9, brute_cap=1 << 12)

_sylow_tower = circulant._sylow_tower
_coset_orders = closed_form._coset_orders
_tower_orders = closed_form._tower_orders
_merge_copies = abelian._merge_copies


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
}


def test_small_battery_passes_unmutated():
    checks, _ = run_all(SMALL)
    assert all(count > 0 for count in checks.values())


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_small_battery_kills_mutant(monkeypatch, name):
    module, attribute, fault = MUTANTS[name]
    monkeypatch.setattr(module, attribute, fault)
    with pytest.raises(VerificationFailure):
        run_all(SMALL)
