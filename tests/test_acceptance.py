"""Acceptance gate: one test per advertised capability, each printing a
single pass/fail line with its runtime.  These run the full-scale sweeps, so
this module dominates the suite's wall-clock time."""

import math
import random
import time
from contextlib import contextmanager

from sandpiles.abelian import from_cyclic_orders
from sandpiles.closed_form import sand_dune_group, sandpile_group, sigma_relation_matrix
from sandpiles.digraphs import de_bruijn, sandpile_group_snf, spanning_tree_count
from sandpiles.exact_linalg import IntMatrix, determinant, smith_group, smith_normal_form
from sandpiles.verify import (
    check_circulant_brute,
    check_circulant_closed,
    check_family_main,
    check_generators,
    check_index_identity,
    check_order_lifting,
    check_torsion_oracle,
    check_tree_counts,
    witness_non_isomorphism,
)


@contextmanager
def criterion(capsys, number: int, description: str, budget: float | None = None):
    def report(status: str, elapsed: float) -> None:
        with capsys.disabled():
            print(
                f"criterion {number:02d} {status} {description} ({elapsed:.1f}s)",
                flush=True,
            )

    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        report("FAIL", time.perf_counter() - t0)
        raise
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed >= budget:
        report("FAIL", elapsed)
        raise AssertionError(
            f"criterion {number} exceeded its {budget:.0f}s budget: {elapsed:.1f}s"
        )
    report("PASS", elapsed)


def test_criterion_01_single_case_under_a_second(capsys):
    with criterion(capsys, 1, "closed forms and oracles agree at (n, d) = (4, 3)", budget=1.0):
        closed = sandpile_group(4, 3)
        assert closed == from_cyclic_orders([4])
        assert sandpile_group_snf(de_bruijn(4, 3), 0) == closed
        dune = sand_dune_group(4, 3)
        assert dune == from_cyclic_orders([2, 8])
        free, torsion = smith_group(sigma_relation_matrix(4, 3))
        assert free == 0 and torsion == dune
        assert spanning_tree_count(de_bruijn(4, 3), 0) == closed.order


def test_criterion_02_de_bruijn_sweep(capsys):
    with criterion(capsys, 2, "de Bruijn sweep n<=60 d<=8 vs Smith oracles", budget=120.0):
        assert check_family_main(60, 8, 1) == 2 * 59 * 7


def test_criterion_03_kautz_sweep(capsys):
    with criterion(capsys, 3, "Kautz sweep n<=60 d<=8 vs Smith oracles", budget=120.0):
        assert check_family_main(60, 8, -1) == 2 * 59 * 7


def test_criterion_04_index_identity(capsys):
    with criterion(capsys, 4, "index identity |Sigma| = n |S| for both signs of d"):
        assert check_index_identity(60, 8) == 60 * 14


def test_criterion_05_tree_counts_every_root(capsys):
    with criterion(capsys, 5, "tree counts equal |S| at every root, n<=20 d<=4"):
        assert check_tree_counts(20, 4) == 2 * 3 * sum(range(1, 21))


def test_criterion_06_circulant_coprime_and_brute(capsys):
    with criterion(
        capsys, 6, "closed circulant groups q<=9 n<=40 plus enumeration", budget=7.0
    ):
        # Per (n, q): the root-count order and the index identity (7 * 40 each),
        # Sigma(n, p) and S(n, p) where q = p is prime and p | n (2 * 46), and
        # the relation exponents where gcd(n, q) = 1 (181).
        assert check_circulant_closed(40, 9) == 2 * 7 * 40 + 2 * 46 + 181
        assert check_circulant_brute(40, 9) > 0


def test_criterion_07_circulant_prime_and_torsion(capsys):
    with criterion(capsys, 7, "prime-characteristic circulant groups and torsion counts"):
        # As in criterion 06, over q in {2, 3, 4, 5, 7}: 134 pairs with gcd(n, q) = 1.
        assert check_circulant_closed(40, 7) == 2 * 5 * 40 + 2 * 46 + 134
        # Two Sylow comparisons per (n, q) for q in {2, 3, 4, 5, 7}: one for
        # C'(n, q) and one for C'(n, q)/<x>.
        assert check_torsion_oracle(64, 7) == 2 * 64 * 5


def test_criterion_08_non_isomorphism_witness(capsys):
    with criterion(capsys, 8, "equal-order non-isomorphism witness at (9, 9)"):
        quotient, sandpile = witness_non_isomorphism()
        with capsys.disabled():
            print(
                f"  C'(9, 9)/<x> = {quotient}  vs  S(9, 9) = {sandpile} "
                f"(orders {quotient.order} = {sandpile.order}, structures differ)",
                flush=True,
            )
        assert quotient == from_cyclic_orders([3] * 8 + [9] * 3)
        assert sandpile == from_cyclic_orders([9] * 7)


def test_criterion_09_generators(capsys):
    with criterion(capsys, 9, "explicit sandpile generators m<=40 |d|<=8"):
        assert check_generators(40, 8) > 0


def test_criterion_10_order_lifting(capsys):
    with criterion(capsys, 10, "multiplicative order lifting p<=50 |d|<=20"):
        assert check_order_lifting() > 0


def test_criterion_11_randomized_smith_suite(capsys):
    with criterion(capsys, 11, "randomized Smith form suite (200 matrices up to 12x12)"):
        rng = random.Random(20260814)
        for trial in range(200):
            rows = rng.randint(1, 12)
            cols = rng.randint(1, 12)
            M = IntMatrix(
                rows,
                cols,
                tuple(rng.randint(-30, 30) for _ in range(rows * cols)),
            )
            res = smith_normal_form(M, want_transforms=True)
            fs = res.invariant_factors
            assert all(s > 0 for s in fs)
            for a, b in zip(fs, fs[1:]):
                assert b % a == 0
            assert (res.P @ M @ res.Q) == res.diagonal_matrix()
            assert abs(determinant(res.P)) == 1
            assert abs(determinant(res.Q)) == 1
            if rows == cols:
                det = determinant(M)
                if det != 0:
                    assert abs(det) == math.prod(fs)
            perm_rows = M.to_rows()
            rng.shuffle(perm_rows)
            perm = list(range(cols))
            rng.shuffle(perm)
            shuffled = IntMatrix.from_rows(
                [[row[j] for j in perm] for row in perm_rows]
            )
            assert smith_normal_form(shuffled).invariant_factors == fs


def test_criterion_12_closed_forms_at_rank_1e5(capsys):
    n = 3 * 2**16
    with criterion(capsys, 12, f"closed forms at rank ~10^5, (n, d) = ({n}, 2)", budget=5.0):
        sandpile = sandpile_group(n, 2)
        dune = sand_dune_group(n, 2)
        assert sandpile.rank == n // 2 - 1
        assert dune.order == n * sandpile.order
        assert from_cyclic_orders(sandpile.invariant_factors) == sandpile


def test_criterion_13_closed_forms_with_many_cosets(capsys):
    # m = 3 * (2^20 - 1) is odd, so it is the whole coprime part: 87,475
    # binary cyclotomic cosets, counted per divisor of m.
    n = 3 * 2**20 - 3
    with criterion(capsys, 13, f"closed forms with ~10^5 cosets, (n, d) = ({n}, 2)", budget=9.0):
        sandpile = sandpile_group(n, 2)
        dune = sand_dune_group(n, 2)
        assert dune.order == n * sandpile.order
        assert from_cyclic_orders(sandpile.invariant_factors) == sandpile
