"""The three benchmark workloads: seeded case schedules, case bodies, checks.

A workload is a sequence of *passes*.  Each pass runs one case per *slot*;
a slot fixes the stratum a case is drawn from (a band of sizes, a degree, a
field), and the seed draws the case inside it (exact sizes, signs, families,
matrix entries) and the order of the pass.  Case cost in every layer here is
far from smooth in the parameters, so free draws would make a pass cost
swing several-fold between seeds; fixing the strata keeps the cost of a pass
steady while the seed still changes every input.

This module imports nothing from ``sandpiles`` at import time, so schedules
can be built and tested without the package; the case bodies receive the
imported package as an argument.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

# Passed to the enumerator explicitly, so SANDPILE_BRUTE_CAP in the
# environment cannot change the work.
BRUTE_CAP = 1 << 22

WORKLOADS = ("oracle_snf", "enum_circulant", "closed_large")


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # String seeds hash with SHA-512, so draws do not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{index}")


def _draw_tower(rng: random.Random, lo: int, hi: int, g: int) -> int:
    """n = g * k in [lo, hi] with gcd(k, g) = 1.

    Keeping the g-adic part of n fixed keeps the shape of the tower fixed;
    a free multiple of g can carry a deep tower that costs half as much.
    """
    while True:
        k = rng.randint(-(-lo // g), hi // g)
        if math.gcd(k, g) == 1:
            return g * k


def _draw_prime_few_cosets(rng: random.Random, lo: int, hi: int, d: int) -> int:
    """A prime n in [lo, hi] with at most MAX_COSETS d-ary cosets."""
    while True:
        n = rng.randint(lo, hi)
        if _factor(n) == {n: 1} and n % abs(d) and (n - 1) // _order_mod(d % n, n) <= MAX_COSETS:
            return n


# ---------------------------------------------------------------------------
# oracle_snf: db/kautz through the CLI (closed forms + SNF + Bareiss), plus
# `snf` on dense matrix files
# ---------------------------------------------------------------------------

# Seven bands of n over 100-250, each 7 wide around its centre: the cost of
# a case grows like n^3 or faster, so narrow bands keep a slot's cost fixed.
FAMILY_N_BANDS = tuple((c - 3, c + 3) for c in (111, 132, 154, 175, 196, 218, 239))
FAMILY_DEGREES = tuple(range(2, 9))
SNF_ROW_BANDS = ((40, 42), (43, 45), (46, 48), (49, 51), (52, 54), (55, 57), (58, 60))
SNF_ENTRY_BOUND = 9
# Matrix files exist for this many passes; later passes reuse them in turn
# (the SNF path keeps no cache, so a reused file costs the same).
SNF_FILE_PASSES = 2

SMOKE_FAMILY = (((20, 30), 2), ((20, 30), 5))
SMOKE_SNF_ROWS = ((6, 8),)


def _oracle_pass(rng: random.Random, index: int, smoke: bool) -> list[tuple]:
    # The band x degree grid is split like a checkerboard: even passes take
    # one colour, odd passes the other, so two passes cover the grid once
    # and a pass is short enough that runs end close to --seconds.
    family = SMOKE_FAMILY if smoke else [
        (band, d)
        for i, band in enumerate(FAMILY_N_BANDS)
        for j, d in enumerate(FAMILY_DEGREES)
        if (i + j) % 2 == index % 2
    ]
    cases = [
        ("family", rng.choice(("db", "kautz")), rng.randint(*band), d)
        for band, d in family
    ]
    bands = SMOKE_SNF_ROWS if smoke else SNF_ROW_BANDS
    cases += [("snf", index % SNF_FILE_PASSES, slot) for slot in range(len(bands))]
    rng.shuffle(cases)
    return cases


def snf_matrix(seed: int, file_pass: int, slot: int, smoke: bool) -> list[list[int]]:
    """The dense square matrix behind one `snf` case."""
    rng = _rng("oracle_snf.matrix", seed, file_pass * 100 + slot)
    bands = SMOKE_SNF_ROWS if smoke else SNF_ROW_BANDS
    rows = rng.randint(*bands[slot])
    b = SNF_ENTRY_BOUND
    return [[rng.randint(-b, b) for _ in range(rows)] for _ in range(rows)]


def bareiss_abs_det(rows: list[list[int]]) -> int:
    """|det| by fraction-free elimination, written here so the `snf` check
    does not lean on the package it checks."""
    a = [r[:] for r in rows]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
        piv = a[k][k]
        for i in range(k + 1, n):
            lead = a[i][k]
            ri, rk = a[i], a[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * piv - lead * rk[j]) // prev
        prev = piv
    return abs(a[n - 1][n - 1]) if n else 1


# ---------------------------------------------------------------------------
# enum_circulant: the brute-force unit-group oracle in all three modes
# ---------------------------------------------------------------------------

# Every q in {2,3,4,5,7,8,9}: the bit kernel (q = 2, 4, 8) and the digit
# kernel (q = 3, 5, 7, 9), prime and extension fields, 1.5e4 to 2.6e5
# elements.  Each pass runs the whole pool; the seed sets the order.
ENUM_POOL = (
    (15, 2), (16, 2), (17, 2), (18, 2),
    (9, 3), (10, 3),
    (8, 4), (9, 4),
    (6, 5), (7, 5),
    (5, 7), (6, 7),
    (5, 8), (6, 8),
    (5, 9),
)
SMOKE_ENUM_POOL = ((6, 2), (4, 3), (3, 4), (3, 9))
# The enumerator keeps its per-(n, q) analysis for the last two pairs; a
# pair never comes back within this many cases, so no timed case is served
# from a previous case's analysis.
ENUM_REUSE_DISTANCE = 3


def _enum_passes(seed: int, smoke: bool):
    pool = list(SMOKE_ENUM_POOL if smoke else ENUM_POOL)
    recent: list[tuple] = []
    index = 0
    while True:
        rng = _rng("enum_circulant", seed, index)
        while True:
            order = pool[:]
            rng.shuffle(order)
            head = order[: ENUM_REUSE_DISTANCE - 1]
            if not any(pair in recent for pair in head):
                break
        recent = order[-(ENUM_REUSE_DISTANCE - 1):]
        yield [("enum", n, q) for n, q in order]
        index += 1


# ---------------------------------------------------------------------------
# closed_large: closed forms only, at sizes no oracle reaches
# ---------------------------------------------------------------------------

# Tower/rank-heavy: n = |d| * k with gcd(k, d) = 1, rank 1e3 to 3e3.
TOWER_SLOTS = ((2, (3400, 3600)), (3, (2700, 2900)), (4, (2700, 2900)), (6, (2700, 2900)))
# Coset-heavy: gcd(n, d) = 1, n from 3.8e5 to 5e5.  n is a prime with few
# cosets: merging many distinct coset orders of 1e5 bits and more costs
# 0.05 s to 3 s at equal n, with no cheap way to tell in advance, and the
# merge cost is already what the tower slots measure.  Each band is placed
# where a case costs about the median case of the pass, so that the median
# is set by many similar cases.
MAX_COSETS = 8
COSET_SLOTS = tuple(
    (d, (c - 5_000, c + 5_000))
    for d, c in ((8, 500_000), (7, 380_000), (5, 450_000), (4, 450_000), (3, 450_000), (2, 480_000))
)
# Circulant towers: n = p * k with gcd(k, p) = 1, over prime and extension fields.
CIRC_TOWER_SLOTS = (
    (2, (2400, 2600)), (3, (1900, 2050)), (4, (1800, 1950)), (8, (950, 1050)), (9, (1250, 1350)),
)
CIRC_COSET_SLOTS = ((9, (445_000, 455_000)), (2, (445_000, 455_000)))

SMOKE_CLOSED = (
    ("sandpile", 60, 2), ("sandpile", 101, -3), ("circulant", 24, 4), ("circulant", 35, 3),
)


def _closed_pass(rng: random.Random, smoke: bool) -> list[tuple]:
    if smoke:
        cases = list(SMOKE_CLOSED)
    else:
        cases = []
        for d, (lo, hi) in TOWER_SLOTS:
            cases.append(("sandpile", _draw_tower(rng, lo, hi, d), d * rng.choice((1, -1))))
        for d, (lo, hi) in COSET_SLOTS:
            d *= rng.choice((1, -1))
            cases.append(("sandpile", _draw_prime_few_cosets(rng, lo, hi, d), d))
        for q, (lo, hi) in CIRC_TOWER_SLOTS:
            p = min(f for f in (2, 3) if q % f == 0)
            cases.append(("circulant", _draw_tower(rng, lo, hi, p), q))
        for q, (lo, hi) in CIRC_COSET_SLOTS:
            cases.append(("circulant", _draw_prime_few_cosets(rng, lo, hi, q), q))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# Independent unit count for the circulant checks
# ---------------------------------------------------------------------------


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _order_mod(a: int, e: int) -> int:
    lam = 1
    for p, k in _factor(e).items():
        lam = math.lcm(lam, (p - 1) * p ** (k - 1))
    order = lam
    for p in _factor(lam):
        while order % p == 0 and pow(a, order // p, e) == 1:
            order //= p
    return order


def restricted_unit_count(n: int, q: int) -> int:
    """|C'(n, q)|, counted from the factorization of x^n - 1 over F_q.

    With n = p^k * m and gcd(m, q) = 1, x^n - 1 = (x^m - 1)^(p^k), and
    x^m - 1 has phi(e)/o_e irreducible factors of degree o_e = ord_e(q) for
    each e | m.  Every unit of F_q[x]/(f^s) with deg f = o lifts one of the
    q^o - 1 units mod f in q^(o(s-1)) ways.  C' is the kernel of u -> u(1).
    """
    p = min(_factor(q))
    pk = 1
    while n % (pk * p) == 0:
        pk *= p
    m = n // pk
    total = q ** (n - m)
    divisors = [1]
    for prime, k in _factor(m).items():
        divisors = [d * prime**i for d in divisors for i in range(k + 1)]
    for e in divisors:
        phi = math.prod((f - 1) * f ** (k - 1) for f, k in _factor(e).items())
        o = _order_mod(q % e, e) if e > 1 else 1
        total *= (q**o - 1) ** (phi // o)
    return total // (q - 1)


def quotient_defined(n: int, q: int) -> bool:
    """Whether quotient_group_closed has a route for C'(n, q)/<x>."""
    p = min(_factor(q))
    pk = 1
    while n % (pk * p) == 0:
        pk *= p
    return math.gcd(n, q) == 1 or p == q or pk == n


# ---------------------------------------------------------------------------
# Workload objects: set-up, warm-up, case bodies, checks
# ---------------------------------------------------------------------------


class Workload:
    """One workload bound to a seed and to the imported package."""

    name = ""

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke

    def passes(self):
        index = 0
        while True:
            yield self.make_pass(_rng(self.name, self.seed, index), index)
            index += 1

    def setup(self, sp, workdir: Path) -> None:
        self.sp = sp

    def warm_up(self) -> None:
        """Run inputs outside the timed set once (lazy imports, tables)."""

    def run(self, case: tuple):
        raise NotImplementedError

    def check(self, case: tuple, result) -> str | None:
        """None when the result passes the independent check, else why not."""
        raise NotImplementedError


def _run_cli(sp, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sp.cli.run(argv)
    return code, out.getvalue()


class OracleSnf(Workload):
    name = "oracle_snf"

    def make_pass(self, rng, index):
        return _oracle_pass(rng, index, self.smoke)

    def setup(self, sp, workdir):
        super().setup(sp, workdir)
        bands = SMOKE_SNF_ROWS if self.smoke else SNF_ROW_BANDS
        self.files: dict[tuple[int, int], Path] = {}
        self.matrices: dict[tuple[int, int], list[list[int]]] = {}
        self.expected_det: dict[tuple[int, int], int] = {}
        for file_pass in range(SNF_FILE_PASSES):
            for slot in range(len(bands)):
                rows = snf_matrix(self.seed, file_pass, slot, self.smoke)
                path = workdir / f"snf-{file_pass}-{slot}.txt"
                lines = [f"{len(rows)} {len(rows)}"] + [" ".join(map(str, r)) for r in rows]
                path.write_text("\n".join(lines) + "\n")
                self.files[file_pass, slot] = path
                self.matrices[file_pass, slot] = rows
        warm = workdir / "warm.txt"
        warm.write_text("3 3\n2 4 4\n-6 6 12\n10 -4 -16\n")
        self.warm_file = warm

    def warm_up(self):
        for argv in (["db", "12", "3"], ["kautz", "12", "3"], ["snf", str(self.warm_file)]):
            _run_cli(self.sp, argv)

    def run(self, case):
        if case[0] == "family":
            _, command, n, d = case
            return _run_cli(self.sp, [command, str(n), str(d)])
        _, file_pass, slot = case
        return _run_cli(self.sp, ["snf", str(self.files[file_pass, slot])])

    def check(self, case, result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(out)
        if case[0] == "family":
            _, command, n, d = case
            if (doc.get("command"), doc.get("n"), doc.get("d")) != (command, n, d):
                return f"document is for {doc.get('command')} {doc.get('n')} {doc.get('d')}"
            return None if doc.get("agrees") is True else "routes disagree"
        key = case[1], case[2]
        if key not in self.expected_det:
            self.expected_det[key] = bareiss_abs_det(self.matrices[key])
        size = len(self.matrices[key])
        factors = [int(s) for s in doc["invariant_factors"]]
        product = math.prod(factors) if doc["rank"] == size else 0
        if product != self.expected_det[key]:
            return f"product of invariant factors {product} != |det| {self.expected_det[key]}"
        return None


class EnumCirculant(Workload):
    name = "enum_circulant"

    def passes(self):
        return _enum_passes(self.seed, self.smoke)

    def warm_up(self):
        # Pairs outside the timed pool, one per kernel kind.
        for n, q in ((5, 2), (4, 2), (3, 3), (2, 4)):
            self.run(("enum", n, q))

    def run(self, case):
        _, n, q = case
        brute = self.sp.unit_group_brute
        star = brute(n, q, restricted=True, cap=BRUTE_CAP)
        full = brute(n, q, cap=BRUTE_CAP)
        quotient = brute(n, q, restricted=True, modulo_x=True, cap=BRUTE_CAP)
        return star, full, quotient

    def check(self, case, result):
        _, n, q = case
        sp = self.sp
        star, full, quotient = result
        star_closed, _ = sp.star_group_closed(n, q)
        if star != star_closed:
            return f"C' brute {star} != closed {star_closed}"
        full_closed = sp.direct_sum(star_closed, sp.from_cyclic_orders([q - 1]))
        if full != full_closed:
            return f"C brute {full} != C' + Z_(q-1) = {full_closed}"
        if quotient_defined(n, q):
            quotient_closed, _ = sp.quotient_group_closed(n, q)
            if quotient != quotient_closed:
                return f"C'/<x> brute {quotient} != closed {quotient_closed}"
        if star.order != n * quotient.order:
            return f"|C'| = {star.order} != n * |C'/<x>| = {n * quotient.order}"
        return None


class ClosedLarge(Workload):
    name = "closed_large"

    def make_pass(self, rng, index):
        return _closed_pass(rng, self.smoke)

    def warm_up(self):
        for case in (("sandpile", 48, 2), ("sandpile", 97, -5), ("circulant", 18, 9), ("circulant", 31, 2)):
            self.run(case)

    def run(self, case):
        kind, n, d = case
        sp = self.sp
        if kind == "sandpile":
            return sp.sandpile_group(n, d), sp.sand_dune_group(n, d)
        star, _ = sp.star_group_closed(n, d)
        quotient = sp.quotient_group_closed(n, d)[0] if quotient_defined(n, d) else None
        return star, quotient

    def check(self, case, result):
        kind, n, d = case
        if kind == "sandpile":
            sandpile, dune = result
            if dune.order != n * sandpile.order:
                return f"|Sigma| = {dune.order} != n * |S| = {n * sandpile.order}"
            return None
        star, quotient = result
        expected = restricted_unit_count(n, d)
        if star.order != expected:
            return f"|C'| = {star.order} != unit count {expected}"
        if quotient is not None and star.order != n * quotient.order:
            return f"|C'| = {star.order} != n * |C'/<x>| = {n * quotient.order}"
        return None


def make(workload: str, seed: int, smoke: bool = False) -> Workload:
    classes = {cls.name: cls for cls in (OracleSnf, EnumCirculant, ClosedLarge)}
    return classes[workload](seed, smoke)
