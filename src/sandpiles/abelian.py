"""Canonical finite abelian groups.

A finite abelian group is stored by its invariant factors: the unique chain
s_1 | s_2 | ... | s_r with every s_i >= 2 (the empty chain is the trivial
group).  Two groups are isomorphic exactly when these tuples are equal, so
equality of values is isomorphism.

Canonicalization never factors integers.  Each distinct order m, with its
count c, is placed into the chain by one gcd/lcm pass (:func:`_merge_copies`)
that per prime inserts c equal exponents into the sorted exponent list, so
it lands on the invariant-factor chain in O(distinct orders x rank) steps.
Invariant factors from Smith forms of large Laplacians are hundred-bit
composites that we have no business factoring.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat

from .arith import is_prime, nu


def _merge_copies(chain: list[int], m: int, c: int) -> list[int]:
    """Merge c copies of Z_m (m >= 2) into an ascending divisor chain s.

    Place j of the new chain is t_j = lcm(s_{j-c}, gcd(s_j, m)), with s = 1
    below the chain and s = 0 above it (gcd(0, m) = m); the 1s are dropped.
    Per prime, place j gets max(a_{j-c}, min(a_j, e)), which is the sorted
    exponent list a with c copies of e inserted.  One pass costs O(rank + c).
    """
    merged = map(math.lcm, [1] * c + chain, map(math.gcd, chain + [0] * c, repeat(m)))
    return [t for t in merged if t > 1]


@dataclass(frozen=True)
class AbelianGroup:
    """A finite abelian group in invariant-factor form.

    ``invariant_factors`` is an ascending divisor chain with every entry
    >= 2; construct values through :func:`from_cyclic_orders` (or
    :func:`direct_sum`) unless the input is already such a chain.
    """

    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        fs = self.invariant_factors
        for s in fs:
            if s < 2:
                raise ValueError(f"invariant factor {s} < 2 (drop 1s first)")
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise ValueError(f"not a divisor chain: {a} does not divide {b}")

    @property
    def order(self) -> int:
        # Multiply in balanced pairs: a running product over a rank-10^5
        # chain costs quadratic time in the digits of the order.
        fs = list(self.invariant_factors) or [1]
        while len(fs) > 1:
            fs = [math.prod(fs[i : i + 2]) for i in range(0, len(fs), 2)]
        return fs[0]

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @property
    def rank(self) -> int:
        """Minimal number of cyclic generators."""
        return len(self.invariant_factors)

    def sylow(self, p: int) -> "AbelianGroup":
        """The p-primary part, extracted without factoring anything."""
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        parts = []
        for s in self.invariant_factors:
            e = nu(s, p)
            if e:
                parts.append(p**e)
        return AbelianGroup(tuple(parts))

    def to_json_dict(self) -> dict:
        return {
            "invariant_factors": [str(s) for s in self.invariant_factors],
            "order": str(self.order),
        }

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "0"
        return " + ".join(f"Z_{s}" for s in self.invariant_factors)


TRIVIAL_GROUP = AbelianGroup()


def _merged(chain: list[int], orders) -> AbelianGroup:
    """The canonical chain with the cyclic groups Z_{orders[i]} merged in,
    each distinct order once, with its count."""
    for m, c in Counter(orders).items():
        if m < 1:
            raise ValueError(f"cyclic order must be positive, got {m}")
        if m > 1:
            chain = _merge_copies(chain, m, c)
    return AbelianGroup(tuple(chain))


def from_cyclic_orders(orders) -> AbelianGroup:
    """Canonical form of the direct sum of cyclic groups Z_{orders[i]}.

    Orders equal to 1 contribute nothing and are dropped; zero or negative
    orders are rejected.  Each distinct order is merged once, with its count.
    """
    return _merged([], orders)


def direct_sum(*groups: AbelianGroup) -> AbelianGroup:
    """Canonical form of the direct sum of the given groups.  The chain of
    the group of largest rank is already canonical, so only the others'
    invariant factors are merged into it."""
    if not groups:
        return TRIVIAL_GROUP
    *rest, base = sorted(groups, key=lambda g: g.rank)
    return _merged(list(base.invariant_factors), (m for g in rest for m in g.invariant_factors))


def structure_from_torsion_counts(p: int, counts) -> AbelianGroup:
    """Reconstruct an abelian p-group from its torsion counts.

    ``counts[i]`` must equal #{g : g^(p^i) = 1}.  Writing the group as
    a sum of cyclic p-power factors, the ratio counts[i]/counts[i-1] equals
    p^(number of factors of depth >= i), so successive ratios determine the
    multiset of depths.  The counts must start at 1 and stabilize (the last
    two entries equal), otherwise the deep factors would be unknowable.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    counts = [int(c) for c in counts]
    if not counts:
        raise ValueError("torsion counts are empty")
    if counts[0] != 1:
        raise ValueError(f"torsion counts must start at N_0 = 1, got {counts[0]}")
    if len(counts) >= 2 and counts[-1] != counts[-2]:
        raise ValueError(
            f"torsion counts did not stabilize: last entries {counts[-2]} != {counts[-1]}"
        )
    # c[i] = number of cyclic factors of depth >= i, from ratio valuations.
    depth_counts: list[int] = []
    for i in range(1, len(counts)):
        lo, hi = counts[i - 1], counts[i]
        if hi % lo != 0:
            raise ValueError(f"count {hi} is not a multiple of predecessor {lo}")
        ratio = hi // lo
        c = 0
        while ratio % p == 0:
            ratio //= p
            c += 1
        if ratio != 1:
            raise ValueError(f"count ratio {hi}//{lo} is not a power of {p}")
        depth_counts.append(c)
    for a, b in zip(depth_counts, depth_counts[1:]):
        if b > a:
            raise ValueError(
                f"inconsistent torsion counts: {b} factors of depth i+1 "
                f"but only {a} of depth i"
            )
    orders: list[int] = []
    for i, c in enumerate(depth_counts, start=1):
        deeper = depth_counts[i] if i < len(depth_counts) else 0
        orders.extend([p**i] * (c - deeper))
    return from_cyclic_orders(orders)

