#!/usr/bin/env python3
"""Hunt for equal-order, non-isomorphic pairs C'(n, q)/<x> vs S(n, q).

Over the prime field the circulant quotient is isomorphic to the sandpile
group for every n.  Over proper extensions F_{p^r} with p | n the two
groups share their order |S(n, q)| = |C'(n, q)| / n, yet the structures can
differ: (9, 9) is the odd-characteristic witness checked in the
verification battery, and this scan turns up even smaller pairs such as
(n, q) = (4, 4) and (3, 9), and with a mixed modulus (6, 4).  The scan takes
n = p^k for k <= --k-max and every multiple of p up to --n-max.  Every
comparison is reported, with the quotient structure confirmed by exhaustive
enumeration when it fits under the cap.

    python3 scripts/quotient_witness.py --r-max 3 --k-max 3
    python3 scripts/quotient_witness.py --n-max 30 --brute-cap 4194304
"""

import argparse
import os
import sys

from sandpiles.arith import is_prime
from sandpiles.circulant import enumeration_cap, quotient_group_closed, unit_group_brute
from sandpiles.closed_form import sandpile_group


def main() -> None:
    sys.set_int_max_str_digits(0)  # group orders can pass 4300 digits
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p-max", type=int, default=5, help="largest characteristic")
    parser.add_argument("--r-max", type=int, default=3, help="largest extension degree")
    parser.add_argument("--k-max", type=int, default=3, help="largest exponent in n = p^k")
    parser.add_argument(
        "--n-max", type=int, default=0, help="also scan every multiple of p up to this"
    )
    parser.add_argument(
        "--brute-cap",
        type=int,
        default=None,
        help=f"confirm by enumeration when q^n fits (default {enumeration_cap()})",
    )
    args = parser.parse_args()

    cap = enumeration_cap(args.brute_cap)
    witnesses = []
    for p in range(2, args.p_max + 1):
        if not is_prime(p):
            continue
        for r in range(2, args.r_max + 1):
            q = p**r
            powers = {p**k for k in range(1, args.k_max + 1)}
            for n in sorted(powers.union(range(p, args.n_max + 1, p))):
                quotient, _ = quotient_group_closed(n, q)
                sandpile = sandpile_group(n, q)
                assert quotient.order == sandpile.order
                verdict = "isomorphic" if quotient == sandpile else "DIFFER"
                confirmation = ""
                if q**n <= cap:
                    brute = unit_group_brute(
                        n, q, restricted=True, modulo_x=True, cap=cap
                    )
                    assert brute == quotient
                    confirmation = " [enumeration confirms]"
                print(
                    f"n={n:<4} q={q:<4} order={quotient.order:<12} {verdict}"
                    f"{confirmation}\n"
                    f"    C'/<x> = {quotient}\n"
                    f"    S      = {sandpile}"
                )
                if verdict == "DIFFER":
                    witnesses.append((n, q))
    if witnesses:
        print(f"\nnon-isomorphic pairs: {witnesses}")
    else:
        print("\nno non-isomorphic pairs in this range")


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        # The reader closed the pipe early (as `| head` does).  Point stdout
        # at devnull so the flush at exit cannot fail again, and stop quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
