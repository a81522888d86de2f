#!/usr/bin/env python3
"""Print tables of sandpile and sand dune groups for both digraph families.

For each (n, d) in the grid this prints the closed-form S(n, d) and
Sigma(n, d) together with the spanning-tree count, optionally re-checking
every line against the Smith-form oracle.

    python3 scripts/group_tables.py --n-max 24 --d-max 4
    python3 scripts/group_tables.py --family kautz --check
"""

import argparse
import os
import sys
from dataclasses import dataclass

from sandpiles.closed_form import sand_dune_group, sandpile_group
from sandpiles.digraphs import de_bruijn, kautz, sandpile_group_snf


@dataclass(frozen=True)
class TableConfig:
    n_max: int = 24
    d_max: int = 4
    family: str = "de_bruijn"  # de_bruijn | kautz | both
    check: bool = False


def family_rows(config: TableConfig):
    families = (
        ("de_bruijn", "kautz") if config.family == "both" else (config.family,)
    )
    for family in families:
        for d in range(2, config.d_max + 1):
            for n in range(1, config.n_max + 1):
                signed = d if family == "de_bruijn" else -d
                yield family, n, d, signed


def main() -> None:
    sys.set_int_max_str_digits(0)  # group orders can pass 4300 digits
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=TableConfig.n_max)
    parser.add_argument("--d-max", type=int, default=TableConfig.d_max)
    parser.add_argument(
        "--family",
        choices=("de_bruijn", "kautz", "both"),
        default=TableConfig.family,
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="recompute every sandpile group through the Smith-form oracle",
    )
    args = parser.parse_args()
    config = TableConfig(args.n_max, args.d_max, args.family, args.check)

    header = f"{'family':<10} {'n':>3} {'d':>2}  {'|S|':>12}  {'S(n, d)':<34} Sigma(n, d)"
    print(header)
    print("-" * len(header))
    for family, n, d, signed in family_rows(config):
        sand = sandpile_group(n, signed)
        dune = sand_dune_group(n, signed)
        if config.check:
            graph = de_bruijn(n, d) if family == "de_bruijn" else kautz(n, d)
            oracle = sandpile_group_snf(graph, 0)
            if oracle != sand:
                raise SystemExit(
                    f"closed form disagrees with SNF at {family} (n, d)=({n}, {d}): "
                    f"{sand} vs {oracle}"
                )
        print(f"{family:<10} {n:>3} {d:>2}  {sand.order:>12}  {str(sand):<34} {dune}")


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        # The reader closed the pipe early (as `| head` does).  Point stdout
        # at devnull so the flush at exit cannot fail again, and stop quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
