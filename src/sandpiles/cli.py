"""Command-line front end.

Every subcommand prints exactly one JSON document to stdout; progress and
diagnostics go to stderr so sweeps stay scriptable.  Group orders, tree
counts, and invariant factors are serialized as decimal strings because
they outgrow fixed-width integers quickly.  Exit status: 0 on success or
agreement, 1 when independent computation routes disagree or a
verification sweep fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .abelian import direct_sum, from_cyclic_orders
from .arith import is_prime
from .circulant import _BYTES_PER_ELEMENT, enumeration_cap, unit_group_brute, unit_group_closed
from .closed_form import sand_dune_group, sandpile_group, sigma_relation_matrix
from .digraphs import build_consecutive_d, de_bruijn, kautz, laplacian, sandpile_group_snf
from .exact_linalg import determinant, parse_matrix, smith_group, smith_normal_form
from .verify import SweepConfig, VerificationFailure, run_all


def _elapsed_ms(t0: float) -> int:
    return int(round((time.perf_counter() - t0) * 1000))


def _cmd_family(args: argparse.Namespace) -> tuple[dict, int]:
    """db / kautz: closed forms and SNF oracles side by side."""
    t0 = time.perf_counter()
    n, d, root = args.n, args.d, args.root
    signed_d = d if args.command == "db" else -d
    # The closed forms need n >= 1 and |d| >= 2, the oracles a vertex as
    # root: refuse before the dense n x n digraph is built.
    if n < 1:
        raise ValueError("need n >= 1")
    if abs(d) < 2:
        raise ValueError(f"need |d| >= 2, got d = {signed_d}")
    if not 0 <= root < n:
        raise ValueError(f"vertex {root} outside 0..{n - 1}")
    if args.command == "db":
        family, graph = "de_bruijn", de_bruijn(n, d)
    else:
        family, graph = "kautz", kautz(n, d)
    sandpile_closed = sandpile_group(n, signed_d)
    dune_closed = sand_dune_group(n, signed_d)
    reduced = laplacian(graph, reduce_at=root)
    _, sandpile_snf = smith_group(reduced)
    free_rank, dune_snf = smith_group(sigma_relation_matrix(n, signed_d))
    trees = determinant(reduced)
    agrees = (
        sandpile_snf == sandpile_closed
        and free_rank == 0
        and dune_snf == dune_closed
        and trees == sandpile_closed.order
    )
    if not agrees:
        print(
            f"disagreement at (n, d) = ({n}, {signed_d}):\n"
            f"  sandpile closed form  {sandpile_closed}\n"
            f"  sandpile SNF oracle   {sandpile_snf}\n"
            f"  sand dune closed form {dune_closed}\n"
            f"  sand dune SNF oracle  {dune_snf} (free rank {free_rank})\n"
            f"  spanning trees at root {root}: {trees}",
            file=sys.stderr,
        )
    doc = {
        "command": args.command,
        "n": n,
        "d": d,
        "family": family,
        "sandpile": sandpile_closed.to_json_dict(),
        "sand_dune": dune_closed.to_json_dict(),
        "spanning_trees": str(trees),
        "agrees": agrees,
        "method": "closed_form+snf",
        "elapsed_ms": _elapsed_ms(t0),
    }
    return doc, 0 if agrees else 1


def _cmd_consecutive(args: argparse.Namespace) -> tuple[dict, int]:
    t0 = time.perf_counter()
    # Refuse a root outside the vertices before the dense digraph is built.
    if args.n >= 1 and not 0 <= args.root < args.n:
        raise ValueError(f"vertex {args.root} outside 0..{args.n - 1}")
    graph = build_consecutive_d(args.d, args.n, args.q, args.r)
    group = sandpile_group_snf(graph, args.root)
    doc = {
        "command": "consecutive",
        "d": args.d,
        "n": args.n,
        "q": args.q,
        "r": args.r,
        "root": args.root,
        "sandpile": group.to_json_dict(),
        "method": "snf",
        "elapsed_ms": _elapsed_ms(t0),
    }
    return doc, 0


def _cmd_snf(args: argparse.Namespace) -> tuple[dict, int]:
    t0 = time.perf_counter()
    matrix = parse_matrix(Path(args.file).read_text())
    result = smith_normal_form(matrix)
    doc = {
        "command": "snf",
        "file": args.file,
        "rows": matrix.rows,
        "cols": matrix.cols,
        "rank": result.rank,
        "invariant_factors": [str(s) for s in result.invariant_factors],
        "method": "snf",
        "elapsed_ms": _elapsed_ms(t0),
    }
    return doc, 0


def _cmd_circulant(args: argparse.Namespace) -> tuple[dict, int]:
    """circulant: the unit group by enumeration (--brute) or in closed form.

    On the closed route with --mod-x over a prime q = p with p | n, the
    tower quotient is compared with the sandpile group S(n, p), plus the
    Z_{p-1} of constants unless --restricted; a mismatch raises
    AssertionError, which run reports as an internal disagreement.
    """
    t0 = time.perf_counter()
    n, q = args.n, args.q
    mode = {"restricted": args.restricted, "modulo_x": args.mod_x}
    if args.brute:
        group, method = unit_group_brute(n, q, cap=args.cap, **mode), "brute"
    else:
        group, method = unit_group_closed(n, q, **mode)
        if args.mod_x and is_prime(q) and n % q == 0:
            expected = sandpile_group(n, q)
            if not args.restricted:
                expected = direct_sum(expected, from_cyclic_orders([q - 1]))
            if group != expected:
                raise AssertionError(
                    f"quotient tower for (n, p) = ({n}, {q}) gave {group}, but the "
                    f"sandpile group{'' if args.restricted else ' plus Z_(p-1)'} is {expected}"
                )
    doc = {
        "command": "circulant",
        "n": n,
        "q": q,
        "restricted": args.restricted,
        "mod_x": args.mod_x,
        "group": group.to_json_dict(),
        "method": method,
        "elapsed_ms": _elapsed_ms(t0),
    }
    return doc, 0


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    t0 = time.perf_counter()
    config = SweepConfig(
        n_max=args.n_max,
        d_max=args.d_max,
        q_max=args.q_max,
        brute_cap=args.brute_cap,
    )
    doc = {
        "command": "verify",
        "n_max": config.n_max,
        "d_max": config.d_max,
        "q_max": config.q_max,
        "brute_cap": config.brute_cap,
    }

    def progress(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    try:
        checks, seconds = run_all(config, progress=progress)
    except VerificationFailure as failure:
        print(f"verification failed: {failure}", file=sys.stderr)
        doc.update(
            passed=False, failure=str(failure), elapsed_ms=_elapsed_ms(t0)
        )
        return doc, 1
    doc.update(
        passed=True,
        checks=checks,
        total_comparisons=sum(checks.values()),
        seconds=seconds,
        elapsed_ms=_elapsed_ms(t0),
    )
    return doc, 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sandpiles",
        description=(
            "Sandpile groups of generalized de Bruijn and Kautz digraphs, "
            "and unit groups of circulants over finite fields, computed "
            "exactly by closed forms and Smith normal form oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    db = sub.add_parser(
        "db", help="sandpile and sand dune groups of de Bruijn DB(n, d)"
    )
    db.add_argument("n", type=int, help="number of vertices")
    db.add_argument("d", type=int, help="degree (arcs v -> d*v + j)")
    db.add_argument("--root", type=int, default=0, help="root vertex for the SNF oracle")

    ktz = sub.add_parser(
        "kautz", help="sandpile and sand dune groups of Kautz Ktz(n, d)"
    )
    ktz.add_argument("n", type=int, help="number of vertices")
    ktz.add_argument("d", type=int, help="degree (arcs v -> -d*v - j)")
    ktz.add_argument("--root", type=int, default=0, help="root vertex for the SNF oracle")

    cons = sub.add_parser(
        "consecutive",
        help="SNF sandpile group of the consecutive-d digraph (arcs v -> q*v + r + i)",
    )
    cons.add_argument("d", type=int, help="out-degree (consecutive targets)")
    cons.add_argument("n", type=int, help="number of vertices")
    cons.add_argument("q", type=int, help="multiplier")
    cons.add_argument("r", type=int, help="offset")
    cons.add_argument("--root", type=int, default=0, help="root vertex")

    snf = sub.add_parser("snf", help="Smith normal form of a matrix file")
    snf.add_argument(
        "file",
        help='text file: first line "rows cols", then one signed decimal row per line',
    )

    circ = sub.add_parser(
        "circulant", help="unit group of circulant matrices over F_q"
    )
    circ.add_argument("--n", type=int, required=True, help="matrix size / modulus x^n - 1")
    circ.add_argument("--q", type=int, required=True, help="field size (prime power)")
    circ.add_argument(
        "--restricted",
        action="store_true",
        help="restrict to circulants fixing the all-ones vector (C')",
    )
    circ.add_argument(
        "--mod-x",
        action="store_true",
        help="quotient by the cyclic subgroup generated by x",
    )
    circ.add_argument(
        "--brute", action="store_true", help="force brute-force enumeration"
    )
    circ.add_argument(
        "--cap",
        type=int,
        default=None,
        help=(
            f"enumeration cap on q^n (default {enumeration_cap()}; "
            f"~{_BYTES_PER_ELEMENT} B per enumerated element, q^(n-1) of them)"
        ),
    )

    ver = sub.add_parser("verify", help="run the full property sweep")
    ver.add_argument("--n-max", type=int, default=SweepConfig.n_max)
    ver.add_argument("--d-max", type=int, default=SweepConfig.d_max)
    ver.add_argument("--q-max", type=int, default=SweepConfig.q_max)
    ver.add_argument(
        "--brute-cap",
        type=int,
        default=None,
        help="enumeration cap for the brute-force circulant sweep",
    )
    return parser


_HANDLERS = {
    "db": _cmd_family,
    "kautz": _cmd_family,
    "consecutive": _cmd_consecutive,
    "snf": _cmd_snf,
    "circulant": _cmd_circulant,
    "verify": _cmd_verify,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        doc, code = _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal disagreement: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(doc, indent=2))
    return code


def main() -> None:
    # Group orders outgrow Python's default 4300-digit limit on int-to-str
    # conversion; lift it for the process, not for in-process callers of run.
    sys.set_int_max_str_digits(0)
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (as `| head` does).  Point stdout
        # at devnull so the flush at exit cannot fail again, and stop quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
