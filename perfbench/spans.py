"""Spans around the package's public functions, installed from outside.

`install` wraps each function in TARGETS and rebinds every name that refers
to it in the ``sandpiles`` modules, so calls between modules (``cli`` into
``digraphs``, ``digraphs`` into ``exact_linalg``, ...) go through the
wrappers without any change to the package.  Spans live in memory and are
written out when the run ends.  A span's self time is its duration minus the
durations of its direct children; calls are single-threaded, so children
never overlap.
"""

from __future__ import annotations

import sys
import time


def _entries(args, kwargs, result):
    return {"entries": args[0].rows * args[0].cols}


def _snf_attrs(args, kwargs, result):
    bits = max((s.bit_length() for s in result.invariant_factors), default=0)
    return {"entries": args[0].rows * args[0].cols, "max_factor_bits": bits}


def _laplacian_attrs(args, kwargs, result):
    return {"entries": result.rows * result.cols}


def _cosets_attrs(args, kwargs, result):
    return {"cosets": len(result.orbits)}


def _orders_attrs(args, kwargs, result):
    return {"orders_in": len(args[0])}


def _brute_attrs(args, kwargs, result):
    return {"elements": args[1] ** args[0]}


def _cli_attrs(args, kwargs, result):
    return {"command": args[0][0]}


# (module, function, span name, attributes from (args, kwargs, result))
TARGETS = (
    ("sandpiles.cli", "run", "cli.run", _cli_attrs),
    ("sandpiles.digraphs", "de_bruijn", "digraphs.build", None),
    ("sandpiles.digraphs", "kautz", "digraphs.build", None),
    ("sandpiles.digraphs", "laplacian", "digraphs.laplacian", _laplacian_attrs),
    ("sandpiles.exact_linalg", "determinant", "exact_linalg.determinant", _entries),
    ("sandpiles.exact_linalg", "smith_normal_form", "exact_linalg.smith_normal_form", _snf_attrs),
    ("sandpiles.closed_form", "sandpile_group", "closed_form.sandpile_group", None),
    ("sandpiles.closed_form", "sand_dune_group", "closed_form.sand_dune_group", None),
    ("sandpiles.closed_form", "cyclotomic_cosets", "closed_form.cyclotomic_cosets", _cosets_attrs),
    ("sandpiles.closed_form", "sigma_relation_matrix", "closed_form.sigma_relation_matrix", None),
    ("sandpiles.abelian", "from_cyclic_orders", "abelian.from_cyclic_orders", _orders_attrs),
    ("sandpiles.abelian", "direct_sum", "abelian.direct_sum", None),
    ("sandpiles.abelian", "structure_from_torsion_counts", "abelian.structure_from_torsion_counts", None),
    ("sandpiles.arith", "factorize", "arith.factorize", None),
    ("sandpiles.arith", "multiplicative_order", "arith.multiplicative_order", None),
    ("sandpiles.circulant", "unit_group_brute", "circulant.unit_group_brute", _brute_attrs),
    ("sandpiles.circulant", "star_group_closed", "circulant.star_group_closed", None),
    ("sandpiles.circulant", "quotient_group_closed", "circulant.quotient_group_closed", None),
)

# Functions whose first argument may be a one-shot iterable; the wrapper
# turns it into a list so it can be counted and still be consumed.
_MATERIALIZE_FIRST = {"abelian.from_cyclic_orders"}


class Tracer:
    """In-memory spans: [name, start, end, parent index, case, attributes]."""

    def __init__(self):
        self.spans: list[list] = []
        self.case = -1
        self.active = False
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        materialize = name in _MATERIALIZE_FIRST

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if materialize:
                args = (list(args[0]),) + args[1:]
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.case, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every target in every loaded ``sandpiles`` module."""
        modules = [
            mod for key, mod in sys.modules.items()
            if key == "sandpiles" or key.startswith("sandpiles.")
        ]
        for module_name, attr, span_name, attrs in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(span_name, original, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def to_json(self) -> list[dict]:
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "case": s[4], "attrs": s[5]}
            for s in self.spans
        ]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer numbers from the spans; every `.s` is self time."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    sums: dict[str, float] = {}
    max_bits = 0
    snf_under = {"family": 0.0, "snf": 0.0}
    brute_first = {"s": 0.0, "elements": 0}
    brute_repeat_s = 0.0
    first_brute_case: set[int] = set()
    for i, (name, start, end, parent, case, attrs) in enumerate(spans):
        own = end - start - child_time[i]
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        for key, value in (attrs or {}).items():
            if key == "max_factor_bits":
                max_bits = max(max_bits, value)
            elif key != "command":
                sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + value
        if name == "exact_linalg.smith_normal_form":
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != "cli.run":
                ancestor = spans[ancestor][3]
            if ancestor >= 0:
                command = spans[ancestor][5]["command"]
                snf_under["snf" if command == "snf" else "family"] += own
        if name == "circulant.unit_group_brute":
            # The first call of a case enumerates; the other two modes of the
            # same (n, q) follow it, so their cost is the repeat cost.
            if case in first_brute_case:
                brute_repeat_s += end - start
            else:
                first_brute_case.add(case)
                brute_first["s"] += end - start
                brute_first["elements"] += attrs["elements"]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "cli.run.s": self_s.get("cli.run", 0.0),
        "cli.run.calls": calls.get("cli.run", 0),
        "digraphs.build.s": self_s.get("digraphs.build", 0.0),
        "digraphs.laplacian.s": self_s.get("digraphs.laplacian", 0.0),
        "digraphs.laplacian.entries": sums.get("digraphs.laplacian.entries", 0),
        "exact_linalg.determinant.s": self_s.get("exact_linalg.determinant", 0.0),
        "exact_linalg.determinant.calls": calls.get("exact_linalg.determinant", 0),
        "exact_linalg.determinant.entries": sums.get("exact_linalg.determinant.entries", 0),
        "exact_linalg.smith_normal_form.s": self_s.get("exact_linalg.smith_normal_form", 0.0),
        "exact_linalg.smith_normal_form.calls": calls.get("exact_linalg.smith_normal_form", 0),
        "exact_linalg.smith_normal_form.entries": sums.get("exact_linalg.smith_normal_form.entries", 0),
        "exact_linalg.smith_normal_form.max_factor_bits": max_bits,
        "exact_linalg.smith_normal_form.under_family.s": snf_under["family"],
        "exact_linalg.smith_normal_form.under_snf.s": snf_under["snf"],
        "closed_form.sandpile_group.s": self_s.get("closed_form.sandpile_group", 0.0),
        "closed_form.sand_dune_group.s": self_s.get("closed_form.sand_dune_group", 0.0),
        "closed_form.cyclotomic_cosets.s": self_s.get("closed_form.cyclotomic_cosets", 0.0),
        "closed_form.cosets": sums.get("closed_form.cyclotomic_cosets.cosets", 0),
        "abelian.from_cyclic_orders.s": self_s.get("abelian.from_cyclic_orders", 0.0),
        "abelian.from_cyclic_orders.orders_in": sums.get("abelian.from_cyclic_orders.orders_in", 0),
        "abelian.direct_sum.s": self_s.get("abelian.direct_sum", 0.0),
        "abelian.structure_from_torsion_counts.s": self_s.get("abelian.structure_from_torsion_counts", 0.0),
        "arith.factorize.s": self_s.get("arith.factorize", 0.0),
        "arith.factorize.calls": calls.get("arith.factorize", 0),
        "arith.multiplicative_order.s": self_s.get("arith.multiplicative_order", 0.0),
        "arith.multiplicative_order.calls": calls.get("arith.multiplicative_order", 0),
        "circulant.unit_group_brute.s": self_s.get("circulant.unit_group_brute", 0.0),
        "circulant.unit_group_brute.calls": calls.get("circulant.unit_group_brute", 0),
        "circulant.brute.elements": brute_first["elements"],
        "circulant.brute.elements_per_s": ratio(brute_first["elements"], brute_first["s"]),
        "circulant.brute.repeat_cost_ratio": ratio(brute_repeat_s, brute_first["s"]),
        "circulant.star_group_closed.s": self_s.get("circulant.star_group_closed", 0.0),
        "circulant.quotient_group_closed.s": self_s.get("circulant.quotient_group_closed", 0.0),
    }
