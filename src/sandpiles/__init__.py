"""Exact sandpile groups of generalized de Bruijn and Kautz digraphs, and
unit groups of circulant matrices over finite fields.

Everything is exact integer arithmetic: groups come out as canonical
invariant-factor decompositions, either from Smith normal forms of integer
matrices or from closed-form constructions, and the two routes are checked
against each other by the verification battery in :mod:`sandpiles.verify`.
"""

from .abelian import (
    AbelianGroup,
    TRIVIAL_GROUP,
    direct_sum,
    from_cyclic_orders,
    structure_from_torsion_counts,
)
from .circulant import (
    FiniteField,
    RingElement,
    field_for,
    is_restricted_unit,
    is_unit,
    p_torsion_counts,
    quotient_group_closed,
    quotient_p_torsion_counts,
    star_group_closed,
    unit_group_brute,
    unit_group_closed,
)
from .closed_form import (
    c_value,
    cyclotomic_cosets,
    d_sequence,
    d_type,
    element_order_formula,
    element_order_in_sigma,
    sand_dune_group,
    sandpile_generators,
    sandpile_group,
    sigma_relation_matrix,
)
from .digraphs import (
    Digraph,
    build_consecutive_d,
    de_bruijn,
    kautz,
    laplacian,
    sandpile_group_snf,
    spanning_tree_count,
)
from .exact_linalg import (
    IntMatrix,
    SnfResult,
    determinant,
    format_matrix,
    parse_matrix,
    smith_group,
    smith_normal_form,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "TRIVIAL_GROUP",
    "direct_sum",
    "from_cyclic_orders",
    "structure_from_torsion_counts",
    "FiniteField",
    "RingElement",
    "field_for",
    "is_restricted_unit",
    "is_unit",
    "p_torsion_counts",
    "quotient_group_closed",
    "quotient_p_torsion_counts",
    "star_group_closed",
    "unit_group_brute",
    "unit_group_closed",
    "c_value",
    "cyclotomic_cosets",
    "d_sequence",
    "d_type",
    "element_order_formula",
    "element_order_in_sigma",
    "sand_dune_group",
    "sandpile_generators",
    "sandpile_group",
    "sigma_relation_matrix",
    "Digraph",
    "build_consecutive_d",
    "de_bruijn",
    "kautz",
    "laplacian",
    "sandpile_group_snf",
    "spanning_tree_count",
    "IntMatrix",
    "SnfResult",
    "determinant",
    "format_matrix",
    "parse_matrix",
    "smith_group",
    "smith_normal_form",
    "__version__",
]
