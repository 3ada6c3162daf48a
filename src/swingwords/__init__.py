"""Exact-arithmetic word models of acyclic uni-trivalent diagram spaces.

Words over 1..p with exact coefficients form chains; the antisymmetrization
map and two families of fold moves define two quotients with decidable
canonical forms; labeled trees with cyclic orientations expand into chains
compatibly with the local moves; and the graded dimensions have closed
formulas cross-checked by exact row reduction.
"""

from .bases import (BasisSet, RunPredicate, enum_words, evenrun_experiment,
                    h_basis, lie_basis, section4_table)
from .chains import Chain, Multidegree, Word, concat, reverse
from .dims import (DimensionReport, h_dim_multidegree, h_dim_total, mobius,
                   rank_oracle, witt_multidegree, witt_total)
from .moves import MagmaTerm, commutator_expand, eta, fold_l, fold_prime
from .quotients import (LieCanonical, PrimeCanonical, RelationSpan, TensorElement,
                        canonical_l, canonical_prime, choose_head,
                        choose_head_by_letter, ell_map, g_map, g_prime_map,
                        g_tilde, relation_span)
from .scalars import InputError, ModInt, ResourceLimitError
from .textio import (parse_chain, parse_magma, parse_swingword, render_chain,
                     render_magma, render_swingword, render_tensor)
from .trees import (JacobiTree, SwingWord, Vertebrate, as_swap, diagram_class,
                    enumerate_topologies, ihx_expand, is_swing, read_swingword,
                    relabel_legs, rho, rho_alt, to_vertebrate, tree_from_json,
                    tree_to_json, validate)
from .verify import Report, run_suite

__version__ = "0.1.0"

__all__ = [
    "BasisSet", "Chain", "DimensionReport", "InputError", "JacobiTree",
    "LieCanonical", "MagmaTerm", "ModInt", "Multidegree", "PrimeCanonical",
    "RelationSpan", "Report", "ResourceLimitError", "RunPredicate", "SwingWord",
    "TensorElement", "Vertebrate", "Word", "as_swap", "canonical_l",
    "canonical_prime", "choose_head", "choose_head_by_letter", "commutator_expand",
    "concat", "diagram_class", "ell_map", "enum_words", "enumerate_topologies",
    "eta", "evenrun_experiment", "fold_l", "fold_prime", "g_map", "g_prime_map",
    "g_tilde", "h_basis", "h_dim_multidegree", "h_dim_total", "ihx_expand",
    "is_swing", "lie_basis", "mobius", "parse_chain", "parse_magma",
    "parse_swingword", "rank_oracle", "read_swingword", "relabel_legs",
    "relation_span", "render_chain", "render_magma", "render_swingword",
    "render_tensor", "reverse", "rho", "rho_alt", "run_suite", "section4_table",
    "to_vertebrate", "tree_from_json", "tree_to_json", "validate",
    "witt_multidegree", "witt_total",
]
