"""Finite-difference analysis of regular languages over DFAs.

Two regular languages are finitely different when their symmetric difference
is a finite set of words.  This package decides that relation for states and
whole machines, splits a machine's states into finite and infinite parts,
merges away redundant finite-part states down to a smallest machine in the
class, builds the isomorphisms that relate such machines, and constructs
machine pairs realizing any chosen finite difference.
"""

from .classes import StateClassPartition, state_class_partition
from .construct import construct_pair
from .core import (
    AlphabetMismatchError,
    Dfa,
    ProductDfa,
    product_xor,
    shortest_cycle_word,
    shortest_word_to,
)
from .fmin import (
    FMergeError,
    MergeRecord,
    f_merge,
    f_minimize,
    flip_finite_acceptance,
    is_f_minimal,
    redirect_boundary_transition,
)
from .formats import (
    DfaFormatError,
    TrimWarning,
    format_word,
    parse_dfa,
    serialize_dfa,
)
from .iso import (
    StateBijection,
    finite_part_iso,
    infinite_part_iso,
    verify_bijection,
)
from .language import (
    EMPTY,
    FINITE,
    INFINITE,
    Classification,
    Lasso,
    classify_language,
    languages_equal,
    symmetric_difference,
)
from .minimize import is_minimized, minimize, minimize_with_map
from .parts import PartsPartition, compute_parts, words_reaching
from .rand import random_dfa

__version__ = "0.1.0"

__all__ = [
    "AlphabetMismatchError",
    "Classification",
    "Dfa",
    "DfaFormatError",
    "EMPTY",
    "FINITE",
    "FMergeError",
    "INFINITE",
    "Lasso",
    "MergeRecord",
    "PartsPartition",
    "ProductDfa",
    "StateBijection",
    "StateClassPartition",
    "TrimWarning",
    "classify_language",
    "compute_parts",
    "construct_pair",
    "f_merge",
    "f_minimize",
    "finite_part_iso",
    "flip_finite_acceptance",
    "format_word",
    "infinite_part_iso",
    "is_f_minimal",
    "is_minimized",
    "languages_equal",
    "minimize",
    "minimize_with_map",
    "parse_dfa",
    "product_xor",
    "random_dfa",
    "redirect_boundary_transition",
    "serialize_dfa",
    "shortest_cycle_word",
    "shortest_word_to",
    "state_class_partition",
    "symmetric_difference",
    "verify_bijection",
    "words_reaching",
]
