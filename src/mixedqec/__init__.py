"""Quantum error-correcting codes on mixed alphabets.

Construct codes by pairing graph states over several alphabet layers,
verify them symbolically and numerically against the detectability
conditions, and exchange the results as signed JSON certificates.
"""
from mixedqec.algebra import ModVec, Phase
from mixedqec.bounds import BoundReport, bound_report, classify, hamming_bound, singleton_bound
from mixedqec.certificates import (
    Certificate,
    build_code,
    load_certificate,
    verify_certificate,
)
from mixedqec.clique import (
    CodingClique,
    SearchResult,
    check_clique,
    closure,
    covered_differences,
    purity_set,
    search_clique,
)
from mixedqec.compose import paste_distance2, pasted_code, product_code
from mixedqec.errors import (
    ConstructionInputError,
    DimensionCapError,
    ErrorWord,
    IntegerRangeError,
    MixedSystem,
    dim_cap,
    format_word,
    parse_word,
    weight,
)
from mixedqec.graphs import WeightedGraph, loop_graph
from mixedqec.projection import ProjectorSpec, project_code, required_detectable_set
from mixedqec.verifier import (
    Code,
    KLReport,
    StabilizerRow,
    code_distance,
    kl_verify_numeric,
    kl_verify_symbolic,
    kl_verify_words,
    parse_stabilizer_row,
    verify_stabilizer,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "Certificate",
    "Code",
    "CodingClique",
    "ConstructionInputError",
    "DimensionCapError",
    "ErrorWord",
    "IntegerRangeError",
    "KLReport",
    "MixedSystem",
    "ModVec",
    "Phase",
    "ProjectorSpec",
    "SearchResult",
    "StabilizerRow",
    "WeightedGraph",
    "bound_report",
    "build_code",
    "check_clique",
    "classify",
    "closure",
    "code_distance",
    "covered_differences",
    "dim_cap",
    "format_word",
    "hamming_bound",
    "kl_verify_numeric",
    "kl_verify_symbolic",
    "kl_verify_words",
    "load_certificate",
    "loop_graph",
    "parse_stabilizer_row",
    "parse_word",
    "paste_distance2",
    "pasted_code",
    "product_code",
    "project_code",
    "purity_set",
    "required_detectable_set",
    "search_clique",
    "singleton_bound",
    "verify_certificate",
    "verify_stabilizer",
    "weight",
]
