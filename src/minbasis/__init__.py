"""Minimum-weight cycle bases and Z2 1-homology bases.

The package computes minimum cycle bases of weighted undirected graphs
and minimum 1-homology bases of simplicial complexes, cross-validated by
brute-force oracles and exposed through the ``minbasis`` CLI.
"""

from .errors import (
    BudgetExceededError,
    InfeasibleSupportError,
    InternalInvariantError,
    ParseError,
)
from .gf2 import (
    Gf2Matrix,
    Gf2Vector,
    RankProfile,
    column_rank_profile,
    inner_product,
    rank,
)
from .graph import (
    AllPairs,
    Cycle,
    Graph,
    PerturbedWeight,
    apsp,
    cycle_from_mask,
    cyclomatic_number,
    fundamental_cycles,
    load_graph,
    parse_graph,
    spanning_forest,
)
from .mcb import BasisReport, mcb_depina, mcb_earliest, mcb_kavitha
from .mhb import homologous, mhb_tight, mhb_via_mcb
from .oracle import all_cycle_vectors, brute_mcb, brute_mhb, brute_tight_cycles
from .simplicial import (
    HomologyProfile,
    SimplicialComplex,
    boundary_matrix,
    homology_profile,
    load_complex,
    parse_complex,
    skeleton,
)
from .tight import TightCycleSet, enumerate_tight_cycles, horton_candidates, is_tight

__version__ = "0.1.0"

__all__ = [
    "AllPairs",
    "BasisReport",
    "BudgetExceededError",
    "Cycle",
    "Gf2Matrix",
    "Gf2Vector",
    "Graph",
    "HomologyProfile",
    "InfeasibleSupportError",
    "InternalInvariantError",
    "ParseError",
    "PerturbedWeight",
    "RankProfile",
    "SimplicialComplex",
    "TightCycleSet",
    "all_cycle_vectors",
    "apsp",
    "boundary_matrix",
    "brute_mcb",
    "brute_mhb",
    "brute_tight_cycles",
    "column_rank_profile",
    "cycle_from_mask",
    "cyclomatic_number",
    "enumerate_tight_cycles",
    "fundamental_cycles",
    "homologous",
    "homology_profile",
    "horton_candidates",
    "inner_product",
    "is_tight",
    "load_complex",
    "load_graph",
    "mcb_depina",
    "mcb_earliest",
    "mcb_kavitha",
    "mhb_tight",
    "mhb_via_mcb",
    "parse_complex",
    "parse_graph",
    "rank",
    "skeleton",
    "spanning_forest",
]
