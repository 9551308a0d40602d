"""Numerical semigroups, relative ideals, and torsion numbers of
semigroup tensor products."""

from .cofinite import CofiniteSet
from .hypersurface import (BoundaryCycle, LatticeClass, boundary_cycle,
                           dual_formula, dual_symmetric, ordered_generators,
                           torsion_generator_pairs)
from .huneke_wiegand import (HWReport, RouteDisagreementError, TripleReport,
                             hw_check_semigroup, irreducible_triples,
                             torsion_length_2gen)
from .ideals import (RelativeIdeal, SemigroupMismatchError, apery_set,
                     ideal_dual, ideal_intersect, ideal_shift, ideal_sum,
                     make_ideal)
from .search import (MODES, SearchSpec, SearchSummary, canonical_ideal_gens,
                     coprime_pairs, run_search)
from .semigroup import (NumericalSemigroup, make_semigroup,
                        minimal_generators_of_set)
from .torsion import (FiberGraph, TauEngine, TorsionProfile, fiber_class_count,
                      fiber_graph, graph_to_dot, scan_window,
                      splits_torsion_free, torsion_bound_with_correction,
                      torsion_profile)

__version__ = "0.1.0"

__all__ = [
    "CofiniteSet",
    "NumericalSemigroup",
    "RelativeIdeal",
    "FiberGraph",
    "TorsionProfile",
    "LatticeClass",
    "BoundaryCycle",
    "TripleReport",
    "HWReport",
    "SearchSpec",
    "SearchSummary",
    "TauEngine",
    "SemigroupMismatchError",
    "RouteDisagreementError",
    "MODES",
    "make_semigroup",
    "apery_set",
    "make_ideal",
    "ideal_sum",
    "ideal_intersect",
    "ideal_dual",
    "ideal_shift",
    "minimal_generators_of_set",
    "fiber_graph",
    "torsion_profile",
    "fiber_class_count",
    "splits_torsion_free",
    "torsion_bound_with_correction",
    "graph_to_dot",
    "scan_window",
    "ordered_generators",
    "boundary_cycle",
    "dual_formula",
    "dual_symmetric",
    "torsion_generator_pairs",
    "irreducible_triples",
    "torsion_length_2gen",
    "hw_check_semigroup",
    "coprime_pairs",
    "canonical_ideal_gens",
    "run_search",
]
