"""Quiver representations in finite categories, arithmetic of Δ and the
paracyclic, cyclic and epicyclic categories, trace classes with power
operators, and excision checks for one-manifold invariants."""

from .digraph import (ClosedCover, Digraph, Edge, NotACover, QuivercalcError,
                      UnknownEdge, UnknownVertex, classify_digraph,
                      disjoint_union, make_closed_cover,
                      standard_digraph, weak_components)
from .quiver import (Path, QuiverMor, QuiverMorClass, classify_quiver_mor,
                     components, compose_quiver_mor, cycle_root,
                     directed_cycle, enumerate_paths, enumerate_quiver_mors,
                     hom_is_finite, hom_quiver_count)
from .fincat import (FinCat, Functor, Representation, SheafVerdict,
                     check_closed_sheaf, chain_poset_category,
                     cyclic_group_category, enumerate_reps, exit_path,
                     monoid_category, poset_category, pullback_rep,
                     rep_via_exit_limit, symmetric_group_category,
                     validate_fincat, walking_arrow_category)
from .cyccat import (LiftMor, as_kind, compose, delta_mor, dualize_para,
                     enumerate_epi_degree1, enumerate_para_transversal,
                     epi_mor, factor, format_epi, format_para, identity,
                     para_alpha, para_phi, para_small_rotation, parse_epi,
                     parse_para)
from .hochschild import (CyclicWord, HHClass, HHTable, class_of_word,
                         compute_hh, hh_map, psi, trace_end, trace_obj)
from .emm import (CircleEndo, CycleToCircle, ExcisionSite, ExcisionVerdict,
                  MMor, MObject, QuivPart, circle_object, compose_m,
                  cycle_length_bound, enumerate_directed_cycles, fact_homology,
                  fact_map, hom_m, identity_m, make_excision_site,
                  mobject_of_digraph, quiv_op_mmor, verify_excision)

__all__ = [name for name in dir() if not name.startswith("_")]
