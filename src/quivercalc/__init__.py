"""Quiver representations in finite categories, cyclic and paracyclic
morphism arithmetic, trace classes with power operators, and excision
checks for one-manifold invariants."""

from .digraph import (ClosedCover, Digraph, Edge, NotACover, QuivercalcError,
                      UnknownEdge, UnknownVertex, classify_digraph,
                      disjoint_union, make_closed_cover,
                      standard_digraph, weak_components)
from .quiver import (DeltaMor, Path, QuiverMor, QuiverMorClass,
                     classify_quiver_mor, components, compose_delta,
                     compose_quiver_mor, delta_mor_to_quiver, enumerate_paths,
                     enumerate_quiver_mors, factor_active_closed,
                     hom_is_finite, hom_quiver_count)
from .fincat import (FinCat, Functor, Representation, SheafVerdict,
                     check_closed_sheaf, chain_poset_category,
                     cyclic_group_category, enumerate_reps, exit_path,
                     monoid_category, poset_category, pullback_rep,
                     rep_via_exit_limit, symmetric_group_category,
                     validate_fincat, walking_arrow_category)
from .cyccat import (EpiMor, ParaMor, cartesian_factor, compose_epi,
                     compose_para, delta_to_para, dualize_para,
                     enumerate_epi_degree1, enumerate_para_transversal,
                     format_epi, format_para, identity_epi, identity_para,
                     lift_epi_degree1, para_alpha, para_phi,
                     para_small_rotation, parse_epi, parse_para,
                     project_para_to_epi)
from .hochschild import (CyclicWord, HHClass, HHTable, class_of_word,
                         compute_hh, hh_map, psi, trace_end, trace_obj)
from .emm import (CircleEndo, CycleToCircle, DirectedCycle, ExcisionSite,
                  ExcisionVerdict, MMor, MObject, QuivPart,
                  circle_object, compose_m, cycle_length_bound,
                  enumerate_directed_cycles, fact_homology,
                  fact_map, hom_m, identity_m, make_excision_site,
                  mobject_of_digraph, quiv_op_mmor, verify_excision)

__all__ = [name for name in dir() if not name.startswith("_")]
