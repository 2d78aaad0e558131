"""propcalc: a symbolic and numeric calculator for finitely presented
E-infinity props.

Graph terms over the four generating operations compose as a prop,
normalize to unique weighted-surjection canonical forms, act on chains of
simplicial complexes (giving cup-i products and Steenrod squares mod 2),
evaluate numerically on standard simplices and realizations of simplicial
sets, and realize as oriented arc surfaces.
"""

from .errors import (CompositionError, GraphError, InternalError, ParseError,
                     PropcalcError, WeightingError)
from .graphs import (GraphTerm, Permutation, Vertex, absorb_equivalences,
                     horizontal_compose, iso_equal, permutation_graph,
                     permute_inputs, permute_outputs, unit, validate,
                     vertical_compose)
from .generators import (S, S_TILDE, apply_attaching, apply_relations_S,
                         check_edge_weights, corolla, from_edge_weights,
                         stabilize_add, stabilize_remove, to_edge_weights)
from .terms import parse
from .surjections import (SurjType, WeightedSurjection, canonicalize_ws,
                          compose_weighted, counit_class, eliminate_counits,
                          enumerate_basis, equal_ms, expand_graph,
                          identity_ws, leibniz_push, normalize)
from .chains import (ChainElement, act, chain_compose, chain_eval, cup_i,
                     differential, steenrod_square)
from .complexes import SimplicialComplex, coboundary, is_cocycle, rp2
from .simplex import SimplexPoint, eval_generator, eval_term, face_action
from .sset import RealizationPoint, SimplicialSet, canonicalize, realization_act
from .surfaces import (RibbonGraph, SurfaceSummary, collapse_edges,
                       recover_surjection, ribbon_loops, surface_summary,
                       to_ribbon)

__version__ = "0.1.0"
