"""Finite workbench for the odd-walk coloring dichotomy.

Witnessed multigraphs, the parity double cover, recursive path gadgets,
homomorphism profiles with exact counting, the 2-coloring / tower
dichotomy driver, the symbolic limit graph, and equivalence-tower
planning, plus a seeded property-check harness.

The harness (run_checks) and the brute-force oracles and generators it
runs are imported on first use of oddwalk.run_checks, not with the package.
So are the names that live with the brute-force oracles: the gadget vertex
list that check_odd_distance_lemma reads, and the propagation sweep under
all_homs (the full profile) and under double, pin and preserve_largeness,
the doubling chain of the key lemma.
"""

from .coloring import (bipartite_superset_coloring, greedy_coloring,
                       invariant_closure, pullback_coloring,
                       two_color_from_cover)
from .dichotomy import Tower, decide, evaluate, parse_schedule, verify_tower
from .equiv import EquivalenceTower, plan_equivalence, verify_equivalence
from .errors import OddwalkError, ParseError
from .gadget import (GadgetVertex, PathGadget, build_gadget, endpoint_label,
                     endpoints, parse_prefix, vertex_at, vertex_position)
from .graphs import Coloring, Walk, WitnessedGraph
from .homset import (ExplicitHomSet, Hom, HomProfile, extend_witness, is_large,
                     is_small, is_tiny)
from .limitgraph import (EpBits, LcVertex, adjacent, level_quotient,
                         neighbors, odd_sibling_obstruction, project_level,
                         same_component)
from .parity import (bipartite_certificate, is_bipartite, phi_bound,
                     phi_holds, vertex_odd_girth)

__version__ = "0.1.0"


def __getattr__(name):
    if name == "run_checks":
        from .check import run_checks
        return run_checks
    if name in ("all_homs", "check_odd_distance_lemma", "double", "pin",
                "preserve_largeness"):
        from . import bruteforce
        return getattr(bruteforce, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Coloring", "EpBits", "EquivalenceTower", "ExplicitHomSet",
    "GadgetVertex", "Hom", "HomProfile", "LcVertex", "OddwalkError",
    "ParseError", "PathGadget", "Tower", "Walk", "WitnessedGraph",
    "adjacent", "all_homs", "bipartite_certificate",
    "bipartite_superset_coloring", "build_gadget", "check_odd_distance_lemma",
    "decide", "double", "endpoint_label", "endpoints", "evaluate",
    "extend_witness", "greedy_coloring", "invariant_closure", "is_bipartite",
    "is_large", "is_small", "is_tiny", "level_quotient", "neighbors",
    "odd_sibling_obstruction", "parse_prefix", "parse_schedule", "phi_bound",
    "phi_holds", "pin", "plan_equivalence", "preserve_largeness",
    "project_level", "pullback_coloring", "run_checks", "same_component",
    "two_color_from_cover", "verify_equivalence", "verify_tower",
    "vertex_at", "vertex_odd_girth", "vertex_position",
]
