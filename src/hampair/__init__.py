"""Arc-disjoint Hamiltonian path pairs in two-generated abelian Cayley
digraphs: cut-value enumeration, lattice-ray parametrization, the coset
construction for any two-generated digraph (family one and the
quotient-fiber family two are parameter choices of it), directed-cycle-
product lifting, and an exhaustive search oracle for small cases."""

from .core import (
    CayleyDigraph,
    FiniteAbelianGroup,
    InputError,
    LabeledWalk,
    arc_disjoint,
    cayley,
    verify_hamiltonian,
)
from .family_one import CutProfile, count_pair, cut_path, cut_set, realize_disjoint_pair
from .family_two import QuotientFiberConfig, build_family_two, skew_cover
from .lattice import endpoint_caps, lattice_params, ray_system, theta
from .oracle import (
    Status,
    find_arc_disjoint_pair,
    find_hamiltonian_cycle,
    find_hamiltonian_path,
    oracle_cut_set,
)
from .products import (
    build_three_factor,
    find_strongly_switchable_pair,
    is_strongly_switchable,
    lift_through_cycle,
    product_digraph,
)

__version__ = "0.1.0"

__all__ = [
    "CayleyDigraph",
    "CutProfile",
    "FiniteAbelianGroup",
    "InputError",
    "LabeledWalk",
    "QuotientFiberConfig",
    "Status",
    "arc_disjoint",
    "build_family_two",
    "build_three_factor",
    "cayley",
    "count_pair",
    "cut_path",
    "cut_set",
    "endpoint_caps",
    "find_arc_disjoint_pair",
    "find_hamiltonian_cycle",
    "find_hamiltonian_path",
    "find_strongly_switchable_pair",
    "is_strongly_switchable",
    "lattice_params",
    "lift_through_cycle",
    "oracle_cut_set",
    "product_digraph",
    "ray_system",
    "realize_disjoint_pair",
    "skew_cover",
    "theta",
    "verify_hamiltonian",
]
