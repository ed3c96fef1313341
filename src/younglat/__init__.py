"""Bounded partition lattices, their chain decompositions, and diagrams.

The lattice of shape (m, n) holds the partitions with at most m parts, each
of size at most n, ordered by Young-diagram containment.  In multiplicity
coordinates the same poset is the set of weak compositions of m with n + 1
entries, which identifies it with the lattice points of a dilated simplex
and makes every cover edge a step by one type-A simple root.

The package builds these posets explicitly, computes Gaussian-binomial rank
data with exact integer arithmetic, colors Hasse edges by root index,
constructs symmetric chain decompositions (an alternating rule for two part
sizes, a recursive construction for three, a backtracking oracle for small
cases), verifies any decomposition against the definition, and renders DOT
or SVG diagrams.  The ``younglat`` command line wires everything together;
see the README for a tour.
"""

from .partitions import (
    InvalidCompositionError,
    InvalidElementError,
    Partition,
    Shape,
    WeakComposition,
    as_partition,
    complement,
    conjugate,
    covers,
    enumerate_compositions,
    format_composition,
    format_partition,
    from_multiplicity,
    leq,
    parse_composition,
    parse_partition,
    rank,
    to_multiplicity,
)
from .poset import (
    GradedPoset,
    ParseError,
    RankPolynomial,
    SplitCheck,
    build_lattice,
    check_splitting_identities,
    gaussian_binomial,
    parse_poset,
    rank_profile,
    serialize_poset,
)
from .roots import NotACoverError, edge_color, weight_string
from .scd import (
    Chain,
    ChainDecomposition,
    ScdReport,
    SearchResult,
    brute_force_scd,
    lindstrom,
    parse_decomposition,
    scd_n2,
    serialize_decomposition,
    verify_scd,
)
from .render import DiagramSizeError, RenderSpec, to_dot, to_svg

__version__ = "0.1.0"
