"""Search for finite-index visual RAAG subgroups of right-angled Coxeter groups.

Input: a finite triangle-free simplicial graph defining the Coxeter group.
Output: either a verified two-forest witness subgraph of the complement
(together with the commuting graph presenting the RAAG) or a machine-checkable
refusal reason.
"""

from .graphs import (
    Graph,
    NotBipartiteError,
    TwoColoring,
    bipartition,
    bits,
    bit_list,
    has_separating_clique,
    induced_cycles,
    is_incomplete,
    is_triangle_free,
    iter_bits,
    link,
    n_chords,
)

__all__ = [
    "Graph",
    "NotBipartiteError",
    "TwoColoring",
    "bipartition",
    "bits",
    "bit_list",
    "has_separating_clique",
    "induced_cycles",
    "is_incomplete",
    "is_triangle_free",
    "iter_bits",
    "link",
    "n_chords",
]

__version__ = "0.1.0"
