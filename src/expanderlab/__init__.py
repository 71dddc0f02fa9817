"""Regular almost-Ramanujan graph families from prime-gap plans.

The pipeline: pick the largest usable prime p below the target regularity
k, build the (p+1)-regular LPS Ramanujan base graph, then close the gap
k - p - 1 with perfect-matching increments (or Cartesian K2 products),
and certify the final graph once: eigenvalues and bounds.  Everything
else is importable from its submodule.
"""

from ._version import __version__
from .bounds import TABLE_RANGES, delta_table
from .graph_core import (
    cartesian_k2,
    graph_from_text,
    graph_to_text,
    is_bipartite,
    is_connected,
    load_graph,
    regularity,
    save_graph,
)
from .matching import increment_regularity
from .numtheory import max_delta_in_range
from .planner import certify, choose_q, construct, plan, replay
from .ramanujan_base import build_lps
from .spectral import SpectralCertificate, extreme_eigs

__all__ = [
    "TABLE_RANGES", "SpectralCertificate", "build_lps", "cartesian_k2",
    "certify", "choose_q", "construct", "delta_table", "extreme_eigs",
    "graph_from_text", "graph_to_text", "increment_regularity",
    "is_bipartite", "is_connected", "load_graph", "max_delta_in_range",
    "plan", "regularity", "replay", "save_graph",
]
