"""Exact counting of 3 x n Latin rectangles on lambda symbols.

Four independent routes compute the same numbers:

1. riordan_l3 -- the classical first-row-normalized closed form
2. aps_g -- the triple-sum closed form over lambda symbols
3. thm3_g -- assembly from surgered-graph counts: Theorem 2's sum over the
   splits of G(n), each paired with its mirror
4. chromatic_poly on build_gn(n) -- deletion-contraction from first principles

plus brute-force enumeration oracles (count_latin, the lazy rectangle walk
enumerate_latin, injection_counts) that ground all of them.  run_verify
cross-checks the routes on enough lambda to fix each count's polynomial in
lambda.  Everything is exact big-integer arithmetic.
"""

from .combinatorics import falling
from .errors import BudgetExceededError, GraphParseError, VertexLimitError
from .graphs import (
    Graph,
    build_gn,
    build_gnpq,
    complete,
    complete_bipartite,
    delete_edge,
    identify,
    line_graph,
    parse_graph,
)
from .chromatic import Poly, chromatic_poly, count_colorings_bruteforce, eval_poly
from .formulas import aps_g, g_npq_closed, riordan_l3, thm3_g
from .oracle import Rectangle, count_latin, enumerate_latin, injection_counts
from .verify import CheckResult, render_report, run_verify

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CheckResult",
    "Graph",
    "GraphParseError",
    "Poly",
    "Rectangle",
    "VertexLimitError",
    "aps_g",
    "build_gn",
    "build_gnpq",
    "chromatic_poly",
    "complete",
    "complete_bipartite",
    "count_colorings_bruteforce",
    "count_latin",
    "delete_edge",
    "enumerate_latin",
    "eval_poly",
    "falling",
    "g_npq_closed",
    "identify",
    "injection_counts",
    "line_graph",
    "parse_graph",
    "render_report",
    "riordan_l3",
    "run_verify",
    "thm3_g",
    "__version__",
]
