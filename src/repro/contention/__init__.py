"""Bandwidth- and contention-aware cost model (``repro.contention``).

Prices an assignment by the load it actually offers to shared links —
``effective_delay = propagation + transmission + contention`` — with an
exact recompute oracle, an O(links-on-path) incremental evaluator for
move/swap neighbourhoods, and a congestion-aware local search
(``congestion_local_search``).  See ``docs/cost_model.md`` for the
model and the tail-amplification crossover it reproduces.
"""

from repro.contention.incidence import PathIncidence, build_incidence
from repro.contention.model import (
    ContentionConfig,
    ContentionEvaluation,
    ContentionModel,
    IncrementalEvaluator,
)
from repro.contention.objective import ContentionObjective
from repro.contention.solvers import CongestionLocalSearchSolver

__all__ = [
    "PathIncidence",
    "build_incidence",
    "ContentionConfig",
    "ContentionEvaluation",
    "ContentionModel",
    "ContentionObjective",
    "IncrementalEvaluator",
    "CongestionLocalSearchSolver",
]
