"""RL-based assignment heuristics — the paper's contribution.

The abstract proposes "RL based heuristics to obtain a near-optimal
assignment of IoT devices to the edge cluster while ensuring that none
of the edge devices are overloaded".  This package implements that
design space:

* :mod:`repro.rl.env` — the sequential-assignment MDP: one episode
  assigns all devices, one step assigns one device to one server;
  feasibility masking makes overload *impossible by construction*;
* :mod:`repro.rl.qlearning` — tabular Q-learning over an abstracted
  (device, quantized-residual-loads) state;
* :mod:`repro.rl.sarsa` — its on-policy SARSA counterpart;
* :mod:`repro.rl.bandit` — per-device UCB bandits (the lightest
  "RL based heuristic");
* :mod:`repro.rl.reinforce` — REINFORCE policy gradient with a NumPy
  MLP over topology-aware features;
* :mod:`repro.rl.agent` — :class:`~repro.rl.agent.TaccSolver`, the
  headline algorithm: Q-learning + topology-aware (delay-softmax)
  exploration + feasibility masking + best-episode memory + local
  search polish.

All of them implement the common :class:`~repro.solvers.base.Solver`
interface and are registered as ``"qlearning"``, ``"sarsa"``,
``"bandit"``, ``"reinforce"`` and ``"tacc"``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.rl.agent": ("TaccSolver",),
    "repro.rl.bandit": ("BanditSolver",),
    "repro.rl.env": ("AssignmentEnv", "EpisodeResult"),
    "repro.rl.qlearning": ("QLearningSolver",),
    "repro.rl.reinforce": ("ReinforceSolver",),
    "repro.rl.sarsa": ("SarsaSolver",),
    "repro.rl.schedules": ("ConstantSchedule", "ExponentialDecay", "LinearDecay"),
})

__all__ = [
    "TaccSolver",
    "BanditSolver",
    "AssignmentEnv",
    "EpisodeResult",
    "QLearningSolver",
    "ReinforceSolver",
    "SarsaSolver",
    "ConstantSchedule",
    "ExponentialDecay",
    "LinearDecay",
]
