"""Online (streaming) assignment: devices arrive one at a time.

A newly provisioned IoT device must be assigned immediately and
irrevocably — the online restriction of the paper's offline problem.
:class:`OnlineAssigner` implements the standard rules:

* ``greedy_delay`` — cheapest fitting server;
* ``balanced`` — cheapest fitting server among those below the mean
  utilization (delay-aware load spreading);
* ``reserve`` — cheapest fitting server whose *post-assignment*
  utilization stays under a headroom threshold, falling back to
  cheapest-fitting when none qualifies.

The F8/online experiment compares these against the offline optimum on
the same instance (the competitive-ratio view).  The serving layer
(:mod:`repro.serve`) additionally drives the assigner as a *churning*
state machine: :meth:`release` returns a departed device's capacity,
and :meth:`reset_to` atomically adopts a re-optimized assignment.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InfeasibleSolutionError
from repro.model.problem import AssignmentProblem
from repro.model.solution import UNASSIGNED, Assignment
from repro.obs import names as obs_names
from repro.obs import runtime as obs_runtime
from repro.utils.validation import check_probability, require

ONLINE_RULES = ("greedy_delay", "balanced", "reserve")


class OnlineAssigner:
    """Irrevocable one-at-a-time assignment over a fixed cluster."""

    def __init__(
        self,
        problem: AssignmentProblem,
        rule: str = "reserve",
        headroom: float = 0.85,
    ) -> None:
        require(rule in ONLINE_RULES, f"unknown rule {rule!r}; known: {ONLINE_RULES}")
        self.problem = problem
        self.rule = rule
        self.headroom = check_probability(headroom, "headroom")
        self.assignment = Assignment(problem)
        self._residual = problem.capacity.copy()
        # a failed server has zero capacity; it must never be a
        # candidate and must never poison utilization with a 0/0
        self._usable = problem.capacity > 0
        if not np.any(self._usable):
            raise InfeasibleSolutionError(
                "no usable server: every server is failed or has zero capacity"
            )

    # ------------------------------------------------------------------
    @property
    def utilization(self) -> np.ndarray:
        """Per-server load divided by capacity (0 for zero-capacity servers)."""
        capacity = self.problem.capacity
        safe = np.where(capacity > 0, capacity, 1.0)
        return np.where(capacity > 0, 1.0 - self._residual / safe, 0.0)

    def assign(self, device: int) -> int:
        """Place ``device`` now; returns the chosen server.

        Raises :class:`~repro.errors.InfeasibleSolutionError` when no
        usable server can take the device — in the online setting there
        is nothing to undo, so the failure is surfaced to the caller
        (admission control).
        """
        registry = obs_runtime.metrics()
        labels = {"rule": self.rule}
        demand = self.problem.demand[device]
        fits = np.flatnonzero(self._usable & (demand <= self._residual + 1e-12))
        if fits.size == 0:
            registry.counter(obs_names.ONLINE_REJECTIONS, labels).inc()
            raise InfeasibleSolutionError(
                f"device {device} fits on no server (residuals exhausted)"
            )
        chosen = self._choose(device, fits)
        self.assignment.assign(device, chosen)
        self._residual[chosen] -= demand[chosen]
        registry.counter(obs_names.ONLINE_ASSIGNMENTS, labels).inc()
        return chosen

    def release(self, device: int) -> int:
        """Return a departed ``device``'s capacity; returns its old server.

        Raises :class:`~repro.errors.InfeasibleSolutionError` when the
        device is not currently assigned — releasing an unknown device
        is a protocol error the serving layer must surface, not absorb.
        """
        require(
            0 <= device < self.problem.n_devices,
            f"device {device} out of range [0, {self.problem.n_devices})",
        )
        server = self.assignment.server_of(device)
        if server == UNASSIGNED:
            raise InfeasibleSolutionError(
                f"device {device} is not assigned; nothing to release"
            )
        self._residual[server] += self.problem.demand[device, server]
        self.assignment.unassign(device)
        return server

    def assign_stream(self, order: "list[int] | np.ndarray") -> Assignment:
        """Assign every device in arrival ``order``; returns the result."""
        for device in order:
            self.assign(int(device))
        return self.assignment

    def reset_to(self, vector: "np.ndarray | list[int]") -> None:
        """Adopt ``vector`` (UNASSIGNED entries stay free) atomically.

        Used by the serving layer's re-optimization loop to swap in an
        improved assignment: residuals are recomputed from scratch so
        the assigner's view is exactly the adopted vector's loads.
        Rejects vectors that overload any server or touch unusable ones.
        """
        adopted = Assignment(self.problem, vector)
        loads = adopted.loads()
        require(
            bool(np.all(loads <= self.problem.capacity + 1e-9)),
            "reset_to vector overloads at least one server",
        )
        occupied = np.unique(adopted.vector[adopted.vector != UNASSIGNED])
        require(
            bool(np.all(self._usable[occupied])) if occupied.size else True,
            "reset_to vector places devices on failed/zero-capacity servers",
        )
        self.assignment = adopted
        self._residual = self.problem.capacity - loads

    # ------------------------------------------------------------------
    def _choose(self, device: int, fits: np.ndarray) -> int:
        delays = self.problem.delay[device, fits]
        if self.rule == "greedy_delay":
            return int(fits[np.argmin(delays)])
        utilization = self.utilization
        if self.rule == "balanced":
            mean_util = float(np.mean(utilization[self._usable]))
            below_mean = fits[utilization[fits] <= mean_util + 1e-12]
            pool = below_mean if below_mean.size else fits
            return int(pool[np.argmin(self.problem.delay[device, pool])])
        # reserve: keep every server under the headroom threshold if possible
        post = (
            self.problem.capacity[fits] * utilization[fits] + self.problem.demand[device, fits]
        ) / self.problem.capacity[fits]
        safe = fits[post <= self.headroom + 1e-12]
        pool = safe if safe.size else fits
        return int(pool[np.argmin(self.problem.delay[device, pool])])
