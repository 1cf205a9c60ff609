"""Server fault injection: failures and repairs over epochs.

Edge servers fail — power, connectivity, maintenance.  This module
models per-server up/down dynamics and the degraded problems they
induce:

* :class:`ServerFaultProcess` — independent two-state Markov chain per
  server (``fail_prob`` up→down, ``repair_prob`` down→up per epoch),
  with a guard that never lets the *last* healthy server fail;
* :func:`degraded_problem` — a copy of an instance carrying an explicit
  ``failed_servers`` mask (:class:`AssignmentProblem` zeroes a failed
  server's capacity, so capacity-driven solvers route around it, and
  :meth:`Assignment.validate` rejects any device on a failed server);
* :func:`serving_fraction` — the availability metric: what fraction of
  devices an assignment currently serves on healthy servers;
* :func:`served_cost` — total delay over the devices that are currently
  served (shared by X5/X6 and the degradation controller).

The X5 extension experiment drives a static assignment and a reactive
re-solver through one shared failure timeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.problem import AssignmentProblem
from repro.utils.rng import make_rng
from repro.utils.validation import check_probability, require


@dataclass(frozen=True)
class FaultEvent:
    """Fault state at one epoch."""

    epoch: int
    failed: frozenset[int]
    newly_failed: tuple[int, ...]
    repaired: tuple[int, ...]


class ServerFaultProcess:
    """Independent Markov up/down dynamics per server."""

    def __init__(
        self,
        n_servers: int,
        fail_prob: float = 0.08,
        repair_prob: float = 0.5,
        seed: "int | None" = None,
    ) -> None:
        require(n_servers >= 1, "n_servers must be >= 1")
        check_probability(fail_prob, "fail_prob")
        check_probability(repair_prob, "repair_prob")
        self.n_servers = n_servers
        self.fail_prob = fail_prob
        self.repair_prob = repair_prob
        self._rng = make_rng(seed)
        self._failed: set[int] = set()

    @property
    def failed(self) -> frozenset[int]:
        """Servers currently down."""
        return frozenset(self._failed)

    def step(self, epoch: int) -> FaultEvent:
        """Advance one epoch of failures and repairs.

        At least one server always stays up: a full-cluster outage has
        no meaningful assignment response and would only make the
        experiment degenerate.
        """
        repaired = []
        for server in sorted(self._failed):
            if self._rng.random() < self.repair_prob:
                self._failed.discard(server)
                repaired.append(server)
        newly_failed = []
        for server in range(self.n_servers):
            if server in self._failed:
                continue
            if len(self._failed) >= self.n_servers - 1:
                break  # guard: keep one healthy server
            if self._rng.random() < self.fail_prob:
                self._failed.add(server)
                newly_failed.append(server)
        return FaultEvent(
            epoch=epoch,
            failed=frozenset(self._failed),
            newly_failed=tuple(newly_failed),
            repaired=tuple(repaired),
        )


def degraded_problem(
    problem: AssignmentProblem, failed: "frozenset[int] | set[int]"
) -> AssignmentProblem:
    """Copy of ``problem`` where ``failed`` servers cannot host devices.

    Failure is represented explicitly: the copy carries ``failed`` in
    its ``failed_servers`` mask, which zeroes those servers' capacity
    (so every capacity-driven solver routes around them) and makes
    assignment validation reject any device placed on one.
    """
    failed = frozenset(int(server) for server in failed)
    for server in failed:
        require(0 <= server < problem.n_servers, f"server {server} out of range")
    require(
        len(failed) < problem.n_servers,
        "cannot fail every server; at least one must stay healthy",
    )
    degraded = AssignmentProblem(
        delay=problem.delay,
        demand=problem.demand,
        capacity=problem.capacity,
        devices=problem.devices,
        servers=problem.servers,
        graph=problem.graph,
        failed_servers=failed,
        name=f"{problem.name}|failed={sorted(failed)}",
    )
    return degraded


def serving_fraction(
    vector: np.ndarray, failed: "frozenset[int] | set[int]", n_devices: int
) -> float:
    """Fraction of devices whose assigned server is healthy."""
    if n_devices == 0:
        return 1.0
    vector = np.asarray(vector)
    served = sum(
        1 for device in range(n_devices)
        if vector[device] >= 0 and int(vector[device]) not in failed
    )
    return served / n_devices


def served_cost(
    problem: AssignmentProblem,
    vector: np.ndarray,
    failed: "frozenset[int] | set[int]" = frozenset(),
) -> float:
    """Total delay over devices currently served on healthy servers.

    Unassigned devices and devices whose server is in ``failed``
    contribute nothing — they are not being served at all.
    """
    vector = np.asarray(vector)
    total = 0.0
    for device in range(problem.n_devices):
        server = int(vector[device])
        if server >= 0 and server not in failed:
            total += float(problem.delay[device, server])
    return total
