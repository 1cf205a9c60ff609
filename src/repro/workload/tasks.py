"""Tasks and their shape distributions.

:class:`Task` is the unit of simulated work: one IoT message, created
at a device, forwarded hop-by-hop over the network and processed at an
edge server.  Timestamps are filled in as the task moves; the
simulator's metrics recorder derives every latency statistic from
them.  :class:`TaskFactory` stamps out tasks with lognormal message
sizes (telemetry is small, occasional frames are big) and exponential
compute demand around configurable means.

``Task`` lives here rather than in :mod:`repro.sim` so the dependency
runs one way: the simulator imports workload models, never the reverse.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive


@dataclass
class Task:
    """One message from an IoT device to its assigned edge server."""

    task_id: int
    device_id: int
    server_id: int
    size_bits: float
    compute_units: float
    created_at: float
    deadline_s: "float | None" = None
    arrived_at: "float | None" = None
    completed_at: "float | None" = None

    def __post_init__(self) -> None:
        check_positive(self.size_bits, "size_bits")
        check_positive(self.compute_units, "compute_units")

    @property
    def network_latency(self) -> "float | None":
        """Device-to-server communication delay (the paper's quantity)."""
        if self.arrived_at is None:
            return None
        return self.arrived_at - self.created_at

    @property
    def total_latency(self) -> "float | None":
        """End-to-end latency including server queueing and processing."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.created_at

    @property
    def missed_deadline(self) -> "bool | None":
        """Whether the task finished after its deadline (None = no deadline)."""
        if self.deadline_s is None:
            return None
        if self.completed_at is None:
            return True  # never completed counts as missed
        return self.total_latency > self.deadline_s


class TaskFactory:
    """Produces simulated tasks with randomized size and compute cost.

    Parameters
    ----------
    mean_size_bits:
        Mean message size on the wire; sizes are lognormal with
        ``size_sigma`` log-space spread.
    mean_compute_units:
        Mean processing demand; exponential.  A server with
        ``service_rate = r`` spends ``units / r`` seconds per task.
    """

    def __init__(
        self,
        mean_size_bits: float = 8.0 * 1200,
        size_sigma: float = 0.5,
        mean_compute_units: float = 1.0,
    ) -> None:
        self.mean_size_bits = check_positive(mean_size_bits, "mean_size_bits")
        self.size_sigma = check_positive(size_sigma, "size_sigma")
        self.mean_compute_units = check_positive(mean_compute_units, "mean_compute_units")
        # lognormal mu such that the distribution mean equals mean_size_bits
        self._mu = math.log(self.mean_size_bits) - 0.5 * self.size_sigma**2
        self._ids = itertools.count()

    def make(
        self,
        device_id: int,
        server_id: int,
        created_at: float,
        rng: np.random.Generator,
        deadline_s: "float | None" = None,
    ) -> Task:
        """One task, timestamps initialized, ids unique per factory."""
        size = float(rng.lognormal(self._mu, self.size_sigma))
        compute = float(rng.exponential(self.mean_compute_units))
        return Task(
            task_id=next(self._ids),
            device_id=device_id,
            server_id=server_id,
            size_bits=max(size, 1.0),
            compute_units=max(compute, 1e-6),
            created_at=created_at,
            deadline_s=deadline_s,
        )
