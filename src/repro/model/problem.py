"""The assignment problem instance.

:class:`AssignmentProblem` is the contract between every other
subsystem: topology builders produce one, solvers consume one, the
simulator replays solutions of one.  It is a *generalized* assignment
problem — the load a device places may depend on which server runs it
(heterogeneous server speeds) — with delay as the cost to minimize::

    minimize    sum_i  delay[i, a(i)]
    subject to  sum_{i: a(i)=j}  demand[i, j]  <=  capacity[j]   for all j
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SerializationError
from repro.model.entities import EdgeServer, IoTDevice
from repro.topology.delay import DelayModel, TransmissionDelayModel
from repro.topology.graph import NetworkGraph
from repro.utils.validation import check_matrix, require


@dataclass
class AssignmentProblem:
    """An instance of the delay-minimizing generalized assignment problem.

    Attributes
    ----------
    delay:
        ``(N, M)`` matrix; ``delay[i, j]`` is the communication delay
        (seconds) between IoT device ``i`` and edge server ``j``.
    demand:
        ``(N, M)`` matrix; ``demand[i, j]`` is the load device ``i``
        places on server ``j`` if assigned there.  A 1-D array of
        length ``N`` is accepted and broadcast across servers.
    capacity:
        ``(M,)`` vector of server capacities.
    devices / servers:
        Optional entity lists carrying simulator-facing parameters;
        present when the instance was built from a topology.
    graph:
        The backing :class:`NetworkGraph`, when one exists.
    failed_servers:
        Explicit down-server mask.  A failed server cannot host any
        device: its capacity is set to 0 (in a copy; the caller's
        array is untouched), so every capacity check excludes it, and
        :meth:`Assignment.validate` rejects any device placed on one.
        Failed servers are the only ones allowed a zero capacity.
    objective:
        Cost-model mode: ``"delay"`` (the default static per-path
        scalar) or ``"congestion"`` (flow-based effective delay; see
        :mod:`repro.contention`).  Solvers that understand the mode
        read it as a hint; everything else treats the instance exactly
        as before.
    name:
        Label used in tables and experiment logs.
    """

    delay: np.ndarray
    demand: np.ndarray
    capacity: np.ndarray
    devices: "list[IoTDevice] | None" = None
    servers: "list[EdgeServer] | None" = None
    graph: "NetworkGraph | None" = field(default=None, repr=False)
    failed_servers: frozenset[int] = frozenset()
    objective: str = "delay"
    name: str = "instance"

    def __post_init__(self) -> None:
        self.delay = check_matrix(self.delay, "delay", nonnegative=True)
        n, m = self.delay.shape
        require(n >= 1 and m >= 1, "problem must have at least one device and one server")
        demand = np.asarray(self.demand, dtype=np.float64)
        if demand.ndim == 1:
            require(
                demand.shape[0] == n,
                f"1-D demand must have length {n}, got {demand.shape[0]}",
            )
            demand = np.repeat(demand[:, None], m, axis=1)
        self.demand = check_matrix(demand, "demand", shape=(n, m), nonnegative=True)
        require(np.all(self.demand > 0), "demand must be strictly positive")
        capacity = np.asarray(self.capacity, dtype=np.float64).reshape(-1)
        require(
            capacity.shape[0] == m,
            f"capacity must have length {m}, got {capacity.shape[0]}",
        )
        self.failed_servers = frozenset(int(j) for j in self.failed_servers)
        for server in self.failed_servers:
            require(0 <= server < m, f"failed server {server} out of range [0, {m})")
        require(
            len(self.failed_servers) < m,
            "at least one server must stay healthy",
        )
        require(np.all(np.isfinite(capacity)) and np.all(capacity >= 0),
                "capacity must be nonnegative and finite")
        if self.failed_servers:
            # a failed server hosts nothing: with demand strictly
            # positive, every capacity check excludes it
            capacity = capacity.copy()
            capacity[sorted(self.failed_servers)] = 0.0
        self.capacity = capacity
        require(np.all(capacity[self.healthy_mask()] > 0),
                "healthy servers must have positive capacity")
        require(
            self.objective in ("delay", "congestion"),
            f"unknown objective mode {self.objective!r}; "
            f"expected 'delay' or 'congestion'",
        )
        if self.devices is not None:
            require(len(self.devices) == n, "devices list length must equal N")
        if self.servers is not None:
            require(len(self.servers) == m, "servers list length must equal M")

    # ------------------------------------------------------------------
    @property
    def n_devices(self) -> int:
        """Number of IoT devices (rows of the matrices)."""
        return self.delay.shape[0]

    @property
    def n_servers(self) -> int:
        """Number of edge servers (columns of the matrices)."""
        return self.delay.shape[1]

    @property
    def tightness(self) -> float:
        """Aggregate demand pressure: mean per-device demand / total capacity.

        Values near 1 mean capacities are nearly saturated, the regime
        where naive delay-greedy assignment breaks down.
        """
        mean_demand = float(np.sum(np.mean(self.demand, axis=1)))
        return mean_demand / float(np.sum(self.capacity))

    def healthy_mask(self) -> np.ndarray:
        """Boolean ``(M,)`` mask of servers that are up."""
        mask = np.ones(self.n_servers, dtype=bool)
        for server in self.failed_servers:
            mask[server] = False
        return mask

    def delay_lower_bound(self) -> float:
        """Capacity-relaxed lower bound: every device takes its best server.

        Admissible for branch-and-bound and a sanity floor for every
        solver's objective.  Failed servers are masked out — no valid
        assignment may use them, so their (possibly very small) delay
        columns must not drag the bound down.
        """
        if not self.failed_servers:
            return float(np.sum(np.min(self.delay, axis=1)))
        usable = self.delay[:, self.healthy_mask()]
        return float(np.sum(np.min(usable, axis=1)))

    def normalized_delay(self) -> np.ndarray:
        """Delay matrix scaled to [0, 1] (used by RL features).

        Scaling statistics come from healthy columns only; failed
        servers' columns are pinned to 1.0 (the worst value) so the
        feature encoding marks them as maximally unattractive instead
        of letting a down server distort the scale.
        """
        if not self.failed_servers:
            low = float(np.min(self.delay))
            span = float(np.max(self.delay)) - low
            if span <= 0:
                return np.zeros_like(self.delay)
            return (self.delay - low) / span
        mask = self.healthy_mask()
        usable = self.delay[:, mask]
        low = float(np.min(usable))
        span = float(np.max(usable)) - low
        if span <= 0:
            scaled = np.zeros_like(self.delay)
        else:
            scaled = np.clip((self.delay - low) / span, 0.0, 1.0)
        scaled[:, ~mask] = 1.0
        return scaled

    # ------------------------------------------------------------------
    @classmethod
    def from_topology(
        cls,
        graph: NetworkGraph,
        devices: list[IoTDevice],
        servers: list[EdgeServer],
        delay_model: "DelayModel | None" = None,
        name: str = "topology-instance",
    ) -> "AssignmentProblem":
        """Build the matrix form of a topology-embedded instance.

        Delays come from routed paths under ``delay_model`` (default:
        the full transmission model); demand is device demand broadcast
        across servers; capacities come from the server entities.
        """
        require(len(devices) >= 1, "need at least one device")
        require(len(servers) >= 1, "need at least one server")
        model = delay_model if delay_model is not None else TransmissionDelayModel()
        delay = model.matrix(
            graph,
            [d.node_id for d in devices],
            [s.node_id for s in servers],
        )
        demand = np.array([d.demand for d in devices], dtype=np.float64)
        capacity = np.array([s.capacity for s in servers], dtype=np.float64)
        return cls(
            delay=delay,
            demand=demand,
            capacity=capacity,
            devices=list(devices),
            servers=list(servers),
            graph=graph,
            name=name,
        )

    # ------------------------------------------------------------------
    # serialization (matrix form only; the graph is not serialized)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON representation of the matrix form."""
        payload = {
            "name": self.name,
            "delay": self.delay.tolist(),
            "demand": self.demand.tolist(),
            "capacity": self.capacity.tolist(),
        }
        if self.failed_servers:
            payload["failed_servers"] = sorted(self.failed_servers)
        if self.objective != "delay":
            payload["objective"] = self.objective
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "AssignmentProblem":
        """Inverse of :meth:`to_dict`."""
        try:
            return cls(
                delay=np.asarray(payload["delay"], dtype=np.float64),
                demand=np.asarray(payload["demand"], dtype=np.float64),
                capacity=np.asarray(payload["capacity"], dtype=np.float64),
                failed_servers=frozenset(payload.get("failed_servers", ())),
                objective=str(payload.get("objective", "delay")),
                name=str(payload.get("name", "instance")),
            )
        except KeyError as exc:
            raise SerializationError(f"missing field in problem payload: {exc}") from exc

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "AssignmentProblem":
        """Parse an instance previously produced by :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"invalid problem JSON: {exc}") from exc
        return cls.from_dict(payload)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AssignmentProblem(name={self.name!r}, devices={self.n_devices}, "
            f"servers={self.n_servers}, tightness={self.tightness:.2f})"
        )
