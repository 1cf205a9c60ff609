"""Discrete-event simulation of an edge deployment.

The optimization layer works on a *static* delay matrix; this package
answers the follow-up question every systems reviewer asks: do static
wins survive contact with queueing?  It replays an assignment as
actual traffic — Poisson/periodic/bursty arrivals at IoT devices,
store-and-forward transmission with per-link FIFO queues along the
routed path, FIFO processing queues at edge servers — and measures
end-to-end latency, deadline miss rate and server utilization.

* :mod:`repro.sim.events` / :mod:`repro.sim.engine` — event queue and
  simulation core;
* :mod:`repro.sim.network` — link transmitters and hop-by-hop
  forwarding;
* :mod:`repro.sim.server` — edge-server processing queues;
* :mod:`repro.sim.device` — IoT traffic sources;
* :mod:`repro.sim.metrics` — latency/miss/utilization recording;
* :mod:`repro.sim.runner` — one-call replay of a solved assignment.
"""

from repro._lazy import lazy_exports

# Resolved on first use, so importing one simulator module (say
# ``repro.sim.task``) does not load the whole simulator.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.engine": ("Simulator",),
    "repro.sim.events": ("Event", "EventQueue"),
    "repro.sim.metrics": ("MetricsRecorder", "SimReport"),
    "repro.sim.runner": ("simulate_assignment",),
    "repro.sim.trace_runner": ("paired_comparison", "replay_trace"),
})

__all__ = [
    "Simulator",
    "Event",
    "EventQueue",
    "MetricsRecorder",
    "SimReport",
    "simulate_assignment",
    "paired_comparison",
    "replay_trace",
]
