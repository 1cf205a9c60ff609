"""repro.faults — scriptable fault injection and task-lifecycle resilience.

The subsystem has four pieces, layered from description to execution:

* :mod:`repro.faults.scenario` — :class:`FaultScenario`, a deterministic,
  JSON-serializable schedule of mid-simulation faults (server crashes
  and repairs, straggler slowdowns, link degradation with jitter);
* :mod:`repro.faults.injector` — :class:`FaultInjector`, the component
  that arms a scenario on a live :class:`~repro.sim.engine.Simulator`
  and drives server queues and the network fabric through it;
* :mod:`repro.faults.policies` — :class:`RetryPolicy` (per-task timeout,
  bounded exponential backoff with jitter) and the dispatch modes
  (``none`` / ``retry`` / ``failover``);
* :mod:`repro.faults.runner` — :func:`simulate_with_faults`, the
  one-call chaos counterpart of
  :func:`~repro.sim.runner.simulate_assignment`.

The X6 chaos experiment compares dispatch policies on one shared fault
timeline; ``repro simulate --faults scenario.json`` exposes the same
machinery on the command line.
"""

from repro._lazy import lazy_exports

# Resolved on first use: the serving tier's netem scripts need only
# ``scenario``; the injector and runner pull in the simulator.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.faults.injector": ("FaultInjector",),
    "repro.faults.policies": ("DISPATCH_MODES", "RetryPolicy"),
    "repro.faults.runner": ("simulate_with_faults",),
    "repro.faults.scenario": ("FaultEventSpec", "FaultScenario", "compose"),
})

__all__ = [
    "DISPATCH_MODES",
    "FaultEventSpec",
    "FaultInjector",
    "FaultScenario",
    "RetryPolicy",
    "compose",
    "simulate_with_faults",
]
