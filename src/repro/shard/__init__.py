"""Topology-sharded serving tier.

The single-process assignment service (:mod:`repro.serve`) is bounded
by one event loop and one GIL.  This package scales it *out* along the
structure the topology already has: hierarchical families
(edge hierarchy, fat-tree) are forests of region subtrees, and devices
overwhelmingly talk to servers inside their own subtree — so the
cluster splits into shared-nothing **shards**, one service per region
group, with a thin router in front.

* :mod:`repro.shard.ring` — seeded consistent-hash ring mapping region
  ids to shards (stable under join/leave, deterministic across
  processes);
* :mod:`repro.shard.partition` — :class:`ShardPlan`: region
  extraction, server grouping, sub-problem slicing, JSON round-trip;
* :mod:`repro.shard.backend` — in-process and TCP shard backends with
  circuit breakers and reconnect;
* :mod:`repro.shard.router` — :class:`ShardRouter`: protocol-identical
  front end with failover spillover and the cross-shard rebalance
  loop;
* :mod:`repro.shard.harness` — multi-process supervisor used by the
  CLI, the fault-injection demo, and the G4 benchmark.
"""

from repro._lazy import lazy_exports
from repro.shard.backend import (
    CircuitBreaker,
    InProcessBackend,
    TCPBackend,
)
from repro.shard.partition import (
    NO_REGION,
    ShardPlan,
    ShardSpec,
    build_plan,
    extract_regions,
    shard_name,
)
from repro.shard.ring import DEFAULT_VNODES, ConsistentHashRing
from repro.shard.router import RouterConfig, ShardRouter

# The multi-process supervisor drives load tests and fault scripts;
# resolved on first use so a shard or router process never loads it.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.shard.harness": (
        "HarnessConfig", "RecordingClient", "ShardLoadTestReport",
        "ShardProcess", "run_sharded_loadtest",
    ),
})

__all__ = [
    "CircuitBreaker",
    "InProcessBackend",
    "TCPBackend",
    "HarnessConfig",
    "RecordingClient",
    "ShardLoadTestReport",
    "ShardProcess",
    "run_sharded_loadtest",
    "NO_REGION",
    "ShardPlan",
    "ShardSpec",
    "build_plan",
    "extract_regions",
    "shard_name",
    "DEFAULT_VNODES",
    "ConsistentHashRing",
    "RouterConfig",
    "ShardRouter",
]
