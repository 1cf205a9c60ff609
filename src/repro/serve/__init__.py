"""repro.serve — the online assignment service.

The serving layer the paper's real-time framing implies: a
long-running asyncio component that accepts assignment requests over
line-delimited JSON (TCP or in-process), answers within a latency
budget via deadline-aware micro-batching, sheds load explicitly when
over its admission watermark, and improves the standing assignment
with a periodic off-path re-optimization loop.

Quickstart::

    import asyncio, repro
    from repro.serve import AssignmentService, InProcessClient, Request

    async def main():
        problem = repro.topology_instance(
            family="random_geometric", n_routers=40,
            n_devices=60, n_servers=6, tightness=0.7, seed=7,
        )
        service = AssignmentService(problem)
        await service.start()
        client = InProcessClient(service)
        print(await client.request(Request(op="assign", device=0)))
        await service.stop()

    asyncio.run(main())

See ``docs/serve.md`` for the protocol, the batching/admission knobs,
the re-optimization loop, and the ``repro serve`` / ``repro loadtest``
CLI front ends.
"""

from repro._lazy import lazy_exports
from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.batcher import FLUSH_REASONS, MicroBatcher
from repro.serve.protocol import (
    OPS,
    PRIORITY_CLASSES,
    STATUSES,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_line,
)
from repro.serve.server import InProcessClient, TCPClient, TCPServer, open_client
from repro.serve.service import AssignmentService, ServiceConfig
from repro.serve.state import ServiceState

# The load generator is a client-side tool: resolved on first use so a
# serving process never loads it (or the workload models behind it).
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.serve.loadtest": (
        "PROFILES", "LoadTestConfig", "LoadTestReport", "drive_trace",
        "generate_trace", "replay_serial", "run_loadtest",
    ),
})

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AssignmentService",
    "FLUSH_REASONS",
    "InProcessClient",
    "LoadTestConfig",
    "LoadTestReport",
    "MicroBatcher",
    "OPS",
    "PRIORITY_CLASSES",
    "PROFILES",
    "Request",
    "Response",
    "STATUSES",
    "ServiceConfig",
    "ServiceState",
    "TCPClient",
    "TCPServer",
    "decode_request",
    "decode_response",
    "drive_trace",
    "encode_line",
    "generate_trace",
    "open_client",
    "replay_serial",
    "run_loadtest",
]
