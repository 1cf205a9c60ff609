"""The unit of simulated work: one IoT message/task.

:class:`Task` is defined in :mod:`repro.workload.tasks`, next to the
factory that creates it, so the simulator depends on the workload
models and not the other way round; it is re-exported here for the
simulator modules that consume it.
"""

from repro.workload.tasks import Task

__all__ = ["Task"]
