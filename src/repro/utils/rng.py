"""Deterministic random-number management.

All stochastic components in the library (instance generators,
metaheuristics, RL agents, the discrete-event simulator, workload
processes) take either an integer seed or a ``numpy.random.Generator``.
This module provides the single way those are created, so a top-level
seed reproduces an entire experiment bit-for-bit.

Child seeds are derived by hashing the parent seed together with a
string label (:func:`derive_seed`).  Unlike ``seed + i`` arithmetic,
hashed derivation keeps sibling streams statistically independent and
is stable when components are added or reordered.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.utils.validation import require

RngLike = "int | np.random.Generator | None"


def make_rng(seed: "int | np.random.Generator | None" = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``seed``.

    Accepts an existing generator (returned unchanged), an integer
    seed, or ``None`` for OS entropy.  This is the only place in the
    library where generators are constructed.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    require(
        seed is None or isinstance(seed, (int, np.integer)),
        f"seed must be an int, Generator, or None, got {type(seed).__name__}",
    )
    return np.random.default_rng(seed)


def derive_seed(seed: int, *labels: "str | int") -> int:
    """Derive a child seed from ``seed`` and a sequence of labels.

    The derivation is a SHA-256 hash truncated to 63 bits, so it is
    deterministic across processes and Python versions (unlike
    ``hash()``).

    >>> derive_seed(42, "topology") == derive_seed(42, "topology")
    True
    >>> derive_seed(42, "topology") != derive_seed(42, "workload")
    True
    """
    require(isinstance(seed, (int, np.integer)), "seed must be an integer")
    digest = hashlib.sha256()
    digest.update(str(int(seed)).encode("utf-8"))
    for label in labels:
        digest.update(b"/")
        digest.update(str(label).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


def spawn_rngs(seed: int, *labels: "str | int") -> list[np.random.Generator]:
    """Return one independent generator per label, derived from ``seed``.

    >>> topo_rng, load_rng = spawn_rngs(7, "topology", "workload")
    """
    return [make_rng(derive_seed(seed, label)) for label in labels]


def decorrelated_jitter_s(
    prev_s: float, base_s: float, cap_s: float, rng
) -> float:
    """One decorrelated-jitter backoff draw.

    ``min(cap, base + U·(3·prev − base))`` — uniform over
    ``[base, 3·prev]``: the next sleep depends on the previous *drawn*
    sleep, not the attempt number, so concurrent clients decorrelate
    instead of marching through the same exponential schedule.  Shared
    by the serving client's retries and the simulator's task retries;
    ``rng`` needs only a ``random()`` method returning ``U`` in [0, 1).
    """
    span = max(0.0, 3.0 * prev_s - base_s)
    return min(cap_s, base_s + float(rng.random()) * span)
