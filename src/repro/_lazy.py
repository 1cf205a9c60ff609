"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exported every name from every
submodule would import the whole package — and everything those
submodules import — the moment any one submodule is needed.  The
serving tier imports ``repro.cluster.online`` and
``repro.faults.scenario``; eager package re-exports would drag the
solver stack, the simulator and scipy in behind them.  Instead each
package declares what it exports in a table and resolves a name on
first attribute access::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.cluster.online": ("OnlineAssigner",),
    })

``from repro.cluster import OnlineAssigner`` and
``repro.cluster.OnlineAssigner`` behave exactly as with an eager
re-export; the resolved value is cached on the package so the table is
consulted once per name.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: "dict[str, tuple[str, ...]]"):
    """A module ``__getattr__``/``__dir__`` pair for ``package``.

    ``exports`` maps a submodule to the names the package re-exports
    from it.
    """
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> "list[str]":
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__
