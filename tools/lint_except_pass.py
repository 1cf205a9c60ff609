#!/usr/bin/env python3
"""Forbid silent failure modes on the serving request path, and eager scipy.

Three rules, all AST-enforced.  The first two guard the request path:

* ``except Exception: pass`` (or a bare ``except: pass``) turns a gray
  failure into an invisible one: the request neither succeeds nor
  surfaces as a typed error, which is exactly the failure mode the
  robustness work exists to kill.  Narrow handlers
  (``except ShardUnavailableError: pass``) stay legal — they document
  which failure is being absorbed and why it is safe.
* ``start_span(...)`` outside a ``with`` statement drops the span
  context: the span is opened but nothing guarantees it closes, so the
  trace silently loses a hop.  On the request path every
  ``start_span`` call must be a ``with`` item.  The explicit-finish
  escape hatch ``start_manual`` is for measurement harnesses whose
  send and completion live in different callbacks
  (``loadtest.py``/``harness.py``) and is forbidden everywhere else.

The third guards the whole package:

* a module-level ``import scipy…`` loads scipy (hundreds of modules,
  tens of MB and tens of thousands of GC-tracked objects) into every
  process that imports the module, serving processes included.  scipy
  is imported inside the functions that call it (see
  docs/architecture.md, "Import layering").

Usage::

    python tools/lint_except_pass.py [ROOT ...]

Walks the given roots, AST-parses every ``*.py`` file, and reports each
violation as ``path:line: message``.  With no roots, the request-path
rules run over the request-path packages and the scipy rule over all of
``src/repro``; given roots get all three rules.  Exit 1 when any are
found, 0 otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: packages forming the serve/shard request path
REQUEST_PATH_ROOTS = (
    "src/repro/serve",
    "src/repro/shard",
    "src/repro/netem",
    "src/repro/wal",
    "src/repro/contention",
)

#: the whole package, where scipy may be imported only inside functions
LAZY_IMPORT_ROOTS = ("src/repro",)

#: exception names too broad to silently swallow
BROAD_NAMES = {"Exception", "BaseException"}

#: files allowed to open explicit-finish spans (measurement harnesses
#: whose send and completion live in different callbacks)
MANUAL_SPAN_FILES = {"loadtest.py", "harness.py"}


def _is_broad(node: "ast.expr | None") -> bool:
    """Whether an ``except`` clause catches everything (or close to)."""
    if node is None:  # bare except:
        return True
    if isinstance(node, ast.Name):
        return node.id in BROAD_NAMES
    if isinstance(node, ast.Attribute):  # builtins.Exception
        return node.attr in BROAD_NAMES
    if isinstance(node, ast.Tuple):
        return any(_is_broad(element) for element in node.elts)
    return False


def _swallows(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body does nothing at all."""
    return all(
        isinstance(statement, ast.Pass)
        or (isinstance(statement, ast.Expr)
            and isinstance(statement.value, ast.Constant)
            and statement.value.value is Ellipsis)
        for statement in handler.body
    )


def _span_method(node: ast.Call) -> "str | None":
    """The recorder span-opening method a call invokes, if any."""
    func = node.func
    if isinstance(func, ast.Attribute):
        name = func.attr
    elif isinstance(func, ast.Name):
        name = func.id
    else:
        return None
    return name if name in ("start_span", "start_manual") else None


def check_source(source: str, path: str = "<string>") -> "list[str]":
    """All violations in one source text, as ``path:line: msg`` lines."""
    violations = []
    tree = ast.parse(source, filename=path)
    with_contexts: "set[int]" = {
        id(item.context_expr)
        for node in ast.walk(tree)
        if isinstance(node, (ast.With, ast.AsyncWith))
        for item in node.items
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            if _is_broad(node.type) and _swallows(node):
                shown = (
                    ast.unparse(node.type) if node.type is not None else ""
                )
                violations.append(
                    f"{path}:{node.lineno}: except "
                    f"{shown or '<bare>'}: pass swallows failures on the "
                    f"request path — handle, re-raise, or narrow the type"
                )
            continue
        if not isinstance(node, ast.Call):
            continue
        method = _span_method(node)
        if method == "start_span" and id(node) not in with_contexts:
            violations.append(
                f"{path}:{node.lineno}: start_span(...) outside a "
                f"`with` statement drops the span context — open request"
                f"-path spans as `with recorder.start_span(...) as span:`"
            )
        elif (method == "start_manual"
              and Path(path).name not in MANUAL_SPAN_FILES):
            violations.append(
                f"{path}:{node.lineno}: start_manual(...) is reserved "
                f"for measurement harnesses ({', '.join(sorted(MANUAL_SPAN_FILES))}) "
                f"— request-path spans must use `with ... start_span(...)`"
            )
    return violations


def _module_level(nodes):
    """Statements that run at import: everything outside function
    bodies and ``if TYPE_CHECKING:`` blocks."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            yield from _module_level(node.orelse)
        else:
            yield from _module_level(ast.iter_child_nodes(node))


def check_lazy_imports(source: str, path: str = "<string>") -> "list[str]":
    """Module-level scipy imports, as ``path:line: msg`` lines."""
    violations = []
    for node in _module_level(ast.parse(source, filename=path).body):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        violations.extend(
            f"{path}:{node.lineno}: module-level import of {name} loads "
            f"it into every process that imports this module — import "
            f"it inside the function that uses it"
            for name in names if name.split(".")[0] == "scipy"
        )
    return violations


def check_tree(roots: "list[str]", check=check_source) -> "list[str]":
    """All violations of ``check`` under the given root directories."""
    violations = []
    for root in roots:
        base = Path(root)
        files = sorted(base.rglob("*.py")) if base.is_dir() else [base]
        for path in files:
            violations.extend(
                check(path.read_text(encoding="utf-8"), str(path))
            )
    return violations


def main(argv: "list[str]") -> int:
    def existing(roots):
        return [root for root in roots if Path(root).exists()]

    violations = check_tree(argv or existing(REQUEST_PATH_ROOTS))
    violations += check_tree(
        argv or existing(LAZY_IMPORT_ROOTS), check=check_lazy_imports
    )
    for line in violations:
        print(line)
    if violations:
        print(f"{len(violations)} lint violation(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
