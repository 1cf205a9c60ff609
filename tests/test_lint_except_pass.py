"""The request-path swallowed-exception lint, the eager-scipy lint, and
the trees they guard."""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from lint_except_pass import (  # noqa: E402
    LAZY_IMPORT_ROOTS,
    REQUEST_PATH_ROOTS,
    check_lazy_imports,
    check_source,
    check_tree,
)


class TestRule:
    def test_flags_except_exception_pass(self):
        source = "try:\n    x()\nexcept Exception:\n    pass\n"
        (violation,) = check_source(source)
        assert ":3:" in violation

    def test_flags_bare_except_pass(self):
        source = "try:\n    x()\nexcept:\n    pass\n"
        assert len(check_source(source)) == 1

    def test_flags_ellipsis_body_and_tuple_types(self):
        source = "try:\n    x()\nexcept (ValueError, Exception):\n    ...\n"
        assert len(check_source(source)) == 1

    def test_narrow_swallow_is_legal(self):
        source = "try:\n    x()\nexcept ValueError:\n    pass\n"
        assert check_source(source) == []

    def test_broad_handler_that_acts_is_legal(self):
        source = (
            "try:\n    x()\nexcept Exception as exc:\n"
            "    log(exc)\n    raise\n"
        )
        assert check_source(source) == []


class TestSpanRule:
    def test_flags_start_span_outside_with(self):
        source = "span = recorder.start_span('serve/request', ctx)\n"
        (violation,) = check_source(source)
        assert "start_span" in violation and ":1:" in violation

    def test_with_bound_start_span_is_legal(self):
        source = (
            "with recorder.start_span('serve/request', ctx) as span:\n"
            "    span.event('dequeued')\n"
        )
        assert check_source(source) == []

    def test_async_with_bound_start_span_is_legal(self):
        source = (
            "async def f():\n"
            "    async with recorder.start_span('x', ctx) as span:\n"
            "        pass\n"
        )
        assert check_source(source) == []

    def test_flags_start_manual_outside_harness_files(self):
        source = "span = recorder.start_manual('client/request', ctx)\n"
        (violation,) = check_source(source, "src/repro/serve/service.py")
        assert "start_manual" in violation

    def test_start_manual_legal_in_measurement_harnesses(self):
        source = "span = recorder.start_manual('client/request', ctx)\n"
        assert check_source(source, "src/repro/serve/loadtest.py") == []
        assert check_source(source, "src/repro/shard/harness.py") == []

    def test_with_does_not_bless_a_nested_start_span(self):
        # the with-item is lock(); the span call inside the body still leaks
        source = (
            "with lock():\n"
            "    span = recorder.start_span('x', ctx)\n"
        )
        assert len(check_source(source)) == 1


class TestLazyImportRule:
    def test_flags_module_level_scipy_imports(self):
        source = (
            "import numpy as np\n"
            "from scipy.optimize import linprog\n"
            "import scipy.sparse as sp\n"
        )
        violations = check_lazy_imports(source)
        assert [v.split(":")[1] for v in violations] == ["2", "3"]

    def test_flags_imports_that_still_run_at_import_time(self):
        source = (
            "try:\n    import scipy\nexcept ImportError:\n    scipy = None\n"
            "class Solver:\n    from scipy import stats\n"
        )
        assert len(check_lazy_imports(source)) == 2

    def test_function_local_and_type_checking_imports_are_legal(self):
        source = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n    from scipy.sparse import csr_matrix\n"
            "def solve():\n    from scipy.optimize import linprog\n"
            "class Solver:\n"
            "    def solve(self):\n        import scipy.sparse\n"
        )
        assert check_lazy_imports(source) == []

    def test_other_packages_and_relative_imports_are_legal(self):
        source = "import scipyish\nfrom . import scipy\nimport numpy\n"
        assert check_lazy_imports(source) == []


class TestRequestPathIsClean:
    def test_no_swallowed_exceptions_on_the_request_path(self):
        roots = [
            str(REPO_ROOT / root)
            for root in REQUEST_PATH_ROOTS
            if (REPO_ROOT / root).exists()
        ]
        assert roots, "request-path packages moved; update the lint"
        assert check_tree(roots) == []

    def test_no_module_level_scipy_import_in_the_package(self):
        roots = [str(REPO_ROOT / root) for root in LAZY_IMPORT_ROOTS]
        assert check_tree(roots, check=check_lazy_imports) == []
