"""Shared fixtures and test utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro import op2
from repro.common.plancache import clear_plan_caches


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/goldens/* fixtures from the current translator output",
    )


@pytest.fixture
def golden(request):
    """Compare ``content`` against a committed fixture in tests/goldens/.

    Run ``pytest --update-goldens`` after an intentional codegen change to
    regenerate the fixtures, then review the diff like any other code.
    """
    from pathlib import Path

    goldens_dir = Path(__file__).parent / "goldens"
    update = request.config.getoption("--update-goldens")

    def check(name: str, content: str) -> None:
        path = goldens_dir / name
        if update:
            goldens_dir.mkdir(exist_ok=True)
            path.write_text(content)
            return
        assert path.exists(), (
            f"golden fixture {path} missing — run `pytest --update-goldens` "
            f"and commit the result"
        )
        expected = path.read_text()
        assert content == expected, (
            f"generated code for {name} differs from the committed golden; "
            f"if the change is intentional, run `pytest --update-goldens` "
            f"and review the fixture diff"
        )

    return check


@pytest.fixture(autouse=True)
def _clear_plan_caches():
    """Compiled loops, colouring plans and chain schedules: fresh per test."""
    clear_plan_caches()
    yield
    clear_plan_caches()


@pytest.fixture(autouse=True)
def _disable_tracer():
    """Tracing is process-global; never let one test's tracer leak into another."""
    from repro.telemetry import tracer as _trace

    _trace.disable()
    yield
    _trace.disable()


@pytest.fixture
def line_mesh():
    """A 1-D chain mesh: N nodes, N-1 edges, useful for tiny OP2 tests."""

    def build(n: int = 10):
        nodes = op2.Set(n, "nodes")
        edges = op2.Set(n - 1, "edges")
        e2n = op2.Map(edges, nodes, 2, [[i, i + 1] for i in range(n - 1)], "e2n")
        x = op2.Dat(nodes, 1, np.arange(n, dtype=float) + 1.0, name="x")
        return nodes, edges, e2n, x

    return build
