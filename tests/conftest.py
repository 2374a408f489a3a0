from __future__ import annotations

import pytest

from tagcraft import MockBackend, use_templates


@pytest.fixture(autouse=True)
def shipped_templates():
    """The template override is process-wide; no test may leave one set."""
    yield
    use_templates(None)


@pytest.fixture
def mock_backend() -> MockBackend:
    return MockBackend(seed=0)
