"""The benchmark's view of the library: the names ``bench/spans.py`` patches
and ``bench/workloads.py`` imports, and one operation of two workloads run
through the bench's own classes. An API change that breaks the benchmark
fails here. The HTTP workload is left out: it starts a server process."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from helpers import bench_modules


@pytest.fixture(scope="module")
def bench():
    """The bench's ``spans`` and ``workloads`` modules (see bench_modules)."""
    with bench_modules("spans", "workloads") as modules:
        yield modules


def test_every_span_target_resolves_to_a_callable(bench) -> None:
    spans, _ = bench
    for target in spans.TARGETS:
        assert callable(getattr(importlib.import_module(target.module), target.function)), target


def _run_one(workload, tmp_path: Path) -> None:
    workload.setup(0, tmp_path)
    try:
        outcome = workload.run()
    finally:
        workload.close()
    assert outcome.problems == []
    assert outcome.docs > 0


def test_one_grow_topics_operation_passes_its_checks(bench, tmp_path) -> None:
    _, workloads = bench
    _run_one(workloads.GrowTopicsK14K50(), tmp_path)


def test_one_experiment_operation_passes_its_checks(bench, tmp_path) -> None:
    _, workloads = bench

    class NoLatency(workloads.ExperimentK14Latency):
        COMPLETE_LATENCY = 0
        SCORE_LATENCY = 0

    _run_one(NoLatency(), tmp_path)
