"""Byte identity of the run outputs, checked against a committed digest table.

The experiment is the benchmark's: ``confusable_corpus(14, 60, seed)`` from
``bench/corpus.py``, 13 seen + 1 unseen classes, 10 bootstrap / 10 validation /
40 test documents per class, 2 refinement iterations at threshold 0.95, and a
plain ``MockBackend(seed)``. Seeds 0-2 run through ``run_experiment`` and
``persist_result``; the sha256 of ``report.json``, ``predictions.jsonl`` and
``taxonomy.json`` must match ``EXPERIMENT_DIGESTS``. Seed 0 runs once more at a
concurrency cap of 1, which must not change a byte. The growth workload's
output fingerprint (final taxonomy plus predictions, plain mock, seed 0) must
match ``GROWTH_FINGERPRINT``.

``report.json`` holds the plan's ``data_path`` and ``config_sha256`` hashes it,
so the corpus is written as the relative ``corpus.csv`` and read from the run's
own working directory.

A change that alters these outputs on purpose prints the new table with

    PYTHONPATH=src python tests/test_output_digests.py

pastes it over the one below, and says in CHANGES.md which files and seeds
changed and why.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

import pytest

from helpers import CappedBackend, bench_modules
from tagcraft import (
    Backend,
    DatasetKind,
    ExperimentPlan,
    MockBackend,
    RefinementConfig,
    run_experiment,
)
from tagcraft.experiment import persist_result

OUTPUT_FILES = ("report.json", "predictions.jsonl", "taxonomy.json")
SEEDS = (0, 1, 2)

# -- digest table (regenerate with the command in the module docstring) ------------
EXPERIMENT_DIGESTS = {
    0: {
        "report.json": "0e322a05eea73ccb90c20160957f91496c834a02bc16bd61a5f9a120b12c0c62",
        "predictions.jsonl": "0e7dfc2319f580daf1a159b8d1d6b6853a56dcc7d75649a9b17b3360c82c100f",
        "taxonomy.json": "93b1adc775c73ff00f0554f75f211a1400d9b1620afa7d4223e9eedb98e7b2a2",
    },
    1: {
        "report.json": "f27b859592a54b1bc54f65fc1f264c543900841fa3e0e8fc351222559c9aaf0d",
        "predictions.jsonl": "0c02ffae1d57b40e1a1feaf594c6af878b98aefe8ed0899f3d6c43f940e33620",
        "taxonomy.json": "5f378b1f0f802b8a9a7c4d5617063fdb572c9028d61b0bd00342c64799e99b26",
    },
    2: {
        "report.json": "876607d321895500522648e9d49ac094e2ac8f67abe23d7fc72031d52eb8a299",
        "predictions.jsonl": "ebaee419ef7bb1962e36622d98857c1d028ad170cb7d70d3ae513184ff3ad31d",
        "taxonomy.json": "ceb41c9a1b7d404d73feaa22fbbf53e58161f46aab732c6b2fba55ef7428fd05",
    },
}
GROWTH_FINGERPRINT = "ed1683bf8147105dc10561aea574253446b10551c601e0382a5d9f32ed214716"
# -- end of digest table -------------------------------------------------------------


@pytest.fixture(scope="module")
def bench():
    """The bench's ``corpus`` and ``workloads`` modules (see bench_modules)."""
    with bench_modules("corpus", "workloads") as modules:
        yield modules


def experiment_digests(corpus_module, seed: int, backend: Backend) -> dict[str, str]:
    """Run the bench experiment in the current working directory and return
    the sha256 of each output file."""
    corpus = corpus_module.confusable_corpus(14, 60, seed)
    corpus_module.write_generic_csv(corpus, Path("corpus.csv"))
    plan = ExperimentPlan(
        dataset=DatasetKind.GENERIC_CSV,
        data_path="corpus.csv",
        seen_labels=corpus.labels[:-1],
        unseen_labels=corpus.labels[-1:],
        n_bootstrap=10,
        m_validate=10,
        test_per_class=40,
        seed=seed,
    )
    config = RefinementConfig(
        n_bootstrap=10, m_validate=10, max_iterations=2, accuracy_threshold=0.95, seed=seed
    )
    persist_result(run_experiment(plan, backend, config), "out")
    return {
        name: hashlib.sha256((Path("out") / name).read_bytes()).hexdigest()
        for name in OUTPUT_FILES
    }


def growth_fingerprint(workloads_module, workdir: Path) -> str:
    """The growth workload's output fingerprint on seed 0."""
    workload = workloads_module.GrowTopicsK14K50()
    workload.setup(0, workdir)
    try:
        outcome = workload.run()
    finally:
        workload.close()
    assert outcome.problems == []
    return outcome.fingerprint


@pytest.mark.parametrize("seed", SEEDS)
def test_experiment_outputs_match_the_digest_table(bench, seed, tmp_path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    assert experiment_digests(bench[0], seed, MockBackend(seed)) == EXPERIMENT_DIGESTS[seed]


def test_experiment_outputs_are_the_same_at_a_concurrency_cap_of_1(
    bench, tmp_path, monkeypatch
) -> None:
    monkeypatch.chdir(tmp_path)
    serial = CappedBackend(MockBackend(0), max_concurrency=1)
    assert experiment_digests(bench[0], 0, serial) == EXPERIMENT_DIGESTS[0]


def test_growth_outputs_match_the_digest_table(bench, tmp_path) -> None:
    assert growth_fingerprint(bench[1], tmp_path) == GROWTH_FINGERPRINT


def main() -> None:
    """Print the current digest table in the form the module declares it."""
    home = os.getcwd()
    with bench_modules("corpus", "workloads") as (corpus_module, workloads_module):
        with tempfile.TemporaryDirectory() as workdir:
            os.chdir(workdir)
            try:
                table = {
                    seed: experiment_digests(corpus_module, seed, MockBackend(seed))
                    for seed in SEEDS
                }
                growth = growth_fingerprint(workloads_module, Path(workdir))
            finally:
                os.chdir(home)
    print("EXPERIMENT_DIGESTS = {")
    for seed, digests in table.items():
        print(f"    {seed}: {{")
        for name, digest in digests.items():
            print(f'        "{name}": "{digest}",')
        print("    },")
    print("}")
    print(f'GROWTH_FINGERPRINT = "{growth}"')


if __name__ == "__main__":
    main()
