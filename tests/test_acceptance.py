"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; criterion 8 (real backend) is skipped unless the LLM_* environment
variables and an AG News CSV are configured.
"""

from __future__ import annotations

import json
import os
import random
import time

import pytest
from click.testing import CliRunner

from helpers import (
    DESCRIPTOR_FIXTURES_BAD,
    DESCRIPTOR_FIXTURES_OK,
    CappedBackend,
    ScriptedAccuracyBackend,
    StubBackend,
    class_vocab,
    keyword_documents,
    make_taxonomy,
    scripted_docs,
    validation_outcome,
    write_generic_csv,
    write_plan,
)
from tagcraft import (
    ConfusionPair,
    Document,
    MockBackend,
    RefinementConfig,
    Stage,
    StopReason,
    TopicDescriptor,
    add_topic,
    adapt_pair,
    classify,
    contrast_taxonomy,
    extract_descriptor,
    load_taxonomy,
    mine_confusion_pairs,
    refine_description,
    refine_loop,
    save_taxonomy,
    taxonomy_upsert,
)
from tagcraft.cli import main as cli_main
from tagcraft.datasets import AGNEWS_LABELS
from tagcraft.errors import ContrastDroppedAllError, DescriptorParseError
from tagcraft.experiment import (
    DatasetKind,
    ExperimentPlan,
    persist_result,
    result_to_dict,
    run_experiment,
)
from tagcraft.model import name_key


def _passed(criterion: int, summary: str) -> None:
    print(f"[criterion {criterion}] PASS - {summary}")


def test_criterion_1_loop_termination_and_stop_correctness() -> None:
    rng = random.Random(1234)
    started = time.perf_counter()
    trials = 120
    for _ in range(trials):
        n_labels = rng.randint(2, 4)
        labels = [f"L{chr(65 + i)}" for i in range(n_labels)]
        m = rng.randint(3, 6)
        max_iterations = rng.randint(1, 6)
        threshold = rng.uniform(0.05, 1.0)
        schedule = [
            {label: rng.randint(0, m) for label in labels} for _ in range(max_iterations)
        ]
        backend = ScriptedAccuracyBackend(schedule)
        taxonomy = make_taxonomy([(label, f"about {label}") for label in labels])
        docs = scripted_docs(labels, m)
        config = RefinementConfig(
            m_validate=m,
            accuracy_threshold=threshold,
            max_iterations=max_iterations,
            seed=1,
            min_confusion_count=1,
            top_k_pairs=2,
        )
        _, report = refine_loop(taxonomy, docs, config, CappedBackend(backend, 2))

        # independent simulation of the stopping rule
        expected_stop = StopReason.MAX_ITERATIONS
        expected_iterations = max_iterations
        for t in range(max_iterations):
            minimum = min(schedule[t][label] / m for label in labels)
            if minimum >= threshold:
                expected_stop = StopReason.THRESHOLD_MET
                expected_iterations = t + 1
                break
        assert report.iterations_run == expected_iterations <= max_iterations
        assert report.stop_reason is expected_stop
        last = report.per_iteration[-1].accuracy
        assert (report.stop_reason is StopReason.THRESHOLD_MET) == (
            min(last.values()) >= threshold
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    _passed(1, f"{trials} scripted sequences, stop rule exact, {elapsed:.2f}s")


def test_criterion_2_argmax_matches_linear_scan_oracle() -> None:
    rng = random.Random(4321)
    trials = 1000
    for _ in range(trials):
        n = rng.randint(2, 14)
        names = [f"C{i}" for i in range(n)]
        if rng.random() < 0.5:
            values = [rng.choice([-3.0, -1.0, 0.0, 1.0]) for _ in range(n)]  # forced ties
        else:
            values = [rng.uniform(-5.0, 5.0) for _ in range(n)]
        scores = dict(zip(names, values))
        taxonomy = make_taxonomy([(name, "d") for name in names])
        backend = StubBackend(score_fn=lambda request, candidates, s=scores: dict(s))
        result = classify(Document(id="x", text="t"), taxonomy, backend)
        oracle = names[0]
        for name in names[1:]:
            if scores[name] > scores[oracle]:
                oracle = name
        assert result.predicted == oracle
    _passed(2, f"{trials} random score maps, 100% oracle agreement")


def test_criterion_3_confusion_mining_matches_bruteforce() -> None:
    rng = random.Random(2468)
    trials = 200
    for _ in range(trials):
        size = rng.randint(2, 10)
        labels = [f"K{i}" for i in range(size)]
        matrix = {}
        for gold in labels:
            for predicted in labels:
                count = rng.randrange(0, 6)
                if count:
                    matrix[(gold, predicted)] = count
        min_count = rng.randint(1, 4)
        top_k = rng.randint(1, 6)
        # independent oracle: repeated best-cell extraction
        remaining = [
            (g, p, c) for (g, p), c in matrix.items() if g != p and c >= min_count
        ]
        expected: list[ConfusionPair] = []
        while remaining and len(expected) < top_k:
            best = remaining[0]
            for cell in remaining[1:]:
                if cell[2] > best[2] or (
                    cell[2] == best[2] and (cell[0], cell[1]) < (best[0], best[1])
                ):
                    best = cell
            expected.append(ConfusionPair(*best))
            remaining.remove(best)
        assert mine_confusion_pairs(matrix, min_count, top_k) == expected
    _passed(3, f"{trials} random matrices up to 10x10, 100% oracle agreement")


def test_criterion_4_extraction_corpus_and_fuzz() -> None:
    assert len(DESCRIPTOR_FIXTURES_OK) + len(DESCRIPTOR_FIXTURES_BAD) >= 20
    for text, name, description in DESCRIPTOR_FIXTURES_OK:
        descriptor = extract_descriptor(text)
        assert (descriptor.topic_name, descriptor.topic_description) == (name, description)
    for text in DESCRIPTOR_FIXTURES_BAD:
        with pytest.raises(DescriptorParseError):
            extract_descriptor(text)

    rng = random.Random(777)
    soup = '{}[]":,\\ \n\ttopic_name topic_description abcdefé☃ß'
    cases = 10_000
    for i in range(cases):
        if i % 2:
            text = "".join(rng.choice(soup) for _ in range(rng.randrange(0, 160)))
        else:
            text = rng.randbytes(rng.randrange(0, 160)).decode("latin-1")
        try:
            extract_descriptor(text)
        except DescriptorParseError:
            pass
    _passed(4, f"{len(DESCRIPTOR_FIXTURES_OK)} good + {len(DESCRIPTOR_FIXTURES_BAD)} bad fixtures, {cases}-case fuzz, zero panics")


def _benchmark_plan(tmp_path) -> ExperimentPlan:
    docs = keyword_documents(class_vocab(4), per_class=160, seed=41)
    corpus = write_generic_csv(docs, tmp_path / "bench.csv")
    return ExperimentPlan(
        dataset=DatasetKind.GENERIC_CSV,
        data_path=str(corpus),
        seen_labels=("ClassA", "ClassB", "ClassC"),
        unseen_labels=("ClassD",),
        n_bootstrap=20,
        m_validate=25,
        test_per_class=100,
        seed=11,
    )


def test_criterion_5_end_to_end_synthetic_benchmark(tmp_path) -> None:
    plan = _benchmark_plan(tmp_path)
    config = RefinementConfig(seed=11)
    started = time.perf_counter()
    result = run_experiment(plan, MockBackend(seed=3), config)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"benchmark took {elapsed:.1f}s"
    assert result.phase1.overall_accuracy >= 0.95
    assert abs(result.accuracy_shift) <= 0.05
    assert result.phase2.per_class_accuracy["ClassD"] >= 0.90
    # fully deterministic given the seeds
    again = run_experiment(plan, MockBackend(seed=3), config)
    assert result_to_dict(again) == result_to_dict(result)
    _passed(
        5,
        f"seen {result.phase1.overall_accuracy:.3f}, shift {result.accuracy_shift:+.3f}, "
        f"unseen {result.phase2.per_class_accuracy['ClassD']:.3f}, {elapsed:.1f}s, deterministic",
    )


def _random_descriptor_reply(rng: random.Random, names: list[str]) -> str:
    objects = []
    for name in names:
        roll = rng.random()
        if roll < 0.45:
            kept = name if rng.random() < 0.5 else name.upper()
            objects.append({"topic_name": kept, "topic_description": f"rewrite {rng.random():.3f}"})
        elif roll < 0.65:
            objects.append(
                {"topic_name": f"Rename_{rng.randrange(1000)}", "topic_description": "stray"}
            )
        # otherwise drop the category from the reply
    if rng.random() < 0.3:
        objects.append({"topic_name": f"Extra_{rng.randrange(1000)}", "topic_description": "extra"})
    if not objects or rng.random() < 0.1:
        return "no json here at all"
    if rng.random() < 0.5:
        return json.dumps(objects)
    return "\n\n".join(json.dumps(obj) for obj in objects)


def test_criterion_6_name_set_invariance_under_random_replies() -> None:
    rng = random.Random(99)
    traces = 220
    for _ in range(traces):
        n = rng.randint(2, 5)
        names = [f"Cat{i}" for i in range(n)]
        taxonomy = make_taxonomy([(name, f"desc {name}") for name in names])
        before = {name_key(name) for name in taxonomy.names()}
        kind = rng.choice(["contrast", "refine", "adapt", "add"])
        if kind == "contrast":
            backend = StubBackend(completions=[_random_descriptor_reply(rng, names)])
            try:
                taxonomy = contrast_taxonomy(taxonomy, backend)
            except (ContrastDroppedAllError, DescriptorParseError):
                pass
            expected = before
        elif kind == "refine":
            reply = json.dumps(
                {"topic_name": f"Rogue_{rng.randrange(1000)}", "topic_description": "new"}
            )
            target = taxonomy.categories[rng.randrange(n)]
            descriptor = refine_description(
                target,
                [],
                [Document(id="w", text="x")],
                StubBackend(completions=[reply]),
            )
            taxonomy = taxonomy_upsert(taxonomy, descriptor, Stage.REFINE, 1)
            expected = before
        elif kind == "adapt":
            correct, wrong = rng.sample(names, 2)
            outcome = validation_outcome(
                [
                    (correct, Document(id="w", text="x"), wrong),
                    (correct, Document(id="r", text="y"), correct),
                ]
            )
            reply = json.dumps(
                {"topic_name": f"Rogue_{rng.randrange(1000)}", "topic_description": "new"}
            )
            descriptor = adapt_pair(
                ConfusionPair(correct, wrong, 2),
                outcome,
                taxonomy,
                StubBackend(completions=[reply]),
            )
            taxonomy = taxonomy_upsert(taxonomy, descriptor, Stage.ADAPT, 1)
            expected = before
        else:
            new_name = f"Fresh_{rng.randrange(1000)}"
            reply = json.dumps(
                {"topic_name": f"Rogue_{rng.randrange(1000)}", "topic_description": "enriched"}
            )
            taxonomy = add_topic(
                TopicDescriptor(new_name, "rough"),
                taxonomy,
                StubBackend(completions=[reply]),
                run_contrast=False,
            )
            expected = before | {name_key(new_name)}
        assert {name_key(name) for name in taxonomy.names()} == expected
    _passed(6, f"{traces} random traces, category name set invariant")


def test_criterion_7_persistence_and_byte_identical_runs(tmp_path) -> None:
    rng = random.Random(31)
    stages = list(Stage)
    for i in range(100):
        taxonomy = make_taxonomy([])
        for j in range(rng.randint(0, 6)):
            name = f"Cat_{i}_{j}"
            for depth in range(rng.randint(1, 3)):
                descriptor = TopicDescriptor(
                    name if depth == 0 else rng.choice([name, name.lower()]),
                    f"text {rng.random():.6f} café {rng.randrange(10**6)}",
                )
                taxonomy = taxonomy_upsert(
                    taxonomy, descriptor, rng.choice(stages), depth
                )
        path = tmp_path / f"tax_{i}.json"
        save_taxonomy(taxonomy, path)
        assert load_taxonomy(path) == taxonomy

    docs = keyword_documents(class_vocab(3), per_class=40, seed=53)
    corpus = write_generic_csv(docs, tmp_path / "corpus.csv")
    plan = write_plan(
        tmp_path / "plan.json", corpus,
        seen=["ClassA", "ClassB"], unseen=["ClassC"],
        n_bootstrap=8, m_validate=8, test_per_class=20, seed=13,
    )
    runner = CliRunner()
    outputs = []
    for run_dir in ("one", "two"):
        result = runner.invoke(
            cli_main, ["run", "--plan", str(plan), "--out", str(tmp_path / run_dir)]
        )
        assert result.exit_code == 0, result.output
        outputs.append(
            {
                name: (tmp_path / run_dir / name).read_bytes()
                for name in ("report.json", "predictions.jsonl", "taxonomy.json")
            }
        )
    assert outputs[0] == outputs[1]
    _passed(7, "100 random taxonomies round-trip; run --plan twice byte-identical")


_REAL_BACKEND_READY = all(
    os.environ.get(var) for var in ("LLM_BASE_URL", "LLM_MODEL")
) and os.environ.get("TAGCRAFT_AGNEWS_CSV")


@pytest.mark.skipif(
    not _REAL_BACKEND_READY,
    reason="manual smoke: set LLM_BASE_URL, LLM_MODEL (and LLM_API_KEY) plus "
    "TAGCRAFT_AGNEWS_CSV pointing at the AG News training CSV",
)
def test_criterion_8_real_backend_smoke(tmp_path) -> None:
    from tagcraft import HttpBackend

    plan = ExperimentPlan(
        DatasetKind.AGNEWS,
        os.environ["TAGCRAFT_AGNEWS_CSV"],
        seen_labels=AGNEWS_LABELS[:3],
        unseen_labels=AGNEWS_LABELS[3:],
        n_bootstrap=20,
        m_validate=25,
        test_per_class=100,
        seed=7,
    )
    config = RefinementConfig(seed=7)
    result = run_experiment(plan, HttpBackend(), config)
    report_path = persist_result(result, tmp_path / "real")
    assert report_path.exists()
    # Informational only; model-dependent, never gating.
    print(
        f"[criterion 8] report written: phase1 {result.phase1.overall_accuracy:.3f}, "
        f"phase2 {result.phase2.overall_accuracy:.3f}, shift {result.accuracy_shift:+.3f}"
    )
