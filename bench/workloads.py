"""The benchmark's workloads. Each is a closed loop: one caller in one process
runs the measured operation again and again; the only concurrency is
tagcraft's own (the classify_batch pool and the HttpBackend semaphore).

A workload sets up its inputs from the seed, then ``run`` performs one
measured operation and returns an Outcome with its wall time, the backend
calls it made, accuracy counts and a fingerprint of its outputs.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
import urllib.request
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import tagcraft
from tagcraft import (
    ClassificationFailure,
    DatasetKind,
    Document,
    EvalPhase,
    ExperimentPlan,
    HttpBackend,
    MockBackend,
    RefinementConfig,
    SamplePlan,
    SamplingStrategy,
    ScoringPath,
    TopicDescriptor,
)
from tagcraft.errors import PromptBudgetError
from tagcraft.experiment import result_to_dict
from tagcraft.model import name_key, taxonomy_to_dict

from corpus import confusable_corpus, write_generic_csv
from counting import CallRecord, CountingBackend
from fakellm import RATE_LIMIT_WORD, SERVER_ERROR_WORD

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Outcome:
    wall_s: float
    docs: int  # documents classified, validation and evaluation
    correct: int  # accuracy over every attempted evaluation document
    total: int
    seen_correct: int  # same, on the experiment's seen classes in phase 1
    seen_total: int
    failed_docs: int
    records: list[CallRecord]
    fingerprint: str
    layer: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        """Documents classified plus stage completions requested."""
        return self.docs + sum(r.kind == "complete" for r in self.records)

    @property
    def failed(self) -> int:
        return self.failed_docs + sum(r.kind == "complete" and not r.ok for r in self.records)


def _fingerprint(data: object) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def _score(items, docs: list[Document], names: dict[str, str]) -> tuple[list, int, int]:
    """Translate predictions back to dataset labels. Returns the predictions,
    the correct count with failures counted wrong, and the failure count."""
    inverse = {name_key(name): label for label, name in names.items()}
    predictions = []
    correct = failed = 0
    for doc, item in zip(docs, items):
        if isinstance(item, ClassificationFailure):
            predicted = None
            failed += 1
        else:
            predicted = inverse.get(name_key(item.predicted), item.predicted)
        predictions.append([doc.id, predicted])
        correct += predicted == doc.gold_label
    return predictions, correct, failed


class Workload:
    name: str
    backend: CountingBackend
    warmup_runs = 0  # untimed operations after set-up, checked like the rest

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def run(self) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass


class ExperimentK14Latency(Workload):
    """Full run_experiment on a confusable 14-class corpus (13 seen, 1 unseen)
    with a fixed sleep per backend call, so wall time is set by serial
    completions and the concurrency cap rather than by CPU."""

    name = "experiment-k14-latency"
    N_CLASSES = 14
    N_BOOTSTRAP = 10
    M_VALIDATE = 10
    TEST_PER_CLASS = 40
    MAX_ITERATIONS = 2
    # Every confused category stays below this, so the number of refine
    # completions, and with it the wall time, changes little from seed to seed.
    ACCURACY_THRESHOLD = 0.95
    COMPLETE_LATENCY = 0.100
    SCORE_LATENCY = 0.010

    def setup(self, seed: int, workdir: Path) -> None:
        self._tmp = tempfile.TemporaryDirectory(dir=workdir)
        per_class = self.N_BOOTSTRAP + self.M_VALIDATE + self.TEST_PER_CLASS
        corpus = confusable_corpus(self.N_CLASSES, per_class, seed)
        path = write_generic_csv(corpus, Path(self._tmp.name) / "corpus.csv")
        self.labels = corpus.labels
        self.plan = ExperimentPlan(
            dataset=DatasetKind.GENERIC_CSV,
            data_path=str(path),
            seen_labels=corpus.labels[:-1],
            unseen_labels=corpus.labels[-1:],
            n_bootstrap=self.N_BOOTSTRAP,
            m_validate=self.M_VALIDATE,
            test_per_class=self.TEST_PER_CLASS,
            seed=seed,
        )
        self.config = RefinementConfig(
            n_bootstrap=self.N_BOOTSTRAP,
            m_validate=self.M_VALIDATE,
            max_iterations=self.MAX_ITERATIONS,
            accuracy_threshold=self.ACCURACY_THRESHOLD,
            seed=seed,
        )
        self.backend = CountingBackend(MockBackend(seed), self.COMPLETE_LATENCY, self.SCORE_LATENCY)

    def run(self) -> Outcome:
        start = perf_counter()
        result = tagcraft.run_experiment(self.plan, self.backend, self.config)
        wall = perf_counter() - start
        records = self.backend.take_records()

        n_seen = len(self.plan.seen_labels)
        phase1 = [p for p in result.predictions if p.phase is EvalPhase.SEEN_ONLY]
        phase2 = [p for p in result.predictions if p.phase is EvalPhase.AFTER_UNSEEN]
        refinement = result.refinement
        docs = (
            refinement.iterations_run * n_seen * self.M_VALIDATE
            + sum(r.n_documents + r.n_failed for r in (result.phase1, result.phase2))
        )
        refined = sum(len(record.refined) for record in refinement.per_iteration)
        adapted = sum(len(record.adapted) for record in refinement.per_iteration)
        problems = []
        if refinement.iterations_run < 2 or not refined or not adapted:
            problems.append(
                f"refinement degenerated: {refinement.iterations_run} iterations, "
                f"{refined} refined, {adapted} adapted (need >= 2, >= 1, >= 1)"
            )
        predictions = [[p.document_id, p.gold, p.predicted, p.phase.value] for p in result.predictions]
        return Outcome(
            wall_s=wall,
            docs=docs,
            correct=sum(p.gold == p.predicted for p in phase2),
            total=len(self.labels) * self.TEST_PER_CLASS,
            seen_correct=sum(p.gold == p.predicted for p in phase1),
            seen_total=n_seen * self.TEST_PER_CLASS,
            failed_docs=result.phase1.n_failed + result.phase2.n_failed,
            records=records,
            fingerprint=_fingerprint({"report": result_to_dict(result), "predictions": predictions}),
            layer={
                "refine.iterations": refinement.iterations_run,
                "refine.refined": refined,
                "refine.adapted": adapted,
            },
            problems=problems,
        )

    def close(self) -> None:
        self._tmp.cleanup()


class ClassifyHttpK50(Workload):
    """Repeated classify_batch of a fixed document set against a fixed K = 50
    taxonomy, through the unmodified HttpBackend to the fake chat-completions
    server in a child process."""

    name = "classify-http-k50"
    warmup_runs = 1  # fills the fake server's reply cache
    N_CLASSES = 50
    N_BOOTSTRAP = 10
    DOCS_PER_CLASS = 12
    # Positions of the documents the server answers 429 / 503 once per pass.
    FAULTS = ((100, RATE_LIMIT_WORD), (400, SERVER_ERROR_WORD))

    def setup(self, seed: int, workdir: Path) -> None:
        corpus = confusable_corpus(self.N_CLASSES, self.N_BOOTSTRAP + self.DOCS_PER_CLASS, seed)
        train = [d for label in corpus.labels for d in corpus.documents[label][: self.N_BOOTSTRAP]]
        docs = [
            corpus.documents[label][self.N_BOOTSTRAP + k]
            for k in range(self.DOCS_PER_CLASS)
            for label in corpus.labels
        ]
        for position, word in self.FAULTS:
            docs[position] = replace(docs[position], text=f"{docs[position].text} {word}")
        self.docs = docs
        mock = MockBackend(seed)
        plan = SamplePlan(SamplingStrategy.SEEDED_RANDOM, self.N_BOOTSTRAP, seed)
        taxonomy, self.names = tagcraft.bootstrap_taxonomy(train, corpus.labels, plan, mock)
        self.taxonomy = tagcraft.contrast_taxonomy(taxonomy, mock)

        self.server = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "fakellm.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            port = json.loads(self.server.stdout.readline())["port"]
            self.base_url = f"http://127.0.0.1:{port}"
            http = HttpBackend(base_url=self.base_url, api_key="", model="fake-llm")
            self.backend = CountingBackend(http)
        except BaseException:
            self.close()
            raise

    def server_stats(self) -> dict:
        with urllib.request.urlopen(f"{self.base_url}/stats", timeout=30) as response:
            return json.loads(response.read())

    def run(self) -> Outcome:
        before = self.server_stats()
        start = perf_counter()
        items = tagcraft.classify_batch(self.docs, self.taxonomy, self.backend)
        wall = perf_counter() - start
        records = self.backend.take_records()
        after = self.server_stats()
        delta = {key: after[key] - before[key] for key in after}

        predictions, correct, failed = _score(items, self.docs, self.names)
        self.last_items = items
        problems = []
        not_logprob = sum(
            not isinstance(item, ClassificationFailure) and item.scores.path is not ScoringPath.LOG_PROB
            for item in items
        )
        if not_logprob:
            problems.append(f"{not_logprob} documents were not scored from logprobs")
        retries = delta["requests"] - len(records)
        if retries != len(self.FAULTS) or delta["status_429"] != 1 or delta["status_5xx"] != 1:
            problems.append(f"expected one 429 and one 503 retried once each, server saw {delta}")
        return Outcome(
            wall_s=wall,
            docs=len(self.docs),
            correct=correct,
            total=len(self.docs),
            seen_correct=correct,
            seen_total=len(self.docs),
            failed_docs=failed,
            records=records,
            fingerprint=_fingerprint(predictions),
            layer={
                "http.requests": delta["requests"],
                "http.retries": retries,
                "http.status_429": delta["status_429"],
                "http.status_5xx": delta["status_5xx"],
                "server.busy_s": delta["busy_s"],
            },
            problems=problems,
        )

    def agreement(self) -> float:
        """Share of documents whose HTTP prediction equals MockBackend's
        direct argmax on the same prompt."""
        mock = MockBackend()
        same = 0
        for doc, item in zip(self.docs, self.last_items):
            if not isinstance(item, ClassificationFailure):
                same += tagcraft.classify(doc, self.taxonomy, mock).predicted == item.predicted
        return same / len(self.docs)

    def close(self) -> None:
        self.server.stdin.close()
        try:
            self.server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()


class GrowTopicsK14K50(Workload):
    """Bootstrap and contrast K = 14 in set-up, then add_topic each further
    class up to K = 50, classifying a fixed-size slice of documents from the
    classes present after each add. Plain mock, no injected latency."""

    name = "grow-topics-k14-k50"
    N_CLASSES = 50
    N_SETUP = 14
    N_BOOTSTRAP = 10
    TEST_PER_CLASS = 40
    SLICE = 24

    def setup(self, seed: int, workdir: Path) -> None:
        per_class = self.N_BOOTSTRAP + self.TEST_PER_CLASS
        corpus = confusable_corpus(self.N_CLASSES, per_class, seed)
        initial = corpus.labels[: self.N_SETUP]
        self.new_labels = corpus.labels[self.N_SETUP :]
        self.exemplars = {
            label: list(corpus.documents[label][: self.N_BOOTSTRAP]) for label in self.new_labels
        }
        # Slice k takes documents round-robin over the classes present after
        # the k-th add, never a bootstrap or exemplar document.
        self.slices = []
        for step in range(len(self.new_labels)):
            present = corpus.labels[: self.N_SETUP + step + 1]
            self.slices.append(
                [
                    corpus.documents[present[k % len(present)]][
                        self.N_BOOTSTRAP + (k // len(present)) % self.TEST_PER_CLASS
                    ]
                    for k in range(step * self.SLICE, (step + 1) * self.SLICE)
                ]
            )
        self.backend = CountingBackend(MockBackend(seed))
        train = [d for label in initial for d in corpus.documents[label][: self.N_BOOTSTRAP]]
        plan = SamplePlan(SamplingStrategy.SEEDED_RANDOM, self.N_BOOTSTRAP, seed)
        taxonomy, self.names = tagcraft.bootstrap_taxonomy(train, initial, plan, self.backend)
        self.taxonomy = tagcraft.contrast_taxonomy(taxonomy, self.backend)
        self.backend.take_records()

    def run(self) -> Outcome:
        names = dict(self.names)
        taxonomy = self.taxonomy
        batches = []
        start = perf_counter()
        for label, docs in zip(self.new_labels, self.slices):
            rough = TopicDescriptor(label, f"Documents about {label}.")
            taxonomy = tagcraft.add_topic(rough, taxonomy, self.backend, sample_docs=self.exemplars[label])
            names[label] = label
            batches.append(tagcraft.classify_batch(docs, taxonomy, self.backend))
        wall = perf_counter() - start
        records = self.backend.take_records()

        docs = [doc for batch in self.slices for doc in batch]
        items = [item for batch in batches for item in batch]
        predictions, correct, failed = _score(items, docs, names)
        problems = []
        if len(taxonomy) != self.N_CLASSES:
            problems.append(f"taxonomy ended with {len(taxonomy)} categories, expected {self.N_CLASSES}")
        over_budget = sum(
            isinstance(item, ClassificationFailure) and isinstance(item.exception, PromptBudgetError)
            for item in items
        )
        if over_budget:
            problems.append(f"{over_budget} classifications exceeded the prompt budget")
        return Outcome(
            wall_s=wall,
            docs=len(docs),
            correct=correct,
            total=len(docs),
            seen_correct=correct,
            seen_total=len(docs),
            failed_docs=failed,
            records=records,
            fingerprint=_fingerprint({"taxonomy": taxonomy_to_dict(taxonomy), "predictions": predictions}),
            problems=problems,
        )


WORKLOADS = {w.name: w for w in (ExperimentK14Latency, ClassifyHttpK50, GrowTopicsK14K50)}
