"""Stage fan-out: bootstrap, contrast and the refine / adapt waves overlap
their completions under concurrency_cap, yet apply results, suffix names and
log events in input order, so outputs match a run at concurrency_cap=1.
"""

from __future__ import annotations

import io
import json
import sys
import threading
import time

import pytest

from helpers import (
    ScriptedAccuracyBackend,
    StubBackend,
    make_taxonomy,
    paired_documents,
    scripted_docs,
    write_generic_csv,
)
from tagcraft import (
    Document,
    MockBackend,
    RefinementConfig,
    SamplePlan,
    SamplingStrategy,
    Stage,
    bootstrap_taxonomy,
    contrast_taxonomy,
    refine_loop,
)
from tagcraft.backends.base import Backend
from tagcraft.errors import RefinementAbortedError
from tagcraft.experiment import DatasetKind, ExperimentPlan, persist_result, run_experiment
from tagcraft.fanout import ordered_map
from tagcraft.runlog import RunLog

# Long enough for a loaded machine, short enough that a serial run fails fast.
WAIT_S = 5.0


class BarrierBackend(Backend):
    """Delegates to ``inner``, but every completion first waits until
    ``parties`` completions are in flight at once; a serial caller breaks
    the barrier with BrokenBarrierError."""

    def __init__(self, inner: Backend, parties: int = 2):
        self.inner = inner
        self.barrier = threading.Barrier(parties, timeout=WAIT_S)

    def capabilities(self):
        return self.inner.capabilities()

    def complete(self, request):
        self.barrier.wait()
        return self.inner.complete(request)

    def score_labels(self, request, candidates):
        return self.inner.score_labels(request, candidates)


class InFlightBackend(Backend):
    """Delegates to ``inner`` after a short sleep and records the most
    calls of any kind that were ever in flight together."""

    def __init__(self, inner: Backend, latency: float = 0.005):
        self.inner = inner
        self.latency = latency
        self._lock = threading.Lock()
        self._level = 0
        self.peak = 0

    def capabilities(self):
        return self.inner.capabilities()

    def _call(self, fn):
        with self._lock:
            self._level += 1
            self.peak = max(self.peak, self._level)
        try:
            time.sleep(self.latency)
            return fn()
        finally:
            with self._lock:
                self._level -= 1

    def complete(self, request):
        return self._call(lambda: self.inner.complete(request))

    def score_labels(self, request, candidates):
        return self._call(lambda: self.inner.score_labels(request, candidates))


def _labeled(texts: dict[str, str]) -> list[Document]:
    return [Document(id=label, text=text, gold_label=label) for label, text in texts.items()]


def _loop_config(**kwargs) -> RefinementConfig:
    defaults = dict(m_validate=20, accuracy_threshold=0.8, max_iterations=1)
    defaults.update(kwargs)
    return RefinementConfig(**defaults)


def _events(buffer: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


# -- ordered_map --------------------------------------------------------------------


def test_ordered_map_returns_input_order_whatever_the_finish_order() -> None:
    def slow_first(n: int) -> int:
        time.sleep(0.02 * (3 - n))
        return n * 10

    assert ordered_map(slow_first, [0, 1, 2], 3) == [0, 10, 20]


def test_ordered_map_raises_the_first_failure_in_input_order() -> None:
    def fail_two_and_three(n: int) -> int:
        if n == 3:
            raise KeyError(n)
        if n == 2:
            time.sleep(0.02)  # fails after item 3 did
            raise ValueError(n)
        return n

    with pytest.raises(ValueError):
        ordered_map(fail_two_and_three, [0, 1, 2, 3], 4)


def test_ordered_map_reuses_its_helper_threads_across_calls() -> None:
    workers: set[threading.Thread] = set()

    def wait_a_little(n: int) -> int:
        workers.add(threading.current_thread())
        time.sleep(0.01)
        return n

    for _ in range(5):
        assert ordered_map(wait_a_little, range(6), 3) == list(range(6))
    assert threading.current_thread() in workers
    assert len(workers) <= 3


def test_ordered_map_nested_in_a_busy_pool_finishes() -> None:
    def inner_sum(n: int) -> int:
        return sum(ordered_map(lambda m: m, range(n + 3), 2))

    results: list[list[int]] = []
    runner = threading.Thread(
        target=lambda: results.append(ordered_map(inner_sum, range(4), 2)), daemon=True
    )
    runner.start()
    runner.join(WAIT_S)
    assert results == [[3, 6, 10, 15]]


class TornHandle(io.StringIO):
    """A sink whose writes land in two pieces with a thread switch between
    them, as a pipe or socket wrapper may; unguarded writers interleave."""

    def write(self, text: str) -> int:
        half = len(text) // 2
        super().write(text[:half])
        time.sleep(0)
        return half + super().write(text[half:])


def test_run_log_keeps_every_record_whole_under_concurrent_emitters() -> None:
    handle = TornHandle()
    log = RunLog(handle)
    threads_n, per_thread = 16, 100
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:

        def emit_many(worker: int) -> None:
            for i in range(per_thread):
                log.emit("refine", iteration=i, category=f"Cat_{worker}")

        threads = [threading.Thread(target=emit_many, args=(w,)) for w in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    records = _events(handle)
    assert len(records) == threads_n * per_thread
    assert {(r["category"], r["iteration"]) for r in records} == {
        (f"Cat_{w}", i) for w in range(threads_n) for i in range(per_thread)
    }


def test_in_memory_logs_append_in_the_order_the_caller_picks() -> None:
    buffer = io.StringIO()
    log = RunLog(buffer)
    first, second = RunLog.in_memory(), RunLog.in_memory()
    second.emit("adapt", category="B")
    first.emit("refine", category="A")
    first.emit("refine", category="A2")
    log.append(first)
    log.append(second)
    assert [e["category"] for e in _events(buffer)] == ["A", "A2", "B"]


# -- overlap ------------------------------------------------------------------------


def test_bootstrap_completions_overlap() -> None:
    backend = BarrierBackend(MockBackend())
    docs = _labeled({"L1": "aqua1 aqua2 aqua3", "L2": "brick1 brick2 brick3"})
    plan = SamplePlan(SamplingStrategy.FIRST_N, 1)
    taxonomy, _ = bootstrap_taxonomy(docs, ["L1", "L2"], plan, backend)
    assert len(taxonomy) == 2


def test_contrast_batches_overlap() -> None:
    backend = BarrierBackend(MockBackend())
    taxonomy = make_taxonomy([("Alpha", "aqua"), ("Beta", "brick"), ("Gamma", "cedar")])
    result = contrast_taxonomy(taxonomy, backend, batch_size=2)
    assert result.names() == taxonomy.names()
    assert all(c.history[-1].stage is Stage.CONTRAST for c in result.categories)


def test_refine_and_adapt_waves_overlap() -> None:
    # Both categories miss the threshold and confuse each other, so the
    # refine wave and the adapt wave each hold exactly two completions.
    backend = BarrierBackend(ScriptedAccuracyBackend([{"Alpha": 10, "Beta": 10}]))
    taxonomy = make_taxonomy([("Alpha", "a"), ("Beta", "b")])
    docs = scripted_docs(["Alpha", "Beta"], 20)
    _, report = refine_loop(taxonomy, docs, _loop_config(), backend)
    assert report.per_iteration[0].refined == ["Alpha", "Beta"]
    assert [(p.correct, p.wrong) for p in report.per_iteration[0].adapted] == [
        ("Alpha", "Beta"),
        ("Beta", "Alpha"),
    ]


# -- cap ------------------------------------------------------------------------------


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_calls_in_flight_never_exceed_the_cap(tmp_path, cap) -> None:
    path = write_generic_csv(paired_documents(3, 24), tmp_path / "corpus.csv")
    backend = InFlightBackend(MockBackend())
    run_experiment(_paired_plan(path), backend, _paired_config(), concurrency_cap=cap)
    assert backend.peak <= cap
    if cap > 1:
        assert backend.peak > 1  # the cap was reached for, not just respected


# -- collisions -----------------------------------------------------------------------


def test_collision_suffixes_follow_label_order_when_replies_arrive_reversed() -> None:
    second_done = threading.Event()
    finished: list[str] = []

    def reply(request):
        if "first sample" in request.user_text:
            # Hold the first label's reply until the second label's is out.
            if not second_done.wait(WAIT_S):
                raise AssertionError("the second label's completion never ran")
            finished.append("L1")
            return '{"topic_name": "Clone", "topic_description": "from the first label."}'
        finished.append("L2")
        second_done.set()
        return '{"topic_name": "Clone", "topic_description": "from the second label."}'

    backend = StubBackend(completions=[reply])
    docs = _labeled({"L1": "first sample", "L2": "second sample"})
    plan = SamplePlan(SamplingStrategy.FIRST_N, 1)
    taxonomy, mapping = bootstrap_taxonomy(docs, ["L1", "L2"], plan, backend)
    assert mapping == {"L1": "Clone", "L2": "Clone_2"}
    assert taxonomy.get("Clone").descriptor.topic_description == "from the first label."
    assert taxonomy.get("Clone_2").descriptor.topic_description == "from the second label."
    assert finished == ["L2", "L1"]


# -- failure mid-wave -------------------------------------------------------------------


def test_refine_failure_mid_wave_applies_and_logs_only_what_precedes_it() -> None:
    class FailsOnBeta(ScriptedAccuracyBackend):
        def complete(self, request):
            if '"Beta"' in request.user_text:
                raise RuntimeError("backend down for Beta")
            return super().complete(request)

    # Every category misses the threshold; Beta sits between Alpha and Gamma.
    backend = FailsOnBeta([{"Alpha": 10, "Beta": 10, "Gamma": 10}])
    taxonomy = make_taxonomy([("Alpha", "a"), ("Beta", "b"), ("Gamma", "c")])
    docs = scripted_docs(["Alpha", "Beta", "Gamma"], 20)
    buffer = io.StringIO()
    with pytest.raises(RefinementAbortedError) as exc:
        refine_loop(taxonomy, docs, _loop_config(), backend, log=RunLog(buffer))
    assert exc.value.iterations[0].refined == ["Alpha"]
    assert exc.value.iterations[0].adapted == []
    assert isinstance(exc.value.__cause__, RuntimeError)
    events = _events(buffer)
    assert [(e["stage"], e["category"], e["ok"]) for e in events] == [
        ("validate", None, True),
        ("refine", "Alpha", True),
        ("refine", "Beta", False),
    ]
    assert backend.complete_calls == 2  # Alpha and Gamma ran; Gamma's result was dropped


# -- byte identity with a serial run ----------------------------------------------------


def _paired_plan(path) -> ExperimentPlan:
    labels = [f"Pair{p}{side}" for p in range(3) for side in "XY"]
    return ExperimentPlan(
        dataset=DatasetKind.GENERIC_CSV,
        data_path=str(path),
        seen_labels=tuple(labels[:-1]),
        unseen_labels=tuple(labels[-1:]),
        n_bootstrap=6,
        m_validate=8,
        test_per_class=10,
    )


def _paired_config() -> RefinementConfig:
    return RefinementConfig(n_bootstrap=6, m_validate=8, max_iterations=2, accuracy_threshold=0.95)


def test_experiment_outputs_are_byte_identical_to_a_serial_run(tmp_path) -> None:
    path = write_generic_csv(paired_documents(3, 24), tmp_path / "corpus.csv")
    outputs = {}
    for cap in (1, 4):
        log_buffer = io.StringIO()
        result = run_experiment(
            _paired_plan(path),
            MockBackend(),
            _paired_config(),
            concurrency_cap=cap,
            log=RunLog(log_buffer),
        )
        out = tmp_path / f"cap{cap}"
        persist_result(result, out)
        outputs[cap] = {
            name: (out / name).read_bytes()
            for name in ("report.json", "predictions.jsonl", "taxonomy.json")
        }
        outputs[cap]["log"] = [
            {key: value for key, value in event.items() if key != "ts"}
            for event in _events(log_buffer)
        ]
        if cap == 1:
            # The corpus must exercise what the fan-out changes, or the
            # comparison shows nothing.
            names = list(result.label_names.values())
            assert any(name.endswith("_2") for name in names)
            records = result.refinement.per_iteration
            assert max(len(record.refined) for record in records) >= 2
            assert max(len(record.adapted) for record in records) >= 2
    assert outputs[4] == outputs[1]
