"""Stage fan-out: bootstrap, contrast and the refine/adapt wave overlap
their completions up to the backend's max_concurrency, and the unseen-class
add runs beside the phase-1 test of the seen classes, yet results, suffix
names and log events are applied in input order, so outputs match a run at
a cap of 1. Fan-outs nested or run side by side stay within the one cap
together.
"""

from __future__ import annotations

import inspect
import io
import json
import sys
import threading
import time

import pytest

import tagcraft
from helpers import (
    CappedBackend,
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
    load_taxonomy,
    refine_loop,
    revise_topic,
    taxonomy_upsert,
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
        self.level = 0
        self.peak = 0
        self.score_calls = 0

    def capabilities(self):
        return self.inner.capabilities()

    def _call(self, fn):
        with self._lock:
            self.level += 1
            self.peak = max(self.peak, self.level)
        try:
            time.sleep(self.latency)
            return fn()
        finally:
            with self._lock:
                self.level -= 1

    def complete(self, request):
        return self._call(lambda: self.inner.complete(request))

    def score_labels(self, request, candidates):
        with self._lock:
            self.score_calls += 1
        return self._call(lambda: self.inner.score_labels(request, candidates))


class EnrichWaitsForScoring(Backend):
    """Delegates to ``inner``, but the enrich completion of an unseen class
    (its prompt holds the rough "Documents about" text) waits until a score
    call arrives while it waits, which happens only if the seen-class test
    runs beside the add."""

    def __init__(self, inner: Backend):
        self.inner = inner
        self._scored = threading.Condition()
        self._score_calls = 0

    def capabilities(self):
        return self.inner.capabilities()

    def complete(self, request):
        if "Documents about" in request.user_text:
            with self._scored:
                seen = self._score_calls
                if not self._scored.wait_for(lambda: self._score_calls > seen, WAIT_S):
                    raise AssertionError("no score call arrived while the unseen class was added")
        return self.inner.complete(request)

    def score_labels(self, request, candidates):
        time.sleep(0.002)  # keeps the seen-class test running while the add starts
        with self._scored:
            self._score_calls += 1
            self._scored.notify_all()
        return self.inner.score_labels(request, candidates)


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


def test_ordered_map_gives_the_first_item_to_the_calling_thread() -> None:
    caller = threading.current_thread()
    for _ in range(20):
        threads = ordered_map(lambda n: threading.current_thread(), range(4), 4)
        assert threads[0] is caller


@pytest.mark.parametrize("cap", [2, 3])
def test_side_by_side_fan_outs_stay_within_one_cap(cap) -> None:
    lock = threading.Lock()
    level = peak = 0

    def sleepy(n: int) -> int:
        nonlocal level, peak
        with lock:
            level += 1
            peak = max(peak, level)
        time.sleep(0.02)
        with lock:
            level -= 1
        return n

    def job(start: int) -> list[int]:
        return ordered_map(sleepy, range(start, start + 6), cap)

    assert ordered_map(job, [0, 10], cap) == [list(range(6)), list(range(10, 16))]
    assert peak == cap


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
    plan = SamplePlan(SamplingStrategy.SEEDED_RANDOM, 1)
    taxonomy, _ = bootstrap_taxonomy(docs, ["L1", "L2"], plan, backend)
    assert len(taxonomy) == 2


def test_contrast_batches_overlap() -> None:
    backend = BarrierBackend(MockBackend())
    # 13 categories make two contrast batches.
    taxonomy = make_taxonomy([(f"Topic{i}", f"Covers word{i}.") for i in range(13)])
    result = contrast_taxonomy(taxonomy, backend)
    assert result.names() == taxonomy.names()
    assert all(c.history[-1].stage is Stage.CONTRAST for c in result.categories)


def test_unseen_classes_are_added_while_the_seen_classes_are_tested(tmp_path) -> None:
    backend = EnrichWaitsForScoring(MockBackend())
    result = run_experiment(_paired_plan(tmp_path), backend, _paired_config())
    assert result.label_names["Pair3Y"] == "Pair3Y"


def test_refine_and_adapt_waves_overlap() -> None:
    # Alpha misses 10 times toward Beta, a mined pair, and Gamma misses once,
    # so the iteration's one wave holds Gamma's refine and Alpha's adapt.
    backend = BarrierBackend(ScriptedAccuracyBackend([{"Alpha": 10, "Beta": 20, "Gamma": 19}]))
    taxonomy = make_taxonomy([("Alpha", "a"), ("Beta", "b"), ("Gamma", "c")])
    docs = scripted_docs(["Alpha", "Beta", "Gamma"], 20)
    _, report = refine_loop(taxonomy, docs, _loop_config(accuracy_threshold=0.99), backend)
    assert report.per_iteration[0].refined == ["Gamma"]
    assert [(p.correct, p.wrong) for p in report.per_iteration[0].adapted] == [("Alpha", "Beta")]


def test_each_iteration_sends_one_wave_of_refines_and_adapts(monkeypatch) -> None:
    # Per iteration Alpha (a mined pair's correct side) and Gamma (one miss,
    # under min_confusion_count) are below the threshold: one adapt plus one
    # refine, never a refine of Alpha.
    waves = []

    def counting_map(fn, items, max_workers):
        waves.append(len(items))
        return ordered_map(fn, items, max_workers)

    monkeypatch.setattr(tagcraft.refine, "ordered_map", counting_map)
    backend = ScriptedAccuracyBackend([{"Alpha": 10, "Beta": 20, "Gamma": 19}])
    taxonomy = make_taxonomy([("Alpha", "a"), ("Beta", "b"), ("Gamma", "c")])
    docs = scripted_docs(["Alpha", "Beta", "Gamma"], 20)
    config = _loop_config(accuracy_threshold=0.99, max_iterations=3)
    _, report = refine_loop(taxonomy, docs, config, backend)
    expected = []
    for record in report.per_iteration:
        below = {name for name, value in record.accuracy.items() if value < config.accuracy_threshold}
        adapted = {pair.correct for pair in record.adapted}
        assert adapted and below - adapted  # the iteration exercises both kinds
        expected.append(len(below - adapted) + len(record.adapted))
    assert waves == expected == [2, 2, 2]
    assert backend.complete_calls == sum(expected)


# -- cap ------------------------------------------------------------------------------


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_calls_in_flight_never_exceed_the_cap(tmp_path, cap) -> None:
    backend = InFlightBackend(CappedBackend(MockBackend(), cap))
    run_experiment(_paired_plan(tmp_path), backend, _paired_config())
    assert backend.peak <= cap
    if cap > 1:
        assert backend.peak > 1  # the cap was reached for, not just respected


@pytest.mark.parametrize("cap", [1, 2])
def test_revise_topic_contrast_follows_the_backend_cap(cap) -> None:
    # 13 categories make two contrast batches, which overlap only above cap 1.
    taxonomy = make_taxonomy([(f"Topic{i}", f"Covers word{i}.") for i in range(13)])
    backend = InFlightBackend(CappedBackend(MockBackend(), cap))
    result = revise_topic("Topic0", "Documents about word0.", taxonomy, backend, run_contrast=True)
    assert all(c.history[-1].stage is Stage.CONTRAST for c in result.categories)
    assert backend.peak == cap


def test_no_public_callable_takes_a_concurrency_cap() -> None:
    # The backend's capabilities().max_concurrency is the one concurrency
    # setting, and the stage knobs that only ever held one value are
    # constants; the template override is set once per process with
    # use_templates(). None of them may come back as a parameter or config field.
    removed = (
        "concurrency_cap",
        "max_prompt_chars",
        "batch_size",
        "char_budget",
        "adapt_after_loop",
        "templates_dir",
    )
    takers = [
        (name, knob)
        for name in tagcraft.__all__
        if callable(getattr(tagcraft, name))
        for knob in removed
        if knob in inspect.signature(getattr(tagcraft, name)).parameters
    ]
    assert takers == []
    assert list(inspect.signature(tagcraft.render).parameters) == ["template", "bindings"]


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
    plan = SamplePlan(SamplingStrategy.SEEDED_RANDOM, 1)
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
    # No pair is mined, so all three are refined in one wave.
    backend = FailsOnBeta([{"Alpha": 10, "Beta": 10, "Gamma": 10}])
    taxonomy = make_taxonomy([("Alpha", "a"), ("Beta", "b"), ("Gamma", "c")])
    docs = scripted_docs(["Alpha", "Beta", "Gamma"], 20)
    buffer = io.StringIO()
    config = _loop_config(min_confusion_count=21)
    with pytest.raises(RefinementAbortedError) as exc:
        refine_loop(taxonomy, docs, config, backend, log=RunLog(buffer))
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


@pytest.mark.parametrize("cap", [1, 4])
def test_a_failed_add_surfaces_after_the_seen_class_test(tmp_path, monkeypatch, cap) -> None:
    loop_taxonomies = []

    def recording_loop(*args, **kwargs):
        taxonomy, report = refine_loop(*args, **kwargs)
        loop_taxonomies.append(taxonomy)
        return taxonomy, report

    monkeypatch.setattr(tagcraft.experiment, "refine_loop", recording_loop)
    plan = _paired_plan(tmp_path)
    clean = InFlightBackend(MockBackend(), latency=0)
    result = run_experiment(plan, clean, _paired_config())
    scored_before_add = clean.score_calls - len(result.phase2.records)

    failure = RuntimeError("backend down while adding a class")

    class AddFails(InFlightBackend):
        def complete(self, request):
            if "Documents about" in request.user_text:
                raise failure
            return super().complete(request)

    backend = AddFails(CappedBackend(MockBackend(), cap))
    out = tmp_path / "checkpoint"
    with pytest.raises(RuntimeError) as exc:
        run_experiment(plan, backend, _paired_config(), checkpoint_dir=out)
    # Raised once every validation and seen-class test call was done, and
    # none was still in flight.
    assert exc.value is failure
    assert backend.score_calls == scored_before_add
    assert backend.level == 0
    assert load_taxonomy(out / "taxonomy.partial.json") == loop_taxonomies[-1]


# -- byte identity with a serial run ----------------------------------------------------


def _paired_plan(tmp_path) -> ExperimentPlan:
    # Four confusable pairs: with _paired_config the first iteration's wave
    # holds 2 refines and 3 adapts.
    path = write_generic_csv(paired_documents(4, 24), tmp_path / "corpus.csv")
    labels = [f"Pair{p}{side}" for p in range(4) for side in "XY"]
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


def test_refine_loop_upserts_each_refined_and_adapted_category_once(tmp_path, monkeypatch) -> None:
    upserts = []

    def counting_upsert(*args, **kwargs):
        upserts.append(args[2])
        return taxonomy_upsert(*args, **kwargs)

    monkeypatch.setattr(tagcraft.refine, "taxonomy_upsert", counting_upsert)
    result = run_experiment(_paired_plan(tmp_path), MockBackend(), _paired_config())
    records = result.refinement.per_iteration
    refined = sum(len(record.refined) for record in records)
    adapted = sum(len(record.adapted) for record in records)
    assert refined >= 2 and adapted >= 2  # both kinds ran, or the count shows nothing
    assert upserts.count(Stage.REFINE) == refined
    assert upserts.count(Stage.ADAPT) == adapted
    assert len(upserts) == refined + adapted


def test_refine_loop_calls_its_stages_through_module_attributes(tmp_path, monkeypatch) -> None:
    # bench/spans.py times the validate, refine, adapt and evaluate stages by
    # replacing these functions in every tagcraft module that binds them; a
    # call through a name bound any other way would bypass the replacement
    # and the stage would silently read zero.
    owners = {
        "validate_category_set": "tagcraft.refine",
        "refine_description": "tagcraft.refine",
        "adapt_pair": "tagcraft.refine",
        "classify_batch": "tagcraft.classify",
    }
    calls = dict.fromkeys(owners, 0)
    modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "tagcraft"]
    for name, owner in owners.items():
        original = getattr(sys.modules[owner], name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    result = run_experiment(_paired_plan(tmp_path), MockBackend(), _paired_config())
    report = result.refinement
    refined = sum(len(record.refined) for record in report.per_iteration)
    adapted = sum(len(record.adapted) for record in report.per_iteration)
    assert refined >= 1 and adapted >= 1
    assert calls == {
        "validate_category_set": report.iterations_run,
        "refine_description": refined,
        "adapt_pair": adapted,
        "classify_batch": report.iterations_run + 2,
    }


def test_experiment_outputs_are_byte_identical_to_a_serial_run(tmp_path) -> None:
    outputs = {}
    for cap in (1, 4):
        log_buffer = io.StringIO()
        result = run_experiment(
            _paired_plan(tmp_path),
            CappedBackend(MockBackend(), cap),
            _paired_config(),
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
