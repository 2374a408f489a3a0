"""Seen/unseen experiment protocol: bootstrap, contrast, refine, evaluate,
introduce the unseen classes, evaluate again, and report the accuracy shift.

Validation and both test phases classify labeled documents along one path,
``classify.classify_labeled``, and each is the ``EvalReport`` it returns:
the records, and the matrix and accuracies counted from them. Generated
category names replace the source labels internally (documents are
relabeled for validation); test predictions are read back through the label
mapping, so every report is in the dataset's own label space. A test
document that fails to classify only counts in ``n_failed``, where a
validation failure aborts the refinement loop.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path

from . import datasets
from .backends.base import Backend
from .classify import EvalReport, classify_labeled
from .datasets import split_seen_unseen
from .describe import SamplePlan, bootstrap_taxonomy, contrast_taxonomy
from .errors import SchemaError
from .fanout import ordered_map
from .fileio import read_json_object, write_json_atomic, write_text_atomic
from .model import (
    Document,
    RefinementConfig,
    SamplingStrategy,
    Taxonomy,
    TopicDescriptor,
    require_int,
    save_taxonomy,
)
from .refine import RefinementReport, refine_loop
from .runlog import RunLog
from .topics import add_topic


class DatasetKind(str, enum.Enum):
    AGNEWS = "agnews"
    DBPEDIA = "dbpedia"
    GENERIC_CSV = "csv"


class EvalPhase(str, enum.Enum):
    SEEN_ONLY = "seen_only"
    AFTER_UNSEEN = "after_unseen"


@dataclass(frozen=True)
class ExperimentPlan:
    dataset: DatasetKind
    data_path: str
    seen_labels: tuple[str, ...]
    unseen_labels: tuple[str, ...] = ()
    n_bootstrap: int = 20
    m_validate: int = 25
    test_per_class: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "dataset", DatasetKind(self.dataset))
        for key in ("seen_labels", "unseen_labels"):
            labels = getattr(self, key)
            if not isinstance(labels, (list, tuple)) or not all(isinstance(x, str) for x in labels):
                raise TypeError(f"{key} must be a list of strings, got {labels!r}")
            object.__setattr__(self, key, tuple(labels))
        for key in ("n_bootstrap", "m_validate", "test_per_class", "seed"):
            require_int(key, getattr(self, key))
        if not self.seen_labels:
            raise ValueError("an experiment needs at least one seen label")
        seen = {label.casefold() for label in self.seen_labels}
        unseen = {label.casefold() for label in self.unseen_labels}
        if len(seen) < len(self.seen_labels) or len(unseen) < len(self.unseen_labels):
            raise ValueError("duplicate labels: each label may be listed once")
        if seen & unseen:
            raise ValueError("seen and unseen labels must be disjoint")
        if min(self.n_bootstrap, self.m_validate, self.test_per_class) < 1:
            raise ValueError("plan counts must be positive")


@dataclass
class PredictionRecord:
    document_id: str
    gold: str
    predicted: str
    phase: EvalPhase


@dataclass
class ExperimentResult:
    """``phase1`` is the EvalPhase.SEEN_ONLY test, ``phase2`` the
    EvalPhase.AFTER_UNSEEN one, both in the dataset's label space."""

    plan: ExperimentPlan
    config: RefinementConfig
    label_names: dict[str, str]
    taxonomy: Taxonomy
    phase1: EvalReport
    phase2: EvalReport
    refinement: RefinementReport
    accuracy_shift: float

    @property
    def predictions(self) -> list[PredictionRecord]:
        """The test predictions of both phases, in test order; a document
        that failed to classify has none."""
        return [
            PredictionRecord(r.document.id, r.gold, r.predicted, phase)
            for phase, report in (
                (EvalPhase.SEEN_ONLY, self.phase1),
                (EvalPhase.AFTER_UNSEEN, self.phase2),
            )
            for r in report.records
            if r.predicted is not None
        ]


def load_dataset(kind: DatasetKind | str, path: str | Path) -> list[Document]:
    """The documents of the dataset file at ``path``, read as ``kind``."""
    kind = DatasetKind(kind)
    if kind is DatasetKind.AGNEWS:
        return datasets.load_agnews(path)
    if kind is DatasetKind.DBPEDIA:
        return datasets.load_dbpedia(path)
    return datasets.load_generic_csv(path)


def load_plan(path: str | Path) -> tuple[ExperimentPlan, RefinementConfig]:
    """Read a plan JSON file; an optional "refinement" object supplies the
    loop's RefinementConfig fields, while n_bootstrap, m_validate and seed
    come from the plan alone. A top level that is not a JSON object, a key
    that names no field, or a "refinement" key the plan owns, is a
    SchemaError; a file that cannot be read is a FileIOError.
    """
    data = read_json_object(path, "plan")
    try:
        refinement = data.pop("refinement", {})
        owned = sorted({"n_bootstrap", "m_validate", "seed"} & set(refinement))
        if owned:
            raise ValueError(f"refinement keys {', '.join(owned)} belong at the plan's top level")
        plan = ExperimentPlan(**data)
        config = RefinementConfig(
            **refinement, n_bootstrap=plan.n_bootstrap, m_validate=plan.m_validate, seed=plan.seed
        )
    except (TypeError, ValueError) as err:
        raise SchemaError(f"invalid plan {path}: {err}") from err
    return plan, config


def run_experiment(
    plan: ExperimentPlan,
    backend: Backend,
    config: RefinementConfig,
    *,
    log: RunLog | None = None,
    checkpoint_dir: str | Path | None = None,
) -> ExperimentResult:
    """Phase 1: bootstrap the seen classes, contrast, run the refinement
    loop, and evaluate on the seen test set. Phase 2: introduce every unseen
    class from its name plus exemplar documents, then evaluate on the union
    of seen and unseen test sets. The reported accuracy shift is the phase-2
    seen-class accuracy minus the phase-1 accuracy.

    The unseen classes are added to the loop's taxonomy while the phase-1
    test runs, since neither reads the other's output; phase 2 starts once
    both are done. When the add fails, its error is raised after the phase-1
    calls in flight have finished.

    With a checkpoint_dir, the working taxonomy is re-saved after every
    pipeline stage so a mid-run failure leaves partial artifacts behind.

    The run as a whole, not each stage, keeps at most
    ``backend.capabilities().max_concurrency`` backend calls in flight, the
    side-by-side phase-1 test and add included; the outputs are the same as
    with a cap of 1.
    """

    def checkpoint(taxonomy: Taxonomy) -> None:
        if checkpoint_dir is not None:
            directory = Path(checkpoint_dir)
            directory.mkdir(parents=True, exist_ok=True)
            save_taxonomy(taxonomy, directory / "taxonomy.partial.json")

    documents = load_dataset(plan.dataset, plan.data_path)
    split = split_seen_unseen(
        documents,
        seen_labels=plan.seen_labels,
        unseen_labels=plan.unseen_labels,
        n_bootstrap=plan.n_bootstrap,
        m_validate=plan.m_validate,
        test_per_class=plan.test_per_class,
        seed=plan.seed,
    )
    sample_plan = SamplePlan(SamplingStrategy.SEEDED_RANDOM, plan.n_bootstrap, config.seed)
    train_docs = [doc for label in plan.seen_labels for doc in split.seen_train[label]]
    taxonomy, label_names = bootstrap_taxonomy(train_docs, plan.seen_labels, sample_plan, backend)
    checkpoint(taxonomy)
    if len(taxonomy) >= 2:
        taxonomy = contrast_taxonomy(taxonomy, backend)
        checkpoint(taxonomy)

    validation = [
        replace(doc, gold_label=label_names[label])
        for label in plan.seen_labels
        for doc in split.seen_validate[label]
    ]
    taxonomy, refinement = refine_loop(taxonomy, validation, config, backend, log=log)
    checkpoint(taxonomy)

    def add_unseen(grown: Taxonomy) -> tuple[Taxonomy, dict[str, str]]:
        names = {}
        for label in plan.unseen_labels:
            rough = TopicDescriptor(label, f"Documents about {label}.")
            grown = add_topic(
                rough,
                grown,
                backend,
                run_contrast=True,
                sample_docs=list(split.unseen_bootstrap.get(label, ())),
            )
            names[label] = rough.topic_name
            checkpoint(grown)
        return grown, names

    # Phase 1 comes first, so this thread drives it while a helper adds the
    # unseen classes. The add returns the unseen names rather than writing to
    # label_names, which phase 1 reads.
    seen_test = [(label, doc) for label in plan.seen_labels for doc in split.seen_test[label]]
    phase1, (taxonomy, unseen_names) = ordered_map(
        lambda job: job(),
        [
            partial(classify_labeled, seen_test, taxonomy, backend, label_names),
            partial(add_unseen, taxonomy),
        ],
        backend.capabilities().max_concurrency,
    )
    label_names.update(unseen_names)

    unseen_test = [(label, doc) for label in plan.unseen_labels for doc in split.unseen_test[label]]
    phase2 = classify_labeled(seen_test + unseen_test, taxonomy, backend, label_names)

    seen = EvalReport([r for r in phase2.records if r.gold in plan.seen_labels])
    seen_accuracy = seen.overall_accuracy if seen.n_documents else phase1.overall_accuracy
    return ExperimentResult(
        plan=plan,
        config=config,
        label_names=dict(label_names),
        taxonomy=taxonomy,
        phase1=phase1,
        phase2=phase2,
        refinement=refinement,
        accuracy_shift=seen_accuracy - phase1.overall_accuracy,
    )


def _matrix_to_dict(report: EvalReport) -> dict:
    return {
        "total": report.n_documents,
        "counts": [
            [gold, predicted, count] for (gold, predicted), count in sorted(report.matrix.items())
        ],
    }


def _report_to_dict(phase: EvalPhase, report: EvalReport) -> dict:
    return {
        "phase": phase.value,
        "overall_accuracy": report.overall_accuracy,
        "per_class_accuracy": report.per_class_accuracy,
        "matrix": _matrix_to_dict(report),
        "n_documents": report.n_documents,
        "n_failed": report.n_failed,
    }


def result_to_dict(result: ExperimentResult) -> dict:
    """report.json as a dict. The enums subclass str and json.dumps writes
    tuples as lists, so asdict() output needs no custom encoder.
    """
    plan_dict = asdict(result.plan)
    config_dict = asdict(result.config)
    fingerprint = hashlib.sha256(
        json.dumps({"plan": plan_dict, "config": config_dict}, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return {
        "plan": plan_dict,
        "config": config_dict,
        "config_sha256": fingerprint,
        "label_names": result.label_names,
        "phase1": _report_to_dict(EvalPhase.SEEN_ONLY, result.phase1),
        "phase2": _report_to_dict(EvalPhase.AFTER_UNSEEN, result.phase2),
        "accuracy_shift": result.accuracy_shift,
        "refinement": asdict(result.refinement),
    }


def persist_result(result: ExperimentResult, out_dir: str | Path) -> Path:
    """Write report.json, predictions.jsonl and taxonomy.json into out_dir.
    Output is deterministic: no timestamps, sorted keys. Each file is
    replaced atomically.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    write_json_atomic(report_path, result_to_dict(result))
    write_text_atomic(
        out / "predictions.jsonl",
        "".join(
            json.dumps(
                {
                    "id": record.document_id,
                    "gold": record.gold,
                    "predicted": record.predicted,
                    "phase": record.phase.value,
                },
                sort_keys=True,
            )
            + "\n"
            for record in result.predictions
        ),
    )
    save_taxonomy(result.taxonomy, out / "taxonomy.json")
    return report_path
