"""Seen/unseen experiment protocol: bootstrap, contrast, refine, evaluate,
introduce the unseen classes, evaluate again, and report the accuracy shift.

All reports are expressed in the dataset's own label space. Generated
category names replace the source labels internally (documents are
relabeled for validation), and predictions are translated back through the
label mapping before any metric is computed.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .backends.base import Backend
from .classify import ClassificationFailure, classify_batch
from .datasets import (
    AGNEWS_LABELS,
    DBPEDIA_LABELS,
    SplitSet,
    load_agnews,
    load_dbpedia,
    load_generic_csv,
    split_seen_unseen,
)
from .describe import SamplePlan, bootstrap_taxonomy, contrast_taxonomy
from .errors import SchemaError
from .fileio import write_text_atomic
from .model import (
    ConfusionMatrix,
    Document,
    RefinementConfig,
    SamplingStrategy,
    Taxonomy,
    TopicDescriptor,
    name_key,
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
        if not self.seen_labels:
            raise ValueError("an experiment needs at least one seen label")
        seen = {label.casefold() for label in self.seen_labels}
        unseen = {label.casefold() for label in self.unseen_labels}
        if seen & unseen:
            raise ValueError("seen and unseen labels must be disjoint")
        if min(self.n_bootstrap, self.m_validate, self.test_per_class) < 1:
            raise ValueError("plan counts must be positive")


@dataclass
class EvalReport:
    phase: EvalPhase
    overall_accuracy: float
    per_class_accuracy: dict[str, float]
    matrix: ConfusionMatrix
    n_documents: int
    n_failed: int


@dataclass
class PredictionRecord:
    document_id: str
    gold: str
    predicted: str
    phase: EvalPhase


@dataclass
class ExperimentResult:
    plan: ExperimentPlan
    config: RefinementConfig
    label_names: dict[str, str]
    taxonomy: Taxonomy
    phase1: EvalReport
    phase2: EvalReport
    refinement: RefinementReport
    accuracy_shift: float
    predictions: list[PredictionRecord]


def preset_plan(kind: DatasetKind | str, data_path: str, **overrides) -> ExperimentPlan:
    """Default seen/unseen configurations: AG News holds out Sci/Tech
    (3 seen + 1 unseen); DBpedia uses the first 8 classes as seen and holds
    out the last listed class (8 seen + 1 unseen).
    """
    kind = DatasetKind(kind)
    if kind is DatasetKind.AGNEWS:
        seen, unseen = AGNEWS_LABELS[:3], AGNEWS_LABELS[3:]
    elif kind is DatasetKind.DBPEDIA:
        seen, unseen = DBPEDIA_LABELS[:8], DBPEDIA_LABELS[-1:]
    else:
        raise ValueError("presets exist only for the agnews and dbpedia datasets")
    return ExperimentPlan(
        dataset=kind,
        data_path=data_path,
        seen_labels=tuple(seen),
        unseen_labels=tuple(unseen),
        **overrides,
    )


def load_dataset(plan: ExperimentPlan) -> list[Document]:
    if plan.dataset is DatasetKind.AGNEWS:
        return load_agnews(plan.data_path)
    if plan.dataset is DatasetKind.DBPEDIA:
        return load_dbpedia(plan.data_path)
    return load_generic_csv(plan.data_path)


def plan_to_dict(plan: ExperimentPlan) -> dict:
    return {
        "dataset": plan.dataset.value,
        "data_path": plan.data_path,
        "seen_labels": list(plan.seen_labels),
        "unseen_labels": list(plan.unseen_labels),
        "n_bootstrap": plan.n_bootstrap,
        "m_validate": plan.m_validate,
        "test_per_class": plan.test_per_class,
        "seed": plan.seed,
    }


def config_to_dict(config: RefinementConfig) -> dict:
    return {
        "n_bootstrap": config.n_bootstrap,
        "m_validate": config.m_validate,
        "accuracy_threshold": config.accuracy_threshold,
        "max_iterations": config.max_iterations,
        "seed": config.seed,
        "sampling_strategy": config.sampling_strategy.value,
        "min_confusion_count": config.min_confusion_count,
        "top_k_pairs": config.top_k_pairs,
        "resample_validation": config.resample_validation,
        "adapt_after_loop": config.adapt_after_loop,
        "adapt_template": config.adapt_template,
    }


def load_plan(path: str | Path) -> tuple[ExperimentPlan, RefinementConfig]:
    """Read a plan JSON file; an optional "refinement" object supplies
    RefinementConfig fields (defaulting M and N from the plan).
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise SchemaError(f"cannot read plan {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise SchemaError(f"plan {path} is not valid JSON: {err}") from err
    try:
        plan = ExperimentPlan(
            dataset=DatasetKind(data["dataset"]),
            data_path=data["data_path"],
            seen_labels=tuple(data["seen_labels"]),
            unseen_labels=tuple(data.get("unseen_labels", ())),
            n_bootstrap=int(data.get("n_bootstrap", 20)),
            m_validate=int(data.get("m_validate", 25)),
            test_per_class=int(data.get("test_per_class", 100)),
            seed=int(data.get("seed", 0)),
        )
        refinement = dict(data.get("refinement", {}))
        refinement.setdefault("n_bootstrap", plan.n_bootstrap)
        refinement.setdefault("m_validate", plan.m_validate)
        refinement.setdefault("seed", plan.seed)
        if "sampling_strategy" in refinement:
            refinement["sampling_strategy"] = SamplingStrategy(refinement["sampling_strategy"])
        config = RefinementConfig(**refinement)
    except (KeyError, TypeError, ValueError) as err:
        raise SchemaError(f"invalid plan {path}: {err}") from err
    return plan, config


def run_experiment(
    plan: ExperimentPlan,
    backend: Backend,
    config: RefinementConfig,
    *,
    concurrency_cap: int = 4,
    templates_dir: str | Path | None = None,
    log: RunLog | None = None,
    checkpoint_dir: str | Path | None = None,
) -> ExperimentResult:
    """Phase 1: bootstrap the seen classes, contrast, run the refinement
    loop, and evaluate on the seen test set. Phase 2: introduce every unseen
    class from its name plus exemplar documents, then evaluate on the union
    of seen and unseen test sets. The reported accuracy shift is the phase-2
    seen-class accuracy minus the phase-1 accuracy.

    With a checkpoint_dir, the working taxonomy is re-saved after every
    pipeline stage so a mid-run failure leaves partial artifacts behind.

    concurrency_cap bounds the backend calls in flight in every stage; the
    outputs are the same as with concurrency_cap=1.
    """

    def checkpoint(taxonomy: Taxonomy) -> None:
        if checkpoint_dir is not None:
            directory = Path(checkpoint_dir)
            directory.mkdir(parents=True, exist_ok=True)
            save_taxonomy(taxonomy, directory / "taxonomy.partial.json")

    documents = load_dataset(plan)
    split = split_seen_unseen(
        documents,
        seen_labels=plan.seen_labels,
        unseen_labels=plan.unseen_labels,
        n_bootstrap=plan.n_bootstrap,
        m_validate=plan.m_validate,
        test_per_class=plan.test_per_class,
        seed=plan.seed,
    )
    sample_plan = SamplePlan(config.sampling_strategy, plan.n_bootstrap, config.seed)
    train_docs = [doc for label in plan.seen_labels for doc in split.seen_train[label]]
    taxonomy, label_names = bootstrap_taxonomy(
        train_docs,
        plan.seen_labels,
        sample_plan,
        backend,
        concurrency_cap=concurrency_cap,
        templates_dir=templates_dir,
    )
    checkpoint(taxonomy)
    if len(taxonomy) >= 2:
        taxonomy = contrast_taxonomy(
            taxonomy, backend, concurrency_cap=concurrency_cap, templates_dir=templates_dir
        )
        checkpoint(taxonomy)

    validation = [
        replace(doc, gold_label=label_names[label])
        for label in plan.seen_labels
        for doc in split.seen_validate[label]
    ]
    taxonomy, refinement = refine_loop(
        taxonomy,
        validation,
        config,
        backend,
        concurrency_cap=concurrency_cap,
        templates_dir=templates_dir,
        log=log,
    )
    checkpoint(taxonomy)

    predictions: list[PredictionRecord] = []
    phase1 = _evaluate(
        taxonomy,
        _test_docs(split, plan.seen_labels, seen=True),
        label_names,
        EvalPhase.SEEN_ONLY,
        backend,
        concurrency_cap,
        templates_dir,
        predictions,
    )

    for label in plan.unseen_labels:
        rough = TopicDescriptor(label, f"Documents about {label}.")
        taxonomy = add_topic(
            rough,
            taxonomy,
            backend,
            run_contrast=True,
            sample_docs=list(split.unseen_bootstrap.get(label, ())),
            concurrency_cap=concurrency_cap,
            templates_dir=templates_dir,
        )
        label_names[label] = rough.topic_name
        checkpoint(taxonomy)

    phase2_docs = _test_docs(split, plan.seen_labels, seen=True) + _test_docs(
        split, plan.unseen_labels, seen=False
    )
    phase2 = _evaluate(
        taxonomy,
        phase2_docs,
        label_names,
        EvalPhase.AFTER_UNSEEN,
        backend,
        concurrency_cap,
        templates_dir,
        predictions,
    )

    seen_set = set(plan.seen_labels)
    phase2_seen = [p for p in predictions if p.phase is EvalPhase.AFTER_UNSEEN and p.gold in seen_set]
    if phase2_seen:
        seen_accuracy = sum(p.gold == p.predicted for p in phase2_seen) / len(phase2_seen)
    else:
        seen_accuracy = phase1.overall_accuracy
    return ExperimentResult(
        plan=plan,
        config=config,
        label_names=dict(label_names),
        taxonomy=taxonomy,
        phase1=phase1,
        phase2=phase2,
        refinement=refinement,
        accuracy_shift=seen_accuracy - phase1.overall_accuracy,
        predictions=predictions,
    )


def _test_docs(split: SplitSet, labels: Sequence[str], *, seen: bool) -> list[tuple[str, Document]]:
    bucket = split.seen_test if seen else split.unseen_test
    return [(label, doc) for label in labels for doc in bucket.get(label, ())]


def _evaluate(
    taxonomy: Taxonomy,
    labeled_docs: list[tuple[str, Document]],
    label_names: dict[str, str],
    phase: EvalPhase,
    backend: Backend,
    concurrency_cap: int,
    templates_dir: str | Path | None,
    predictions: list[PredictionRecord],
) -> EvalReport:
    inverse = {name_key(name): label for label, name in label_names.items()}
    matrix = ConfusionMatrix()
    n_failed = 0
    documents = [doc for _, doc in labeled_docs]
    results = classify_batch(
        documents,
        taxonomy,
        backend,
        concurrency_cap=concurrency_cap,
        templates_dir=templates_dir,
    )
    for (label, document), result in zip(labeled_docs, results):
        if isinstance(result, ClassificationFailure):
            n_failed += 1
            continue
        predicted_label = inverse.get(name_key(result.predicted), result.predicted)
        matrix.record(label, predicted_label)
        predictions.append(
            PredictionRecord(
                document_id=document.id,
                gold=label,
                predicted=predicted_label,
                phase=phase,
            )
        )
    return EvalReport(
        phase=phase,
        overall_accuracy=matrix.overall_accuracy(),
        per_class_accuracy=matrix.per_category_accuracy(),
        matrix=matrix,
        n_documents=matrix.total,
        n_failed=n_failed,
    )


def _matrix_to_dict(matrix: ConfusionMatrix) -> dict:
    return {
        "total": matrix.total,
        "counts": [
            [gold, predicted, count]
            for (gold, predicted), count in sorted(matrix.counts.items())
        ],
    }


def _report_to_dict(report: EvalReport) -> dict:
    return {
        "phase": report.phase.value,
        "overall_accuracy": report.overall_accuracy,
        "per_class_accuracy": report.per_class_accuracy,
        "matrix": _matrix_to_dict(report.matrix),
        "n_documents": report.n_documents,
        "n_failed": report.n_failed,
    }


def result_to_dict(result: ExperimentResult) -> dict:
    plan_dict = plan_to_dict(result.plan)
    config_dict = config_to_dict(result.config)
    fingerprint = hashlib.sha256(
        json.dumps({"plan": plan_dict, "config": config_dict}, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return {
        "plan": plan_dict,
        "config": config_dict,
        "config_sha256": fingerprint,
        "label_names": result.label_names,
        "phase1": _report_to_dict(result.phase1),
        "phase2": _report_to_dict(result.phase2),
        "accuracy_shift": result.accuracy_shift,
        "refinement": {
            "iterations_run": result.refinement.iterations_run,
            "stop_reason": result.refinement.stop_reason.value,
            "per_iteration": [
                {
                    "index": record.index,
                    "accuracy": record.accuracy,
                    "refined": record.refined,
                    "adapted": [
                        {"correct": pair.correct, "wrong": pair.wrong, "count": pair.count}
                        for pair in record.adapted
                    ],
                }
                for record in result.refinement.per_iteration
            ],
        },
    }


def persist_result(
    result: ExperimentResult, out_dir: str | Path, *, write_taxonomy: bool = True
) -> Path:
    """Write report.json (and predictions.jsonl, taxonomy.json) into out_dir.
    Output is deterministic: no timestamps, sorted keys. Each file is
    replaced atomically.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    write_text_atomic(
        report_path, json.dumps(result_to_dict(result), sort_keys=True, indent=2) + "\n"
    )
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
    if write_taxonomy:
        save_taxonomy(result.taxonomy, out / "taxonomy.json")
    return report_path
