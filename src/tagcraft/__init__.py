"""tagcraft: zero-shot text classification over evolving category descriptions.

Categories are represented by natural-language descriptors that an LLM
bootstraps from small samples, contrasts against each other, and refines
from its own validation mistakes. New categories integrate at runtime from
a plain-language definition, without any model training.
"""

from .backends import (
    Backend,
    BackendCapabilities,
    HttpBackend,
    MockBackend,
    PromptRequest,
    ScoreMap,
    ScoringPath,
)
from .classify import ClassificationFailure, ClassificationResult, classify, classify_batch
from .describe import SamplePlan, bootstrap_category, bootstrap_taxonomy, contrast_taxonomy, sample_bootstrap
from .experiment import (
    DatasetKind,
    EvalPhase,
    EvalReport,
    ExperimentPlan,
    ExperimentResult,
    preset_plan,
    run_experiment,
)
from .extraction import extract_descriptor, extract_descriptor_set
from .model import (
    Category,
    ConfusionMatrix,
    Document,
    Provenance,
    RefinementConfig,
    SamplingStrategy,
    Stage,
    Taxonomy,
    TopicDescriptor,
    load_taxonomy,
    normalize_name,
    save_taxonomy,
    taxonomy_upsert,
)
from .prompts import TemplateId, render
from .refine import (
    ConfusionPair,
    RefinementReport,
    StopReason,
    ValidationOutcome,
    adapt_pair,
    mine_confusion_pairs,
    refine_description,
    refine_loop,
    validate_category_set,
)
from .topics import add_topic, revise_topic

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "BackendCapabilities",
    "Category",
    "ClassificationFailure",
    "ClassificationResult",
    "ConfusionMatrix",
    "ConfusionPair",
    "DatasetKind",
    "Document",
    "EvalPhase",
    "EvalReport",
    "ExperimentPlan",
    "ExperimentResult",
    "HttpBackend",
    "MockBackend",
    "PromptRequest",
    "Provenance",
    "RefinementConfig",
    "RefinementReport",
    "SamplePlan",
    "SamplingStrategy",
    "ScoreMap",
    "ScoringPath",
    "Stage",
    "StopReason",
    "Taxonomy",
    "TemplateId",
    "TopicDescriptor",
    "ValidationOutcome",
    "add_topic",
    "adapt_pair",
    "bootstrap_category",
    "bootstrap_taxonomy",
    "classify",
    "classify_batch",
    "contrast_taxonomy",
    "extract_descriptor",
    "extract_descriptor_set",
    "load_taxonomy",
    "mine_confusion_pairs",
    "normalize_name",
    "preset_plan",
    "refine_description",
    "refine_loop",
    "render",
    "revise_topic",
    "run_experiment",
    "sample_bootstrap",
    "save_taxonomy",
    "taxonomy_upsert",
    "validate_category_set",
]
