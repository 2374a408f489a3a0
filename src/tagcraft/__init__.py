"""tagcraft: zero-shot text classification over evolving category descriptions.

Categories are represented by natural-language descriptors that an LLM
bootstraps from small samples, contrasts against each other, and refines
from its own validation mistakes. New categories integrate at runtime from
a plain-language definition, without any model training.
"""

# Set before the imports below: the HTTP backend reads it for its User-Agent.
__version__ = "0.1.0"

from .backends import (
    Backend,
    BackendCapabilities,
    HttpBackend,
    MockBackend,
    PromptRequest,
    ScoreMap,
    ScoringPath,
)
from .classify import ClassificationFailure, ClassificationResult, EvalReport, classify, classify_batch
from .describe import SamplePlan, bootstrap_category, bootstrap_taxonomy, contrast_taxonomy, sample_bootstrap
from .experiment import (
    DatasetKind,
    EvalPhase,
    ExperimentPlan,
    ExperimentResult,
    run_experiment,
)
from .extraction import extract_descriptor, extract_descriptor_set
from .model import (
    Category,
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
from .prompts import TemplateId, render, use_templates
from .refine import (
    ConfusionPair,
    RefinementReport,
    StopReason,
    adapt_pair,
    mine_confusion_pairs,
    refine_description,
    refine_loop,
    validate_category_set,
)
from .topics import add_topic, revise_topic

__all__ = [
    "Backend",
    "BackendCapabilities",
    "Category",
    "ClassificationFailure",
    "ClassificationResult",
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
    "refine_description",
    "refine_loop",
    "render",
    "revise_topic",
    "run_experiment",
    "sample_bootstrap",
    "save_taxonomy",
    "taxonomy_upsert",
    "use_templates",
    "validate_category_set",
]
