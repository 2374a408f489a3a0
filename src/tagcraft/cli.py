"""Command-line interface wiring config, datasets, backends, and the pipeline.

Every subcommand is a thin wrapper over the library operations; stdout
carries results, stderr carries errors (JSON-shaped with --json-errors).
A key-value config file can supply defaults for any flag; explicit flags
win, and environment variables only ever supply backend credentials.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import click

from . import experiment as xp
from .backends import Backend, HttpBackend, MockBackend
from .classify import classify as classify_document
from .datasets import load_agnews, load_dbpedia, load_generic_csv
from .describe import SamplePlan, bootstrap_taxonomy, contrast_taxonomy
from .errors import TagcraftError
from .fileio import write_text_atomic
from .model import (
    Document,
    RefinementConfig,
    SamplingStrategy,
    TopicDescriptor,
    load_taxonomy,
    save_taxonomy,
)
from .refine import refine_loop
from .runlog import RunLog
from .topics import add_topic, revise_topic

_FORMATS = {"csv": load_generic_csv, "agnews": load_agnews, "dbpedia": load_dbpedia}


@dataclass
class CliState:
    backend_kind: str
    seed: int
    log_path: str | None
    templates_dir: str | None
    json_errors: bool

    def make_backend(self) -> Backend:
        if self.backend_kind == "mock":
            return MockBackend(seed=self.seed)
        return HttpBackend()

    def open_log(self) -> RunLog | None:
        return RunLog.open(self.log_path) if self.log_path else None


def _load_config(path: str | None) -> dict[str, str]:
    """Parse a flat "key = value" config file; '#' starts a comment."""
    if not path:
        return {}
    values: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"config line is not 'key = value': {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _fail(state: CliState, err: Exception) -> None:
    if state.json_errors:
        payload = {"error": type(err).__name__, "message": str(err)}
        click.echo(json.dumps(payload), err=True)
    else:
        click.echo(f"error: {err}", err=True)
    sys.exit(1)


def _guarded(fn):
    """Run a command body, mapping operation failures to exit code 1."""

    @functools.wraps(fn)
    def wrapper(state: CliState, *args, **kwargs):
        try:
            return fn(state, *args, **kwargs)
        except (TagcraftError, OSError, ValueError) as err:
            _fail(state, err)

    return wrapper


@click.group()
@click.option("--backend", "backend_kind", type=click.Choice(["http", "mock"]), default="mock", show_default=True)
@click.option("--config", "config_path", type=click.Path(), default=None, help="Key-value config file supplying flag defaults.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--log", "log_path", type=click.Path(), default=None, help="JSON-lines run log path.")
@click.option("--templates", "templates_dir", type=click.Path(), default=None, help="Template override directory.")
@click.option("--json-errors", is_flag=True, default=False, help="Emit machine-parseable JSON errors on stderr.")
@click.pass_context
def main(ctx, backend_kind, config_path, seed, log_path, templates_dir, json_errors):
    """Zero-shot classification with evolving category descriptions."""
    config = _load_config(config_path)
    # Config supplies defaults for global flags not set on the command line.
    from click.core import ParameterSource

    def effective(name: str, value, cast):
        if ctx.get_parameter_source(name) == ParameterSource.DEFAULT and name in config:
            return cast(config[name])
        return value

    state = CliState(
        backend_kind=effective("backend_kind", backend_kind, str),
        seed=effective("seed", seed, int),
        log_path=effective("log_path", log_path, str),
        templates_dir=effective("templates_dir", templates_dir, str),
        json_errors=effective("json_errors", json_errors, lambda v: v.lower() in ("1", "true", "yes")),
    )
    ctx.obj = state
    if config:
        # Config keys are flag spellings; translate them to parameter names.
        default_map: dict[str, dict] = {}
        for command_name, command in main.commands.items():
            defaults = {}
            for param in command.params:
                for opt in param.opts:
                    key = opt.lstrip("-").replace("-", "_")
                    if key in config:
                        defaults[param.name] = config[key]
            if defaults:
                default_map[command_name] = defaults
        ctx.default_map = default_map


def _load_docs(path: str, fmt: str) -> list[Document]:
    return _FORMATS[fmt](path)


def _apply_label_map(docs: list[Document], map_path: str | None) -> list[Document]:
    if not map_path:
        return docs
    mapping = json.loads(Path(map_path).read_text(encoding="utf-8"))
    from dataclasses import replace

    return [
        replace(d, gold_label=mapping.get(d.gold_label, d.gold_label)) if d.gold_label else d
        for d in docs
    ]


@main.command()
@click.option("--dataset", "dataset_path", required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(sorted(_FORMATS)), default="csv", show_default=True)
@click.option("--labels", default=None, help="Comma-separated labels to bootstrap (default: all found).")
@click.option("--n", "n_samples", type=int, default=20, show_default=True)
@click.option("--strategy", type=click.Choice([s.value for s in SamplingStrategy]), default=SamplingStrategy.SEEDED_RANDOM.value, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--map-out", "map_path", type=click.Path(), default=None, help="Where to write the label -> category-name map (default: <out>.labels.json).")
@click.pass_obj
@_guarded
def bootstrap(state: CliState, dataset_path, fmt, labels, n_samples, strategy, out_path, map_path):
    """Bootstrap one category per label from sampled documents."""
    docs = _load_docs(dataset_path, fmt)
    if labels:
        label_list = [x.strip() for x in labels.split(",") if x.strip()]
    else:
        seen: list[str] = []
        for d in docs:
            if d.gold_label and d.gold_label not in seen:
                seen.append(d.gold_label)
        label_list = seen
    plan = SamplePlan(SamplingStrategy(strategy), n_samples, state.seed)
    backend = state.make_backend()
    taxonomy, mapping = bootstrap_taxonomy(
        docs, label_list, plan, backend, templates_dir=state.templates_dir
    )
    save_taxonomy(taxonomy, out_path)
    map_file = Path(map_path) if map_path else Path(out_path).with_suffix(".labels.json")
    write_text_atomic(map_file, json.dumps(mapping, indent=2, sort_keys=True) + "\n")
    click.echo(f"wrote {out_path} ({len(taxonomy)} categories); label map: {map_file}")


@main.command()
@click.option("--taxonomy", "taxonomy_path", required=True, type=click.Path())
@click.option("--out", "out_path", type=click.Path(), default=None, help="Defaults to rewriting --taxonomy in place.")
@click.pass_obj
@_guarded
def contrast(state: CliState, taxonomy_path, out_path):
    """Rewrite all descriptions to emphasize between-category contrast."""
    taxonomy = load_taxonomy(taxonomy_path)
    backend = state.make_backend()
    result = contrast_taxonomy(taxonomy, backend, templates_dir=state.templates_dir)
    save_taxonomy(result, out_path or taxonomy_path)
    click.echo(f"contrasted {len(result)} categories -> {out_path or taxonomy_path}")


@main.command()
@click.option("--taxonomy", "taxonomy_path", required=True, type=click.Path())
@click.option("--validate", "validate_path", required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(sorted(_FORMATS)), default="csv", show_default=True)
@click.option("--label-map", "label_map", type=click.Path(), default=None)
@click.option("--threshold", type=float, default=0.8, show_default=True)
@click.option("--max-iters", type=int, default=4, show_default=True)
@click.option("--m", "m_validate", type=int, default=25, show_default=True)
@click.option("--min-confusion", type=int, default=2, show_default=True)
@click.option("--top-k", type=int, default=3, show_default=True)
@click.option("--resample", is_flag=True, default=False, help="Fresh validation sample each iteration.")
@click.option("--adapt-after-loop", is_flag=True, default=False)
@click.option("--adapt-template", type=click.Choice(["inter_class_adapt", "intra_class_diff"]), default="inter_class_adapt", show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--report", "report_path", type=click.Path(), default=None)
@click.pass_obj
@_guarded
def refine(state: CliState, taxonomy_path, validate_path, fmt, label_map, threshold, max_iters,
           m_validate, min_confusion, top_k, resample, adapt_after_loop, adapt_template,
           out_path, report_path):
    """Run the iterative validate/refine loop against labeled documents."""
    taxonomy = load_taxonomy(taxonomy_path)
    docs = _apply_label_map(_load_docs(validate_path, fmt), label_map)
    config = RefinementConfig(
        m_validate=m_validate,
        accuracy_threshold=threshold,
        max_iterations=max_iters,
        seed=state.seed,
        min_confusion_count=min_confusion,
        top_k_pairs=top_k,
        resample_validation=resample,
        adapt_after_loop=adapt_after_loop,
        adapt_template=adapt_template,
    )
    backend = state.make_backend()
    log = state.open_log()
    try:
        result, report = refine_loop(
            taxonomy, docs, config, backend, templates_dir=state.templates_dir, log=log
        )
    finally:
        if log:
            log.close()
    save_taxonomy(result, out_path or taxonomy_path)
    report_file = Path(report_path) if report_path else Path(taxonomy_path).with_suffix(".report.json")
    payload = {
        "iterations_run": report.iterations_run,
        "stop_reason": report.stop_reason.value,
        "per_iteration": [
            {
                "index": record.index,
                "accuracy": record.accuracy,
                "refined": record.refined,
                "adapted": [
                    {"correct": p.correct, "wrong": p.wrong, "count": p.count}
                    for p in record.adapted
                ],
            }
            for record in report.per_iteration
        ],
    }
    write_text_atomic(report_file, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    click.echo(
        f"stopped after {report.iterations_run} iteration(s): {report.stop_reason.value}; "
        f"taxonomy -> {out_path or taxonomy_path}, report -> {report_file}"
    )


@main.command()
@click.option("--taxonomy", "taxonomy_path", required=True, type=click.Path())
@click.option("--text", default=None)
@click.option("--file", "file_path", type=click.Path(), default=None)
@click.option("--verbose", is_flag=True, default=False, help="Also print per-category scores.")
@click.pass_obj
@_guarded
def classify(state: CliState, taxonomy_path, text, file_path, verbose):
    """Classify one document and print the predicted category name."""
    if (text is None) == (file_path is None):
        raise click.UsageError("provide exactly one of --text or --file")
    if file_path is not None:
        text = Path(file_path).read_text(encoding="utf-8")
    taxonomy = load_taxonomy(taxonomy_path)
    backend = state.make_backend()
    result = classify_document(
        Document(id="cli", text=text or ""), taxonomy, backend, templates_dir=state.templates_dir
    )
    click.echo(result.predicted)
    if verbose:
        click.echo(json.dumps(result.scores.scores, indent=2, sort_keys=True), err=True)


def _read_descriptor_options(name, description, from_json):
    if from_json:
        data = json.loads(Path(from_json).read_text(encoding="utf-8"))
        return TopicDescriptor(data["topic_name"], data["topic_description"])
    if name is None:
        raise click.UsageError("provide --name (with --description) or --from-json")
    if description is None:
        if sys.stdin.isatty():
            description = click.edit(f"# Describe the category {name!r} in plain language\n") or ""
            description = "\n".join(
                line for line in description.splitlines() if not line.startswith("#")
            ).strip()
        if not description:
            raise click.UsageError("provide --description or --from-json")
    return TopicDescriptor(name, description)


def _read_samples(samples_path: str | None) -> list[Document] | None:
    if not samples_path:
        return None
    lines = [
        line.strip()
        for line in Path(samples_path).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    return [Document(id=f"sample-{i + 1}", text=line) for i, line in enumerate(lines)]


@main.command(name="add-topic")
@click.option("--taxonomy", "taxonomy_path", required=True, type=click.Path())
@click.option("--name", default=None)
@click.option("--description", default=None)
@click.option("--from-json", "from_json", type=click.Path(), default=None, help="JSON file with topic_name/topic_description.")
@click.option("--samples", "samples_path", type=click.Path(), default=None, help="Plain-text exemplars, one per line.")
@click.option("--no-contrast", is_flag=True, default=False)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.pass_obj
@_guarded
def add_topic_cmd(state: CliState, taxonomy_path, name, description, from_json, samples_path, no_contrast, out_path):
    """Add a user-defined category from a rough natural-language description."""
    descriptor = _read_descriptor_options(name, description, from_json)
    taxonomy = load_taxonomy(taxonomy_path)
    backend = state.make_backend()
    result = add_topic(
        descriptor,
        taxonomy,
        backend,
        run_contrast=not no_contrast,
        sample_docs=_read_samples(samples_path),
        templates_dir=state.templates_dir,
    )
    save_taxonomy(result, out_path or taxonomy_path)
    click.echo(f"added {descriptor.topic_name} ({len(result)} categories)")


@main.command(name="revise-topic")
@click.option("--taxonomy", "taxonomy_path", required=True, type=click.Path())
@click.option("--name", required=True)
@click.option("--description", default=None)
@click.option("--from-json", "from_json", type=click.Path(), default=None)
@click.option("--samples", "samples_path", type=click.Path(), default=None)
@click.option("--contrast", "with_contrast", is_flag=True, default=False)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.pass_obj
@_guarded
def revise_topic_cmd(state: CliState, taxonomy_path, name, description, from_json, samples_path, with_contrast, out_path):
    """Revise an existing category's description in natural language."""
    descriptor = _read_descriptor_options(name, description, from_json)
    taxonomy = load_taxonomy(taxonomy_path)
    backend = state.make_backend()
    result = revise_topic(
        name,
        descriptor.topic_description,
        taxonomy,
        backend,
        run_contrast=with_contrast,
        sample_docs=_read_samples(samples_path),
        templates_dir=state.templates_dir,
    )
    save_taxonomy(result, out_path or taxonomy_path)
    click.echo(f"revised {name}")


def _run_plan(state: CliState, plan_path: str, out_dir: str, *, write_taxonomy: bool) -> None:
    plan, config = xp.load_plan(plan_path)
    backend = state.make_backend()
    log = state.open_log()
    try:
        result = xp.run_experiment(
            plan,
            backend,
            config,
            templates_dir=state.templates_dir,
            log=log,
            checkpoint_dir=out_dir,
        )
    finally:
        if log:
            log.close()
    report_path = xp.persist_result(result, out_dir, write_taxonomy=write_taxonomy)
    click.echo(
        f"phase1 accuracy {result.phase1.overall_accuracy:.3f}; "
        f"phase2 accuracy {result.phase2.overall_accuracy:.3f}; "
        f"seen-class shift {result.accuracy_shift:+.3f}; report -> {report_path}"
    )


@main.command(name="eval")
@click.option("--plan", "plan_path", required=True, type=click.Path())
@click.option("--out", "out_dir", type=click.Path(), default="tagcraft-eval", show_default=True)
@click.pass_obj
@_guarded
def eval_cmd(state: CliState, plan_path, out_dir):
    """Run the experiment protocol and write the evaluation report."""
    _run_plan(state, plan_path, out_dir, write_taxonomy=False)


@main.command(name="run")
@click.option("--plan", "plan_path", required=True, type=click.Path())
@click.option("--out", "out_dir", type=click.Path(), default="tagcraft-run", show_default=True)
@click.pass_obj
@_guarded
def run_cmd(state: CliState, plan_path, out_dir):
    """Full pipeline: bootstrap, contrast, refine, evaluate, add the unseen
    classes, evaluate again; persists taxonomy, report, and predictions."""
    _run_plan(state, plan_path, out_dir, write_taxonomy=True)


if __name__ == "__main__":
    main()
