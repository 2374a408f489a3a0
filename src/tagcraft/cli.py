"""Command-line interface wiring config, datasets, backends, and the pipeline.

Every subcommand is a thin wrapper over the library operations; stdout
carries results, stderr carries errors (JSON-shaped with --json-errors).
A key-value config file can supply defaults for any flag; explicit flags
win, and environment variables only ever supply backend credentials.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import click

from . import experiment as xp
from .backends import Backend, HttpBackend, MockBackend
from .classify import classify as classify_document
from .describe import SamplePlan, bootstrap_taxonomy, contrast_taxonomy
from .errors import FileIOError, SchemaError, TagcraftError
from .extraction import extract_descriptor
from .fileio import read_json_object, read_text, write_json_atomic
from .model import (
    Document,
    RefinementConfig,
    SamplingStrategy,
    TopicDescriptor,
    group_by_label,
    load_taxonomy,
    name_key,
    save_taxonomy,
)
from .prompts import use_templates
from .refine import refine_loop
from .runlog import RunLog
from .topics import add_topic, revise_topic


@dataclass
class CliState:
    backend_kind: str
    seed: int
    log_path: str | None
    json_errors: bool

    def make_backend(self) -> Backend:
        if self.backend_kind == "mock":
            return MockBackend(seed=self.seed)
        return HttpBackend()

    def open_log(self) -> RunLog | contextlib.nullcontext:
        return RunLog.open(self.log_path) if self.log_path else contextlib.nullcontext()


def _load_config(path: str | None) -> dict[str, str]:
    """Parse a flat "key = value" config file; '#' starts a comment. A file
    that cannot be read, or is not UTF-8, is a usage error."""
    if not path:
        return {}
    try:
        text = read_text(path, "config")
    except (FileIOError, SchemaError) as err:
        raise click.UsageError(str(err)) from err
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"config line is not 'key = value': {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Make each config key the default of the flags it spells, globally and
    in every subcommand; a key spelling no flag is a usage error."""
    config = _load_config(path)
    known: set[str] = set()

    def defaults(command: click.Command) -> dict[str, str]:
        found = {}
        for option in command.params:
            for opt in option.opts:
                key = opt.lstrip("-").replace("-", "_")
                known.add(key)
                if key in config:
                    found[option.name] = config[key]
        return found

    ctx.default_map = defaults(main)
    ctx.default_map.update((name, defaults(command)) for name, command in main.commands.items())
    unknown = sorted(set(config) - known)
    if unknown:
        raise click.UsageError(f"config keys that name no flag: {', '.join(unknown)}")


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
@click.option("--config", type=click.Path(exists=True, dir_okay=False), is_eager=True, expose_value=False, callback=_apply_config, help="Key-value config file supplying flag defaults.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--log", "log_path", type=click.Path(), default=None, help="JSON-lines run log path.")
@click.option("--templates", "templates_dir", type=click.Path(exists=True, file_okay=False), default=None, help="Template override directory.")
@click.option("--json-errors", is_flag=True, default=False, help="Emit machine-parseable JSON errors on stderr.")
@click.pass_context
def main(ctx, **params):
    """Zero-shot classification with evolving category descriptions."""
    # Set on every invocation, so one run's override never reaches the next.
    use_templates(params.pop("templates_dir"))
    ctx.obj = CliState(**params)


def _apply_label_map(docs: list[Document], map_path: str | None) -> list[Document]:
    if not map_path:
        return docs
    mapping = read_json_object(map_path, "label map")
    if not all(isinstance(v, str) for v in mapping.values()):
        raise ValueError(f"label map {map_path} must be a JSON object mapping labels to name strings")
    return [
        replace(d, gold_label=mapping.get(d.gold_label, d.gold_label)) if d.gold_label else d
        for d in docs
    ]


@main.command()
@click.option("--dataset", "dataset_path", required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice([kind.value for kind in xp.DatasetKind]), default="csv", show_default=True)
@click.option("--labels", default=None, help="Comma-separated labels to bootstrap (default: all found).")
@click.option("--n", "n_samples", type=int, default=20, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--map-out", "map_path", type=click.Path(), default=None, help="Where to write the label -> category-name map (default: <out>.labels.json).")
@click.pass_obj
@_guarded
def bootstrap(state: CliState, dataset_path, fmt, labels, n_samples, out_path, map_path):
    """Bootstrap one category per label from sampled documents."""
    docs = xp.load_dataset(fmt, dataset_path)
    if labels:
        label_list = [x.strip() for x in labels.split(",") if x.strip()]
    else:
        label_list = list(group_by_label(docs))
    plan = SamplePlan(SamplingStrategy.SEEDED_RANDOM, n_samples, state.seed)
    backend = state.make_backend()
    taxonomy, mapping = bootstrap_taxonomy(docs, label_list, plan, backend)
    save_taxonomy(taxonomy, out_path)
    map_file = Path(map_path) if map_path else Path(out_path).with_suffix(".labels.json")
    write_json_atomic(map_file, mapping)
    click.echo(f"wrote {out_path} ({len(taxonomy)} categories); label map: {map_file}")


@main.command()
@click.option("--taxonomy", "taxonomy_path", required=True, type=click.Path())
@click.option("--out", "out_path", type=click.Path(), default=None, help="Defaults to rewriting --taxonomy in place.")
@click.pass_obj
@_guarded
def contrast(state: CliState, taxonomy_path, out_path):
    """Rewrite all descriptions to emphasize between-category contrast.

    Each category is contrasted from its base description, its latest
    bootstrap, refine, adapt or user-written text, so re-running this
    replaces the earlier contrast text instead of adding to it.
    """
    taxonomy = load_taxonomy(taxonomy_path)
    backend = state.make_backend()
    result = contrast_taxonomy(taxonomy, backend)
    save_taxonomy(result, out_path or taxonomy_path)
    click.echo(f"contrasted {len(result)} categories -> {out_path or taxonomy_path}")


@main.command()
@click.option("--taxonomy", "taxonomy_path", required=True, type=click.Path())
@click.option("--validate", "validate_path", required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice([kind.value for kind in xp.DatasetKind]), default="csv", show_default=True)
@click.option("--label-map", "label_map", type=click.Path(), default=None)
@click.option("--threshold", type=float, default=RefinementConfig.accuracy_threshold, show_default=True)
@click.option("--max-iters", type=int, default=RefinementConfig.max_iterations, show_default=True)
@click.option("--m", "m_validate", type=int, default=RefinementConfig.m_validate, show_default=True)
@click.option("--min-confusion", type=int, default=RefinementConfig.min_confusion_count, show_default=True)
@click.option("--top-k", type=int, default=RefinementConfig.top_k_pairs, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--report", "report_path", type=click.Path(), default=None)
@click.pass_obj
@_guarded
def refine(state: CliState, taxonomy_path, validate_path, fmt, label_map, threshold, max_iters,
           m_validate, min_confusion, top_k, out_path, report_path):
    """Run the iterative validate/refine loop against labeled documents."""
    taxonomy = load_taxonomy(taxonomy_path)
    docs = _apply_label_map(xp.load_dataset(fmt, validate_path), label_map)
    config = RefinementConfig(
        m_validate=m_validate,
        accuracy_threshold=threshold,
        max_iterations=max_iters,
        seed=state.seed,
        min_confusion_count=min_confusion,
        top_k_pairs=top_k,
    )
    backend = state.make_backend()
    with state.open_log() as log:
        result, report = refine_loop(taxonomy, docs, config, backend, log=log)
    save_taxonomy(result, out_path or taxonomy_path)
    report_file = Path(report_path) if report_path else Path(taxonomy_path).with_suffix(".report.json")
    write_json_atomic(report_file, asdict(report))
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
        text = read_text(file_path, "document")
    taxonomy = load_taxonomy(taxonomy_path)
    backend = state.make_backend()
    result = classify_document(Document(id="cli", text=text or ""), taxonomy, backend)
    click.echo(result.predicted)
    if verbose:
        click.echo(json.dumps(result.scores.scores, indent=2, sort_keys=True), err=True)


def _read_descriptor_options(name, description, from_json):
    if from_json:
        descriptor = extract_descriptor(read_text(from_json, "descriptor"))
        if name is not None and name_key(descriptor.topic_name) != name_key(name):
            raise click.UsageError(f"--from-json describes {descriptor.topic_name!r}, not --name {name!r}")
        return descriptor
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
    lines = [line.strip() for line in read_text(samples_path, "samples").splitlines() if line.strip()]
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
    )
    save_taxonomy(result, out_path or taxonomy_path)
    click.echo(f"revised {name}")


@main.command(name="run")
@click.option("--plan", "plan_path", required=True, type=click.Path())
@click.option("--out", "out_dir", type=click.Path(), default="tagcraft-run", show_default=True)
@click.pass_obj
@_guarded
def run_cmd(state: CliState, plan_path, out_dir):
    """Full pipeline: bootstrap, contrast, refine, evaluate, add the unseen
    classes, evaluate again; persists taxonomy, report, and predictions."""
    plan, config = xp.load_plan(plan_path)
    backend = state.make_backend()
    with state.open_log() as log:
        result = xp.run_experiment(plan, backend, config, log=log, checkpoint_dir=out_dir)
    report_path = xp.persist_result(result, out_dir)
    click.echo(
        f"phase1 accuracy {result.phase1.overall_accuracy:.3f}; "
        f"phase2 accuracy {result.phase2.overall_accuracy:.3f}; "
        f"seen-class shift {result.accuracy_shift:+.3f}; report -> {report_path}"
    )


if __name__ == "__main__":
    main()
