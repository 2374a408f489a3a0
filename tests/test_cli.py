from __future__ import annotations

import json
from dataclasses import asdict, replace

import pytest
from click.testing import CliRunner

from helpers import class_vocab, keyword_documents, write_generic_csv, write_plan
from tagcraft import Document, MockBackend, RefinementConfig, refine_loop
from tagcraft import experiment as xp
from tagcraft.cli import CliState, main
from tagcraft.datasets import load_generic_csv
from tagcraft.model import load_taxonomy


@pytest.fixture
def runner() -> CliRunner:
    return CliRunner()


@pytest.fixture
def corpus_csv(tmp_path):
    docs = keyword_documents(class_vocab(3), per_class=30, seed=23)
    return write_generic_csv(docs, tmp_path / "corpus.csv")


def _bootstrap(runner, corpus_csv, tmp_path, labels="ClassA,ClassB,ClassC"):
    out = tmp_path / "tax.json"
    result = runner.invoke(
        main,
        [
            "--backend", "mock", "--seed", "4",
            "bootstrap", "--dataset", str(corpus_csv), "--labels", labels,
            "--n", "10", "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    return out


def _inseparable_csv(tmp_path):
    """The same text under all three labels, ten documents each."""
    text = " ".join(class_vocab(3)["ClassA"][:5])
    bad = [
        Document(id=f"{label}-{i}", text=text, gold_label=label)
        for label in ("ClassA", "ClassB", "ClassC")
        for i in range(10)
    ]
    return write_generic_csv(bad, tmp_path / "bad.csv")


def test_bootstrap_writes_taxonomy_and_label_map(runner, corpus_csv, tmp_path) -> None:
    out = _bootstrap(runner, corpus_csv, tmp_path)
    taxonomy = load_taxonomy(out)
    assert len(taxonomy) == 3
    mapping = json.loads((tmp_path / "tax.labels.json").read_text(encoding="utf-8"))
    assert set(mapping) == {"ClassA", "ClassB", "ClassC"}
    assert set(mapping.values()) == set(taxonomy.names())


def test_contrast_command_rewrites_in_place(runner, corpus_csv, tmp_path) -> None:
    out = _bootstrap(runner, corpus_csv, tmp_path)
    before = load_taxonomy(out)
    result = runner.invoke(main, ["contrast", "--taxonomy", str(out)])
    assert result.exit_code == 0, result.output
    after = load_taxonomy(out)
    assert after.names() == before.names()
    assert all(len(c.history) == 2 for c in after.categories)


def test_contrast_command_rerun_replaces_earlier_contrast(runner, corpus_csv, tmp_path) -> None:
    out = _bootstrap(runner, corpus_csv, tmp_path)
    once = tmp_path / "once.json"
    twice = tmp_path / "twice.json"
    for source, target in ((out, once), (once, twice)):
        result = runner.invoke(
            main, ["--backend", "mock", "contrast", "--taxonomy", str(source), "--out", str(target)]
        )
        assert result.exit_code == 0, result.output
    first, second = load_taxonomy(once), load_taxonomy(twice)
    assert [c.descriptor for c in second.categories] == [c.descriptor for c in first.categories]
    assert all(len(c.history) == 3 for c in second.categories)


def test_refine_command_reports_threshold_met(runner, corpus_csv, tmp_path) -> None:
    out = _bootstrap(runner, corpus_csv, tmp_path)
    result = runner.invoke(
        main,
        [
            "refine", "--taxonomy", str(out), "--validate", str(corpus_csv),
            "--label-map", str(tmp_path / "tax.labels.json"),
            "--threshold", "0.8", "--max-iters", "4", "--m", "10",
        ],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "tax.report.json").read_text(encoding="utf-8"))
    assert report["stop_reason"] == "threshold_met"
    assert report["iterations_run"] == 1


def test_json_inputs_may_start_with_a_byte_order_mark(runner, corpus_csv, tmp_path) -> None:
    out = _bootstrap(runner, corpus_csv, tmp_path)
    label_map = tmp_path / "tax.labels.json"
    plan = write_plan(tmp_path / "plan.json", corpus_csv, seen=["ClassA"], unseen=["ClassB"])
    plain_plan = xp.load_plan(plan)
    for path in (out, label_map, plan):
        path.write_text(path.read_text(encoding="utf-8"), encoding="utf-8-sig")
    assert xp.load_plan(plan) == plain_plan
    result = runner.invoke(
        main,
        [
            "refine", "--taxonomy", str(out), "--validate", str(corpus_csv),
            "--label-map", str(label_map), "--max-iters", "1", "--m", "10",
        ],
    )
    assert result.exit_code == 0, result.output


def test_dataset_that_is_not_utf8_is_a_schema_error_naming_the_file(runner, tmp_path) -> None:
    dataset = tmp_path / "latin1.csv"
    dataset.write_bytes("text,label\ncafé au lait,Drinks\n".encode("latin-1"))
    result = runner.invoke(
        main,
        [
            "--json-errors", "--backend", "mock",
            "bootstrap", "--dataset", str(dataset), "--labels", "Drinks", "--out", str(tmp_path / "t.json"),
        ],
    )
    assert result.exit_code == 1
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert payload["error"] == "SchemaError"
    assert str(dataset) in payload["message"]


@pytest.mark.parametrize("option", ["--config", "--file", "--samples", "--from-json", "--templates"])
def test_input_file_that_is_not_utf8_is_an_error_naming_the_file(
    runner, corpus_csv, tmp_path, option
) -> None:
    taxonomy = str(_bootstrap(runner, corpus_csv, tmp_path))
    # Named as a template override, and read as Latin-1 fit for every option.
    bad = tmp_path / "templates" / "classify.txt"
    bad.parent.mkdir()
    bad.write_bytes('{"topic_name": "Cafe", "topic_description": "café au lait"}\n'.encode("latin-1"))
    classify = ["classify", "--taxonomy", taxonomy, "--text", "x"]
    add_topic = ["add-topic", "--taxonomy", taxonomy]
    args = {
        "--config": ["--config", str(bad), *classify],
        "--file": ["classify", "--taxonomy", taxonomy, "--file", str(bad)],
        "--samples": [*add_topic, "--name", "Cafe", "--description", "coffee", "--samples", str(bad)],
        "--from-json": [*add_topic, "--from-json", str(bad)],
        "--templates": ["--templates", str(bad.parent), *classify],
    }[option]
    result = runner.invoke(main, ["--json-errors", *args])
    assert result.exception is None or isinstance(result.exception, SystemExit)
    if option == "--config":  # read while the flags are parsed: a usage error
        assert result.exit_code == 2
        assert f"config {bad} is not UTF-8 text" in result.output
        return
    assert result.exit_code == 1
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert payload["error"] == "SchemaError"
    assert f"{bad} is not UTF-8 text" in payload["message"]


def test_refine_scripted_below_threshold_runs_four_rounds(runner, corpus_csv, tmp_path) -> None:
    # Inseparable validation corpus: identical texts under all three labels, so
    # at least one category stays at zero accuracy no matter how descriptions
    # evolve, and the loop must exhaust its four iterations.
    out = _bootstrap(runner, corpus_csv, tmp_path)
    bad_csv = _inseparable_csv(tmp_path)
    result = runner.invoke(
        main,
        [
            "refine", "--taxonomy", str(out), "--validate", str(bad_csv),
            "--label-map", str(tmp_path / "tax.labels.json"),
            "--threshold", "0.8", "--max-iters", "4", "--m", "10",
        ],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "tax.report.json").read_text(encoding="utf-8"))
    assert report["stop_reason"] == "max_iterations"
    assert report["iterations_run"] == 4


def test_refine_report_is_the_experiment_refinement_serializer(runner, corpus_csv, tmp_path) -> None:
    out = _bootstrap(runner, corpus_csv, tmp_path)
    bad_csv = _inseparable_csv(tmp_path)
    result = runner.invoke(
        main,
        [
            "refine", "--taxonomy", str(out), "--validate", str(bad_csv),
            "--label-map", str(tmp_path / "tax.labels.json"),
            "--max-iters", "2", "--m", "10", "--min-confusion", "1", "--top-k", "1",
            "--out", str(tmp_path / "refined.json"),
        ],
    )
    assert result.exit_code == 0, result.output

    mapping = json.loads((tmp_path / "tax.labels.json").read_text(encoding="utf-8"))
    docs = [replace(d, gold_label=mapping[d.gold_label]) for d in load_generic_csv(bad_csv)]
    # One mined pair adapts one of the two missed categories; the other is refined.
    config = RefinementConfig(m_validate=10, max_iterations=2, min_confusion_count=1, top_k_pairs=1)
    _, report = refine_loop(load_taxonomy(out), docs, config, MockBackend(seed=0))
    assert any(record.refined and record.adapted for record in report.per_iteration)
    expected = json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "tax.report.json").read_text(encoding="utf-8") == expected


def test_classify_prints_predicted_name(runner, corpus_csv, tmp_path) -> None:
    out = _bootstrap(runner, corpus_csv, tmp_path)
    mapping = json.loads((tmp_path / "tax.labels.json").read_text(encoding="utf-8"))
    vocab = class_vocab(3)
    text = " ".join(vocab["ClassB"][:5])
    result = runner.invoke(main, ["classify", "--taxonomy", str(out), "--text", text])
    assert result.exit_code == 0, result.output
    assert result.output.strip() == mapping["ClassB"]


def test_classify_is_thin_wrapper_over_library(runner, corpus_csv, tmp_path) -> None:
    out = _bootstrap(runner, corpus_csv, tmp_path)
    text = " ".join(class_vocab(3)["ClassC"][:6])
    cli_result = runner.invoke(main, ["--seed", "4", "classify", "--taxonomy", str(out), "--text", text])
    assert cli_result.exit_code == 0

    from tagcraft import Document, MockBackend, classify

    library_result = classify(Document(id="cli", text=text), load_taxonomy(out), MockBackend(seed=4))
    assert cli_result.output.strip() == library_result.predicted


def test_classify_single_category_taxonomy(runner, corpus_csv, tmp_path) -> None:
    out = _bootstrap(runner, corpus_csv, tmp_path, labels="ClassA")
    taxonomy = load_taxonomy(out)
    result = runner.invoke(main, ["classify", "--taxonomy", str(out), "--text", "anything at all"])
    assert result.exit_code == 0
    assert result.output.strip() == taxonomy.names()[0]


def test_classify_file_input_and_verbose_scores(runner, corpus_csv, tmp_path) -> None:
    out = _bootstrap(runner, corpus_csv, tmp_path)
    doc = tmp_path / "doc.txt"
    doc.write_text(" ".join(class_vocab(3)["ClassA"][:4]), encoding="utf-8")
    result = runner.invoke(
        main, ["classify", "--taxonomy", str(out), "--file", str(doc), "--verbose"]
    )
    assert result.exit_code == 0, result.output


def test_add_and_revise_topic_commands(runner, corpus_csv, tmp_path) -> None:
    out = _bootstrap(runner, corpus_csv, tmp_path)
    result = runner.invoke(
        main,
        [
            "add-topic", "--taxonomy", str(out), "--name", "Cloud_Issues",
            "--description", "ec2 azure vm failures", "--no-contrast",
        ],
    )
    assert result.exit_code == 0, result.output
    taxonomy = load_taxonomy(out)
    assert taxonomy.names()[-1] == "Cloud_Issues"
    result = runner.invoke(
        main,
        [
            "revise-topic", "--taxonomy", str(out), "--name", "Cloud_Issues",
            "--description", "also covers kubernetes clusters",
        ],
    )
    assert result.exit_code == 0, result.output
    taxonomy = load_taxonomy(out)
    assert len(taxonomy.get("Cloud_Issues").history) == 2


def test_revise_topic_from_json_naming_another_category_is_a_usage_error(
    runner, corpus_csv, tmp_path, monkeypatch
) -> None:
    out = _bootstrap(runner, corpus_csv, tmp_path)
    before = out.read_bytes()
    alpha, beta = load_taxonomy(out).names()[:2]
    source = tmp_path / "topic.json"
    source.write_text(json.dumps({"topic_name": beta, "topic_description": "x"}), encoding="utf-8")

    def no_backend(state):
        raise AssertionError("no backend may be made")

    monkeypatch.setattr(CliState, "make_backend", no_backend)
    result = runner.invoke(
        main, ["revise-topic", "--taxonomy", str(out), "--name", alpha, "--from-json", str(source)]
    )
    assert result.exit_code == 2, result.output
    assert beta in result.output
    assert out.read_bytes() == before


def test_add_topic_from_json_naming_another_topic_than_name_is_a_usage_error(
    runner, corpus_csv, tmp_path, monkeypatch
) -> None:
    out = _bootstrap(runner, corpus_csv, tmp_path)
    before = out.read_bytes()
    source = tmp_path / "topic.json"
    source.write_text(
        json.dumps({"topic_name": "Other_Topic", "topic_description": "x"}), encoding="utf-8"
    )

    def untouched(*args):
        raise AssertionError("neither the taxonomy nor a backend may be touched")

    monkeypatch.setattr("tagcraft.cli.load_taxonomy", untouched)
    monkeypatch.setattr(CliState, "make_backend", untouched)
    result = runner.invoke(
        main,
        ["add-topic", "--taxonomy", str(out), "--name", "Fresh_Topic", "--from-json", str(source)],
    )
    assert result.exit_code == 2, result.output
    assert "Other_Topic" in result.output
    assert out.read_bytes() == before


def test_add_topic_duplicate_exits_nonzero_with_json_error(runner, corpus_csv, tmp_path) -> None:
    out = _bootstrap(runner, corpus_csv, tmp_path)
    args = [
        "--json-errors",
        "add-topic", "--taxonomy", str(out), "--name", "Cloud_Issues",
        "--description", "x", "--no-contrast",
    ]
    assert runner.invoke(main, args).exit_code == 0
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert payload["error"] == "DuplicateNameError"


def test_run_command_persists_taxonomy_too(runner, tmp_path) -> None:
    docs = keyword_documents(class_vocab(3), per_class=30, seed=31)
    corpus = write_generic_csv(docs, tmp_path / "c.csv")
    plan = write_plan(
        tmp_path / "plan.json", corpus,
        seen=["ClassA", "ClassB"], unseen=["ClassC"],
        n_bootstrap=5, m_validate=5, test_per_class=10, seed=2,
    )
    result = runner.invoke(main, ["run", "--plan", str(plan), "--out", str(tmp_path / "runout")])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "runout" / "report.json").read_text(encoding="utf-8"))
    assert report["phase2"]["n_documents"] == 30
    assert (tmp_path / "runout" / "taxonomy.json").exists()
    assert (tmp_path / "runout" / "predictions.jsonl").exists()


@pytest.mark.parametrize("labels", ["ClassA", [1, 2], ["ClassA", None]])
def test_run_command_rejects_seen_labels_that_are_not_a_list_of_strings(
    runner, corpus_csv, tmp_path, labels
) -> None:
    plan = write_plan(tmp_path / "plan.json", corpus_csv, seen=["ClassA"], unseen=[])
    data = json.loads(plan.read_text(encoding="utf-8"))
    data["seen_labels"] = labels
    plan.write_text(json.dumps(data), encoding="utf-8")
    result = runner.invoke(main, ["run", "--plan", str(plan), "--out", str(tmp_path / "runout")])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "error: invalid plan" in result.output
    assert "seen_labels must be a list of strings" in result.output


def test_run_command_reports_a_class_too_small_for_the_plan(runner, corpus_csv, tmp_path) -> None:
    plan = write_plan(tmp_path / "plan.json", corpus_csv, seen=["ClassA"], unseen=["ClassB"])
    result = runner.invoke(
        main, ["--json-errors", "run", "--plan", str(plan), "--out", str(tmp_path / "runout")]
    )
    assert result.exit_code == 1
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert payload == {
        "error": "SchemaError",
        "message": "class 'ClassA' needs 145 documents but only 30 are available",
    }


def test_unknown_subcommand_exits_two(runner) -> None:
    result = runner.invoke(main, ["frobnicate"])
    assert result.exit_code == 2


def test_removed_resample_flag_is_a_usage_error(runner, corpus_csv, tmp_path) -> None:
    out = _bootstrap(runner, corpus_csv, tmp_path)
    result = runner.invoke(
        main,
        ["refine", "--taxonomy", str(out), "--validate", str(corpus_csv), "--resample"],
    )
    assert result.exit_code == 2
    assert "--resample" in result.output


def test_removed_strategy_flag_is_a_usage_error(runner, corpus_csv, tmp_path) -> None:
    result = runner.invoke(
        main,
        [
            "bootstrap", "--dataset", str(corpus_csv), "--strategy", "first_n",
            "--out", str(tmp_path / "tax.json"),
        ],
    )
    assert result.exit_code == 2
    assert "--strategy" in result.output
    assert not (tmp_path / "tax.json").exists()


@pytest.mark.parametrize(
    "payload", ["[1]", '{"ClassA": 1}', "{oops"], ids=["list", "non-string-name", "not-json"]
)
@pytest.mark.parametrize("json_errors", [False, True], ids=["text", "json"])
def test_label_map_must_map_labels_to_names(
    runner, corpus_csv, tmp_path, monkeypatch, payload, json_errors
) -> None:
    out = _bootstrap(runner, corpus_csv, tmp_path)
    label_map = tmp_path / "map.json"
    label_map.write_text(payload, encoding="utf-8")

    def no_backend(state):
        raise AssertionError("a bad label map must fail before any backend call")

    monkeypatch.setattr(CliState, "make_backend", no_backend)
    result = runner.invoke(
        main,
        [
            *(["--json-errors"] if json_errors else []),
            "refine", "--taxonomy", str(out), "--validate", str(corpus_csv),
            "--label-map", str(label_map), "--m", "10",
        ],
    )
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    line = result.output.strip().splitlines()[-1]
    if json_errors:
        assert str(label_map) in json.loads(line)["message"]
    else:
        assert line.startswith("error:") and str(label_map) in line
    assert not (tmp_path / "tax.report.json").exists()


@pytest.mark.parametrize(
    "payload, error", [(None, "FileIOError"), ("{oops", "SchemaError")], ids=["missing", "not-json"]
)
def test_label_map_errors_are_typed(runner, corpus_csv, tmp_path, payload, error) -> None:
    out = _bootstrap(runner, corpus_csv, tmp_path)
    label_map = tmp_path / "map.json"
    if payload is not None:
        label_map.write_text(payload, encoding="utf-8")
    result = runner.invoke(
        main,
        [
            "--json-errors", "refine", "--taxonomy", str(out), "--validate", str(corpus_csv),
            "--label-map", str(label_map), "--m", "10",
        ],
    )
    assert result.exit_code == 1, result.output
    assert json.loads(result.output.strip().splitlines()[-1])["error"] == error


def test_unwritable_cli_json_outputs_are_file_io_errors(runner, corpus_csv, tmp_path) -> None:
    missing = tmp_path / "no" / "such" / "dir"
    invocations = {
        "map.json": ["bootstrap", "--dataset", str(corpus_csv), "--labels", "ClassA,ClassB",
                     "--n", "10", "--out", str(tmp_path / "t.json"),
                     "--map-out", str(missing / "map.json")],
        "report.json": ["refine", "--taxonomy", str(_bootstrap(runner, corpus_csv, tmp_path)),
                        "--validate", str(corpus_csv), "--label-map", str(tmp_path / "tax.labels.json"),
                        "--m", "10", "--max-iters", "1", "--report", str(missing / "report.json")],
    }
    for name, args in invocations.items():
        result = runner.invoke(main, ["--json-errors", *args])
        assert result.exit_code == 1, result.output
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["error"] == "FileIOError"
        assert str(missing / name) in payload["message"]


def test_missing_taxonomy_file_is_operational_error(runner, tmp_path) -> None:
    result = runner.invoke(
        main, ["classify", "--taxonomy", str(tmp_path / "none.json"), "--text", "x"]
    )
    assert result.exit_code == 1


def test_missing_config_file_is_a_usage_error(runner, tmp_path) -> None:
    result = runner.invoke(
        main, ["--config", str(tmp_path / "none.conf"), "classify", "--taxonomy", "t", "--text", "x"]
    )
    assert result.exit_code == 2
    assert "--config" in result.output


@pytest.mark.parametrize("command", ["add-topic", "revise-topic"])
@pytest.mark.parametrize("payload", ["{}", "[1]"])
def test_from_json_without_a_descriptor_is_an_operational_error(
    runner, corpus_csv, tmp_path, command, payload
) -> None:
    out = _bootstrap(runner, corpus_csv, tmp_path)
    source = tmp_path / "topic.json"
    source.write_text(payload, encoding="utf-8")
    # revise-topic needs a category that exists, add-topic one that does not.
    name = load_taxonomy(out).names()[0] if command == "revise-topic" else "Fresh_Topic"
    result = runner.invoke(
        main, [command, "--taxonomy", str(out), "--name", name, "--from-json", str(source)]
    )
    assert result.exit_code == 1
    assert result.output.startswith("error:")
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_config_file_supplies_defaults_and_flags_override(runner, corpus_csv, tmp_path) -> None:
    config = tmp_path / "conf.txt"
    config.write_text("seed = 4\nn = 10\nbackend = mock\n", encoding="utf-8")
    out = tmp_path / "tax.json"
    result = runner.invoke(
        main,
        [
            "--config", str(config),
            "bootstrap", "--dataset", str(corpus_csv),
            "--labels", "ClassA,ClassB,ClassC", "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    via_config = load_taxonomy(out)

    out2 = tmp_path / "tax2.json"
    result = runner.invoke(
        main,
        [
            "--backend", "mock", "--seed", "4",
            "bootstrap", "--dataset", str(corpus_csv),
            "--labels", "ClassA,ClassB,ClassC", "--n", "10", "--out", str(out2),
        ],
    )
    assert result.exit_code == 0, result.output
    explicit = load_taxonomy(out2)
    assert via_config == explicit

    # explicit flag beats the config value
    out3 = tmp_path / "tax3.json"
    result = runner.invoke(
        main,
        [
            "--config", str(config), "--seed", "99",
            "bootstrap", "--dataset", str(corpus_csv),
            "--labels", "ClassA", "--n", "3", "--out", str(out3),
        ],
    )
    assert result.exit_code == 0, result.output


def test_config_file_may_start_with_a_byte_order_mark(runner, corpus_csv, tmp_path) -> None:
    explicit = load_taxonomy(_bootstrap(runner, corpus_csv, tmp_path))
    config = tmp_path / "conf.txt"
    config.write_text("seed = 4\nn = 10\nbackend = mock\n", encoding="utf-8-sig")
    out = tmp_path / "via-config.json"
    result = runner.invoke(
        main,
        [
            "--config", str(config),
            "bootstrap", "--dataset", str(corpus_csv),
            "--labels", "ClassA,ClassB,ClassC", "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    assert load_taxonomy(out) == explicit


@pytest.mark.parametrize(
    "line",
    ["max_iter = 1", "adapt_after_loop = true"],
    ids=["misspelt-max-iters", "removed-adapt-after-loop"],
)
def test_config_key_naming_no_flag_is_a_usage_error(runner, corpus_csv, tmp_path, line) -> None:
    out = _bootstrap(runner, corpus_csv, tmp_path)
    config = tmp_path / "conf.txt"
    config.write_text(f"seed = 4\n{line}\n", encoding="utf-8")
    result = runner.invoke(
        main,
        [
            "--config", str(config),
            "refine", "--taxonomy", str(out), "--validate", str(corpus_csv),
            "--label-map", str(tmp_path / "tax.labels.json"), "--m", "10",
        ],
    )
    assert result.exit_code == 2, result.output
    assert line.split(" = ")[0] in result.output
    assert not (tmp_path / "tax.report.json").exists()


def test_templates_flag_overrides_shipped_prompt(runner, corpus_csv, tmp_path) -> None:
    out = _bootstrap(runner, corpus_csv, tmp_path)
    override_dir = tmp_path / "templates"
    override_dir.mkdir()
    # A classify prompt that drops the Document/Categories markers entirely:
    # the mock then scores candidate names against the whole prompt text.
    (override_dir / "classify.txt").write_text(
        "Pick one of:\n{descriptor_block}\nfor: {document}\n", encoding="utf-8"
    )
    mapping = json.loads((tmp_path / "tax.labels.json").read_text(encoding="utf-8"))
    result = runner.invoke(
        main,
        [
            "--templates", str(override_dir),
            "classify", "--taxonomy", str(out),
            "--text", " ".join(class_vocab(3)["ClassA"][:4]),
        ],
    )
    assert result.exit_code == 0, result.output
    assert result.output.strip() in mapping.values()


def test_templates_flag_does_not_outlive_its_invocation(runner, corpus_csv, tmp_path) -> None:
    override_dir = tmp_path / "templates"
    override_dir.mkdir()
    (override_dir / "tag_generation.txt").write_text("flag flag override\n", encoding="utf-8")

    def bootstrap_names(*flags: str) -> tuple[str, ...]:
        out = tmp_path / "tax.json"
        result = runner.invoke(
            main,
            [
                *flags,
                "bootstrap", "--dataset", str(corpus_csv), "--labels", "ClassA,ClassB",
                "--n", "10", "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        return load_taxonomy(out).names()

    assert bootstrap_names("--templates", str(override_dir)) == ("Flag_Override", "Flag_Override_2")
    shipped = bootstrap_names()
    assert not any(name.startswith("Flag_Override") for name in shipped)
    config = tmp_path / "conf.txt"
    config.write_text(f"templates = {override_dir}\n", encoding="utf-8")
    assert bootstrap_names("--config", str(config)) == ("Flag_Override", "Flag_Override_2")
    assert bootstrap_names() == shipped


@pytest.mark.parametrize("source", ["flag", "config"])
def test_missing_templates_directory_is_a_usage_error(runner, corpus_csv, tmp_path, source) -> None:
    out = _bootstrap(runner, corpus_csv, tmp_path)
    missing = tmp_path / "no-such-dir"
    if source == "flag":
        flags = ["--templates", str(missing)]
    else:
        config = tmp_path / "conf.txt"
        config.write_text(f"templates = {missing}\n", encoding="utf-8")
        flags = ["--config", str(config)]
    result = runner.invoke(main, [*flags, "classify", "--taxonomy", str(out), "--text", "aqua"])
    assert result.exit_code == 2, result.output
    assert str(missing) in result.output
    assert "Traceback" not in result.output


def test_run_log_records_refinement_events(runner, corpus_csv, tmp_path) -> None:
    out = _bootstrap(runner, corpus_csv, tmp_path)
    log_path = tmp_path / "events.jsonl"
    result = runner.invoke(
        main,
        [
            "--log", str(log_path),
            "refine", "--taxonomy", str(out), "--validate", str(corpus_csv),
            "--label-map", str(tmp_path / "tax.labels.json"), "--m", "10",
        ],
    )
    assert result.exit_code == 0, result.output
    events = [json.loads(line) for line in log_path.read_text(encoding="utf-8").splitlines()]
    assert events and events[0]["stage"] == "validate"
    assert {"ts", "stage", "iteration", "ok"} <= set(events[0])
