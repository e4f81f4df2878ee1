import argparse
import json
import os
import re
from dataclasses import fields

import llb
from llb.cli import build_parser, main
from llb.protocol import STREAM_DEFAULTS, ExperimentConfig, HyperParams
from llb.selftest import SUITES

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_section(title: str) -> str:
    with open(README) as f:
        text = f.read()
    start = text.index(title)
    return text[start : text.index("\n### ", start)]


def test_stream_table_lists_every_key_with_its_default():
    section = readme_section("### Config schema")
    for kind, defaults in STREAM_DEFAULTS.items():
        row = next(line for line in section.splitlines() if line.startswith(f"| `{kind}` |"))
        for key, default in defaults.items():
            assert f"`{key}` ({json.dumps(default)}" in row, (kind, key)


def test_json_example_lists_every_field():
    section = readme_section("### Config schema")
    example = section[section.index("```json") : section.index("```\n", section.index("```json") + 7)]
    for f in fields(ExperimentConfig):
        assert f'"{f.name}":' in example, f.name
    for f in fields(HyperParams):
        assert f'"{f.name}": {json.dumps(f.default)}' in example, f.name


def test_command_line_section_names_every_flag():
    section = readme_section("## Command line")
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in commands.choices.items():
        assert f"llb {name}" in section, name
        for action in parser._actions:
            for flag in action.option_strings:
                if flag not in ("-h", "--help"):
                    # "--learner" must not be read off "--learners"
                    assert re.search(re.escape(flag) + r"(?![\w-])", section), (name, flag)


def test_install_section_names_every_selftest_suite():
    section = " ".join(readme_section("## Install and test").split())    # unwrapped
    for name, *_ in SUITES:
        assert name in section, name


def test_outputs_paragraph_names_exactly_the_files_run_writes(tmp_path, capsys):
    paragraph = readme_section("Outputs per `--out` directory").split("All metric content")[0]
    config = tmp_path / "toy.json"
    config.write_text(json.dumps({
        "stream": {"kind": "permuted-mnist", "tasks": 2, "cv_split": 1, "train_per_task": 20,
                   "test_per_task": 10, "base_train": 60, "base_test": 20},
        "hidden": [5], "base": {"memory_per_task": 5, "ref_batch_size": 4},
        "grid": {"lr": [0.05]}, "seeds": [0],
    }))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert set(re.findall(r"`(\w+\.(?:json|csv))`", paragraph)) == set(os.listdir(out))


def test_library_tour_imports_only_package_exports():
    with open(README) as f:
        text = f.read()
    tour = text[text.index("## Library tour"):]
    block = re.search(r"from llb import \((.*?)\)", tour, re.S).group(1)
    names = block.replace(",", " ").split()
    assert "HyperParams" in names and "run_single_pass" in names
    assert [name for name in names if not hasattr(llb, name)] == []
