import json
import os
from dataclasses import fields

from llb.protocol import STREAM_DEFAULTS, ExperimentConfig, HyperParams

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
