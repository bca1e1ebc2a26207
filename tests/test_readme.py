"""README.md is the user's manual, held to the code: its command table names
every subcommand with exactly its flags, its configuration table every
settable key with its default and what it accepts, and its module list
every module of the package once."""

from __future__ import annotations

import argparse
import dataclasses
import re
from pathlib import Path

import yaml

import subtune
from subtune.cli import _build_parser
from subtune.config import _BLOCKED_KEYS, config_from_dict, config_to_dict, default_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _section(title: str) -> str:
    (text,) = re.findall(rf"^## {title}\n(.*?)(?=^## |\Z)", README, flags=re.M | re.S)
    return text


def _table(text: str) -> dict[str, list[str]]:
    """Each table row whose first cell is one code span: that span's text,
    then the row's other cells."""
    rows = {}
    for name, rest in re.findall(r"^\| `([^`]+)` \|(.*)\|$", text, flags=re.M):
        assert name not in rows, f"{name} has two rows"
        rows[name] = [cell.strip() for cell in rest.split("|")]
    return rows


def _settable_keys() -> dict:
    """Every dotted key of the default config a file may set, with its
    default, in the config's own order."""
    derived = {f"data.{key}" for key in _BLOCKED_KEYS["data"]}
    flat = {}

    def walk(section: dict, prefix: str) -> None:
        for key, value in section.items():
            if isinstance(value, dict):
                walk(value, f"{prefix}{key}.")
            else:
                flat[f"{prefix}{key}"] = value

    walk(config_to_dict(default_config()), "")
    return {key: value for key, value in flat.items() if key not in derived}


def test_the_command_table_names_every_subcommand_with_its_flags():
    (subparsers,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    table = _table(_section("Quick start"))
    assert sorted(table) == sorted(subparsers.choices)
    for name, parser in subparsers.choices.items():
        flags = [flag for action in parser._actions if action.dest != "help" for flag in action.option_strings]
        assert sorted(re.findall(r"`(--[a-z-]+)`", table[name][0])) == sorted(flags), name


def test_the_config_table_gives_every_settable_key_its_default():
    keys = _settable_keys()
    table = _table(_section("Configuration"))
    assert list(table) == list(keys)
    for key, default in keys.items():
        cell = table[key][0]
        assert re.fullmatch(r"`[^`]+`", cell), (key, cell)
        loaded = yaml.safe_load(cell[1:-1])
        assert loaded == default and type(loaded) is type(default), (key, cell, default)


def test_the_config_table_states_what_each_key_accepts_as_its_declaration_does():
    # the accepts cell reads as the refusal message states the bound; a key
    # that declares none (the split sizes, bound by clip_size, and the keys
    # each rank_policy bounds) has a dash
    table = _table(_section("Configuration"))
    cfg = default_config()
    for key in _settable_keys():
        prefix, _, name = key.rpartition(".")
        section = getattr(cfg, prefix) if prefix else cfg
        (f,) = [f for f in dataclasses.fields(section) if f.name == name]
        text = f.metadata.get("accepts")
        assert table[key][1] == (f"`{text}`" if text else "—"), key


def test_the_config_example_loads():
    (example,) = re.findall(r"^```yaml\n(.*?)^```", _section("Configuration"), flags=re.M | re.S)
    config_from_dict(yaml.safe_load(example))


def test_the_module_list_names_each_module_once():
    listed = re.findall(r"^- `([^`]+)` ", _section("What is inside"), flags=re.M)
    modules = [path.stem for path in Path(subtune.__file__).parent.glob("*.py")]
    assert sorted(listed) == sorted(modules)


def test_the_testing_block_lists_every_digest_regeneration():
    # a test file with a --write mode ends in ``if __name__ == "__main__" and ... "--write"``
    tests = Path(__file__).resolve().parent
    writers = [path.name for path in tests.glob("*.py")
               if re.search(r'^if __name__ == "__main__".*"--write"', path.read_text(), flags=re.M)]
    listed = re.findall(r"^PYTHONPATH=src python tests/(\S+) --write$", _section("Testing"), flags=re.M)
    assert sorted(listed) == sorted(writers)
