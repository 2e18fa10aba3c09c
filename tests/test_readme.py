"""The Python examples in README.md run as written, its command-line
block names each subcommand once, its config table lists exactly the
keys and defaults of the config schema, every `<block>.<key>` it names
is a key of the schema, and every datum and direction kind builds from
its documented defaults in every dimension."""

import argparse
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import pytest

import fracnls
from fracnls import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:  # later blocks use names the earlier ones set
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_command_line_names_each_subcommand_once():
    block = re.search(r"## Command line\n\n```\n(.*?)```",
                      README.read_text(), re.S).group(1)
    named = sorted(line.split()[1] for line in block.splitlines()
                   if line.startswith("fracnls "))
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert named == sorted(subparsers.choices)


def test_readme_names_only_schema_keys():
    # every `<block>.<key>` named whose block is a schema table is a key
    # of it; datum and direction take kind or a key of one of their kinds
    tables = {name: set(keys) for name, keys in cli._SCHEMA.items()}
    for where, kinds in cli._KINDS.items():
        tables[where] = {"kind"}.union(*(tables[kind] for kind in kinds))
    named = [(block, key) for block, key
             in re.findall(r"`(\w+)\.(\w+)`", README.read_text())
             if block in tables]
    assert named
    assert [name for name in named if name[1] not in tables[name[0]]] == []


def _config_table() -> dict:
    """(table, key) -> default cell of the README config table; the
    table is the last name quoted in the block column."""
    rows = {}
    for line in README.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if not line.startswith("| ") or len(cells) != 4:
            continue
        block, key = re.findall(r"`([^`]*)`", cells[0]), cells[1]
        if block and re.fullmatch(r"`\w+`", key):
            assert (block[-1], key[1:-1]) not in rows
            rows[block[-1], key[1:-1]] = cells[3]
    return rows


def test_readme_config_table_matches_schema():
    schema = {(table, key): default
              for table, keys in cli._SCHEMA.items()
              for key, (_, default) in keys.items()}
    rows = _config_table()
    assert set(rows) == set(schema)
    for (table, key), default in schema.items():
        cell = rows[table, key]
        if default is cli._REQUIRED:
            assert cell == "required", (table, key)
        elif default is cli._UNSET:
            assert cell.startswith("—"), (table, key)
        else:
            if callable(default):
                assert f"(`{default.__name__}`)" in cell, (table, key)
                default = inspect.signature(default).parameters[key].default
            shown = json.loads(re.match(r"`([^`]*)`", cell).group(1))
            assert shown == default and type(shown) is type(default), (
                table, key, cell)


def _documented_kind_defaults() -> dict:
    """Field kind -> {key: default} as the README config table shows."""
    rows = _config_table()
    kinds = {kind for kinds in cli._KINDS.values() for kind in kinds}
    return {kind: {key: json.loads(re.match(r"`([^`]*)`", cell).group(1))
                   for (table, key), cell in rows.items() if table == kind}
            for kind in kinds}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_readme_field_defaults_build_in_every_dimension(tmp_path, dim):
    # every datum and direction kind, written with its documented
    # defaults, loads and builds on a grid of each dimension
    defaults = _documented_kind_defaults()
    for where in ("datum", "direction"):
        for kind in cli._KINDS[where]:
            config = {
                "problem": {"dimension": dim, "regularity": 0.4,
                            "power": 1.0},
                "grid": {"points": 16, "period": 16.0},
                "datum": {"kind": "gaussian"},
                "family": {"initial_scale": 0.01, "depth": 1},
                "seed": 11,
                where: {"kind": kind, **defaults[kind]}}
            path = tmp_path / f"{where}-{kind}.json"
            path.write_text(json.dumps(config))
            rc = cli.RunConfig.load(str(path), None, None)
            family = cli._build_family(rc.config, rc.grid, rc.params,
                                       rc.seed)
            assert family.base.grid.dim == dim, (where, kind)


def _package_functions() -> dict:
    """Every module-level function defined in the package, by name."""
    functions = {}
    for info in pkgutil.iter_modules(fracnls.__path__):
        module = importlib.import_module(f"fracnls.{info.name}")
        functions.update(
            (name, fn) for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__)
    return functions


def test_readme_signatures_match_the_code():
    # an inline `name(a, b=...)` outside code blocks, for a package
    # function and with bare names only, lists its parameters in order
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    functions = _package_functions()
    quoted = []
    for name, args in re.findall(r"`(?:\w+\.)*(\w+)\(([^`]*)\)`", prose):
        names = [arg.split("=")[0] for arg in args.split(", ")]
        if name in functions and all(n.isidentifier() for n in names):
            quoted.append((name, names))
    assert quoted
    assert [(name, names) for name, names in quoted
            if names != list(inspect.signature(functions[name]).parameters)
            ] == []
