"""The Python examples in README.md run as written, and its config table
lists exactly the keys and defaults of the config schema."""

import inspect
import json
import re
from pathlib import Path

from fracnls import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:  # later blocks use names the earlier ones set
        exec(compile(block, str(README), "exec"), namespace)


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
