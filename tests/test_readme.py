"""The Python examples in README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:  # later blocks use names the earlier ones set
        exec(compile(block, str(README), "exec"), namespace)
