"""Every `python` block of README.md runs as written."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("number", range(len(BLOCKS)))
def test_readme_python_block_runs(number):
    exec(compile(BLOCKS[number], f"README.md python block {number + 1}", "exec"), {})
