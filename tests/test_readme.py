"""The README's Library block runs as written."""

import re
from pathlib import Path

import bewc
from bewc.gf2 import unpack

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs():
    block = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S)
    ns = {}
    exec(block.group(1), ns)
    assert unpack(bewc.decode(ns["enc"], ns["x"])) == unpack(ns["m"]) == [0b101]
    assert bewc.pattern_equivocation(ns["code"], 0b0011111) == 2
