"""Every ```python block of README.md runs, from the repository root,
so the documented API cannot drift from the code."""

import os
import re

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _python_blocks():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        return re.findall(r"^```python\n(.*?)^```$", handle.read(),
                          re.M | re.S)


def test_readme_python_blocks_run(monkeypatch):
    blocks = _python_blocks()
    assert blocks, "README.md has no python block"
    monkeypatch.chdir(ROOT)
    for i, block in enumerate(blocks):
        exec(compile(block, "README.md python block %d" % (i + 1), "exec"),
             {"__name__": "readme"})
