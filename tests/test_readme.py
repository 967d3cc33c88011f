"""Every ```python block of README.md runs, and every `wamkit` line of
its ```sh blocks exits 0, from the repository root, so the documented
API and command line cannot drift from the code."""

import os
import re
import shlex

from wamkit.cli import main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _blocks(language):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        return re.findall(r"^```%s\n(.*?)^```$" % language, handle.read(),
                          re.M | re.S)


def _cli_examples():
    """(argv, text or None) per `wamkit` line of the sh blocks; a
    `# -> text` note names text that the line's stdout contains."""
    for block in _blocks("sh"):
        for line in block.splitlines():
            command, _hash, note = line.partition("#")
            if command.startswith("wamkit "):
                note = note.strip()
                yield (shlex.split(command)[1:],
                       note[2:].strip() if note.startswith("->") else None)


def test_readme_python_blocks_run(monkeypatch):
    blocks = _blocks("python")
    assert blocks, "README.md has no python block"
    monkeypatch.chdir(ROOT)
    for i, block in enumerate(blocks):
        exec(compile(block, "README.md python block %d" % (i + 1), "exec"),
             {"__name__": "readme"})


def test_readme_cli_examples_run(monkeypatch, capsys):
    examples = list(_cli_examples())
    assert examples, "README.md has no wamkit example"
    monkeypatch.chdir(ROOT)
    for argv, text in examples:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        assert text is None or text in out, (argv, out)
