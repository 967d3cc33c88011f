"""tools/differential.py: a tree against itself shows no difference, and
a one-byte change to one action's output is found and named."""

import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
TOOL = os.path.join(ROOT, "tools", "differential.py")


def _differential(base, head):
    """(exit code, summary) of a run on every tenth job of the corpus."""
    done = subprocess.run([sys.executable, TOOL, base, head, "--every", "10"],
                          capture_output=True, text=True, check=False)
    return done.returncode, json.loads(done.stdout.splitlines()[-1])


def test_a_tree_matches_itself_on_a_small_corpus():
    start = time.perf_counter()
    code, summary = _differential(ROOT, ROOT)
    elapsed = time.perf_counter() - start
    assert (code, summary["mismatches"]) == (0, [])
    assert summary["jobs"] > 500 and summary["exit_2"] > 0
    assert elapsed <= 15, "the differential took %.1f s" % elapsed


def test_a_one_byte_change_is_found_and_named(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(os.path.join(ROOT, "src"), tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tree / "src" / "wamkit" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('"clifford: %s"') == 1
    cli.write_text(text.replace('"clifford: %s"', '"clifford; %s"'),
                   encoding="utf-8")
    code, summary = _differential(ROOT, str(tree))
    assert code == 1
    # a file's check-seed jobs run in a row of twelve, so every tenth job
    # takes at least one of them
    named = {(argv[-3], argv[-2]) for argv in summary["mismatches"]}
    assert named == {("quantum", "check-seed")}
    assert len(summary["mismatches"]) >= 8
    assert all(argv[-1].endswith(".qcc") for argv in summary["mismatches"])
