"""Smoke tests of the benchmark itself: python3 -m pytest perfbench -q

Every workload runs at smoke size through the real command, every oracle
must accept wamkit's output and reject a corrupted one, and the command
must refuse to run without the repository's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import gen
import oracle
import spans
import workloads
from worker import ROOT, import_wamkit, run_job

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(workload, trace, cwd=ROOT, seconds="0.5"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", seconds,
         "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, proc.stdout
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("series", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def _corrupt(job, out):
    """The job's output with one answer changed."""
    if job.fmt == "structured" and job.action in oracle.JSON_ACTIONS:
        data = json.loads(out)
        cells = data["entries"] if "entries" in data else [[data["terms"]]]
        term = next(t for row in cells for cell in row for t in cell)
        term["coeff"] += 1
        return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    if job.action == "conv dfree" and out.startswith("d_free = "):
        return "d_free = %d\n" % (int(out.split("=")[1]) + 1)
    lines = out.splitlines()
    return "\n".join(lines[:-1]) + "\n" if len(lines) > 1 else out + "x"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracles_accept_wamkit_and_reject_corruption(workload, tmp_path):
    import_wamkit()
    from wamkit import cli
    jobs = workloads.build(workload, 5, "smoke", str(tmp_path), ROOT)
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        results = [run_job(cli.main, job.argv) for job in jobs]
    finally:
        os.chdir(cwd)
    for job, (rc, out) in zip(jobs, results):
        assert oracle.check(job, rc, out) is None, job.name
        assert oracle.check(job, 1 if rc == 0 else 0, out) is not None, job.name
        if out:
            assert oracle.check(job, rc, _corrupt(job, out)) is not None, job.name


def test_generator_is_deterministic(tmp_path):
    texts = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        os.makedirs(tmp_path / sub)
        jobs = workloads.build("enumerate", seed, "smoke", str(tmp_path / sub),
                               ROOT)
        texts.append([job.inp.text() for job in jobs if job.inp is not None])
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


def test_free_distance_oracle_on_a_known_code():
    # the (7, 5) feedforward code, T = (C A; E B) with memory (u_-1, u_-2)
    inp = gen.ConvInput(2, 1, 2, 1, 2, [[1, 0, 0, 1], [1, 1, 0, 0],
                                        [1, 1, 1, 0]])
    assert oracle.free_distance(inp) == 5


# A binary (2, 1, 5) seed on which free_distance calls d_free 3 determined,
# while a weight-2 fundamental path exists (the trellis-search item of
# ROADMAP.md).  This is why the series mix runs no `conv dfree` jobs; when
# the defect is fixed this test passes, and they can go back in.
DFREE_DEFECT_ROWS = [[0, 1, 1, 1, 0, 0, 0],
                     [0, 1, 1, 1, 1, 1, 1],
                     [0, 0, 0, 1, 0, 0, 1],
                     [0, 1, 0, 1, 0, 0, 0],
                     [0, 0, 0, 0, 1, 0, 1],
                     [0, 1, 1, 1, 0, 0, 1]]


@pytest.mark.xfail(strict=True, reason="free_distance truncation defect")
def test_dfree_matches_shortest_path_on_a_long_low_weight_path(tmp_path):
    import_wamkit()
    from wamkit import cli
    inp = gen.ConvInput(2, 1, 2, 1, 5, DFREE_DEFECT_ROWS)
    assert oracle.free_distance(inp) == 2
    path = tmp_path / "seed.cc"
    path.write_text(inp.text(), encoding="utf-8")
    argv = ["--format", "structured", "conv", "dfree", str(path)]
    job = workloads.Job("conv dfree seed.cc", argv, "conv dfree", "structured",
                        inp)
    rc, out = run_job(cli.main, argv)
    assert oracle.check(job, rc, out) is None, out


def test_self_time_subtracts_children():
    span_list = [["outer", 0.0, 10.0, -1, [0, 0]],
                 ["inner", 1.0, 4.0, 0, [0, 0]],
                 ["inner", 5.0, 6.0, 0, [0, 0]],
                 ["outer", 20.0, 21.0, -1, [1, 0]]]
    per_pass = spans.layer_times(span_list)
    assert per_pass[0]["outer"] == [1, 6.0, 10.0]
    assert per_pass[0]["inner"] == [2, 4.0, 4.0]
    assert per_pass[1]["outer"] == [1, 1.0, 1.0]


def test_tail_leaves_ten_jobs_beyond():
    import run
    assert run.tail(list(range(1, 22))) == (11, 100.0 * 11 / 21)
    assert run.tail([3, 1, 2]) == (3, 100.0)
