"""Compare the CLI output of two wamkit trees byte for byte.

    python tools/differential.py BASE HEAD [--every K]

BASE and HEAD are checkouts, each with the package under src/wamkit.
One corpus of inputs is drawn once, at a fixed seed, with
perfbench/gen.py and written to a temporary directory with copies of the
fixtures: ROUNDS draws of every shape.

- Convolutional seeds over GF(2), GF(3), GF(4), GF(5), GF(7), GF(8) and
  GF(9), with m = 0, k < m, k >= m, high rate and systematic.  k = 0 < m
  is left out: gen.conv_seed redraws such a seed forever.
- Quantum specs with ancillas (a > 0), with every input entangled
  (c = n) and with m = 0.
- Block codes over GF(2), GF(3) and GF(4), systematic and not.

Every action that wamkit.cli._GROUPS lists for a file's group, and
`verify all`, runs in both formats: once with the defaults, at --dmax 0
and 3, and at every --collapse.  --every K keeps every K-th job of that
list, by default all of them.  One worker subprocess per tree runs the
jobs in order through wamkit.cli.main, BASE under PYTHONHASHSEED=0 and
HEAD under 4242, and records each job's exit code, stdout and stderr.
An error that the CLI does not catch is recorded by its type and
message.

The last line printed is one JSON object: the job count, the bytes that
BASE printed, the count of its exit-2 jobs, and the argv of every job
whose exit code, stdout or stderr differs, with each input path given
by its file name.  The exit code is 1 when a job differs, 2 when a
worker fails, and 0 otherwise.  Nothing is written under either tree,
nor under perfbench/.
"""

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HASH_SEEDS = ("0", "4242")
SEED, ROUNDS = 1, 2
FORMATS = ("text", "structured")
OPTIONS = ([], ["--dmax", "0"], ["--dmax", "3"], ["--collapse", "y"],
           ["--collapse", "yIyP"], ["--collapse", "yIyO"])
EXTENSIONS = {".bc": "block", ".cc": "conv", ".qcc": "quantum"}
# (p, r) of every conv field, and (n, k, m, systematic) of every shape
CONV_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))
CONV_SHAPES = ((2, 1, 0, False), (2, 1, 2, False), (3, 2, 1, False),
               (4, 3, 1, False), (3, 1, 1, True))
# (n, k, c, m): ancillas, every input entangled, no memory
QUANTUM_SHAPES = ((2, 1, 0, 1), (3, 1, 1, 1), (2, 0, 2, 1), (2, 1, 1, 0),
                  (2, 1, 0, 2))
BLOCK_SHAPES = ((2, 1, 6, 3), (3, 1, 5, 2), (2, 2, 4, 2))


def draw_inputs(workdir):
    """Write the corpus into workdir, the fixtures first; return the
    paths in order."""
    # gen.py reads gf.py beside it; neither may leave bytecode there
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    import gen

    paths = []
    fixtures = os.path.join(ROOT, "fixtures")
    for name in sorted(os.listdir(fixtures)):
        if os.path.splitext(name)[1] in EXTENSIONS:
            paths.append(shutil.copy(os.path.join(fixtures, name), workdir))

    def add(inp, stem):
        path = os.path.join(workdir, "%03d-%s%s" % (len(paths), stem, inp.ext))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(inp.text())
        paths.append(path)

    rng = random.Random(SEED)
    for _ in range(ROUNDS):
        for p, r in CONV_FIELDS:
            for n, k, m, systematic in CONV_SHAPES:
                add(gen.conv_seed(rng, p, r, n, k, m, systematic),
                    "gf%d-n%dk%dm%d%s" % (p ** r, n, k, m,
                                          "s" if systematic else ""))
        for n, k, c, m in QUANTUM_SHAPES:
            add(gen.quantum_spec(rng, n, k, c, m),
                "n%dk%dc%dm%d" % (n, k, c, m))
        for p, r, n, k in BLOCK_SHAPES:
            for systematic in (True, False):
                add(gen.block_code(rng, p, r, n, k, systematic),
                    "gf%d-n%dk%d%s" % (p ** r, n, k,
                                       "s" if systematic else ""))
    return paths


def job_list(paths, every):
    """Every `every`-th argv of the run, the actions read from the
    action tables of this checkout's wamkit.cli."""
    from wamkit.cli import _GROUPS

    jobs = []
    for path in paths:
        group = EXTENSIONS[os.path.splitext(path)[1]]
        runs = [(group, action) for action in _GROUPS[group][2]]
        for group_name, action in runs + [("verify", "all")]:
            for fmt in FORMATS:
                for options in OPTIONS:
                    jobs.append(["--format", fmt, *options, group_name,
                                 action, path])
    return jobs[::every]


def run_worker(tree, jobs_path, out_path):
    """Run every job of jobs_path through the tree's wamkit.cli.main and
    write one JSON line [exit code, stdout, stderr] per job."""
    src = os.path.join(os.path.abspath(tree), "src")
    sys.path.insert(0, src)
    import wamkit
    from wamkit.cli import main

    if os.path.dirname(os.path.dirname(os.path.abspath(
            wamkit.__file__))) != src:
        raise ImportError("wamkit came from %s, not %s"
                          % (wamkit.__file__, src))
    with open(jobs_path, encoding="utf-8") as handle:
        jobs = json.load(handle)
    with open(out_path, "w", encoding="utf-8") as out:
        for argv in jobs:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:  # recorded, then compared
                    rc = "%s: %s" % (type(exc).__name__, exc)
            out.write(json.dumps([rc, stdout.getvalue(), stderr.getvalue()])
                      + "\n")


def compare(base, head, every):
    """The summary of the run, and its exit code."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="wamkit-differential-") as tmp:
        inputs = os.path.join(tmp, "inputs")
        os.mkdir(inputs)
        jobs = job_list(draw_inputs(inputs), every)
        jobs_path = os.path.join(tmp, "jobs.json")
        with open(jobs_path, "w", encoding="utf-8") as handle:
            json.dump(jobs, handle)
        outs, workers = [], []
        for tree, hash_seed in zip((base, head), HASH_SEEDS):
            outs.append(os.path.join(tmp, "out-%s.jsonl" % hash_seed))
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONDONTWRITEBYTECODE="1")
            workers.append(subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--worker", tree,
                 jobs_path, outs[-1]], env=env))
        failed = [tree for tree, worker in zip((base, head), workers)
                  if worker.wait()]
        if failed:
            print(json.dumps({"error": "worker failed", "trees": failed}))
            return 2
        results = []
        for path in outs:
            with open(path, encoding="utf-8") as handle:
                results.append([json.loads(line) for line in handle])
    mismatches = [argv[:-1] + [os.path.basename(argv[-1])]
                  for argv, b, h in zip(jobs, *results) if b != h]
    summary = {
        "jobs": len(jobs),
        "bytes": sum(len(out.encode()) + len(err.encode())
                     for _, out, err in results[0]),
        "exit_2": sum(rc == 2 for rc, _, _ in results[0]),
        "mismatches": mismatches,
        "seconds": round(time.perf_counter() - start, 1),
    }
    print(json.dumps(summary))
    return 1 if mismatches else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        run_worker(*argv[1:])
        return 0
    parser = argparse.ArgumentParser(
        prog="differential.py",
        description="Compare the CLI output of two wamkit trees.")
    parser.add_argument("base", help="the reference checkout")
    parser.add_argument("head", help="the checkout under test")
    parser.add_argument("--every", type=int, default=1,
                        help="run every K-th job only (default 1)")
    args = parser.parse_args(argv)
    for tree in (args.base, args.head):
        if not os.path.isfile(os.path.join(tree, "src", "wamkit", "cli.py")):
            parser.error("%s has no src/wamkit/cli.py" % tree)
    if args.every < 1:
        parser.error("--every must be at least 1")
    return compare(args.base, args.head, args.every)


if __name__ == "__main__":
    sys.exit(main())
