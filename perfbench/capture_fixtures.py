"""Capture stdout and exit code of every fixture job into
fixture_captures.json, the reference the `enumerate` workload checks
fixture jobs against byte for byte.

    python3 perfbench/capture_fixtures.py

Run it only at a commit whose CLI output is the reference: a later
commit must reproduce these bytes, so re-capturing would hide a change.
"""

import json
import os

import workloads
from worker import ROOT, import_wamkit, run_job


def main():
    import_wamkit()
    from wamkit import cli
    os.chdir(ROOT)
    jobs = []
    for argv in workloads.fixture_argvs(ROOT):
        rc, out = run_job(cli.main, argv)
        jobs.append({"argv": argv, "rc": rc, "stdout": out})
    with open(workloads.CAPTURES, "w", encoding="utf-8") as handle:
        json.dump({"jobs": jobs}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("captured %d fixture jobs" % len(jobs))


if __name__ == "__main__":
    main()
