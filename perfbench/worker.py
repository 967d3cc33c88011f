"""Run a job list through wamkit.cli.main in this one process.

    python3 perfbench/worker.py JOBS.json OUT.json PASSES TRACE

A closed loop with one client: jobs run one at a time, in list order, with
no threads, in PASSES passes over the whole list.  Each job's latency
covers `main(argv)` with stdout and stderr captured in memory.  A fixed
reference computation is timed before the first job and after every job,
outside the jobs' timed regions.  The first pass's outputs are written out
for the oracles; a later pass records only which jobs printed something
else.  With TRACE 1 the layer functions are wrapped first (spans.py) and
the spans are written out too.  The garbage collector stays on; a full
collection before every job, outside its timed region, gives each job the
empty heap a fresh CLI process starts with, instead of the garbage of the
jobs before it.
"""

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REF_EVERY = 0.05  # seconds of job time per extra reference sample
REF_MAX_BURSTS = 40


def import_wamkit():
    """Import wamkit from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import wamkit
    if os.path.dirname(os.path.dirname(os.path.abspath(wamkit.__file__))) != src:
        raise ImportError("wamkit was imported from %s, not %s"
                          % (wamkit.__file__, src))
    return wamkit


# a fixed sparse-polynomial product in plain dicts of exponent tuples, the
# shape of wamkit's hot loops but none of its code
_REF_TERMS = {(i, 9 - i, 0, 0): i + 1 for i in range(10)}


def _reference_work():
    acc = {}
    for _ in range(4):
        for ea, ca in _REF_TERMS.items():
            for eb, cb in _REF_TERMS.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                acc[e] = acc.get(e, 0) + ca * cb
    return acc


def reference_time():
    """Fastest of three timings of the reference work: how fast the host
    runs Python right now.  A shared host can switch between speed states
    that differ by 1.8x every few milliseconds, in proportions that drift
    from run to run; run.py scales job times by these samples."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


def reference_bursts(seconds):
    """Reference times taken after a job that ran `seconds`: one, plus one
    per REF_EVERY seconds of the job (at most REF_MAX_BURSTS more), so a
    longer job, which lived through more changes of host speed, is scaled
    by more samples."""
    count = 1 + min(int(seconds / REF_EVERY), REF_MAX_BURSTS)
    return [reference_time() for _ in range(count)]


def run_job(main, argv):
    """(exit code or error text, stdout) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = "SystemExit(%s)" % (exc.code,)
        except Exception as exc:  # an undocumented error fails the job
            rc = "%s: %s" % (type(exc).__name__, exc)
    return rc, out.getvalue()


def main():
    jobs_path, out_path, passes, trace = sys.argv[1:5]
    import_wamkit()
    from wamkit import cli
    with open(jobs_path, encoding="utf-8") as handle:
        argvs = json.load(handle)
    tracer = None
    if trace == "1":
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    cli_main = cli.main
    clock = time.perf_counter
    walls, latencies, refs, changed, first = [], [], [], [], None
    for _pass in range(int(passes)):
        lat, outs, ref = [], [], [[reference_time()]]
        t0 = clock()
        for j, argv in enumerate(argvs):
            if tracer is not None:
                tracer.job = (len(walls), j)
            gc.collect()
            s = clock()
            outs.append(run_job(cli_main, argv))
            lat.append(clock() - s)
            ref.append(reference_bursts(lat[-1]))
        walls.append(clock() - t0)
        latencies.append(lat)
        refs.append(ref)
        if first is None:
            first = outs
        else:
            changed.append([j for j, o in enumerate(outs) if o != first[j]])
    result = {
        "wall": walls,
        "latency": latencies,
        "ref": refs,
        "rc": [rc for rc, _out in first],
        "stdout": [out for _rc, out in first],
        "changed": changed,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
