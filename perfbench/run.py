"""wamkit benchmark: three CLI job mixes timed end to end, with an optional
traced run for per-layer numbers.

    python3 perfbench/run.py --workload dual-transform --seed 1 \\
        --seconds 30 --trace 0 [--size smoke]

Steps: draw the workload's inputs from --seed (workloads.py, gen.py);
time fresh interpreters that import wamkit and build the workload's field
tables (setup_s); run the job list in one worker process, in as many
passes as fit in --seconds at the workload's nominal pass time (worker.py,
workloads.PASS_SECONDS); check every job's output with an independent oracle
(oracle.py), outside the timed region; print each metric by name and
unit, and as the last line one JSON object.  With --trace 0 it holds the
end-to-end metrics; with --trace 1 half of the time runs untraced and half
traced (spans.py), and it holds the per-layer metrics.  A result file with
provenance goes to perfbench/work/results/.

Job times are reported scaled to a nominal host speed (REF_SECONDS); the
unscaled figures are printed beside them and kept in the result file.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import oracle
import spans
import workloads
from worker import ROOT, import_wamkit

HERE = os.path.dirname(os.path.abspath(__file__))
# setup_s is the fastest of this many interpreters, half started before
# the jobs and half after: start-up mostly waits on the kernel, so the
# reference work does not predict its slow states, but some probe almost
# always lands in a fast one
SETUP_PROBES = 16
TAIL_BEYOND = 10  # job_tail_s: highest percentile with this many jobs beyond
# Timings are scaled to a host on which worker.reference_time() reads this
# many seconds (about the fast state of a 2-vCPU x86 VM).  Such hosts flip
# between speed states 1.8x apart, in proportions that drift from second
# to second and run to run by more than any run can average out; the
# reference samples taken around each job measure the speed it ran at.
REF_SECONDS = 0.0004
# wamkit's jobs slow down less than the reference does: by the reference's
# slowdown to about this power (1.55x against 1.75x between the two states
# of a 2-vCPU VM, for dual-transform, series, fixture and tiny enumeration
# jobs alike).  Scaling by the full ratio would leave run-to-run swings of
# up to 12% that follow the share of a run spent in the slow state.
SPEED_EXPONENT = 0.8


def fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="'smoke' runs tiny inputs for the benchmark's tests")
    return ap.parse_args()


def spread(values):
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def tail(latencies):
    """(value, percentile) at the highest percentile with TAIL_BEYOND jobs
    beyond it; the slowest job when the list is shorter."""
    ordered = sorted(latencies)
    rank = len(ordered) - 1
    if len(ordered) > TAIL_BEYOND:
        rank -= TAIL_BEYOND
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def state_exponent(jobs, latencies):
    """Least-squares slope of log(median job time) on log(S) over each
    family's size classes, with one intercept per family."""
    classes = {}
    for job, lat in zip(jobs, latencies):
        if job.family is not None:
            classes.setdefault(job.family, {}).setdefault(job.states, []).append(lat)
    num = den = 0.0
    for sizes in classes.values():
        pts = [(math.log(s), math.log(statistics.median(v)))
               for s, v in sizes.items()]
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        num += sum((x - mx) * (y - my) for x, y in pts)
        den += sum((x - mx) ** 2 for x, _ in pts)
    return num / den if den else None


def run_worker(jobs_path, out_path, workload, seconds, trace):
    passes = max(1, int(seconds / workloads.PASS_SECONDS[workload]))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), jobs_path, out_path,
           str(passes), str(trace)]
    limit = 2 * seconds + 60
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        fail("worker did not finish within %.0f s" % limit)
    if proc.returncode != 0:
        fail("worker exited with %d:\n%s" % (proc.returncode, proc.stderr))
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


def setup_times(fields, count):
    """Wall times of `count` fresh interpreters that import wamkit and
    build the workload's FieldSpec tables: the fixed cost of every CLI
    call."""
    code = "import wamkit\nfrom wamkit.fields import FieldSpec\n" + "".join(
        "FieldSpec(%d, %d)\n" % f for f in fields)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def check_outputs(jobs, runs):
    """(attempted, failed, failures) over every pass of every worker run.
    The oracles judge the first untraced pass; any later pass, and the
    traced run, must print exactly the same."""
    base = runs[0]
    attempted = failed = 0
    failures = []
    for j, job in enumerate(jobs):
        reason = oracle.check(job, base["rc"][j], base["stdout"][j])
        for run in runs:
            passes = len(run["wall"])
            attempted += passes
            if reason is not None:
                failed += passes
                continue
            if run is not base and (run["rc"][j], run["stdout"][j]) != \
                    (base["rc"][j], base["stdout"][j]):
                failed += passes
                reason = "output changed under tracing"
                continue
            failed += sum(1 for changed in run["changed"] if j in changed)
        if reason is not None:
            failures.append((job.name, reason))
    return attempted, failed, failures


def scaled_passes(run):
    """Per-pass job latencies scaled to REF_SECONDS by the mean of the
    reference samples taken just before and just after each job, to the
    power SPEED_EXPONENT."""
    out = []
    for lat, bursts in zip(run["latency"], run["ref"]):
        out.append([t * (REF_SECONDS * (len(bursts[j]) + len(bursts[j + 1]))
                         / (sum(bursts[j]) + sum(bursts[j + 1])))
                    ** SPEED_EXPONENT for j, t in enumerate(lat)])
    return out


def job_medians(passes):
    """Each job's median latency over the passes."""
    return [statistics.median(lat) for lat in zip(*passes)]


def timing_metrics(jobs, latencies):
    """The timing metrics of one latency per job."""
    return {"wall_s": sum(latencies), "job_p50_s": statistics.median(latencies),
            "job_tail_s": tail(latencies)[0],
            "state_exponent": state_exponent(jobs, latencies)}


def counts(jobs, run):
    """Exact work counts of one pass, from the inputs and the outputs:
    states and trellis-section edges of every convolutional and quantum
    job, codewords of every block job, and the terms and the largest
    coefficient of every JSON result."""
    trellis = [j.inp for j in jobs if j.inp is not None and j.argv[2] != "block"]
    blocks = [j.inp for j in jobs if j.inp is not None and j.argv[2] == "block"]
    terms = bits = 0
    for job, out in zip(jobs, run["stdout"]):
        t, b = oracle.output_counts(job, out)
        terms, bits = terms + t, max(bits, b)
    return {"count.states": (sum(i.states for i in trellis), "count"),
            "count.edges": (sum(i.edges for i in trellis), "count"),
            "count.codewords": (sum(i.codewords for i in blocks), "count"),
            "count.result_terms": (terms, "count"),
            "count.coeff_bits_max": (bits, "bits")}


def layer_metrics(run, scaled):
    """Median over traced passes of each span's calls, self and inclusive
    time, times scaled by the reference time around their job."""
    factor = {(p, j): s / t
              for p, (lat, sc) in enumerate(zip(run["latency"], scaled))
              for j, (t, s) in enumerate(zip(lat, sc))}
    per_pass = spans.layer_times(run["spans"], lambda job: factor[tuple(job)])
    metrics = {}
    for name in spans.SPANS:
        rows = [per_pass[p].get(name, [0, 0.0, 0.0]) for p in sorted(per_pass)]
        metrics[name + ".calls"] = (statistics.median(r[0] for r in rows), "count")
        metrics[name + ".self_s"] = (statistics.median(r[1] for r in rows), "s")
        if name in spans.INCLUSIVE:
            metrics[name + ".incl_s"] = (statistics.median(r[2] for r in rows), "s")
    return metrics


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "wamkit", "cli.py")):
        fail("no wamkit sources under %s" % os.path.join(ROOT, "src"))
    if not os.path.isdir(os.path.join(ROOT, "fixtures")):
        fail("no fixtures/ directory under %s" % ROOT)
    try:
        import_wamkit()
    except ImportError as exc:
        fail(str(exc))
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = os.path.join(HERE, "work", tag)
    resultdir = os.path.join(HERE, "work", "results")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(resultdir, exist_ok=True)

    jobs = workloads.build(args.workload, args.seed, args.size, workdir, ROOT)
    jobs_path = os.path.join(workdir, "jobs.json")
    with open(jobs_path, "w", encoding="utf-8") as handle:
        json.dump([job.argv for job in jobs], handle)
    fields = sorted({(j.inp.p, j.inp.r) for j in jobs
                     if j.inp is not None and hasattr(j.inp, "p")} | {(2, 1)})
    setup = setup_times(fields, SETUP_PROBES // 2)

    if args.trace:
        runs = [run_worker(jobs_path, os.path.join(workdir, "plain.json"),
                           args.workload, args.seconds / 2, 0),
                run_worker(jobs_path, os.path.join(workdir, "traced.json"),
                           args.workload, args.seconds / 2, 1)]
    else:
        runs = [run_worker(jobs_path, os.path.join(workdir, "plain.json"),
                           args.workload, args.seconds, 0)]
    setup += setup_times(fields, SETUP_PROBES - len(setup))
    attempted, failed, failures = check_outputs(jobs, runs)

    # each job's median over the passes damps what scaling leaves of
    # the host's drift
    plain = scaled_passes(runs[0])
    per_job = job_medians(plain)
    per_pass = [timing_metrics(jobs, lat) for lat in plain]
    spreads = {name: spread([m[name] for m in per_pass]) for name in per_pass[0]}
    spreads["setup_s"] = spread(setup)
    tail_pct = tail(per_job)[1]
    raw = timing_metrics(jobs, job_medians(runs[0]["latency"]))
    if args.trace:
        traced = scaled_passes(runs[1])
        metrics = layer_metrics(runs[1], traced)
        metrics.update(counts(jobs, runs[0]))
        metrics["trace.overhead_s"] = (sum(job_medians(traced)) - sum(per_job),
                                       "s")
    else:
        metrics = {name: (value, "1" if name == "state_exponent" else "s")
                   for name, value in timing_metrics(jobs, per_job).items()}
        metrics["setup_s"] = (min(setup), "s")
        metrics["peak_rss_mb"] = (runs[0]["maxrss_kb"] / 1024.0, "MB")
        metrics["pass_ratio"] = (1.0 - failed / attempted, "ratio")

    print("wamkit benchmark  workload=%s seed=%d size=%s trace=%d  jobs=%d "
          "passes=%s" % (args.workload, args.seed, args.size, args.trace,
                         len(jobs), "+".join(str(len(r["wall"])) for r in runs)))
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "job_tail_s":
            note = "  p%.1f of %d jobs, %d beyond" % (tail_pct, len(jobs),
                                                    TAIL_BEYOND)
        if name in raw:
            note += "  unscaled %.6g" % raw[name]
        if name in spreads:
            note += "  spread %.3f" % spreads[name]
        print("  %-44s %14.6g %-6s%s" % (name, value, unit, note))
    print("  %-44s %14.6g %-6s" % ("fail_ratio", failed / attempted, "ratio"))
    top = []
    if args.trace:
        totals = {}
        for name, (value, _unit) in metrics.items():
            if name.endswith(".self_s"):
                totals[name[:-len(".self_s")]] = value
        top = sorted(totals.items(), key=lambda kv: -kv[1])[:12]
        traced_wall = sum(job_medians(traced))
        print("  spans by self time (traced wall %.3f s):" % traced_wall)
        for name, self_s in top:
            print("    %-44s %10.4f s  %5.1f%%"
                  % (name, self_s, 100.0 * self_s / traced_wall))
    for name, reason in failures:
        print("FAILED %s: %s" % (name, reason))

    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "commit": git_commit(),
        "python": platform.python_version(), "host": platform.node(),
        "nproc": os.cpu_count(), "jobs": len(jobs),
        "passes": [len(r["wall"]) for r in runs],
        "job_tail_percentile": tail_pct,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spread": spreads, "unscaled": raw, "setup_probes_s": setup,
        "failures": [{"job": n, "reason": r} for n, r in failures],
        "top_self_s": top,
    }
    with open(os.path.join(resultdir, tag + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if args.trace:
        with open(os.path.join(resultdir, tag + ".spans.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(runs[1]["spans"], handle)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
