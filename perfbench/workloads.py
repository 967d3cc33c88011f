"""The benchmark's three job mixes.

A job is one CLI invocation, `wamkit [--format F] <group> <action> <file>`.
`build(name, seed, size, workdir)` draws the inputs from `seed`, writes
them under `workdir` and returns the job list.  Why each mix exists is
recorded in BENCHMARK.json; in short, `dual-transform` is dominated by the
state transform, `series` by the D-series code and `enumerate` by
enumeration, parsing and rendering, so that a change to one layer predicts
a move on one mix and none on the others.
"""

import json
import os
import random

import gen

WORKLOADS = ("dual-transform", "series", "enumerate")
# Seconds one pass over each full-size job list takes on a 2-vCPU x86 VM in
# its slow state; run.py derives the number of passes from --seconds with
# these, so that it does not follow the host's speed of the moment
PASS_SECONDS = {"dual-transform": 24, "series": 24, "enumerate": 14}
SIZES = ("full", "smoke")
HERE = os.path.dirname(os.path.abspath(__file__))
CAPTURES = os.path.join(HERE, "fixture_captures.json")

CONV_ACTIONS = ("wam", "ipwam", "iowam", "dual-wam", "dual-ipwam", "total",
                "dual-total", "free", "dfree", "gd", "check-dual")
QUANTUM_ACTIONS = ("wam", "dual-wam", "dual-spec", "check-seed", "sd",
                   "state-diagram")
BLOCK_ACTIONS = ("hwgf", "ipwgf", "dual")
FORMATS = ("text", "structured")


class Job:
    """One CLI call and what its oracle needs.

    `family` and `states` place the job in a size class: jobs of one family
    differ only in m, and state_exponent fits over the family's classes.
    `expect` is the captured (exit code, stdout) of a fixture job.  `kind`
    groups jobs of one action on inputs of one shape (by default the
    action alone).
    """

    def __init__(self, name, argv, action, fmt, inp=None, family=None,
                 expect=None, kind=None):
        self.name, self.argv, self.action, self.fmt = name, argv, action, fmt
        self.inp, self.family, self.expect = inp, family, expect
        self.kind = kind or action

    @property
    def states(self):
        return self.inp.states if self.inp is not None else None


class _JobList:
    """Draws inputs from one seeded generator, writes each under `workdir`
    and appends one structured-format job per action on it."""

    def __init__(self, seed, workdir, root):
        self.rng = random.Random(seed)
        self.workdir, self.root = workdir, root
        self.jobs = []
        self.files = 0

    def add(self, inp, stem, group, actions, family=None):
        self.files += 1
        path = os.path.join(self.workdir, "%03d-%s%s" % (self.files, stem, inp.ext))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(inp.text())
        path = os.path.relpath(path, self.root)
        fmt = "structured"
        for action in actions:
            name = "%s %s %s" % (group, action, os.path.basename(path))
            self.jobs.append(Job(name, ["--format", fmt, group, action, path],
                                 "%s %s" % (group, action), fmt, inp, family,
                                 kind="%s %s %s" % (group, action, stem)))

    def conv(self, count, p, r, n, k, m, actions, systematic=False, family=None):
        for _ in range(count):
            inp = gen.conv_seed(self.rng, p, r, n, k, m, systematic)
            self.add(inp, "gf%d-n%dk%dm%d" % (p ** r, n, k, m), "conv", actions,
                     family=family)

    def quantum(self, count, shapes, actions):
        for i in range(count):
            n, k, c, m = shapes[i % len(shapes)]
            inp = gen.quantum_spec(self.rng, n, k, c, m)
            self.add(inp, "n%dk%dc%dm%d" % (n, k, c, m), "quantum", actions)

    def block(self, p, r, n, k):
        for systematic, actions in ((True, ("hwgf", "ipwgf", "dual")),
                                    (False, ("hwgf", "dual"))):
            inp = gen.block_code(self.rng, p, r, n, k, systematic)
            self.add(inp, "gf%d-n%dk%d" % (p ** r, n, k), "block", actions)


def _dual_transform(b, smoke):
    # the forty GF(3) m=2 jobs below the thirty m=4 ones put job_p50_s
    # inside the m=4 class; job_tail_s, the eleventh slowest job, falls
    # inside the ten GF(3) m=3 jobs, below six m=6 and one quantum m=3 job
    act = ("dual-wam",)
    for m, count in ((2, 3), (3, 3)) if smoke else ((4, 30), (5, 10), (6, 6)):
        b.conv(count, 2, 1, 2, 1, m, act, family="gf2-n2k1")
    for m, count in ((1, 2), (2, 1)) if smoke else ((2, 40), (3, 10)):
        b.conv(count, 3, 1, 2, 1, m, act, family="gf3-n2k1")
    b.conv(2 if smoke else 6, 2, 2, 2, 1, 1 if smoke else 2, act)
    b.conv(2 if smoke else 6, 2, 1, 3, 1, 2 if smoke else 4, ("dual-ipwam",),
           systematic=True)
    if smoke:
        b.quantum(2, [(2, 1, 0, 1), (2, 1, 1, 1)], act)
    else:
        b.quantum(6, [(2, 1, 0, 2), (2, 1, 1, 2), (3, 1, 0, 2), (3, 1, 1, 2),
                      (3, 2, 0, 2)], act)
        b.quantum(1, [(2, 1, 1, 3)], act)


def _series(b, smoke):
    # `conv dfree` is left out: free_distance can call a too-large weight
    # determined (the trellis-search item of ROADMAP.md), and the Dijkstra
    # oracle catches that on about one seed in four; test_perfbench.py keeps
    # a case of it as an expected failure
    # Each seed gets one of the two actions, which cost about the same, so
    # a size class holds twice as many seeds for the same time: how much a
    # seed costs, and how much memory it takes (about 34 or 42 MB at m=6),
    # depends on the seed.  The thirty-two m=4 jobs hold job_p50_s;
    # job_tail_s, the eleventh slowest job, falls inside the twelve m=5
    # jobs, below six m=6 and two GF(3) m=3 ones.
    act = ("total", "free")
    if smoke:
        sizes = ((2, 2, 6), (2, 3, 4), (3, 1, 4), (3, 2, 2))
    else:
        sizes = ((2, 4, 32), (2, 5, 12), (2, 6, 6), (3, 2, 8), (3, 3, 2))
    for p, m, count in sizes:
        for i in range(count):
            b.conv(1, p, 1, 2, 1, m, (act[i % 2],), family="gf%d-n2k1" % p)


def _enumerate(b, smoke, root):
    conv_act = ("wam", "iowam", "check-dual", "gd")
    if smoke:
        b.block(2, 1, 8, 4)
        b.conv(1, 2, 1, 4, 2, 1, conv_act + ("ipwam",), systematic=True)
        for m in (2, 3):
            b.conv(1, 2, 1, 2, 1, m, ("wam",), family="gf2-n2k1")
        b.conv(1, 2, 1, 2, 1, 4, ("check-dual", "gd"))
        b.quantum(1, [(3, 2, 0, 1)], ("wam", "check-seed", "sd",
                                      "state-diagram"))
    else:
        b.block(2, 1, 20, 12)
        b.block(3, 1, 12, 8)
        b.block(2, 2, 10, 6)
        for p, r, n, k, m in ((2, 1, 8, 6, 2), (3, 1, 5, 3, 1),
                              (2, 2, 4, 3, 1)):
            b.conv(2, p, r, n, k, m, conv_act + ("ipwam",), systematic=True)
            b.conv(2, p, r, n, k, m, conv_act)
        # twelve m=7 WAMs keep job_tail_s, the eleventh slowest job, in one
        # size class
        for m, count in ((5, 6), (6, 6), (7, 12)):
            b.conv(count, 2, 1, 2, 1, m, ("wam",), family="gf2-n2k1")
        for m in (7, 8):
            b.conv(3, 2, 1, 2, 1, m, ("check-dual", "gd"))
        # forty WAMs of small seeds, each about as long as the median job,
        # hold job_p50_s: the m=7..8 check-dual jobs end fast or slow
        # depending on whether the seed has a dual, and without this
        # cluster that shift of a few ranks moved job_p50_s by over 10%
        b.conv(40, 2, 1, 2, 1, 3, ("wam",))
        b.quantum(8, [(3, 2, 0, 2), (4, 2, 1, 2), (4, 3, 0, 2), (3, 2, 1, 3)],
                  ("wam", "check-seed", "sd", "state-diagram"))
    b.jobs += fixture_jobs(root)


def fixture_argvs(root):
    """Every action on every fixture file, plus `verify all`, in text and
    structured format; paths relative to the repository root."""
    out = []
    for name in sorted(os.listdir(os.path.join(root, "fixtures"))):
        group = {".cc": ("conv", CONV_ACTIONS), ".qcc": ("quantum", QUANTUM_ACTIONS),
                 ".bc": ("block", BLOCK_ACTIONS)}.get(os.path.splitext(name)[1])
        if group is None:
            continue
        path = "fixtures/" + name
        for fmt in FORMATS:
            for action in group[1]:
                out.append(["--format", fmt, group[0], action, path])
            out.append(["--format", fmt, "verify", "all", path])
    return out


def fixture_jobs(root):
    """Fixture jobs checked byte for byte against the captured outputs."""
    with open(CAPTURES, encoding="utf-8") as handle:
        captures = json.load(handle)["jobs"]
    jobs = []
    for cap in captures:
        argv = cap["argv"]
        jobs.append(Job("%s [%s]" % (" ".join(argv[2:]), argv[1]), argv,
                        "%s %s" % (argv[2], argv[3]), argv[1],
                        expect=(cap["rc"], cap["stdout"])))
    return jobs


def interleave(jobs):
    """The jobs in an order that spreads each kind evenly over the list.
    A shared host can run slow for seconds at a time; spread out, every
    kind of job lives through such a spell alike, instead of the few kinds
    that happened to run during it, which would tilt job_p50_s and
    state_exponent."""
    kinds = {}
    for n, job in enumerate(jobs):
        kinds.setdefault(job.kind, []).append((n, job))
    keyed = [((i + 0.5) / len(group), n, job)
             for group in kinds.values() for i, (n, job) in enumerate(group)]
    keyed.sort(key=lambda t: t[:2])
    return [job for _pos, _n, job in keyed]


def build(name, seed, size, workdir, root):
    b = _JobList(seed, workdir, root)
    smoke = size == "smoke"
    if name == "dual-transform":
        _dual_transform(b, smoke)
    elif name == "series":
        _series(b, smoke)
    else:
        _enumerate(b, smoke, root)
    return interleave(b.jobs)
