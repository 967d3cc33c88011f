"""Parser fuzz test: mutated fixture files must end with exit 0, 1 or 2,
never with a traceback or a hang.  Two mutation classes must be refused
by every action with exit 2 and the line at fault: a negative size on
an n, k, m or c header line, and a second line for the same q or size
header key, .qcc role or generator's image."""

import contextlib
import io
import os
import signal
from itertools import chain

import pytest

from conftest import FIXTURES, read_fixture, seeded_rng
from wamkit.cli import _GROUPS, main

TOKENS = ("-1", "0", "x", "99", "->", ":", "T", "1")
ACTIONS = {".bc": ["block", "hwgf"], ".cc": ["conv", "check-dual"],
           ".qcc": ["quantum", "sd"]}
GROUPS = {".bc": "block", ".cc": "conv", ".qcc": "quantum"}
SIZE_KEYS = ("n", "k", "m", "c")
HEADER_KEYS = ("q",) + SIZE_KEYS
CASE_SECONDS = 2.0


class _Timeout(Exception):
    pass


def _mutate(rng, lines):
    lines = list(lines)
    i = rng.randrange(len(lines))
    kind = rng.choice(("delete", "duplicate", "swap", "truncate", "replace",
                       "append"))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "truncate":
        lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
    else:
        tokens = lines[i].split()
        if kind == "replace" and tokens:
            tokens[rng.randrange(len(tokens))] = rng.choice(TOKENS)
        else:
            tokens.append(rng.choice(TOKENS))
        lines[i] = " ".join(tokens)
    return lines


def _cases():
    """Seeded mutations, each fixture line once with every appended token
    (the header lines are where a bad field or size slips in), then a few
    hundred random one- to three-step mutations."""
    rng = seeded_rng("parser-fuzz")
    names = sorted(f for f in os.listdir(FIXTURES)
                   if os.path.splitext(f)[1] in ACTIONS)
    texts = {name: read_fixture(name).splitlines() for name in names}
    for name in names:
        lines = texts[name]
        for i, line in enumerate(lines):
            for token in TOKENS:
                yield name, lines[:i] + [line + " " + token] + lines[i + 1:]
    for _ in range(300):
        name = rng.choice(names)
        lines = texts[name]
        for _ in range(rng.randint(1, 3)):
            lines = _mutate(rng, lines) or ["#"]
        yield name, lines


def _on_alarm(_signum, _frame):
    raise _Timeout


@pytest.mark.skipif(not hasattr(signal, "setitimer"),
                    reason="needs signal.setitimer")
def test_mutated_fixtures_exit_cleanly(tmp_path):
    failures = []
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for name, lines in _cases():
            ext = os.path.splitext(name)[1]
            path = tmp_path / ("case" + ext)
            path.write_text("\n".join(lines) + "\n")
            out, err = io.StringIO(), io.StringIO()
            try:
                signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = main(ACTIONS[ext] + [str(path)])
                outcome = None if code in (0, 1, 2) else "exit %r" % (code,)
            except _Timeout:
                outcome = "no exit within %.0f s" % CASE_SECONDS
            except Exception as exc:  # a traceback is the failure sought
                outcome = "%s: %s" % (type(exc).__name__, exc)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if outcome:
                failures.append("%s (mutated %s):\n%s"
                                % (outcome, name, "\n".join(lines)))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not failures, "%d failing cases, first: %s" % (len(failures),
                                                          failures[0])


def _negative_sizes(lines):
    """(mutated lines, line number at fault): each size header line set
    to a negative value."""
    for i, line in enumerate(lines):
        tokens = line.split()
        if tokens and tokens[0] in SIZE_KEYS:
            for value in ("-1", "-3"):
                yield lines[:i] + ["%s %s" % (tokens[0], value)] + \
                    lines[i + 1:], i + 1


def _repeated_headers(lines):
    """(mutated lines, line number at fault): each q or size header line
    repeated directly after itself."""
    for i, line in enumerate(lines):
        tokens = line.split()
        if tokens and tokens[0] in HEADER_KEYS:
            yield lines[:i + 1] + [line] + lines[i + 1:], i + 2


def _repeated_lines(lines):
    """(mutated lines, line number at fault): a role or image line
    appended again, once per value of a line of the same kind, its own
    value included."""
    kinds = {}
    for line in lines:
        for sep in (":", "->"):
            if sep in line and not line.startswith("#"):
                key, value = line.split(sep, 1)
                kinds.setdefault(sep, []).append((key, value))
                break
    for sep, items in kinds.items():
        for key, _value in items:
            for _key, value in items:
                yield lines + [key + sep + value], len(lines) + 1


def _refusal_cases():
    for name in sorted(os.listdir(FIXTURES)):
        ext = os.path.splitext(name)[1]
        if ext not in GROUPS:
            continue
        lines = read_fixture(name).splitlines()
        yield from ((name, "negative size", case, "error: line %d: " % line)
                    for case, line in _negative_sizes(lines))
        repeats = _repeated_headers(lines)
        if ext == ".qcc":
            repeats = chain(repeats, _repeated_lines(lines))
        yield from ((name, "repeated line", case,
                     "error: line %d: second" % line)
                    for case, line in repeats)


def test_negative_sizes_and_repeated_lines_name_their_line(tmp_path):
    failures, kinds = [], set()
    for name, kind, lines, want in _refusal_cases():
        kinds.add((os.path.splitext(name)[1], kind))
        ext = os.path.splitext(name)[1]
        path = tmp_path / ("case" + ext)
        path.write_text("\n".join(lines) + "\n")
        group = GROUPS[ext]
        runs = [[group, action] for action in sorted(_GROUPS[group][2])]
        for argv in runs + [["verify", "all"]]:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = main(argv + [str(path)])
            except Exception as exc:  # a traceback is a failure
                code = "%s: %s" % (type(exc).__name__, exc)
            if code != 2 or out.getvalue() or \
                    not err.getvalue().startswith(want):
                failures.append("%s %s on %s (%s): exit %r, stderr %r"
                                % (argv[0], argv[1], name, kind, code,
                                   err.getvalue()))
    assert kinds == {(ext, kind) for ext in GROUPS
                     for kind in ("negative size", "repeated line")}
    assert not failures, "%d failing runs, first: %s" % (len(failures),
                                                         failures[0])
