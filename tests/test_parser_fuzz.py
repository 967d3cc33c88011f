"""Parser fuzz test: mutated fixture files must end with exit 0, 1 or 2,
never with a traceback or a hang."""

import contextlib
import io
import os
import signal

import pytest

from conftest import FIXTURES, read_fixture, seeded_rng
from wamkit.cli import main

TOKENS = ("-1", "0", "x", "99", "->", ":", "T", "1")
ACTIONS = {".bc": ["block", "hwgf"], ".cc": ["conv", "check-dual"],
           ".qcc": ["quantum", "sd"]}
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
