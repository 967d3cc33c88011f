"""Command line behaviour: output shapes, determinism, exit codes."""

import json
import time

import pytest

from conftest import fixture_path, read_fixture, shift_register_text
from wamkit import conv, gflinalg, quantum
from wamkit.cli import main
from wamkit.conv import ipwam, wam
from wamkit.errors import AlgebraError
from wamkit.formats import (matrix_to_structured, parse_block_code,
                            structured_to_matrix)
from wamkit.quantum import quantum_wam

FIXTURE_NAMES = ["rep3.bc", "example1.cc", "example1-nonsys.cc",
                 "u1.qcc", "u2-ea.qcc", "u2-qcc.qcc"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_block_hwgf_output(capsys, rep3):
    code, out, _err = run_cli(capsys, "block", "hwgf", fixture_path("rep3.bc"))
    assert code == 0
    assert out.strip() == "x^3 + y^3"


def test_conv_wam_collapse_y(capsys, example1):
    code, out, _ = run_cli(capsys, "--collapse", "y", "conv", "wam",
                           fixture_path("example1.cc"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "states: 00 10 01 11"
    assert lines[1] == "00: 1 | y^2 | 0 | 0"
    assert lines[2] == "10: 0 | 0 | y | y"


def test_conv_dfree_output(capsys):
    code, out, _ = run_cli(capsys, "conv", "dfree",
                           fixture_path("example1.cc"))
    assert code == 0
    assert out.strip() == "d_free = 5"


def test_conv_gd_output(capsys):
    code, out, _ = run_cli(capsys, "--dmax", "6", "conv", "gd",
                           fixture_path("example1.cc"))
    assert code == 0
    assert out.strip() == "( 1 , 1 + D + D^3 + D^5 )"


def test_determinism(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "quantum", "wam",
                               fixture_path("u1.qcc"))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_structured_matrix_round_trip(capsys, example1):
    code, out, _ = run_cli(capsys, "--format", "structured", "conv", "ipwam",
                           fixture_path("example1.cc"))
    assert code == 0
    assert structured_to_matrix(json.loads(out)) == ipwam(example1)


def test_structured_wam_round_trip_quantum(capsys, u1):
    code, out, _ = run_cli(capsys, "--format", "structured", "quantum", "wam",
                           fixture_path("u1.qcc"))
    assert code == 0
    assert structured_to_matrix(json.loads(out)) == quantum_wam(u1)


def test_structured_matrix_rejects_a_short_row(example1):
    data = matrix_to_structured(ipwam(example1))
    data["entries"][1].pop()
    with pytest.raises(AlgebraError, match="entries are not 4x4"):
        structured_to_matrix(data)
    data["entries"].pop(1)
    with pytest.raises(AlgebraError, match="entries are not 4x4"):
        structured_to_matrix(data)


def test_structured_poly_round_trip(capsys, rep3):
    from wamkit.block import hwgf
    from wamkit.formats import structured_to_poly
    code, out, _ = run_cli(capsys, "--format", "structured", "block", "hwgf",
                           fixture_path("rep3.bc"))
    assert code == 0
    assert structured_to_poly(json.loads(out)) == hwgf(rep3)


def test_state_diagram_dot(capsys):
    code, out, _ = run_cli(capsys, "quantum", "state-diagram",
                           fixture_path("u1.qcc"))
    assert code == 0
    assert out.startswith("digraph")


def test_check_dual_passes(capsys):
    code, out, _ = run_cli(capsys, "conv", "check-dual",
                           fixture_path("example1.cc"))
    assert code == 0
    assert "orthogonality: PASS" in out


def test_block_dual_reads_back_in_the_same_field(tmp_path, capsys):
    # GF(8) under 1 + x^2 + x^3, which is not the default 1 + x + x^3
    text = "q 2 3 1 0 1 1\nn 3\nk 1\n3 5 7\n"
    path = tmp_path / "code.bc"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "block", "dual", str(path))
    assert code == 0 and out.startswith("q 2 3 1 0 1 1\n")
    orig, dual = parse_block_code(text), parse_block_code(out)
    assert dual.spec == orig.spec and (dual.n, dual.k) == (3, 2)
    assert gflinalg.is_zero(gflinalg.mat_mul(
        orig.spec, dual.generator, gflinalg.transpose(orig.generator)))


def test_block_dual_of_a_full_code_reads_back(tmp_path, capsys):
    # the dual of a k = n code is the [n, 0] code, written as 'k 0'
    path = tmp_path / "code.bc"
    path.write_text("q 3 1\nn 2\nk 2\n1 0\n0 1\n")
    code, out, _ = run_cli(capsys, "block", "dual", str(path))
    assert code == 0 and out == "q 3 1\nn 2\nk 0\n"
    path.write_text(out)
    assert run_cli(capsys, "block", "hwgf", str(path)) == (0, "x^2\n", "")
    assert run_cli(capsys, "verify", "all", str(path))[0] == 0
    code, out, _ = run_cli(capsys, "block", "dual", str(path))
    assert code == 0 and out == "q 3 1\nn 2\nk 2\n1 0\n0 1\n"


def test_zero_length_code_is_its_own_dual(tmp_path, capsys):
    path = tmp_path / "code.bc"
    path.write_text("q 2 1\nn 0\nk 0\n")
    assert run_cli(capsys, "block", "dual", str(path)) == (
        0, "q 2 1\nn 0\nk 0\n", "")
    assert run_cli(capsys, "block", "hwgf", str(path)) == (0, "1\n", "")
    assert run_cli(capsys, "verify", "all", str(path)) == (
        0, "hwgf transform matches dual enumeration: PASS\n"
           "hwgf transform involution: PASS\n", "")


@pytest.mark.parametrize("action, m, head, bound", [
    ("total", 10, "1 + D + ", 1.5), ("dfree", 11, "d_free", 1.0)],
    ids=["total-m10", "dfree-m11"])
def test_conv_shift_register_is_quick(tmp_path, capsys, action, m, head,
                                      bound):
    # a (2, 1, m) shift register has 2^m states but only 2^(m+1) edges, so
    # the x-collapse, the series and the transpose must not pay for all
    # S^2 cells
    path = tmp_path / "shift.cc"
    path.write_text(shift_register_text(m))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "conv", action, str(path))
    assert code == 0 and out.startswith(head)
    assert time.perf_counter() - start < bound


def test_verify_all_fixtures(capsys):
    for name in FIXTURE_NAMES:
        code, out, _ = run_cli(capsys, "verify", "all", fixture_path(name))
        assert code == 0, (name, out)
        assert "FAIL" not in out
        assert "PASS" in out


def test_missing_file_exits_2(capsys):
    code, _out, err = run_cli(capsys, "block", "hwgf", "no-such-file.bc")
    assert code == 2
    assert "error:" in err


def test_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cc"
    bad.write_text("q 2 1\nn 2\nk 1\nm 2\nT\n0 1 0\n")
    code, _out, err = run_cli(capsys, "conv", "wam", str(bad))
    assert code == 2
    assert "error:" in err


def test_format_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.bc"
    bad.write_text("q 2 1\nn 3\nk 1\n1 1 x\n")
    code, _out, err = run_cli(capsys, "block", "hwgf", str(bad))
    assert code == 2
    assert "line 4" in err


def test_broken_clifford_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.qcc"
    bad.write_text("n 1\nk 0\nc 0\nm 1\n"
                   "IM: 1\nIL:\nIA: 2\nIE:\nIMout: 1\nIP: 2\n"
                   "Z1 -> ZI\nZ2 -> IZ\nX1 -> XI\nX2 -> XI\n")
    code, out, _ = run_cli(capsys, "quantum", "check-seed", str(bad))
    assert code == 1
    assert "clifford: FAIL" in out


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--bogus", "block", "hwgf", fixture_path("rep3.bc")])
    assert exc.value.code == 2


@pytest.mark.parametrize("group, choices", [
    ("block", "{hwgf,ipwgf,dual}"),
    ("conv", "{wam,ipwam,iowam,dual-wam,dual-ipwam,total,dual-total,free,"
             "dfree,gd,check-dual}"),
    ("quantum", "{wam,dual-wam,dual-spec,check-seed,sd,state-diagram}"),
    ("verify", "{all}"),
])
def test_usage_lists_actions_in_table_order(capsys, group, choices):
    with pytest.raises(SystemExit) as exc:
        main([group, "bogus", "file"])
    assert exc.value.code == 2
    assert choices in capsys.readouterr().err


def _identity_rows(size):
    return "\n".join(" ".join("1" if i == j else "0" for j in range(size))
                     for i in range(size))


def _qubit_identity_spec(m):
    """n = 1, k = c = 0 spec on m memory qubits and one ancilla."""
    width = m + 1
    mem = " ".join(str(p) for p in range(1, width))
    lines = ["n 1", "k 0", "c 0", "m %d" % m, "IM: " + mem, "IL:",
             "IA: %d" % width, "IE:", "IMout: " + mem, "IP: %d" % width]
    for kind in "ZX":
        for pos in range(width):
            word = ["I"] * width
            word[pos] = kind
            lines.append("%s%d -> %s" % (kind, pos + 1, "".join(word)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv, name, text", [
    # 2^28 matrix cells from 2^15 edges
    (["conv", "wam"], "cells.cc",
     "q 2 1\nn 1\nk 1\nm 14\nT\n" + _identity_rows(15) + "\n"),
    # 2^27 edges on a single state
    (["conv", "dual-wam"], "edges.cc",
     "q 2 1\nn 27\nk 27\nm 0\nT\n" + _identity_rows(27) + "\n"),
    # 4^14 cells from 4^7 * 2 edges
    (["quantum", "wam"], "cells.qcc", _qubit_identity_spec(7)),
    # 4^13 * 2 edges
    (["quantum", "dual-wam"], "edges.qcc", _qubit_identity_spec(13)),
    (["quantum", "state-diagram"], "edges.qcc", _qubit_identity_spec(13)),
    # 2^24 cells: a binary (n=2, k=1, m=12) WAM, T the first 13 rows of I_14
    (["conv", "wam"], "m12.cc",
     "q 2 1\nn 2\nk 1\nm 12\nT\n"
     + "\n".join(_identity_rows(14).splitlines()[:13]) + "\n"),
    # GF(4096) field tables of 2^24 cells
    (["conv", "wam"], "gf4096.cc",
     read_fixture("example1.cc").replace("q 2 1", "q 2 12", 1)),
])
def test_oversized_input_exits_2_before_allocating(tmp_path, capsys, argv,
                                                   name, text):
    path = tmp_path / name
    path.write_text(text)
    start = time.perf_counter()
    code, _out, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert err.startswith("error:") and "exceeds the budget" in err
    if name == "gf4096.cc":
        assert err.startswith("error: line 2: ")
    assert time.perf_counter() - start < 1.0


def test_verify_all_prints_conv_diagnostics(monkeypatch, capsys):
    diag = "I + C C'^T - A A'^T != 0"
    monkeypatch.setattr(conv, "orthogonality_check",
                        lambda seed, dual: (False, [diag]))
    code, out, _ = run_cli(capsys, "verify", "all",
                           fixture_path("example1.cc"))
    assert code == 1
    lines = out.splitlines()
    at = lines.index("dual seed orthogonality: FAIL")
    assert lines[at + 1] == "FAIL " + diag
    assert lines[at + 2].endswith(": PASS")


@pytest.mark.parametrize("text,lines,error", [
    # no dual seed of block shape: only the checks that need none
    ("q 2 1\nn 2\nk 1\nm 1\nT\n1 1 1\n1 1 1\n",
     ["wam transform involution: PASS",
      "free/total series relation: PASS"],
     "error: dual basis has no pivots on the memory block; no seed of the "
     "required block shape exists\n"),
    # a dual seed, but no systematic one: all but the ipwam check
    ("q 2 1\nn 3\nk 1\nm 1\nsystematic\nT\n0 1 1 0\n1 1 0 1\n",
     ["dual seed orthogonality: PASS",
      "wam transform matches dual enumeration: PASS",
      "wam transform involution: PASS",
      "free/total series relation: PASS"],
     "error: dual seed admits no systematic form on the trailing "
     "information columns\n"),
])
def test_verify_all_without_dual_seed_runs_the_other_checks(
        tmp_path, capsys, text, lines, error):
    path = tmp_path / "nodual.cc"
    path.write_text(text)
    code, out, err = run_cli(capsys, "verify", "all", str(path))
    assert (code, out.splitlines(), err) == (2, lines, error)


def test_verify_all_prints_quantum_diagnostics(monkeypatch, capsys):
    diags = ["L row 1 vs S^Z row 1: nonzero pairing at offsets [0]",
             "L row 2 vs S^E row 1: nonzero pairing at offsets [1]"]
    monkeypatch.setattr(quantum, "check_poly_orthogonality",
                        lambda spec: (False, diags))
    monkeypatch.setattr(quantum.EaqccSpec, "validate_clifford",
                        lambda self: (False, ["Z1 and X1 commute"]))
    code, out, _ = run_cli(capsys, "verify", "all", fixture_path("u1.qcc"))
    assert code == 1
    lines = out.splitlines()
    at = lines.index("clifford seed symplectic relations: FAIL")
    assert lines[at + 1] == "FAIL Z1 and X1 commute"
    assert lines[at + 2].endswith(": PASS")
    at = lines.index("polynomial check-matrix orthogonality: FAIL")
    assert lines[at + 1:] == ["FAIL " + d for d in diags]


@pytest.mark.parametrize("q_line", ["q 2 1 1", "q 2 1 0", "q 2 1 x", "q 2 99"])
def test_bad_field_header_exits_2(tmp_path, capsys, q_line):
    # a degree-1 modulus is validated like any other, the modulus is
    # parsed inside the header check, and the field tables are checked
    # against the budget before the modulus search starts
    path = tmp_path / "bad.cc"
    path.write_text(read_fixture("example1.cc").replace("q 2 1", q_line, 1))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "conv", "wam", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:")
    assert time.perf_counter() - start < 1.0
