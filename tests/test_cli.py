"""Command line behaviour: output shapes, determinism, exit codes."""

import json
import time
import tracemalloc

import pytest

from conftest import (field, fixture_path, random_conv_seed,
                      random_eaqcc_spec, random_systematic_conv_seed,
                      read_fixture, seeded_rng, shift_register_text)
from wamkit import block, conv, gflinalg, pauli, quantum
from wamkit.cli import _CONV, main
from wamkit.conv import ConvSeed, SystematicConvSeed, ipwam, wam
from wamkit.errors import AlgebraError
from wamkit.formats import (dumps, matrix_to_structured, parse_block_code,
                            parse_conv_seed, parse_quantum_spec,
                            poly_to_structured, render_conv_seed,
                            render_quantum_spec, structured_to_matrix)
from wamkit.poly import WeightPoly
from wamkit.polymatrix import PolyMatrix
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
    data = json.loads(matrix_to_structured(ipwam(example1)))
    data["entries"][1].pop()
    with pytest.raises(AlgebraError, match="entries are not 4x4"):
        structured_to_matrix(data)
    data["entries"].pop(1)
    with pytest.raises(AlgebraError, match="entries are not 4x4"):
        structured_to_matrix(data)


def test_renderers_match_a_per_cell_rendering():
    # both renderers fill in the absent cells without visiting them
    rng = seeded_rng("render-sparse")
    labels = [str(i) for i in range(12)]
    n = len(labels)
    rows = [{} for _ in labels]
    for _ in range(20):
        rows[rng.randrange(n)][rng.randrange(n)] = WeightPoly.monomial(
            rng.choice([-2, 1, 3]), {"x": rng.randint(0, 3),
                                     "y": rng.randint(0, 3)})
    matrix = PolyMatrix(labels, rows)
    text = ["states: " + " ".join(labels)]
    text += ["%s: %s" % (label, " | ".join(str(matrix[i, j])
                                           for j in range(n)))
             for i, label in enumerate(labels)]
    assert str(matrix) == "\n".join(text)
    cells = [[json.loads(poly_to_structured(matrix[i, j])) for j in range(n)]
             for i in range(n)]
    dense = {"labels": labels,
             "entries": [[cell["terms"] for cell in row] for row in cells]}
    assert json.loads(matrix_to_structured(matrix)) == dense
    assert matrix_to_structured(matrix) == dumps(dense)


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
    ("total", 10, "1 + D + ", 1.5), ("dfree", 11, "d_free", 1.0),
    ("dual-total", 12, "1 + D + ", 1.0)],
    ids=["total-m10", "dfree-m11", "dual-total-m12"])
def test_conv_shift_register_is_quick(tmp_path, capsys, action, m, head,
                                      bound):
    # a (2, 1, m) shift register has 2^m states but only 2^(m+1) edges, so
    # the x-collapse, the series, the transpose and the dual transform
    # must not pay for all S^2 cells
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


def test_conv_seed_with_k_above_n_exits_2(tmp_path, capsys):
    path = tmp_path / "rate2.cc"
    path.write_text("q 2 1\nn 1\nk 2\nm 1\nT\n0 0\n1 0\n0 1\n")
    runs = [("conv", action) for action in _CONV] + [("verify", "all")]
    for group, action in runs:
        code, out, err = run_cli(capsys, group, action, str(path))
        assert (code, out, err) == (2, "", "error: a seed needs k <= n\n"), \
            action


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


def test_format_dot_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--format", "dot", "block", "hwgf", fixture_path("rep3.bc")])
    assert exc.value.code == 2
    assert "invalid choice: 'dot'" in capsys.readouterr().err


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


def _wide_dual_text():
    """A binary (11, 0, 12) seed: q^(m+k) = 2^12 edges, but a dual WAM of
    up to q^(m+n-k) = 2^23 nonzero cells."""
    rng = seeded_rng("wide-dual")
    rows = [" ".join(str(rng.randrange(2)) for _ in range(23))
            for _ in range(12)]
    return "q 2 1\nn 11\nk 0\nm 12\nT\n" + "\n".join(rows) + "\n"


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
    # 2^12 edges whose dual WAM has over 2^22 nonzero cells
    (["conv", "dual-total"], "wide.cc", _wide_dual_text()),
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


@pytest.mark.parametrize("text, edges", [
    (shift_register_text(22), 2 ** 23),
    ("q 2 1\nn 27\nk 27\nm 0\nT\n" + _identity_rows(27) + "\n", 2 ** 27)],
    ids=["k<=m", "k>m"])
def test_dual_total_charges_the_wam_edges_first(tmp_path, capsys, text,
                                                edges):
    path = tmp_path / "edges.cc"
    path.write_text(text)
    assert run_cli(capsys, "conv", "dual-total", str(path)) == (
        2, "", "error: WAM needs %d edges, which exceeds the budget of "
        "4194304\n" % edges)


def _gf9_systematic_text():
    """A systematic GF(9) (3, 2, 4) seed: 3^16 WAM cells from 3^12 edges."""
    rng = seeded_rng("gf9-s2")
    rows = [[0, 0] + [rng.randrange(9) for _ in range(5)] for _ in range(4)]
    rows += [[1, 0] + [rng.randrange(9) for _ in range(5)],
             [0, 1] + [rng.randrange(9) for _ in range(5)]]
    return ("q 3 2\nn 3\nk 2\nm 4\nsystematic\nT\n"
            + "".join(" ".join(map(str, row)) + "\n" for row in rows))


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("group, action", [
    ("conv", "wam"), ("conv", "ipwam"), ("conv", "iowam"),
    ("conv", "dual-wam"), ("conv", "dual-ipwam"), ("conv", "dual-total"),
    ("verify", "all")])
def test_whole_wam_actions_refuse_before_enumerating(tmp_path, capsys, fmt,
                                                    group, action):
    # within the edge budget, so only the S^2 charge up front refuses it;
    # one key of dual-total's transform over the 9^6 edges would hold
    # 32 * 9^6 * 4 bytes, so it makes the grid's charge too
    path = tmp_path / "gf9.cc"
    path.write_text(_gf9_systematic_text())
    start = time.perf_counter()
    assert run_cli(capsys, "--format", fmt, group, action, str(path)) == (
        2, "", "error: WAM needs 43046721 matrix cells, which exceeds the "
        "budget of 4194304\n")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_seed_dual_actions_never_run_the_state_pass(monkeypatch, capsys,
                                                    fmt):
    # the seed path gives the matrix path's output byte for byte with
    # conjugate_by refusing to run: a silent return to the S^2 state pass
    # would show only as time
    argvs = [["--format", fmt, "conv", action, fixture_path(name)]
             for name in FIXTURE_NAMES if name.endswith(".cc")
             for action in ("dual-wam", "dual-ipwam", "dual-total")]
    with monkeypatch.context() as patch:
        patch.setattr(conv, "dual_wam", lambda seed: conv.macwilliams_wam(
            conv.wam(seed), seed.spec))
        patch.setattr(conv, "dual_ipwam", lambda seed: conv.macwilliams_ipwam(
            conv.ipwam(seed), seed.spec))
        want = [run_cli(capsys, *argv) for argv in argvs]

    def refuse(*args):
        raise AssertionError("the S^2 state pass ran")

    monkeypatch.setattr(PolyMatrix, "conjugate_by", refuse)
    assert [run_cli(capsys, *argv) for argv in argvs] == want


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_quantum_dual_wam_never_runs_the_state_pass(tmp_path, monkeypatch,
                                                    capsys, fmt):
    # specs with 4^k 2^a < 4^m, so their edges are fewer than the cells
    argvs = []
    for n, k, c, m in [(1, 0, 0, 1), (2, 1, 1, 2), (2, 0, 1, 2),
                       (3, 1, 0, 3), (2, 1, 1, 4)]:
        spec = random_eaqcc_spec(seeded_rng("cli-quantum-dual-%d%d%d%d"
                                            % (n, k, c, m)), n, k, c, m)
        path = tmp_path / ("s%d%d%d%d.qcc" % (n, k, c, m))
        path.write_text(render_quantum_spec(spec))
        argvs.append(["--format", fmt, "quantum", "dual-wam", str(path)])
    with monkeypatch.context() as patch:
        patch.setattr(quantum, "dual_wam", lambda spec: (
            quantum.quantum_macwilliams(quantum.quantum_wam(spec))))
        want = [run_cli(capsys, *argv) for argv in argvs]

    def refuse(*args):
        raise AssertionError("the S^2 state pass ran")

    monkeypatch.setattr(PolyMatrix, "conjugate_by", refuse)
    assert [run_cli(capsys, *argv) for argv in argvs] == want
    assert all(code == 0 for code, _out, _err in want)


def _no_grid_seeds(spec, rng):
    """Seeds of every shape that once kept the S^2 grid: k > m, k = m,
    k = n, m = 0, k = m = 0 and B = 0, the systematic ones marked, and
    a section without input rows, k = 0 < m."""
    b_zero = random_systematic_conv_seed(rng, spec, 3, 1, 1)
    return [(random_conv_seed(rng, spec, 3, 2, 1), False),
            (random_systematic_conv_seed(rng, spec, 3, 2, 2), True),
            (random_systematic_conv_seed(rng, spec, 2, 2, 1), True),
            (random_systematic_conv_seed(rng, spec, 3, 1, 0), True),
            (ConvSeed(spec, 2, 0, 0, []), False),
            (SystematicConvSeed(spec, 3, 1, 1, [
                b_zero.t_matrix[0], b_zero.t_matrix[1][:3] + [0]]), True),
            (random_conv_seed(rng, spec, 2, 0, 2), False)]


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_no_seed_dual_reaches_the_state_grid(tmp_path, monkeypatch, capsys,
                                             fmt):
    # every seed and spec that the grid once took, byte for byte as the
    # grid prints them, with conjugate_by refusing to run: the edges,
    # folded over the inputs that leave the state alone, serve them all
    argvs = []
    for p, r in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        rng = seeded_rng("no-grid-%d-%d" % (p, r))
        for at, (seed, systematic) in enumerate(
                _no_grid_seeds(field(p, r), rng)):
            path = tmp_path / ("s%d%d-%d.cc" % (p, r, at))
            path.write_text(render_conv_seed(seed))
            for action in ("dual-wam", "dual-total") + (
                    ("dual-ipwam",) if systematic else ()):
                argvs.append(["--format", fmt, "conv", action, str(path)])
    # 4^k 2^a >= 4^m, m = 0 among them
    for n, k, c, m in [(3, 2, 0, 2), (3, 1, 0, 2), (2, 1, 1, 1),
                       (3, 0, 0, 1), (2, 1, 0, 0), (4, 3, 0, 1)]:
        spec = random_eaqcc_spec(seeded_rng("no-grid-q-%d%d%d%d"
                                            % (n, k, c, m)), n, k, c, m)
        path = tmp_path / ("q%d%d%d%d.qcc" % (n, k, c, m))
        path.write_text(render_quantum_spec(spec))
        argvs.append(["--format", fmt, "quantum", "dual-wam", str(path)])
    # a seed that fails check-seed: no dual spec has its dual WAM, but the
    # grid's transform does
    path = tmp_path / "not-clifford.qcc"
    path.write_text("n 2\nk 1\nc 0\nm 1\nIM: 1\nIL: 2\nIA: 3\nIE:\n"
                    "IMout: 2\nIP: 1 3\nZ1 -> ZXI\nZ2 -> IZY\nZ3 -> XIZ\n"
                    "X1 -> YIX\nX2 -> XXI\nX3 -> IYY\n")
    argvs.append(["--format", fmt, "quantum", "dual-wam", str(path)])
    with monkeypatch.context() as patch:
        patch.setattr(conv, "dual_wam", lambda seed: conv.macwilliams_wam(
            conv.wam(seed), seed.spec))
        patch.setattr(conv, "dual_ipwam", lambda seed: conv.macwilliams_ipwam(
            conv.ipwam(seed), seed.spec))
        patch.setattr(quantum, "dual_wam", lambda spec: (
            quantum.quantum_macwilliams(quantum.quantum_wam(spec))))
        want = [run_cli(capsys, *argv) for argv in argvs]

    def refuse(*args):
        raise AssertionError("the S^2 state pass ran")

    monkeypatch.setattr(PolyMatrix, "conjugate_by", refuse)
    assert [run_cli(capsys, *argv) for argv in argvs] == want
    assert all(code == 0 for code, _out, _err in want)


@pytest.mark.parametrize("p", [2, 3])
def test_check_dual_of_a_seed_without_memory_or_inputs(tmp_path, capsys, p):
    # m = k = 0: the constraint generator has no rows, so every word of
    # the n = 2 outputs is dual, and the dual seed is k = n, T = I_n
    path = tmp_path / "empty.cc"
    path.write_text("q %d 1\nn 2\nk 0\nm 0\nT\n" % p)
    assert run_cli(capsys, "conv", "check-dual", str(path)) == (
        0, "q %d 1\nn 2\nk 2\nm 0\nT\n1 0\n0 1\northogonality: PASS\n"
        % p, "")
    assert run_cli(capsys, "verify", "all", str(path)) == (
        0, "dual seed orthogonality: PASS\n"
        "wam transform matches dual enumeration: PASS\n"
        "wam transform involution: PASS\n"
        "free/total series relation: PASS\n", "")


@pytest.mark.parametrize("n, k, m", [(16, 15, 0), (12, 11, 4)])
def test_seed_dual_actions_with_more_edges_than_cells(tmp_path, capsys, n,
                                                      k, m):
    # k > m: the 2^15 edges outnumber the 2^(2m) cells, so the seed makes
    # the grid's charge, and its dual runs on the edges folded over the
    # inputs with u B = 0, 2^(m + rank B) points
    seed = random_systematic_conv_seed(
        seeded_rng("wide-input-%d-%d-%d" % (n, k, m)), field(2), n, k, m)
    path = tmp_path / "wide.cc"
    path.write_text(render_conv_seed(seed))
    lam_hat = conv.macwilliams_wam(wam(seed), seed.spec)
    assert run_cli(capsys, "conv", "dual-wam", str(path)) == (
        0, "%s\n" % lam_hat, "")
    assert run_cli(capsys, "conv", "dual-total", str(path)) == (
        0, "%s\n" % conv.total_wgf(lam_hat.collapse({"x": 1}), 10), "")
    code, out, err = run_cli(capsys, "verify", "all", str(path))
    assert (code, err) == (0, "")
    assert "wam transform matches dual enumeration: PASS" in out
    assert "ipwam transform matches dual enumeration: PASS" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("action, head", [
    ("free", "1"), ("dfree", "d_free")])
def test_series_actions_stay_admitted_beyond_the_cell_budget(
        tmp_path, capsys, action, head):
    # 2^24 cells of a binary m = 12 shift register, but 2^13 edges (conv
    # total: test_total_on_binary_m12_needs_no_s_squared_cells)
    path = tmp_path / "shift.cc"
    path.write_text(shift_register_text(12))
    code, out, _ = run_cli(capsys, "conv", action, str(path))
    assert code == 0 and out.startswith(head)


@pytest.mark.parametrize("argv, name", [
    (["conv", "total"], "example1.cc"), (["conv", "free"], "example1.cc"),
    (["conv", "dual-total"], "example1.cc"), (["conv", "dfree"], "example1.cc"),
    (["conv", "gd"], "example1.cc"), (["quantum", "sd"], "u1.qcc"),
    (["verify", "all"], "example1.cc")])
def test_negative_dmax_is_a_usage_error(capsys, argv, name):
    with pytest.raises(SystemExit) as exc:
        main(["--dmax", "-1"] + argv + [fixture_path(name)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: argument --dmax: -1 is negative\n")


def test_over_deep_series_exits_2_before_allocating(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "--dmax", "100000", "conv", "total",
                             fixture_path("example1.cc"))
    assert (code, out) == (2, "")
    assert err.startswith("error: the series to D^100000 needs ")
    assert "exceeds the budget" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv, name", [
    (["conv", "gd"], "example1.cc"), (["quantum", "sd"], "u1.qcc"),
    (["quantum", "sd"], "u2-qcc.qcc")])
def test_over_deep_impulse_response_exits_2_at_once(capsys, argv, name):
    # u2-qcc.qcc has c = 0, so its S^E rows form an empty matrix
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "--dmax", "1000000000", *argv,
                             fixture_path(name))
    assert (code, out) == (2, "")
    assert err.startswith("error: the impulse response to D^1000000000 "
                          "needs ")
    assert "exceeds the budget" in err
    assert time.perf_counter() - start < 1.0


def test_deep_sd_peak_memory_is_its_coefficient_matrices(capsys):
    # u1's four check rows are rendered from the impulse response's
    # coefficient matrices, about 0.75 KB a step with the printed text
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "--dmax", "5000", "quantum", "sd",
                               fixture_path("u1.qcc"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "D^5000*" in out
    assert peak < 5 * 2 ** 20


def test_verify_all_fails_a_free_series_off_at_its_last_order(
        monkeypatch, capsys, example1):
    # a term at D^dmax survives the truncation of free * (1 + total * D),
    # and the FAIL line after the verdict gives both sides
    free_wgf = conv.free_wgf
    monkeypatch.setattr(conv, "free_wgf", lambda lam, d_max: free_wgf(
        lam, d_max) + WeightPoly.var("D", d_max))
    code, out, _ = run_cli(capsys, "--dmax", "7", "verify", "all",
                           fixture_path("example1.cc"))
    assert code == 1
    lines = out.splitlines()
    assert lines[-2] == "free/total series relation: FAIL"
    assert all(line.endswith(": PASS") for line in lines[:-2])
    lam_y = wam(example1).collapse({"x": 1})
    total = conv.total_wgf(lam_y, 7)
    left = conv.free_wgf(lam_y, 7).truncated_mul(
        1 + total * WeightPoly.var("D"), 7)
    assert lines[-1] == "FAIL %s != %s" % (left, total)


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


def _perturbed(fn):
    """fn with N (y - x) added to its result's first cell (cell (0, 0) of
    a matrix), N the sum of its coefficients: the count stays N, and a
    transform of the result still divides exactly."""
    def wrapped(*args):
        out = fn(*args)
        count = sum(sum(e.terms.values()) for e in (
            [out] if isinstance(out, WeightPoly)
            else [e for row in out.rows for e in row.values()]))
        delta = count * (WeightPoly.var("y") - WeightPoly.var("x"))
        if isinstance(out, WeightPoly):
            return out + delta
        return PolyMatrix(out.labels, [{**out.rows[0], 0: out[0, 0] + delta}]
                          + out.rows[1:])
    return wrapped


def _hwgf_and_q(text):
    code = parse_block_code(text)
    return block.hwgf(code), code.spec.q


@pytest.mark.parametrize("name, module, attr, inputs, enumerate_dual", [
    ("example1.cc", conv, "dual_wam", lambda text: [parse_conv_seed(text)],
     lambda text: conv.wam(conv.dual_seed(parse_conv_seed(text)))),
    ("u1.qcc", quantum, "dual_wam", lambda text: [parse_quantum_spec(text)],
     lambda text: quantum_wam(quantum.dual_spec(parse_quantum_spec(text)))),
    ("rep3.bc", block, "macwilliams_hwgf", _hwgf_and_q,
     lambda text: block.hwgf(block.dual_code(parse_block_code(text))))])
def test_verify_all_names_the_first_differing_cell(
        monkeypatch, capsys, name, module, attr, inputs, enumerate_dual):
    # a transform off in one cell fails its line, and the FAIL line
    # after it gives the cell's labels and both sides' text
    text = read_fixture(name)
    got = _perturbed(getattr(module, attr))(*inputs(text))
    want = enumerate_dual(text)
    monkeypatch.setattr(module, attr, _perturbed(getattr(module, attr)))
    code, out, _ = run_cli(capsys, "verify", "all", fixture_path(name))
    assert code == 1
    lines = out.splitlines()
    at = lines.index("%s transform matches dual enumeration: FAIL"
                     % ("hwgf" if module is block else "wam"))
    if module is block:
        assert lines[at + 1] == "FAIL %s != %s" % (got, want)
    else:
        label = want.labels[0]
        assert lines[at + 1] == "FAIL cell (%s, %s): %s != %s" % (
            label, label, got[0, 0], want[0, 0])


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
    monkeypatch.setattr(pauli.CliffordSeed, "validate",
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
