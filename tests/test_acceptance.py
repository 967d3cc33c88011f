"""Acceptance gate: the eleven shipping criteria, one PASS/FAIL line each.

Every equality below is exact integer arithmetic; there are no
tolerances anywhere.  Oracles (dual enumeration, trellis walks,
fundamental-path search) are computed from first principles in this
file or in conftest, independently of the transform code under test.
"""

import time

import pytest

from conftest import (brute_force_dual_wam, direct_conv_edges,
                      direct_quantum_edges, field, fixture_path, matrix_of,
                      random_conv_seed, random_eaqcc_spec,
                      random_linear_code, random_systematic_code, seeded_rng)
from wamkit.block import (dual_code, hwgf, ipwgf, macwilliams_hwgf,
                          macwilliams_ipwgf)
from wamkit.cli import main as cli_main
from wamkit.errors import ShapeError
from wamkit.conv import (dual_seed, dual_total_wgf, fourier_matrix,
                         free_distance, free_wgf, iowam, ipwam,
                         macwilliams_ipwam, macwilliams_wam, orthogonality_check,
                         total_wgf, wam)
from wamkit.formats import (parse_block_code, parse_conv_seed,
                            parse_quantum_spec, structured_to_matrix,
                            matrix_to_structured)
from wamkit.poly import WeightPoly
from wamkit.polymatrix import PolyMatrix
from wamkit.quantum import dual_spec, quantum_macwilliams, quantum_wam

STATES4 = ["00", "10", "01", "11"]
PAULI4 = ["I", "X", "Y", "Z"]


_CAPSYS = None


@pytest.fixture(autouse=True)
def _uncaptured(capsys):
    # let report() bypass output capture so the per-criterion line is
    # visible in any pytest run, not only with -s
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(number, ok, detail=""):
    tail = (" (%s)" % detail) if detail and not ok else ""
    line = "criterion %2d: %s%s" % (number, "PASS" if ok else "FAIL", tail)
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)
    assert ok, "criterion %d failed %s" % (number, detail)


def load_conv(name):
    with open(fixture_path(name), encoding="utf-8") as handle:
        return parse_conv_seed(handle.read())


def load_quantum(name):
    with open(fixture_path(name), encoding="utf-8") as handle:
        return parse_quantum_spec(handle.read())


# --- independent trellis-edge oracles (the per-edge vec_mat and
# CliffordSeed.conjugate enumerations of conftest, not the packed spans) ---

def classical_edges(seed):
    """(state_in, state_out, output_weight) triples of one time step."""
    return [(i, j, sum(1 for s in p if s))
            for i, j, _u, p in direct_conv_edges(seed)]


def quantum_edges(spec):
    """(state_in, state_out, physical_weight, logical_is_identity)."""
    return [(mem.state_index(), out_mem.state_index(), phys.weight(),
             not bool(log))
            for mem, log, phys, out_mem in direct_quantum_edges(spec)]


def walk_enumerator(edges, states, depth):
    """Closed-walk weight counts at state 0: list of {weight: count} per
    length 0..depth, computed by dynamic programming over raw edges."""
    counts = [{} for _ in range(states)]
    counts[0][0] = 1
    out = [dict(counts[0])]
    for _ in range(depth):
        nxt = [{} for _ in range(states)]
        for i, j, w in edges:
            for acc_w, mult in counts[i].items():
                key = acc_w + w
                nxt[j][key] = nxt[j].get(key, 0) + mult
        counts = nxt
        out.append(dict(counts[0]))
    return out


def weight_counts(poly):
    """{y-weight: multiplicity} of a polynomial in y alone."""
    out = {}
    for exp, coeff in poly.terms.items():
        # exp is a 9-tuple; the y-flavored axes are 1, 3, 5, 7
        w = sum(exp[i] for i in (1, 3, 5, 7))
        out[w] = out.get(w, 0) + coeff
    return {k: v for k, v in out.items() if v}


def fundamental_path_search(edges, depth):
    """Least positive weight of a path 0 -> ... -> 0 with no intermediate
    visit to state 0, searched exhaustively to the given depth."""
    best = None
    # frontier: minimal accumulated weight per nonzero intermediate state
    frontier = {}
    for i, j, w in edges:
        if i != 0:
            continue
        if j == 0:
            if w > 0 and (best is None or w < best):
                best = w
        else:
            frontier[j] = min(w, frontier.get(j, w))
    for _ in range(depth - 1):
        nxt = {}
        for i, j, w in edges:
            if i not in frontier or i == 0:
                continue
            acc = frontier[i] + w
            if j == 0:
                if acc > 0 and (best is None or acc < best):
                    best = acc
            else:
                nxt[j] = min(acc, nxt.get(j, acc))
        frontier = nxt
    return best


# --- the criteria ---

def test_criterion_01_example1_matrices():
    start = time.perf_counter()
    sys_seed = load_conv("example1.cc")
    nonsys_seed = load_conv("example1-nonsys.cc")
    lam_ip = ipwam(sys_seed)
    delta = iowam(nonsys_seed)
    lam_y = wam(sys_seed).collapse({"x": 1})
    elapsed = time.perf_counter() - start
    ip_expect = matrix_of(STATES4, [
        ["xI*xP", "yI*yP", "0", "0"],
        ["0", "0", "xI*yP", "yI*xP"],
        ["yI*yP", "xI*xP", "0", "0"],
        ["0", "0", "yI*xP", "xI*yP"]])
    io_expect = matrix_of(STATES4, [
        ["1", "yI*yO^2", "0", "0"],
        ["0", "0", "yO", "yI*yO"],
        ["yO^2", "yI", "0", "0"],
        ["0", "0", "yO", "yI*yO"]])
    lam_expect = matrix_of(STATES4, [
        ["1", "y^2", "0", "0"],
        ["0", "0", "y", "y"],
        ["y^2", "1", "0", "0"],
        ["0", "0", "y", "y"]])
    ok = (lam_ip == ip_expect
          and delta.collapse({"x_I": 1, "x_O": 1}) == io_expect
          and lam_y == lam_expect
          and lam_ip.collapse({"x_I": WeightPoly.var("x"),
                               "y_I": WeightPoly.var("y"),
                               "x_P": WeightPoly.var("x"),
                               "y_P": WeightPoly.var("y")}).collapse(
                                   {"x": 1}) == lam_expect
          and elapsed < 1.0)
    report(1, ok, "elapsed %.3fs" % elapsed)


def test_criterion_02_example1_dual_ipwam():
    seed = load_conv("example1.cc")
    lam_hat = macwilliams_ipwam(ipwam(seed), seed.spec)
    expect = matrix_of(STATES4, [
        ["1", "0", "yI*yP", "0"],
        ["yI*yP", "0", "1", "0"],
        ["0", "yP", "0", "yI"],
        ["0", "yI", "0", "yP"]])
    report(2, lam_hat.collapse({"x_I": 1, "x_P": 1}) == expect)


def test_criterion_03_u1_wam_duality():
    start = time.perf_counter()
    spec = load_quantum("u1.qcc")
    lam = quantum_wam(spec)
    lam_hat = quantum_macwilliams(lam)
    dual_direct = quantum_wam(dual_spec(spec))
    elapsed = time.perf_counter() - start
    expect = matrix_of(PAULI4, [
        ["1", "y^2", "y", "y"],
        ["y^2", "y^2", "y^2", "y^2"],
        ["y^2", "y", "y", "y^2"],
        ["y^2", "y", "y^2", "y"]])
    transpose = PolyMatrix(lam.labels, [{j: lam[j, i] for j in range(4)}
                                        for i in range(4)])
    ok = (lam.collapse({"x": 1}) == expect
          and lam_hat == transpose
          and lam_hat == dual_direct
          and elapsed < 1.0)
    report(3, ok, "elapsed %.3fs" % elapsed)


def test_criterion_04_u2_ea_matrices():
    spec = load_quantum("u2-ea.qcc")
    lam = quantum_wam(spec)
    lam_hat = quantum_macwilliams(lam)
    expect = matrix_of(PAULI4, [
        ["1 + y^2", "0", "0", "y + y^2"],
        ["0", "1 + y^2", "y + y^2", "0"],
        ["0", "y + y^2", "1 + y^2", "0"],
        ["y + y^2", "0", "0", "1 + y^2"]])
    dual_expect = matrix_of(PAULI4, [
        ["1 + y + 2*y^2", "0", "0", "0"],
        ["0", "y + 3*y^2", "0", "0"],
        ["0", "0", "y + 3*y^2", "0"],
        ["0", "0", "0", "1 + y + 2*y^2"]])
    ok = (lam.collapse({"x": 1}) == expect
          and lam_hat.collapse({"x": 1}) == dual_expect)
    report(4, ok)


def test_criterion_05_example3_recovery():
    spec = load_quantum("u2-qcc.qcc")
    # the given dual WAM: zero-logical restriction of the state diagram,
    # cross-checked here against the raw edge enumeration
    lam_perp = matrix_of(PAULI4, [
        ["x^2", "0", "0", "x*y"],
        ["0", "y^2", "y^2", "0"],
        ["0", "y^2", "y^2", "0"],
        ["x*y", "0", "0", "y^2"]])
    x, y = WeightPoly.var("x"), WeightPoly.var("y")
    rows = [{} for _ in PAULI4]
    for i, j, w, log_is_identity in quantum_edges(spec):
        if log_is_identity:
            rows[i][j] = rows[i].get(j, 0) + x ** (spec.n - w) * y ** w
    restricted = PolyMatrix(PAULI4, rows)
    lam = quantum_macwilliams(lam_perp)
    expect = matrix_of(PAULI4, [
        ["1 + y^2", "y + y^2", "y + y^2", "2*y"],
        ["y + y^2", "2*y^2", "2*y^2", "y + y^2"],
        ["y + y^2", "2*y^2", "2*y^2", "y + y^2"],
        ["2*y", "y + y^2", "y + y^2", "1 + y^2"]])
    ok = (restricted == lam_perp
          and lam.collapse({"x": 1}) == expect
          and lam == quantum_wam(spec))
    report(5, ok)


def test_criterion_06_block_property_suite():
    start = time.perf_counter()
    rng = seeded_rng("acceptance-block")
    n_cap = {2: 12, 3: 7, 4: 6, 5: 5}
    specs = {2: field(2), 3: field(3), 4: field(2, 2), 5: field(5)}
    checked = 0
    ok = True
    for q in (2, 3, 4, 5):
        spec = specs[q]
        for trial in range(50):
            n = rng.randint(2, n_cap[q])
            k = rng.randint(1, n - 1)
            systematic = trial % 2 == 0
            if systematic:
                code = random_systematic_code(rng, spec, n, k)
            else:
                code = random_linear_code(rng, spec, n, k)
            dual = dual_code(code)
            if macwilliams_hwgf(hwgf(code), q) != hwgf(dual):
                ok = False
            if systematic:
                got = macwilliams_ipwgf(ipwgf(code), q)
                if got != ipwgf(dual, info_last=True):
                    ok = False
            checked += 1
    elapsed = time.perf_counter() - start
    report(6, ok and checked == 200 and elapsed < 60.0,
           "%d codes in %.1fs" % (checked, elapsed))


def test_criterion_07_conv_property_suite():
    rng = seeded_rng("acceptance-conv")
    checked = 0
    ok = True
    while checked < 100:
        q = rng.choice([2, 3])
        spec = field(q)
        n = rng.randint(1, 4 if q == 2 else 3)
        k = rng.randint(1, n)
        m = rng.randint(1, 3 if q == 2 else 2)
        seed = random_conv_seed(rng, spec, n, k, m)
        lam = wam(seed)
        if macwilliams_wam(lam, spec) != brute_force_dual_wam(seed):
            ok = False
        try:
            dual = dual_seed(seed)
        except ShapeError:
            continue  # no block-shaped dual seed; draw another sample
        passed, diags = orthogonality_check(seed, dual)
        if not passed:
            ok = False
        # encoder invariance: random invertible row operations on the
        # lower (input) block of G~ leave the WAM unchanged
        rows = [list(r) for r in seed.t_matrix]
        for _ in range(4):
            i = rng.randrange(k)
            scale = rng.randrange(1, q)
            rows[m + i] = [spec.mul[scale][x] for x in rows[m + i]]
            if k > 1:
                j = rng.randrange(k)
                if j != i:
                    f = rng.randrange(q)
                    rows[m + i] = [spec.add[a][spec.mul[f][b]]
                                   for a, b in zip(rows[m + i], rows[m + j])]
        other = type(seed)(spec, n, k, m, rows)
        if wam(other) != lam:
            ok = False
        checked += 1
    report(7, ok, "%d seeds" % checked)


def test_criterion_08_series_identities():
    ok = True
    detail = []
    d_max = 10
    d = WeightPoly.var("D", d_max=d_max)
    cases = []
    for name in ("example1.cc", "example1-nonsys.cc"):
        seed = load_conv(name)
        lam_y = wam(seed).collapse({"x": 1})
        cases.append((name, lam_y, classical_edges(seed)))
    for name in ("u1.qcc", "u2-ea.qcc", "u2-qcc.qcc"):
        spec = load_quantum(name)
        lam_y = quantum_wam(spec).collapse({"x": 1})
        edges = [(i, j, w) for i, j, w, _log in quantum_edges(spec)]
        cases.append((name, lam_y, edges))
    for name, lam_y, edges in cases:
        w_total = total_wgf(lam_y, d_max)
        w_free = free_wgf(lam_y, d_max)
        if w_free * (1 + w_total * d) != w_total:
            ok = False
            detail.append("%s: free*(1+total*D) != total" % name)
        if w_total * (1 - w_free * d) != w_free:
            ok = False
            detail.append("%s: total*(1-free*D) != free" % name)
        # the D^i coefficients are closed-walk enumerators at state 0
        oracle = walk_enumerator(edges, lam_y.size, 8)
        for i in range(9):
            if weight_counts(w_total.d_coefficient(i)) != oracle[i]:
                ok = False
                detail.append("%s: walk oracle differs at D^%d" % (name, i))
    # the dual total WGF two ways: through the dual WAM series, and
    # through per-degree conjugated powers of the substituted matrix
    for name in ("example1.cc", "example1-nonsys.cc"):
        seed = load_conv(name)
        spec, q, k, m = seed.spec, seed.spec.q, seed.k, seed.m
        lam = wam(seed)
        route1 = dual_total_wgf(lam, 6, spec)
        y = WeightPoly.var("y")
        image = lam.substitute({"x": 1 + (q - 1) * y, "y": 1 - y})
        f = fourier_matrix(spec)
        power = PolyMatrix.identity(lam.labels)
        for i in range(7):
            conj = power.conjugate_by(f).exact_div(
                q ** (m + k * i)).to_int_coeffs()
            if conj[0, 0] != route1.d_coefficient(i):
                ok = False
                detail.append("%s: dual-total routes differ at D^%d"
                              % (name, i))
            power = power * image
    report(8, ok, "; ".join(detail))


def test_criterion_09_free_distance_oracle():
    seed = load_conv("example1.cc")
    oracle = fundamental_path_search(classical_edges(seed), 8)
    lam_y = wam(seed).collapse({"x": 1})
    result = free_distance(lam_y, 8)
    ok = (oracle is not None and result.determined
          and result.value == oracle)
    report(9, ok, "oracle=%r result=%r" % (oracle, result))


def test_criterion_10_quantum_property_suite():
    start = time.perf_counter()
    rng = seeded_rng("acceptance-quantum")
    shapes = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)
              if n + m <= 4]
    splits = []
    for n, m in shapes:
        for k in range(n + 1):
            for c in range(n - k + 1):
                splits.append((n, m, k, c))
    checked = 0
    ok = True
    while checked < 50:
        n, m, k, c = splits[checked % len(splits)]
        spec = random_eaqcc_spec(rng, n, k, c, m)
        lam = quantum_wam(spec)
        lam_hat = quantum_macwilliams(lam)
        if lam_hat != quantum_wam(dual_spec(spec)):
            ok = False
        if quantum_macwilliams(lam_hat) != lam:
            ok = False
        checked += 1
    elapsed = time.perf_counter() - start
    report(10, ok and elapsed < 120.0,
           "%d seeds in %.1fs" % (checked, elapsed))


def test_criterion_11_verify_all_and_round_trips():
    ok = True
    detail = []
    for name in ("rep3.bc", "example1.cc", "example1-nonsys.cc",
                 "u1.qcc", "u2-ea.qcc", "u2-qcc.qcc"):
        code = cli_main(["verify", "all", fixture_path(name)])
        if code != 0:
            ok = False
            detail.append("verify all %s exited %d" % (name, code))
    seed = load_conv("example1.cc")
    for matrix in (ipwam(seed), quantum_wam(load_quantum("u1.qcc"))):
        if structured_to_matrix(matrix_to_structured(matrix)) != matrix:
            ok = False
            detail.append("structured round trip failed")
    report(11, ok, "; ".join(detail))
