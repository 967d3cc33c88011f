"""The packed D-series against dense matrix powers, and its speed."""

import time
import tracemalloc
from collections import Counter
from itertools import product
from operator import add

import pytest

from conftest import (field, identity_matrix, matrix_of, matrix_product,
                      matrix_sum, poly_of, random_conv_seed,
                      random_systematic_conv_seed, read_fixture, seeded_rng,
                      shift_register_text)
from wamkit import errors, poly, polymatrix
from wamkit.cli import _dual_lam_y, _lam_y, main
from wamkit.conv import (ConvSeed, dual_series_bounds, dual_wam,
                         free_distance, free_wgf, iowam, ipwam, section_edges,
                         seed_series, series_charge, total_wgf, wam)
from wamkit.errors import AlgebraError, BudgetError, ShapeError
from wamkit.formats import parse_conv_seed, render_conv_seed
from wamkit.poly import _D, VARS, WeightPoly, _nonzero_fields
from wamkit.polymatrix import PolyMatrix, series_entry, series_inverse

D_MAX = 6


def dense_series(n, d_max):
    """sum_{t <= d_max} N^t D^t from full matrix products."""
    out = power = identity_matrix(n.labels)
    for t in range(1, d_max + 1):
        power = matrix_product(power, n)
        out = matrix_sum(out, power, WeightPoly.var("D", t))
    return out


def without_zero_loop(lam):
    hole = PolyMatrix(lam.labels, [{0: WeightPoly.const(1)}]
                      + [{} for _ in lam.labels[1:]])
    return matrix_sum(lam, hole, -1)


def _seeds():
    rng = seeded_rng("row-series")
    for p, r, m in ((2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 1), (3, 1, 2),
                    (2, 2, 1), (2, 2, 2)):
        n = rng.randint(2, 3)
        yield random_conv_seed(rng, field(p, r), n, rng.randint(1, n - 1), m)


@pytest.mark.parametrize("seed", list(_seeds()),
                         ids=lambda s: "q%d-m%d" % (s.spec.q, s.m))
def test_row_series_matches_dense_powers(seed):
    lam = wam(seed)
    for mat in (lam, lam.collapse({"x": 1})):
        total = dense_series(mat, D_MAX)[0, 0]
        free = dense_series(without_zero_loop(mat), D_MAX)[0, 0]
        for d in range(D_MAX + 1):
            assert total_wgf(mat, d) == total.truncated(d)
            assert free_wgf(mat, d) == free.truncated(d)
            assert total_wgf(mat, d).max_d_degree() <= d
    n = lam.collapse({"x": 1})
    d = WeightPoly.var("D")
    m = matrix_sum(identity_matrix(n.labels), n, -d)
    assert series_inverse(m, D_MAX) == dense_series(n, D_MAX)


def _oracle_cases():
    rng = seeded_rng("packed-series")
    sys_seed = random_systematic_conv_seed(rng, field(2), 3, 1, 2)
    lam = wam(random_conv_seed(rng, field(3), 2, 1, 1))
    yield pytest.param(ipwam(sys_seed), id="ipwam")
    yield pytest.param(iowam(random_conv_seed(rng, field(2), 3, 2, 1)),
                       id="iowam")
    yield pytest.param(lam * -1, id="negated")
    yield pytest.param(lam * 2 ** 70, id="wide")
    # state 2 has no out-edges, and x - 2y gives both signs on one row
    labels, zero = ["0", "1", "2"], ["0", "0", "0"]
    yield pytest.param(matrix_sum(
        matrix_of(labels, [["y", "x", "x^2"], ["1", "0", "y"], zero]),
        matrix_of(labels, [["0", "2*y", "0"], zero, zero]), -1), id="sink")
    # 255^t has exactly 8t bits, so every depth's largest sum fills its
    # fields to the last bit: a sign needs one byte more
    yield pytest.param(matrix_of(["0"], [["255*y"]]), id="byte-boundary")
    yield pytest.param(matrix_of(["0"], [["255*y"]]) * -1,
                       id="byte-boundary-negated")
    yield pytest.param(matrix_sum(
        matrix_of(["0", "1"], [["127*y", "128"], ["0", "0"]]),
        matrix_of(["0", "1"], [["0", "0"], ["0", "255*y"]]), -1),
        id="byte-boundary-mixed")
    # every row of N^2 cancels to zero
    yield pytest.param(matrix_sum(
        matrix_of(["0", "1"], [["y", "y"], ["0", "0"]]),
        matrix_of(["0", "1"], [["0", "0"], ["y", "y"]]), -1), id="cancels")


@pytest.mark.parametrize("n", list(_oracle_cases()))
def test_packed_series_matches_dense_powers(n):
    dense = dense_series(n, D_MAX)
    for i in range(n.size):
        for d in range(D_MAX + 1):
            entry, open_paths = series_entry(n, i, d)
            assert entry == dense[i, i].truncated(d)
            assert entry.max_d_degree() <= d
            assert open_paths == any(dense[i, j].d_coefficient(d)
                                     for j in range(n.size))
    d = WeightPoly.var("D")
    m = matrix_sum(identity_matrix(n.labels), n, -d)
    assert series_inverse(m, D_MAX) == dense
    assert series_inverse(m, 0) == identity_matrix(n.labels)


def test_free_series_of_a_loop_without_constant_term():
    # entry (0, 0) is y alone, so the zero-loop subtraction leaves y - 1
    lam = matrix_of(["0", "1"], [["y", "y^2"], ["1", "y"]])
    free = dense_series(without_zero_loop(lam), D_MAX)[0, 0]
    assert without_zero_loop(lam)[0, 0] == WeightPoly.var("y") - 1
    for d in range(D_MAX + 1):
        assert free_wgf(lam, d) == free.truncated(d)
    assert free_wgf(lam, 1).coefficient({"D": 1}) == -1


def test_wam_with_a_d_term_is_rejected():
    lam = matrix_of(["0", "1"], [["1", "y*D"], ["y", "1"]])
    for fn in (total_wgf, free_wgf):
        with pytest.raises(AlgebraError, match="not of the form I - N\\*D"):
            fn(lam, 4)


def _shift_register(m):
    """Binary (2, 1, m) feedforward encoder: every nonzero path needs
    m + 1 steps to merge back into the zero state."""
    rows = []
    for i in range(m):
        taps = [1, i % 2]
        rows.append(taps + [1 if j == i + 1 else 0 for j in range(m)])
    rows.append([1, 1] + [1] + [0] * (m - 1))
    return ConvSeed(field(2), 2, 1, m, rows)


def test_dfree_open_path_test_on_the_row_series():
    seed = _shift_register(4)
    lam = wam(seed).collapse({"x": 1})
    assert not free_distance(lam, 4).determined
    assert free_distance(lam, 5).value is not None
    # no state ever leaves the zero state: nothing open, nothing merged
    closed = matrix_of(["0", "1"], [["1", "0"], ["0", "y"]])
    result = free_distance(closed, 3)
    assert result.determined and result.value is None
    # nothing leaves the zero state, but paths into it stay open: only
    # column 0 of the reduced matrix's powers is nonzero
    inbound = matrix_of(["0", "1"], [["1", "0"], ["y", "y"]])
    result = free_distance(inbound, 3)
    assert not result.determined and result.value is None
    assert result.reason.startswith("paths still open at depth 3")


def _run_timed(capsys, tmp_path, seed, *argv):
    path = tmp_path / "seed.cc"
    path.write_text(render_conv_seed(seed))
    start = time.perf_counter()
    codes = [main(list(args) + [str(path)]) for args in argv]
    elapsed = time.perf_counter() - start
    return codes, capsys.readouterr().out, elapsed


def test_total_and_free_on_binary_m8_are_fast(capsys, tmp_path):
    seed = random_conv_seed(seeded_rng("series-m8"), field(2), 2, 1, 8)
    codes, out, elapsed = _run_timed(capsys, tmp_path, seed,
                                     ["conv", "total"], ["conv", "free"])
    assert codes == [0, 0] and out.count("\n") == 2
    assert elapsed < 3.0


def test_shallow_dfree_on_binary_m8_is_fast(capsys, tmp_path):
    codes, out, elapsed = _run_timed(capsys, tmp_path, _shift_register(8),
                                     ["--dmax", "3", "conv", "dfree"])
    assert codes == [0]
    assert out.startswith("d_free not determined: paths still open")
    assert elapsed < 3.0


def test_verify_all_on_gf4_m3_is_fast(capsys, tmp_path):
    seed = random_conv_seed(seeded_rng("verify-gf4-m3"), field(2, 2), 2, 1, 3)
    codes, out, elapsed = _run_timed(capsys, tmp_path, seed,
                                     ["verify", "all"])
    assert codes == [0] and "FAIL" not in out
    assert elapsed < 3.0


def _shift_register_job(tmp_path, m, *argv):
    path = tmp_path / "shift.cc"
    path.write_text(shift_register_text(m))
    return main(list(argv) + [str(path)])


def _peak_bytes(job):
    tracemalloc.start()
    try:
        job()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_deep_series_on_binary_m6_is_fast_and_small(capsys, tmp_path):
    # tracemalloc slows the run, so it is timed without it
    start = time.perf_counter()
    assert _shift_register_job(tmp_path, 6, "--dmax", "200", "conv",
                               "total") == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert elapsed < 3.0
    assert _peak_bytes(lambda: _shift_register_job(
        tmp_path, 6, "--dmax", "200", "conv", "total")) < 32 * 2 ** 20
    assert capsys.readouterr().out == out


def test_total_on_binary_m12_needs_no_s_squared_cells(capsys, tmp_path):
    # 2^24 cells would exceed the budget, but the WAM has 2^13 edges
    assert _peak_bytes(lambda: _shift_register_job(
        tmp_path, 12, "conv", "total")) < 16 * 2 ** 20
    assert capsys.readouterr().out.startswith("1 + D + ")


def _refusal(job):
    """The BudgetError text of job(), or None when it runs."""
    try:
        job()
    except BudgetError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (2, 2)])
def test_series_charge_from_the_seed_is_the_series_own(monkeypatch, p, r):
    # the CLI charges the series from the seed before it builds Lam_y;
    # under every budget it refuses what the series itself refuses, with
    # the same text, the free series (and dfree's first) included, m = 0
    # and k = 0 too, and seeds whose last output is always 0, so that no
    # edge weighs n.  Budgets double from the edge count, then sit on
    # each byte count seen and one below it.
    spec = field(p, r)
    rng = seeded_rng("series-charge-%d-%d" % (p, r))
    seen, budget = [], errors.BUDGET
    seeds = [random_conv_seed(rng, spec, n, k, m)
             for n, k, m in [(2, 1, 2), (3, 1, 1), (2, 1, 0), (2, 0, 2),
                             (3, 2, 1), (1, 1, 2), (3, 1, 2), (4, 2, 1)]]
    seeds += [ConvSeed(spec, s.n, s.k, s.m, [
        row[:s.n - 1] + [0] + row[s.n:] for row in s.t_matrix])
        for s in seeds[-2:]]
    for seed in seeds:
        monkeypatch.setattr(errors, "BUDGET", budget)
        lam_y = wam(seed).collapse({"x": 1})
        n, k, m = seed.n, seed.k, seed.m
        edges = spec.q ** (m + k)
        for free, series in ((False, total_wgf), (True, free_wgf)):
            for d in (3, 30):
                budgets = [edges << t for t in range(20)]
                while budgets:
                    monkeypatch.setattr(errors, "BUDGET", budgets.pop())
                    want = _refusal(lambda: series(lam_y, d))
                    assert _refusal(lambda: _lam_y(seed, d, free)) == want
                    if want is not None and want not in seen:
                        seen.append(want)
                        need = int(want.split(" needs ")[1].split()[0])
                        budgets += [b for b in (need - 1, need)
                                    if b >= edges]
    assert len(seen) > 20


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (2, 2)])
def test_seed_series_refuses_what_the_wam_route_refuses(monkeypatch, p, r):
    # under every budget conv.seed_series raises what _lam_y and then the
    # series over its matrix raise, with the same text; budgets as above
    spec = field(p, r)
    rng = seeded_rng("seed-series-charge-%d-%d" % (p, r))
    seeds = [random_conv_seed(rng, spec, n, k, m)
             for n, k, m in [(2, 1, 2), (3, 1, 1), (2, 1, 0), (2, 0, 2),
                             (3, 2, 1), (1, 1, 2), (3, 1, 2), (4, 2, 1)]]
    seen = []
    for seed in seeds:
        edges = spec.q ** (seed.m + seed.k)
        for free, series in ((False, total_wgf), (True, free_wgf)):
            for d in (3, 30):
                budgets = [edges << t for t in range(20)]
                while budgets:
                    monkeypatch.setattr(errors, "BUDGET", budgets.pop())
                    want = _refusal(lambda: series(_lam_y(seed, d, free), d))
                    assert _refusal(
                        lambda: seed_series(seed, d, free)) == want
                    if want is not None and want not in seen:
                        seen.append(want)
                        need = int(want.split(" needs ")[1].split()[0])
                        budgets += [b for b in (need - 1, need)
                                    if b >= edges]
    assert len(seen) > 20


@pytest.mark.parametrize("action", ["total", "free", "dfree"])
def test_series_over_binary_m18_is_refused_before_the_wam(capsys, tmp_path,
                                                          action):
    # 2^19 edges pass their charge, but the series to D^10 over 2^18
    # states would not fit: it is charged before any cell is built (about
    # 7 s and 500 MB of WAM cells when the series charged it)
    start = time.perf_counter()
    code = _shift_register_job(tmp_path, 18, "conv", action)
    elapsed = time.perf_counter() - start
    assert code == 2
    assert capsys.readouterr().err == (
        "error: the series to D^10 needs 11010048 bytes, which exceeds the "
        "budget of 4194304\n")
    assert elapsed < 2.0, "refusing took %.2f s" % elapsed


def test_total_on_binary_m16_still_runs(capsys, tmp_path):
    assert _shift_register_job(tmp_path, 16, "conv", "total") == 0
    assert capsys.readouterr().out.startswith("1 + D + ")


def test_total_on_binary_m16_builds_no_wam(capsys, tmp_path):
    # its 2^17 edges counted and listed per state peak at about 33 MB;
    # the WAM's cells, their x-collapse and the matrix series at 75 MB
    assert _peak_bytes(lambda: _shift_register_job(
        tmp_path, 16, "conv", "total")) < 50 * 2 ** 20
    assert capsys.readouterr().out.startswith("1 + D + ")


def _low_rank_variants(seed):
    """seed with its C rows zeroed (rank T falls to k) and with its last
    output column zeroed, where those seeds are valid."""
    spec, n, k, m = seed.spec, seed.n, seed.k, seed.m
    out = []
    for rows in ([[0] * n + row[n:] if i < m else row
                  for i, row in enumerate(seed.t_matrix)],
                 [row[:n - 1] + [0] + row[n:] for row in seed.t_matrix]):
        try:
            out.append(ConvSeed(spec, n, k, m, rows))
        except ShapeError:
            pass
    return out


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (2, 2)])
def test_dual_series_bounds_are_the_dual_wams_own(p, r):
    # the largest row sum and the heaviest edge of the dual WAM with x
    # set to 1, read from the seed: m = 0, k = 0, k >= m and seeds whose
    # rank T or output weights fall short included
    spec = field(p, r)
    rng = seeded_rng("dual-series-bounds-%d-%d" % (p, r))
    for n, k, m in [(2, 1, 2), (3, 1, 1), (2, 1, 0), (2, 0, 2), (3, 2, 1),
                    (1, 1, 2), (3, 1, 2), (4, 3, 1), (2, 2, 1)]:
        seed = random_conv_seed(rng, spec, n, k, m)
        for s in [seed] + _low_rank_variants(seed):
            lam_y = dual_wam(s).collapse({"x": 1})
            cells = [e for row in lam_y.rows for e in row.values()]
            assert dual_series_bounds(s) == (
                max(sum(sum(e.terms.values()) for e in row.values())
                    for row in lam_y.rows),
                max(d for e in cells for d in e.y_degrees()))


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (2, 2)])
def test_dual_series_charge_from_the_seed_is_the_series_own(monkeypatch, p,
                                                            r):
    # dual-total charges the dual WAM and then its series from the seed
    # before any cell is built; under every budget it refuses what the
    # dual WAM and its series refuse, with the same text.  Budgets double
    # from the edge count, then sit on each byte count seen and one below
    spec = field(p, r)
    rng = seeded_rng("dual-series-charge-%d-%d" % (p, r))
    seen = []
    seeds = [random_conv_seed(rng, spec, n, k, m)
             for n, k, m in [(2, 1, 2), (3, 1, 1), (2, 1, 0), (2, 0, 2),
                             (3, 2, 1), (3, 1, 2), (4, 2, 1)]]
    for seed in seeds + _low_rank_variants(seeds[-2]):
        edges = spec.q ** (seed.m + seed.k)
        for d in (3, 30):
            budgets = [edges << t for t in range(20)]
            while budgets:
                monkeypatch.setattr(errors, "BUDGET", budgets.pop())
                want = _refusal(lambda: total_wgf(
                    dual_wam(seed).collapse({"x": 1}), d))
                assert _refusal(lambda: _dual_lam_y(seed, d)) == want
                if want is not None and want not in seen:
                    seen.append(want)
                    need = int(want.split(" needs ")[1].split()[0])
                    budgets += [b for b in (need - 1, need) if b >= edges]
    assert sum("series" in text for text in seen) > 10


def test_dual_total_over_binary_15_5_12_is_refused_before_the_transform(
        monkeypatch, capsys, tmp_path):
    # the 2^22 dual cells pass their charge, but the series to D^10 over
    # 2^12 states would not fit: it is charged before the 2^17 edges are
    # transformed (about 5 s and 250 MB when the series charged it)
    seed = random_conv_seed(seeded_rng("dual-total-15-5-12"), field(2), 15,
                            5, 12)
    path = tmp_path / "seed.cc"
    path.write_text(render_conv_seed(seed))
    passes = []
    monkeypatch.setattr(polymatrix, "character_pass",
                        lambda *args: passes.append(args))
    start = time.perf_counter()
    code = main(["conv", "dual-total", str(path)])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert capsys.readouterr().err == (
        "error: the series to D^10 needs 8040448 bytes, which exceeds the "
        "budget of 4194304\n")
    assert passes == []
    assert elapsed < 2.0, "refusing took %.2f s" % elapsed


def test_a_row_that_cancels_closes_its_paths():
    # N = (y y; -y -y): row 0 of N is nonzero, every row of N^2 is zero
    n = matrix_sum(matrix_of(["0", "1"], [["y", "y"], ["0", "0"]]),
                   matrix_of(["0", "1"], [["0", "0"], ["y", "y"]]), -1)
    assert series_entry(n, 0, 1) == (poly_of("1 + y*D"), True)
    for d in (2, 3, 10):
        assert series_entry(n, 0, d) == (poly_of("1 + y*D"), False)


@pytest.mark.parametrize("p, r, n, k, m", [(2, 1, 4, 3, 1), (3, 1, 3, 2, 1)])
def test_parallel_edges_merge_per_source(monkeypatch, p, r, n, k, m):
    # k > rank B: q^(k - rank B) inputs of a source share each next
    # state, and those of equal weight are one edge with their count
    spec = field(p, r)
    rng = seeded_rng("parallel-edges-%d-%d" % (p, n))
    lists, run = [], polymatrix.packed_series
    monkeypatch.setattr(polymatrix, "packed_series",
                        lambda edges, *args: lists.append(edges)
                        or run(edges, *args))
    for seed in (random_conv_seed(rng, spec, n, k, m),
                 random_systematic_conv_seed(rng, spec, n, k, m)):
        lam_y = wam(seed).collapse({"x": 1})
        for d in (0, 1, 5):
            assert seed_series(seed, d) == total_wgf(lam_y, d)
            assert seed_series(seed, d, free=True) == free_wgf(lam_y, d)
    for edges in lists:
        assert max(c for row in edges for _, _, c in row) > 1
        for row in edges:
            assert len({(j, shift) for j, shift, _ in row}) == len(row)


def test_series_actions_at_depth_zero(capsys, tmp_path):
    # to D^0 every series is the identity's entry, 1, and paths from
    # state 0 are still open
    path = tmp_path / "seed.cc"
    rng = seeded_rng("depth-zero")
    for spec, (n, k, m) in ((field(2), (2, 1, 3)), (field(3), (3, 2, 1)),
                            (field(2, 2), (2, 1, 0))):
        path.write_text(render_conv_seed(random_conv_seed(rng, spec, n, k,
                                                          m)))
        for action in ("total", "free", "dual-total"):
            assert main(["--dmax", "0", "conv", action, str(path)]) == 0
            assert capsys.readouterr() == ("1\n", "")
        assert main(["--dmax", "0", "conv", "dfree", str(path)]) == 0
        assert capsys.readouterr().out.startswith(
            "d_free not determined: paths still open at depth 0")


# --- the references that the one-int recursion and the streamed feeder
# replaced, kept to time them against ---

def _two_plane_series(edges, i, d_max, columns, layout, w):
    """The two-plane loop: each state's entry of v_t as a (plus, minus)
    pair of ints in a dict, edges[s] listing (j, field, c)."""
    size = w
    for _, _, radix in layout:
        size *= radix
    out, vec = {}, {i: (1, 0)}
    for t in range(d_max + 1):
        exp = [0] * _D + [t]
        for j in columns:
            if j in vec:
                plus, minus = vec[j]
                lo, hi = plus.to_bytes(size, "little"), minus.to_bytes(
                    size, "little")
                terms = out.setdefault(j, {})
                for x in _nonzero_fields((plus ^ minus).to_bytes(
                        size, "little"), w):
                    for slot, place, radix in layout:
                        exp[slot] = x // place % radix
                    at = x * w
                    terms[tuple(exp)] = (
                        int.from_bytes(lo[at:at + w], "little")
                        - int.from_bytes(hi[at:at + w], "little"))
        if t == d_max:
            break
        nxt = {}
        for s, (plus, minus) in vec.items():
            for j, field_, c in edges[s]:
                shift = field_ * 8 * w
                a, b = plus << shift, minus << shift
                if c != 1:
                    a, b = (a * c, b * c) if c > 0 else (b * -c, a * -c)
                if j in nxt:
                    a, b = a + nxt[j][0], b + nxt[j][1]
                nxt[j] = a, b
        vec = {j: planes for j, planes in nxt.items()
               if planes[0] != planes[1]}
        if not vec:
            break
    return out, bool(vec)


def _counted_edges(seed, d_max, free=False):
    """(per-source (j, weight, c) lists, layout, w) from one Counter over
    every (source, next state, weight) edge tuple of the seed."""
    heaviest, w = series_charge(seed, d_max, free)
    spec, m = seed.spec, seed.m
    states, stream = section_edges(spec, spec.q, seed.t_matrix[:m],
                                   seed.t_matrix[m:], seed.n,
                                   [range(seed.n)])
    counts = Counter(stream)
    if free:
        counts[0, 0, 0] -= 1
    edges = [[] for _ in range(states)]
    for (s, j, v), c in counts.items():
        if c:
            edges[s].append((j, v, c))
    layout = [(1, 1, d_max * heaviest + 1)] if heaviest else []
    return edges, layout, w


def _counter_seed_series(seed, d_max, free=False):
    """seed_series through the global Counter and the two-plane loop."""
    edges, layout, w = _counted_edges(seed, d_max, free)
    return WeightPoly(_two_plane_series(edges, 0, d_max, (0,), layout,
                                        w)[0][0])


def _best_of_5(jobs, reps=1):
    """The outputs and, for each job, the least over 5 rounds of its time
    summed over `reps` runs, the jobs' runs interleaved one by one, so a
    slow spell of the host slows every side alike, after one untimed run
    of each job to warm caches and the allocator."""
    for job in jobs:
        job()
    best, out = [float("inf")] * len(jobs), [None] * len(jobs)
    for _ in range(5):
        total = [0.0] * len(jobs)
        for _ in range(reps):
            for at, job in enumerate(jobs):
                start = time.perf_counter()
                out[at] = job()
                total[at] += time.perf_counter() - start
        best = list(map(min, best, total))
    return best, out


@pytest.mark.parametrize("seed, d_max", [
    pytest.param(parse_conv_seed(shift_register_text(8)), 20, id="gf2-m8"),
    pytest.param(random_conv_seed(seeded_rng("one-int-gf3"), field(3), 2, 1,
                                  4), 20, id="gf3-m4")])
def test_one_int_recursion_takes_three_quarters_of_the_plane_pair(seed,
                                                                  d_max):
    for free in (False, True):
        edges, layout, w = _counted_edges(seed, d_max, free)
        shifted = [[(j, v * 8 * w, c) for j, v, c in row] for row in edges]
        best, out = _best_of_5([
            lambda: _two_plane_series(edges, 0, d_max, (0,), layout, w),
            lambda: polymatrix.packed_series(shifted, 0, d_max, (0,),
                                             layout, w)], reps=30)
        assert out[1] == out[0]
        assert best[1] <= 0.75 * best[0], best


@pytest.mark.parametrize("n, k, m", [(16, 15, 0), (12, 11, 4)])
def test_streamed_feeder_keeps_pace_with_the_global_counter(n, k, m):
    # up to 2^15 parallel edges on a state: listed one by one they would
    # cost the recursion about ten times the counting
    seed = random_conv_seed(seeded_rng("feeder-%d-%d" % (n, m)), field(2),
                            n, k, m)
    for free in (False, True):
        best, out = _best_of_5([lambda: _counter_seed_series(seed, 10, free),
                                lambda: seed_series(seed, 10, free)], reps=5)
        assert out[1] == out[0]
        assert best[1] <= 1.1 * best[0], best


# --- the truncated product ---

def _term_pair_product(a, b, d):
    """a.truncated_mul(b, d) term pair by term pair: the oracle."""
    terms = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            if ea[_D] + eb[_D] <= d:
                e = tuple(map(add, ea, eb))
                terms[e] = terms.get(e, 0) + ca * cb
    return WeightPoly(terms)


def _dense_operand(rng, names, degree, coeffs):
    """Every monomial of degree at most `degree` in each of `names` and
    at most 4 in D, each with a coefficient drawn from coeffs."""
    out = {}
    for exps in product(range(degree + 1), repeat=len(names) + 1):
        exp = [0] * (_D + 1)
        for name, e in zip(names + ("D",), exps):
            exp[VARS.index(name)] = e
        out[tuple(exp)] = rng.choice(coeffs)
    return WeightPoly(out)


@pytest.mark.parametrize("names", [("y",), ("x", "y"), ("x_I", "y_P", "y")])
def test_truncated_mul_matches_the_term_pairs(monkeypatch, names):
    # dense operands are packed, never multiplied as polynomials; their
    # fields sit on byte boundaries in both signs
    rng = seeded_rng("truncated-mul-" + "-".join(names))
    coeffs = [1, 2, 127, -127, 128, -128, 255, -255, 256, -256, 2 ** 15,
              -2 ** 15 + 1, 2 ** 64 - 1, -2 ** 70]
    cases = [[_dense_operand(rng, names, rng.randint(1, 3), coeffs)
              for _ in range(2)] + [rng.randint(0, 8)] for _ in range(12)]
    cases += [[poly_of("127"), poly_of("1"), 0],
              [WeightPoly.const(-128), poly_of("1"), 0],
              [poly_of("128"), poly_of("1"), 0],
              [poly_of("255"), poly_of("1"), 0],
              [WeightPoly.const(-129), poly_of("1"), 0],
              [poly_of("127 + 127*y"), poly_of("1 + y"), 3],
              [WeightPoly.zero(), poly_of("1 + y"), 2]]
    want = [_term_pair_product(a, b, d) for a, b, d in cases]
    monkeypatch.setattr(WeightPoly, "__mul__", _refuse_pair)
    monkeypatch.setattr(poly, "add", _refuse_pair)
    assert [a.truncated_mul(b, d) for a, b, d in cases] == want


def _refuse_pair(*args):
    raise AssertionError("a dense product was multiplied term by term")


def test_sparse_truncated_mul_forms_only_the_pairs_to_d(monkeypatch):
    # far-apart exponents in three variables would pack into 10^12
    # fields: the pairs of terms are multiplied one by one, and only those
    # that land at D^d or below
    rng = seeded_rng("truncated-mul-sparse")
    cases = [[WeightPoly({tuple(rng.randrange(10 ** 4) if v in (0, 1, 2)
                                else rng.randrange(5) if v == _D else 0
                                for v in range(_D + 1)):
                          rng.choice([3, -5, 2 ** 40]) for _ in range(6)})
              for _ in range(2)] + [d] for d in (0, 3, 8)]
    want = [_term_pair_product(a, b, d) for a, b, d in cases]
    sums, run = [], poly.add
    monkeypatch.setattr(poly, "add", lambda x, y: sums.append(x) or run(x, y))
    monkeypatch.setattr(poly, "_field_terms", _refuse_pair)
    assert [a.truncated_mul(b, d) for a, b, d in cases] == want
    assert len(sums) == (_D + 1) * sum(
        ea[_D] + eb[_D] <= d for a, b, d in cases for ea in a.terms
        for eb in b.terms)


def test_truncated_mul_packs_up_to_four_fields_a_term(monkeypatch):
    # the series of 1 + y^2 packs into under four fields a term and that of
    # 1 + y^3 into over four: near there the two ways take about as long
    for cell, packed in (("1 + y^2", True), ("1 + y^3", False)):
        lam_y = matrix_of(["0"], [[cell]])
        free = free_wgf(lam_y, 20)
        total = 1 + total_wgf(lam_y, 20) * WeightPoly.var("D")
        want, sums, run = _term_pair_product(free, total, 20), [], poly.add
        monkeypatch.setattr(poly, "add",
                            lambda x, y: sums.append(x) or run(x, y))
        assert free.truncated_mul(total, 20) == want
        assert bool(sums) is not packed
        monkeypatch.undo()


def test_truncated_mul_takes_a_tenth_of_the_term_pairs():
    # the free/total relation of verify all on example1.cc at --dmax 50
    lam_y = wam(parse_conv_seed(read_fixture("example1.cc"))).collapse(
        {"x": 1})
    free = free_wgf(lam_y, 50)
    total = 1 + total_wgf(lam_y, 50) * WeightPoly.var("D")
    best, out = _best_of_5([lambda: _term_pair_product(free, total, 50),
                            lambda: free.truncated_mul(total, 50)])
    assert out[1] == out[0]
    assert best[1] * 10 <= best[0], best
