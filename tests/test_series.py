"""The packed D-series against dense matrix powers, and its speed."""

import time
import tracemalloc

import pytest

from conftest import (field, identity_matrix, matrix_of, matrix_product,
                      matrix_sum, random_conv_seed,
                      random_systematic_conv_seed, seeded_rng,
                      shift_register_text)
from wamkit import errors, polymatrix
from wamkit.cli import _dual_lam_y, _lam_y, main
from wamkit.conv import (ConvSeed, dual_series_bounds, dual_wam,
                         free_distance, free_wgf, iowam, ipwam, seed_series,
                         total_wgf, wam)
from wamkit.errors import AlgebraError, BudgetError, ShapeError
from wamkit.formats import render_conv_seed
from wamkit.poly import WeightPoly
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
