"""Convolutional codes: WAM flavors, duality, series enumerators."""

import tracemalloc

import pytest

from conftest import (assemble_encoder, brute_force_dual_wam,
                      factorized_iowam, field, matrix_of, poly_of,
                      random_conv_seed, random_systematic_conv_seed,
                      seeded_rng, shift_register_text)
from wamkit.block import LinearCode, SystematicCode, ipwgf
from wamkit.conv import (ConvSeed, SystematicConvSeed, dual_seed,
                         dual_systematic_seed, free_distance, free_wgf, iowam,
                         ipwam, macwilliams_ipwam, macwilliams_wam,
                         orthogonality_check, poly_generator, state_labels,
                         state_vectors, total_wgf, wam)
from wamkit.errors import ShapeError
from wamkit.formats import parse_conv_seed
from wamkit.poly import WeightPoly

STATES4 = ["00", "10", "01", "11"]

LAMBDA_Y = [
    ["1", "y^2", "0", "0"],
    ["0", "0", "y", "y"],
    ["y^2", "1", "0", "0"],
    ["0", "0", "y", "y"],
]

IPWAM_FULL = [
    ["xI*xP", "yI*yP", "0", "0"],
    ["0", "0", "xI*yP", "yI*xP"],
    ["yI*yP", "xI*xP", "0", "0"],
    ["0", "0", "yI*xP", "xI*yP"],
]

DUAL_IPWAM_Y = [
    ["1", "0", "yI*yP", "0"],
    ["yI*yP", "0", "1", "0"],
    ["0", "yP", "0", "yI"],
    ["0", "yI", "0", "yP"],
]

IOWAM_NONSYS_Y = [
    ["1", "yI*yO^2", "0", "0"],
    ["0", "0", "yO", "yI*yO"],
    ["yO^2", "yI", "0", "0"],
    ["0", "0", "yO", "yI*yO"],
]


def test_state_order_first_coordinate_fastest():
    assert state_labels(field(2), 2) == STATES4
    assert state_labels(field(3), 1) == ["0", "1", "2"]


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (2, 2), (11, 1)])
def test_state_labels_write_each_digit_of_the_state_vectors(p, r):
    spec = field(p, r)
    for m in range(5 if spec.q < 11 else 3):
        assert state_labels(spec, m) == [
            "".join(str(x) for x in v) for v in state_vectors(spec, m)]


def test_example1_wam(example1):
    got = wam(example1).collapse({"x": 1})
    assert got == matrix_of(STATES4, LAMBDA_Y)


def test_example1_ipwam(example1):
    assert ipwam(example1) == matrix_of(STATES4, IPWAM_FULL)


def test_ipwam_collapses_to_wam(example1):
    collapsed = ipwam(example1).collapse(
        {"x_I": WeightPoly.var("x"), "y_I": WeightPoly.var("y"),
         "x_P": WeightPoly.var("x"), "y_P": WeightPoly.var("y")})
    assert collapsed == wam(example1)


def test_example1_dual_ipwam(example1):
    lam_hat = macwilliams_ipwam(ipwam(example1), example1.spec)
    got = lam_hat.collapse({"x_I": 1, "x_P": 1})
    assert got == matrix_of(STATES4, DUAL_IPWAM_Y)
    # the transform agrees with direct enumeration of the dual seed
    assert lam_hat == ipwam(dual_systematic_seed(example1))


def test_wam_is_encoder_invariant(example1, example1_nonsys):
    assert wam(example1) == wam(example1_nonsys)


def test_nonsys_iowam(example1_nonsys):
    got = iowam(example1_nonsys).collapse({"x_I": 1, "x_O": 1})
    assert got == matrix_of(STATES4, IOWAM_NONSYS_Y)


def _monomial_cells(matrix):
    return all(len(e.terms) == 1 for row in matrix.rows for e in row.values())


def test_iowam_factorization(example1, example1_nonsys):
    f = [[0], [1]]
    assert assemble_encoder(example1, f).t_matrix == example1_nonsys.t_matrix
    assert _monomial_cells(iowam(example1_nonsys))
    assert factorized_iowam(example1, f) == iowam(example1_nonsys)


def test_iowam_factorization_on_random_systematic_seeds():
    # the factorization holds when the assembled encoder is a seed and
    # every cell of its IOWAM is one monomial; draws outside that are
    # counted and skipped, and every field must still check 10 of them
    rng = seeded_rng("iowam factorization")
    shapes = [(2, 1, 1), (3, 1, 1), (3, 2, 2), (4, 2, 2), (3, 1, 2)]
    for spec in (field(2), field(3), field(2, 2), field(5)):
        checked = outside = 0
        for n, k, m in shapes:
            for _ in range(8):
                seed = random_systematic_conv_seed(rng, spec, n, k, m)
                f = [[rng.randrange(spec.q) for _ in range(k)]
                     for _ in range(m)]
                try:
                    direct = iowam(assemble_encoder(seed, f))
                except ShapeError:
                    outside += 1
                    continue
                if not _monomial_cells(direct):
                    outside += 1
                    continue
                assert factorized_iowam(seed, f) == direct, \
                    (seed.t_matrix, f)
                checked += 1
        assert checked >= 10, (spec.q, checked, outside)


def test_iowam_of_systematic_refines_ipwam(example1):
    # for a systematic encoder the input letters sit inside the output,
    # so the IOWAM determines the WAM by merging variables
    merged = iowam(example1).collapse(
        {"x_I": 1, "y_I": 1,
         "x_O": WeightPoly.var("x"), "y_O": WeightPoly.var("y")})
    assert merged == wam(example1)


def test_example1_poly_generator(example1):
    g = poly_generator(example1, d_max=6)
    assert [mat[0][0] for mat in g.coeffs] == [1, 0, 0, 0, 0, 0, 0]
    assert [mat[0][1] for mat in g.coeffs] == [1, 1, 0, 1, 0, 1, 0]
    assert g.entry_str(0, 1) == "1 + D + D^3 + D^5"


def test_memoryless_poly_generator_is_e():
    g = poly_generator(ConvSeed(field(3), 2, 1, 0, [[1, 2]]), 4)
    assert str(g) == "( 1 , 2 )"


def test_example1_total_wgf_low_orders(example1):
    lam = wam(example1).collapse({"x": 1})
    w = total_wgf(lam, 2)
    assert w == poly_of("1") + poly_of("D") + poly_of("D^2")


def test_example1_free_distance(example1):
    lam = wam(example1).collapse({"x": 1})
    result = free_distance(lam, 10)
    assert result.determined and result.value == 5


def test_free_distance_reports_shallow_truncation():
    # a pure accumulator never re-merges: one state, self-loop of weight y
    from wamkit.polymatrix import PolyMatrix
    lam = PolyMatrix(["0", "1"],
                     [{0: WeightPoly.const(1), 1: WeightPoly.var("y")},
                      {0: WeightPoly.zero(), 1: WeightPoly.var("y")}])
    result = free_distance(lam, 6)
    assert not result.determined
    assert "depth" in result.reason


def test_dual_seed_orthogonality(example1):
    dual = dual_seed(example1)
    ok, diags = orthogonality_check(example1, dual)
    assert ok, diags


def test_orthogonality_check_dimension_mismatch(example1):
    bad = ConvSeed(field(2), 2, 1, 1, [[1, 0, 1], [0, 1, 1]])
    ok, diags = orthogonality_check(example1, bad)
    assert not ok
    assert "dimension mismatch" in diags[0]


def test_orthogonality_check_flags_wrong_dual(example1):
    # the seed is self-dual-shaped dimensionally but not orthogonal
    wrong = ConvSeed(example1.spec, 2, 1, 2, example1.t_matrix)
    ok, diags = orthogonality_check(example1, wrong)
    assert not ok and diags


def _wrong_dual(rng, spec, m):
    """A random seed and dual_seed's T of it with one entry changed."""
    while True:
        n = rng.randint(2, 3)
        k = rng.randint(1, n - 1)
        seed = random_conv_seed(rng, spec, n, k, m)
        try:
            t = [list(row) for row in dual_seed(seed).t_matrix]
        except ShapeError:
            continue
        i, j = rng.randrange(len(t)), rng.randrange(len(t[0]))
        t[i][j] = (t[i][j] + rng.randrange(1, spec.q)) % spec.q
        try:
            return seed, ConvSeed(spec, n, n - k, m, t)
        except ShapeError:
            continue


GH = "G(D) H(1/D)^T is not identically zero"

# diagnostics of these seeded wrong duals, keyed by (p, r, m); the
# memoryless ones name the E E'^T - B B'^T block
PINNED_ORTHOGONALITY_DIAGS = {
    (2, 1, 0): ["E E'^T - B B'^T != 0", GH],
    (2, 1, 1): ["I + C C'^T - A A'^T != 0", "E C'^T - B A'^T != 0", GH],
    (2, 1, 2): ["E E'^T - B B'^T != 0", GH],
    (3, 1, 0): ["E E'^T - B B'^T != 0", GH],
    (3, 1, 1): ["C E'^T - A B'^T != 0", GH],
    (3, 1, 2): ["I + C C'^T - A A'^T != 0", "E C'^T - B A'^T != 0", GH],
    (2, 2, 0): ["E E'^T - B B'^T != 0", GH],
    (2, 2, 1): ["C E'^T - A B'^T != 0", GH],
    (2, 2, 2): ["E E'^T - B B'^T != 0", "C E'^T - A B'^T != 0", GH],
}


@pytest.mark.parametrize("key", sorted(PINNED_ORTHOGONALITY_DIAGS),
                         ids="GF({0[0]}^{0[1]})-m{0[2]}".format)
def test_orthogonality_diagnostics_are_pinned(key):
    p, r, m = key
    seed, wrong = _wrong_dual(seeded_rng("wrong-dual-%d-%d-%d" % key),
                              field(p, r), m)
    assert orthogonality_check(seed, wrong) == (
        False, PINNED_ORTHOGONALITY_DIAGS[key])


def test_memoryless_wrong_dual_names_its_block():
    seed = ConvSeed(field(2), 2, 1, 0, [[1, 1]])
    wrong = ConvSeed(field(2), 2, 1, 0, [[1, 0]])
    assert orthogonality_check(seed, wrong) == (
        False, ["E E'^T - B B'^T != 0", GH])


@pytest.mark.parametrize("build,message", [
    (lambda: SystematicCode(field(2), [[1, 1, 0], [0, 1, 1]]),
     "generator is not of the form (I_k | A)"),
    (lambda: ipwgf(LinearCode(field(2), [[1, 0, 1], [0, 1, 1]]),
                   info_last=True),
     "generator is not systematic on the requested information set"),
    # C and E both broken: C is named first
    (lambda: SystematicConvSeed(field(2), 2, 1, 1, [[1, 1, 0], [0, 1, 1]]),
     "C is nonzero on the information columns"),
    (lambda: SystematicConvSeed(field(2), 2, 1, 1, [[0, 1, 0], [0, 1, 1]]),
     "E is not the identity on the information columns"),
    (lambda: SystematicConvSeed(field(2), 1, 2, 1,
                                [[0, 0], [1, 0], [0, 1]]),
     "a systematic seed needs k <= n"),
], ids=["block", "block-info-last", "conv-c-first", "conv-e",
        "conv-k-above-n"])
def test_systematic_shape_messages(build, message):
    with pytest.raises(ShapeError) as exc:
        build()
    assert str(exc.value) == message


def test_conv_seed_refuses_k_above_n():
    # rank m + k fits in 2m + n columns, so only this check refuses rate 2
    with pytest.raises(ShapeError) as exc:
        ConvSeed(field(2), 1, 2, 1, [[0, 0], [1, 0], [0, 1]])
    assert str(exc.value) == "a seed needs k <= n"


def test_dual_seed_shape_obstruction():
    seed = ConvSeed(field(2), 2, 1, 1, [[0, 0, 0], [0, 0, 1]])
    with pytest.raises(ShapeError):
        dual_seed(seed)


def test_dual_systematic_requires_standard_form(example1_nonsys):
    with pytest.raises(ShapeError):
        dual_systematic_seed(example1_nonsys)


def test_wam_transform_matches_dual_enumeration_random():
    rng = seeded_rng("conv-dual-smoke")
    for _ in range(10):
        spec = field(rng.choice([2, 3]))
        n = rng.randint(1, 3)
        k = rng.randint(1, n)
        m = rng.randint(1, 2)
        seed = random_conv_seed(rng, spec, n, k, m)
        lam_hat = macwilliams_wam(wam(seed), spec)
        assert lam_hat == brute_force_dual_wam(seed)


def test_transform_involution_random():
    rng = seeded_rng("conv-involution")
    for _ in range(5):
        spec = field(2)
        seed = random_conv_seed(rng, spec, 3, rng.randint(1, 2), 2)
        lam = wam(seed)
        lam_hat = macwilliams_wam(lam, spec)
        back = macwilliams_wam(lam_hat, spec)
        assert back == lam


def test_random_systematic_duals():
    rng = seeded_rng("conv-sys-dual")
    for _ in range(8):
        spec = field(*rng.choice([(2, 1), (3, 1), (2, 2), (5, 1)]))
        n = rng.randint(2, 3)
        k = rng.randint(1, n - 1)
        m = rng.randint(1, 2)
        seed = random_systematic_conv_seed(rng, spec, n, k, m)
        try:
            dual = dual_systematic_seed(seed)
        except ShapeError:
            continue  # obstruction surfaced, which is a legal outcome
        assert dual.info_last and dual.k == n - k
        got = macwilliams_ipwam(ipwam(seed), spec)
        assert got == ipwam(dual)


def test_free_total_series_relations(example1):
    lam = wam(example1).collapse({"x": 1})
    d_max = 10
    w_total = total_wgf(lam, d_max)
    w_free = free_wgf(lam, d_max)
    d = WeightPoly.var("D")
    assert (w_free * (1 + w_total * d)).truncated(d_max) == w_total
    assert (w_total * (1 - w_free * d)).truncated(d_max) == w_free


def test_dual_total_matches_dual_enumeration(example1):
    lam = wam(example1)
    route1 = total_wgf(macwilliams_wam(lam, example1.spec).collapse(
        {"x": 1}), 8)
    dual_lam = brute_force_dual_wam(example1).collapse({"x": 1})
    assert route1 == total_wgf(dual_lam, 8)


def test_sparse_wam_memory_is_per_edge():
    # a (2, 1, 11) shift register: 4096 edges among 2048 states, so its
    # WAM must not hold anything per cell of the 2048 x 2048 matrix
    # (tracemalloc counts Python's own allocations only)
    seed = parse_conv_seed(shift_register_text(11))
    tracemalloc.start()
    try:
        lam = wam(seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, "conv.wam peaked at %.1f MB" % (peak / 2 ** 20)
    assert sum(map(len, lam.rows)) == 2 ** 12


def test_shift_register_wam_holds_little_per_edge():
    # a (2, 1, 12) shift register: 8,192 stored cells of 3 distinct
    # polynomials, each one shared object (3.48 MB held when every cell
    # was its own WeightPoly)
    seed = parse_conv_seed(shift_register_text(12))
    tracemalloc.start()
    try:
        lam = wam(seed)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(map(len, lam.rows)) == 2 ** 13
    assert held < 2.5 * 2 ** 20, "conv.wam held %.2f MB" % (held / 2 ** 20)


def test_wide_input_wam_peak_is_per_chunk():
    # a binary (16, 14, 2) seed: 2^16 edges among 4 states.  Enumerated
    # one state's edges at a time it peaked at 2,018,383 bytes; one flat
    # list of all edges peaks at about 3.4 MB
    seed = random_conv_seed(seeded_rng("wam-peak-per-chunk"), field(2), 16,
                            14, 2)
    tracemalloc.start()
    try:
        wam(seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2018383, "conv.wam peaked at %d bytes" % peak
