"""The per-coordinate state transform against dense oracles.

`PolyMatrix.conjugate_by` applies a q x q kernel once per coordinate;
here every result is compared with the dense F . M . F^dagger, where
the exponent of w in F is built entry by entry from the field's trace
and product tables (or from the single-qubit kernel) and each entry is
summed in the group ring of the p-th roots of unity, and the MacWilliams
transforms built on it are compared with brute-force dual enumeration;
the seed path over the edge space is compared with the matrix path and
with the relations that define the dual constraint code.
"""

import inspect
import time
import tracemalloc
from math import comb

import pytest

from conftest import (brute_force_dual_wam, constraint_dual_wam, field,
                      identity_matrix, matrix_sum, random_conv_seed,
                      random_eaqcc_spec, random_linear_code,
                      random_systematic_code, random_systematic_conv_seed,
                      seeded_rng, shift_register_text)
from wamkit import conv, errors, gflinalg, poly, polymatrix, quantum
from wamkit.block import hwgf, ipwgf, macwilliams_hwgf, macwilliams_ipwgf
from wamkit.conv import (ConvSeed, dual_ipwam, dual_key_bytes, dual_seed,
                         dual_series_bounds, dual_systematic_seed, dual_wam,
                         fourier_matrix, ipwam, macwilliams_ipwam,
                         macwilliams_wam, state_labels, state_vectors, wam)
from wamkit.errors import AlgebraError, BudgetError, ShapeError
from wamkit.formats import parse_conv_seed
from wamkit.pauli import pauli_state_labels
from wamkit.poly import IP_PAIRS, VARS, WeightPoly
from wamkit.polymatrix import PolyMatrix, macwilliams
from wamkit.quantum import F1, dual_spec, quantum_macwilliams, quantum_wam


def dense_field_matrix(spec, m):
    """Exponents of F[a][b] = prod_j w^tr(a_j b_j), mod p."""
    states = state_vectors(spec, m)
    return [[sum(spec.trace[spec.mul[x][y]] for x, y in zip(a, b)) % spec.p
             for b in states] for a in states]


def dense_qubit_matrix(m):
    """Sign exponents of F1 tensored m times, first qubit the fastest
    base-4 digit."""
    size = 4 ** m
    out = [[0] * size for _ in range(size)]
    for a in range(size):
        for b in range(size):
            ta, tb = a, b
            for _ in range(m):
                out[a][b] ^= F1[ta % 4][tb % 4]
                ta //= 4
                tb //= 4
    return out


def dense_conjugate(exps, p, matrix):
    """sum over the nonzero cells (s, t) of w^(E[i][s] - E[j][t]) M[s][t].

    Entry (i, j) is the list of its coefficients of w^0..w^(p-2): the
    cells are summed into one plane per power of w, and the top plane is
    subtracted from the others because the p powers of w sum to zero.
    """
    n = matrix.size
    cells = [(s, t, e) for s, row in enumerate(matrix.rows)
             for t, e in row.items() if e]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            planes = [WeightPoly.zero()] * p
            for s, t, e in cells:
                d = (exps[i][s] - exps[j][t]) % p
                planes[d] = planes[d] + e
            row.append([v - planes[-1] for v in planes[:-1]])
        out.append(row)
    return out


def matches_dense(matrix, kernel, p, exps):
    """Check conjugate_by(kernel, p) against the dense sum: equal where
    that sum is integral, else AlgebraError.  True when it was integral."""
    dense = dense_conjugate(exps, p, matrix)
    if any(c for row in dense for cell in row for c in cell[1:]):
        with pytest.raises(AlgebraError):
            matrix.conjugate_by(kernel, p)
        return False
    assert matrix.conjugate_by(kernel, p) == PolyMatrix(
        matrix.labels, [{j: cell[0] for j, cell in enumerate(row)}
                        for row in dense])
    return True


def scalar_symmetric(spec, m, matrix):
    """sum over c in GF(p)* of M[c s][c t].  Its transform is integral,
    as the WAM of a code (closed under prime-field scalars) is: the
    Galois map w -> w^c permutes the terms of each entry's sum."""
    states = state_vectors(spec, m)
    index = {v: i for i, v in enumerate(states)}
    rows = [{} for _ in states]
    for c in range(1, spec.p):
        scale = [index[tuple(spec.mul[c][x] for x in v)] for v in states]
        for s, row in enumerate(matrix.rows):
            for t, e in row.items():
                if e:
                    cs, ct = scale[s], scale[t]
                    rows[cs][ct] = rows[cs].get(ct, 0) + e
    return PolyMatrix(matrix.labels, rows)


def random_matrix(rng, labels, cells, big=False):
    """Sparse matrix with integer polynomials in x, y and D, their
    coefficients small or, with `big`, above 2^64."""
    n = len(labels)
    x, y, d = (WeightPoly.var(v) for v in ("x", "y", "D"))
    rows = [{} for _ in labels]
    spots = [(i, j) for i in range(n) for j in range(n)]
    for i, j in rng.sample(spots, min(cells, len(spots))):
        poly = WeightPoly.zero()
        for _ in range(rng.randint(1, 3)):
            mono = x ** rng.randint(0, 2) * y ** rng.randint(0, 2)
            if rng.random() < 0.3:
                mono = mono * d
            scale = 2 ** 64 + rng.randrange(2 ** 40) if big else 1
            poly = poly + rng.choice([-3, -2, -1, 1, 2, 3]) * scale * mono
        rows[i][j] = poly
    return PolyMatrix(labels, rows)


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2),
                                  (7, 1), (2, 3)])
@pytest.mark.parametrize("m", [1, 2])
def test_conjugate_by_matches_dense_character_matrix(p, r, m):
    spec = field(p, r)
    rng = seeded_rng("transform-dense-%d-%d-%d" % (p, r, m))
    kernel, dense = fourier_matrix(spec), dense_field_matrix(spec, m)
    # the last pass needs fields wider than 8 bytes
    for big in (False, False, True):
        matrix = random_matrix(rng, state_labels(spec, m), 8, big)
        matches_dense(matrix, kernel, p, dense)
        assert matches_dense(scalar_symmetric(spec, m, matrix), kernel, p,
                             dense)


@pytest.mark.parametrize("m", [1, 2])
def test_conjugate_by_matches_dense_qubit_matrix(m):
    rng = seeded_rng("transform-dense-qubit-%d" % m)
    labels = [str(i) for i in range(4 ** m)]
    dense = dense_qubit_matrix(m)
    for _ in range(2):
        matrix = random_matrix(rng, labels, 8)
        assert matches_dense(matrix, F1, 2, dense)


def test_non_integral_result_is_rejected():
    # a single transition is no WAM: over an odd field its transform
    # keeps w-parts, and the state pass refuses it
    for p, r in [(3, 1), (5, 1), (3, 2)]:
        spec = field(p, r)
        matrix = PolyMatrix(state_labels(spec, 1),
                            [{1: WeightPoly.var("y")}] + [{}] * (spec.q - 1))
        assert not matches_dense(matrix, fourier_matrix(spec), p,
                                 dense_field_matrix(spec, 1))
    # the first entry that is no integer names its residual
    for p, residual in [(3, "[-1, -1] over w^0..w^1"),
                        (5, "[-1, -1, -1, -1] over w^0..w^3")]:
        spec = field(p)
        matrix = PolyMatrix(state_labels(spec, 1),
                            [{1: WeightPoly.var("y")}] + [{}] * (p - 1))
        with pytest.raises(AlgebraError) as exc:
            matrix.conjugate_by(fourier_matrix(spec), p)
        assert str(exc.value) == ("residual root-of-unity coefficient "
                                  + residual)


def test_macwilliams_wam_rejects_a_single_gf3_transition():
    # the whole transform, not only its state pass, refuses a result
    # that is not an integer polynomial
    spec = field(3)
    matrix = PolyMatrix(state_labels(spec, 1),
                        [{1: WeightPoly.var("y")}] + [{}] * (spec.q - 1))
    with pytest.raises(AlgebraError):
        macwilliams_wam(matrix, spec)


def test_conjugate_by_rejects_mismatched_kernel():
    matrix = identity_matrix(["0", "1", "2"])
    with pytest.raises(AlgebraError):  # 3 states, kernel size 2
        matrix.conjugate_by([[0, 0], [0, 1]])
    with pytest.raises(AlgebraError):  # not square
        matrix.conjugate_by([[0, 0, 0], [0, 1, 2]], 3)
    with pytest.raises(AlgebraError):  # exponent outside range(p)
        identity_matrix(["0", "1"]).conjugate_by([[0, 0], [0, 2]])
    with pytest.raises(AlgebraError):  # a GF(3) table passed without its p
        matrix.conjugate_by(fourier_matrix(field(3)))
    with pytest.raises(AlgebraError):  # no states: 0 is no power of 2
        PolyMatrix([], []).conjugate_by([[0, 0], [0, 1]])


@pytest.mark.parametrize("p, r, n, k, m", [(5, 1, 2, 1, 1), (5, 1, 2, 1, 2),
                                           (3, 2, 2, 1, 1), (3, 2, 3, 2, 1)])
def test_wam_transform_matches_dual_enumeration_odd_fields(p, r, n, k, m):
    spec = field(p, r)
    rng = seeded_rng("transform-odd-%d-%d-%d-%d-%d" % (p, r, n, k, m))
    for _ in range(2):
        seed = random_conv_seed(rng, spec, n, k, m)
        lam_hat = macwilliams_wam(wam(seed), spec)
        assert lam_hat == brute_force_dual_wam(seed)


def test_ipwam_transform_matches_dual_enumeration_gf5():
    spec = field(5)
    rng = seeded_rng("transform-ip-gf5")
    checked = 0
    for _ in range(6):
        seed = random_systematic_conv_seed(rng, spec, 2, 1, 1)
        try:
            dual = dual_systematic_seed(seed)
        except ShapeError:
            continue
        got = macwilliams_ipwam(ipwam(seed), spec)
        assert got == ipwam(dual)
        checked += 1
    assert checked


def test_quantum_transform_involution_m4():
    rng = seeded_rng("transform-quantum-m4")
    n, k, c, m = 1, 0, 1, 4
    spec = random_eaqcc_spec(rng, n, k, c, m)
    lam = quantum_wam(spec)
    lam_hat = quantum_macwilliams(lam)
    assert lam_hat == quantum_wam(dual_spec(spec))
    assert quantum_macwilliams(lam_hat) == lam


# --- the weight axis against the Krawtchouk closed form ---

def substitution(q, pairs):
    """The images x -> x' + (q-1) y', y -> x' - y' of WeightPoly.substitute,
    (x', y') the mirror pair of (x, y)."""
    mapping = {}
    for (x, y), (xm, ym) in zip(pairs, reversed(pairs)):
        xv, yv = WeightPoly.var(xm), WeightPoly.var(ym)
        mapping[x] = xv + (q - 1) * yv
        mapping[y] = xv - yv
    return mapping


def krawtchouk(j, b, n, q):
    """K_j(b; n, q) = sum_i (-1)^i (q-1)^(j-i) C(b, i) C(n-b, j-i)."""
    return sum((-1) ** i * (q - 1) ** (j - i) * comb(b, i) * comb(n - b, j - i)
               for i in range(j + 1))


def krawtchouk_image(exp, q, pairs):
    """The image of the monomial x^exp under substitution(q, pairs), from
    the closed form: x^a y^b -> sum_j K_j(b; a + b, q) x'^(a+b-j) y'^j
    for each pair, (x', y') its mirror pair."""
    out = WeightPoly.const(1)
    for (x, y), (xm, ym) in zip(pairs, reversed(pairs)):
        a, b = exp[VARS.index(x)], exp[VARS.index(y)]
        out = out * sum(WeightPoly.monomial(krawtchouk(j, b, a + b, q),
                                            {xm: a + b - j, ym: j})
                        for j in range(a + b + 1))
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_krawtchouk_image_matches_substitute(q):
    pairs = (("x", "y"),)
    mapping = substitution(q, pairs)
    for deg in range(7):
        for b in range(deg + 1):
            mono = WeightPoly.monomial(3, {"x": deg - b, "y": b})
            (exp,) = mono.terms
            assert (mono.substitute(mapping)
                    == 3 * krawtchouk_image(exp, q, pairs))
    mapping = substitution(q, IP_PAIRS)
    for exps in [(0, 0, 0, 0), (1, 0, 0, 2), (2, 1, 1, 1), (0, 3, 2, 0),
                 (1, 2, 3, 0), (3, 0, 0, 3)]:
        mono = WeightPoly.monomial(-2, dict(zip(("x_I", "y_I", "x_P", "y_P"),
                                                exps)))
        (exp,) = mono.terms
        assert (mono.substitute(mapping)
                == -2 * krawtchouk_image(exp, q, IP_PAIRS))


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (2, 2)])
def test_krawtchouk_images_match_substitute_on_wams(p, r):
    # one image per exponent tuple is shared by every cell that holds it
    spec = field(p, r)
    seed = random_systematic_conv_seed(seeded_rng("krawtchouk-%d-%d" % (p, r)),
                                       spec, 2, 1, 2)
    for lam, pairs in [(wam(seed), (("x", "y"),)), (ipwam(seed), IP_PAIRS)]:
        want = lam.map_entries(lambda cell: sum(
            c * krawtchouk_image(exp, spec.q, pairs)
            for exp, c in cell.terms.items()))
        assert lam.substitute(substitution(spec.q, pairs)) == want


def test_unmapped_variable_is_rejected(example1):
    spec = example1.spec
    with pytest.raises(AlgebraError, match="'x_I' occurs but has no image"):
        macwilliams_wam(ipwam(example1), spec)
    lam = wam(example1)
    lam = PolyMatrix(lam.labels,
                     [{**lam.rows[0], 1: lam[0, 1] * WeightPoly.var("D")}]
                     + lam.rows[1:])
    with pytest.raises(AlgebraError, match="'D' occurs but has no image"):
        macwilliams_wam(lam, spec)


def test_unmapped_variable_is_rejected_before_the_state_pass(
        monkeypatch, example1):
    # the state pass runs on the counts, before the substitution that
    # names the variable; the check comes first all the same
    def refuse(self, *args):
        raise AssertionError("the state pass ran")

    monkeypatch.setattr(PolyMatrix, "conjugate_by", refuse)
    test_unmapped_variable_is_rejected(example1)


def _verdict(transform, lam):
    """transform(lam), or None when it raises AlgebraError."""
    try:
        return transform(lam)
    except AlgebraError:
        return None


@pytest.mark.parametrize("kernel", ["gf3", "gf5", "gf9", "pauli"])
def test_state_pass_refuses_what_the_substituted_state_pass_refuses(kernel):
    # the state pass runs on the counts, then the weights are mapped; the
    # map is invertible over Q, so a matrix is refused exactly when the
    # substitute-first order refuses it, and otherwise both give the
    # same matrix.  Random matrices, every third one closed under
    # prime-field scalars (whose transforms are integral) and every
    # fifth a WAM, each with a power of p as its count, so that the
    # state pass is reached.
    rng = seeded_rng("integrality-" + kernel)
    if kernel == "pauli":
        q, table, p, labels = 4, F1, 2, pauli_state_labels(1)
        transform = quantum_macwilliams

        def code_wam():
            return quantum_wam(random_eaqcc_spec(rng, 2, 1, 0, 1))
    else:
        spec = field(*{"gf3": (3, 1), "gf5": (5, 1), "gf9": (3, 2)}[kernel])
        q, table, p = spec.q, fourier_matrix(spec), spec.p
        labels = state_labels(spec, 1)

        def transform(lam):
            return macwilliams_wam(lam, spec)

        def code_wam():
            return wam(random_conv_seed(rng, spec, 2, 1, 1))
    mapping = substitution(q, (("x", "y"),))
    x, y = WeightPoly.var("x"), WeightPoly.var("y")
    verdicts = []
    for trial in range(30):
        if trial % 5 == 4:
            lam = code_wam()
        else:
            rows = [{} for _ in labels]
            for i, j in rng.sample([(i, j) for i in range(q)
                                    for j in range(q)],
                                   rng.randint(1, 2 * q)):
                rows[i][j] = sum((rng.choice([-3, -2, -1, 1, 2, 3])
                                  * x ** rng.randint(0, 2)
                                  * y ** rng.randint(0, 2)
                                  for _ in range(rng.randint(1, 2))),
                                 WeightPoly.zero())
            lam = PolyMatrix(labels, rows)
            if trial % 3 == 2 and kernel != "pauli":
                lam = scalar_symmetric(spec, 1, lam)
            count = sum(sum(e.terms.values()) for row in lam.rows
                        for e in row.values())
            lam = matrix_sum(lam, PolyMatrix(labels, [
                {0: (p ** rng.randint(1, 4) - count) * x * x}]
                + [{}] * (q - 1)))
        count = sum(sum(e.terms.values()) for row in lam.rows
                    for e in row.values())
        want = _verdict(lambda m: m.substitute(mapping).conjugate_by(
            table, p).exact_div(count).to_int_coeffs(), lam)
        assert _verdict(transform, lam) == want
        verdicts.append(want is None)
        assert (_verdict(lambda m: m.conjugate_by(table, p), lam)
                is None) == (_verdict(lambda m: m.substitute(
                    mapping).conjugate_by(table, p), lam) is None)
    assert any(verdicts) and not all(verdicts)


def test_wam_transforms_refuse_a_non_code(example1, u1):
    # the divisor is the edge count, the sum of Lam(1, 1) over the cells:
    # 2^(m+k) = 8 for example1, 4^m 4^k 2^a = 16 for u1, 3^(m+k) = 9 for
    # a GF(3) (2, 1, 1) seed; a count that is not a power of p is refused
    spec, gf3 = example1.spec, field(3)
    lam, ip, q_lam = wam(example1), ipwam(example1), quantum_wam(u1)
    lam3 = wam(random_conv_seed(seeded_rng("non-code-gf3"), gf3, 2, 1, 1))
    cases = [
        (lambda: macwilliams_wam(lam * 0, spec), 0),
        (lambda: macwilliams_wam(lam * 3, spec), 24),
        (lambda: macwilliams_ipwam(ip * 0, spec), 0),
        (lambda: macwilliams_ipwam(ip * 3, spec), 24),
        (lambda: macwilliams_wam(lam * -1, spec), -8),
        (lambda: macwilliams_wam(lam3 * 0, gf3), 0),
        (lambda: macwilliams_wam(lam3 * 2, gf3), 18),
        (lambda: quantum_macwilliams(q_lam * 0), 0),
        (lambda: quantum_macwilliams(q_lam * 3), 48),
    ]
    for transform, count in cases:
        with pytest.raises(AlgebraError, match="at all ones is %d," % count):
            transform()


def test_transform_signatures_take_no_sizes():
    # the divisor and the state count are read from the input, and the
    # field from its spec
    expect = {macwilliams_hwgf: "(g, q)", macwilliams_ipwgf: "(g, q)",
              macwilliams_wam: "(lam, spec)",
              macwilliams_ipwam: "(lam, spec)",
              quantum_macwilliams: "(lam)",
              fourier_matrix: "(spec)",
              macwilliams: "(enum, q, pairs, kernel=None)"}
    for fn, sig in expect.items():
        assert str(inspect.signature(fn)) == sig, fn.__name__


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (2, 2)])
def test_dual_wam_stores_only_its_nonzero_cells(p, r):
    # a conv dual WAM has S * q^(n-k) nonzero cells out of S^2
    spec, n, k, m = field(p, r), 2, 1, 2
    seed = random_conv_seed(seeded_rng("zero-cells-%d-%d" % (p, r)), spec,
                            n, k, m)
    lam_hat = macwilliams_wam(wam(seed), spec)
    cells = [e for row in lam_hat.rows for e in row.values()]
    assert len(cells) == spec.q ** (m + n - k)
    assert all(cells)


def test_binary_m10_dual_wam_is_fast():
    spec = field(2)
    lam = wam(random_conv_seed(seeded_rng("dual-wam-m10"), spec, 2, 1, 10))
    start = time.perf_counter()
    lam_hat = macwilliams_wam(lam, spec)
    elapsed = time.perf_counter() - start
    assert sum(map(len, lam_hat.rows)) == 2 ** 11
    assert elapsed < 3.0, "binary m = 10 dual WAM took %.2f s" % elapsed


def test_quantum_m5_transform_is_fast():
    spec = random_eaqcc_spec(seeded_rng("quantum-transform-m5"), 2, 1, 1, 5)
    lam = quantum_wam(spec)
    start = time.perf_counter()
    quantum_macwilliams(lam)
    elapsed = time.perf_counter() - start
    assert elapsed < 4.0, "quantum m = 5 transform took %.2f s" % elapsed


def test_binary_m9_dual_wam_is_fast():
    spec = field(2)
    seed = random_conv_seed(seeded_rng("dual-wam-m9"), spec, 2, 1, 9)
    lam = wam(seed)
    start = time.perf_counter()
    lam_hat = macwilliams_wam(lam, spec)
    elapsed = time.perf_counter() - start
    assert sum(1 for row in lam_hat.rows for e in row.values() if e) == 2 ** 10
    assert elapsed < 2.0, "binary m = 9 dual WAM took %.2f s" % elapsed
    # the state pass runs one exponent key at a time; all three keys in
    # one pass peaked at about 20 MB
    tracemalloc.start()
    try:
        macwilliams_wam(lam, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15 * 2 ** 20, "peak %.1f MB" % (peak / 2 ** 20)


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                  (2, 3), (3, 2)])
def test_both_dual_wam_paths_match_the_constraint_relations(p, r):
    # k = 0, k = n, m = 0, B = 0 and seeds without a block-shape dual seed,
    # which the wam(dual_seed(s)) oracle cannot check; dual_wam folds the
    # edges over the inputs with u B = 0, macwilliams_wam runs the grid
    spec = field(p, r)
    rng = seeded_rng("constraint-dual-%d-%d" % (p, r))
    no_dual_seed = 0
    for n, k, m, zero_b in [(2, 1, 1, False), (2, 0, 1, False),
                            (2, 2, 1, False), (3, 1, 0, False),
                            (2, 1, 2, True), (1, 1, 2, False),
                            (3, 1, 2, False)]:
        for _ in range(2):
            seed = random_conv_seed(rng, spec, n, k, m)
            while zero_b:
                try:
                    seed = ConvSeed(spec, n, k, m, [
                        row if i < m else row[:n] + [0] * m
                        for i, row in enumerate(seed.t_matrix)])
                    break
                except ShapeError:  # E of rank < k
                    seed = random_conv_seed(rng, spec, n, k, m)
            want = constraint_dual_wam(seed)
            assert dual_wam(seed) == want
            assert macwilliams_wam(wam(seed), spec) == want
            try:
                dual_seed(seed)
            except ShapeError:
                no_dual_seed += 1
        if k:
            seed = random_systematic_conv_seed(rng, spec, n, k, m)
            want = constraint_dual_wam(seed, IP_PAIRS,
                                       [seed.info_cols, seed.parity_cols])
            assert dual_ipwam(seed) == want
            assert macwilliams_ipwam(ipwam(seed), spec) == want
    if p == 2 and r == 1:
        assert no_dual_seed


def _count_passes(monkeypatch):
    """The key counts of the character_pass calls made from now on."""
    passes, run = [], polymatrix.character_pass

    def counted(entries, keys, *args):
        passes.append(keys)
        return run(entries, keys, *args)

    monkeypatch.setattr(polymatrix, "character_pass", counted)
    return passes


def test_dual_wam_takes_as_many_keys_a_pass_as_the_budget_holds(
        monkeypatch):
    # room for one key's planes: each weight tuple gets its own pass
    spec = field(3)
    seed = random_systematic_conv_seed(seeded_rng("dual-passes"), spec, 3,
                                       1, 2)
    want = macwilliams_wam(wam(seed), spec)
    want_ip = macwilliams_ipwam(ipwam(seed), spec)
    edges = 3 ** 3
    monkeypatch.setattr(errors, "BUDGET", 14 * edges * (
        (edges.bit_length() + 7) // 8))
    passes = _count_passes(monkeypatch)
    assert dual_wam(seed) == want
    assert dual_ipwam(seed) == want_ip
    assert len(passes) > 2 and set(passes) == {1}


def _grid_key_bytes(lam, q, p):
    """(q p + p + 2) S^2 w: the bytes of one exponent key of the state
    pass over lam, w-byte fields wide enough for the sum of its |c|."""
    total = sum(abs(c) for row in lam.rows for e in row.values()
                for c in e.terms.values())
    return (q * p + p + 2) * lam.size ** 2 * ((total.bit_length() + 7) // 8)


def test_state_pass_takes_as_many_keys_a_pass_as_the_budget_holds(
        monkeypatch):
    # room for one key's planes: each exponent key gets its own pass
    spec = field(3)
    lam = wam(random_conv_seed(seeded_rng("grid-passes"), spec, 2, 1, 2))
    qlam = quantum_wam(random_eaqcc_spec(seeded_rng("grid-passes-quantum"),
                                         2, 1, 1, 2))
    want, qwant = macwilliams_wam(lam, spec), quantum_macwilliams(qlam)
    passes = _count_passes(monkeypatch)
    monkeypatch.setattr(errors, "BUDGET", _grid_key_bytes(lam, 3, 3))
    assert macwilliams_wam(lam, spec) == want
    monkeypatch.setattr(errors, "BUDGET", _grid_key_bytes(qlam, 4, 2))
    assert quantum_macwilliams(qlam) == qwant
    assert len(passes) > 4 and set(passes) == {1}


def test_a_residual_is_named_in_plane_order(monkeypatch):
    # y's result is not an integer in columns 1 and 2 of every row, x's
    # off its three integral cells: the first bad field by cell
    # (row-major), then by key, is y's at (0, 1), whichever pass holds it
    spec = field(3)
    x, y = WeightPoly.var("x"), WeightPoly.var("y")
    matrix = PolyMatrix(state_labels(spec, 1),
                        [{0: y, 1: 2 * y}, {2: x}, {}])
    passes = _count_passes(monkeypatch)
    # both keys in one pass, then one key a pass
    for budget, keys in ((errors.BUDGET, [2]), ((3 * 3 + 3 + 2) * 3 ** 2,
                                                [1])):
        monkeypatch.setattr(errors, "BUDGET", budget)
        passes.clear()
        with pytest.raises(AlgebraError) as exc:
            matrix.conjugate_by(fourier_matrix(spec), 3)
        assert str(exc.value) == ("residual root-of-unity coefficient "
                                  "[-1, -2] over w^0..w^1")
        assert passes == keys


def test_state_pass_split_by_key_still_checks_integrality(monkeypatch):
    # x at (0, 0) transforms to integers, y at (0, 1) does not; with one
    # key a pass the second pass names y's residual
    spec = field(3)
    matrix = PolyMatrix(state_labels(spec, 1), [
        {0: WeightPoly.var("x"), 1: WeightPoly.var("y")}, {}, {}])
    passes = _count_passes(monkeypatch)
    monkeypatch.setattr(errors, "BUDGET", (3 * 3 + 3 + 2) * 3 ** 2)
    with pytest.raises(AlgebraError) as exc:
        matrix.conjugate_by(fourier_matrix(spec), 3)
    assert str(exc.value) == ("residual root-of-unity coefficient [-1, -1] "
                              "over w^0..w^1")
    assert passes == [1, 1]


def test_dual_runs_when_one_key_of_edges_exceeds_the_budget(monkeypatch):
    # k < m, but one key's edge planes are a byte over the budget: the
    # seed makes the grid's cell charge, is not refused, and runs on its
    # folded edges, never on the state grid, which charges no plane bytes
    spec = field(2)
    seed = random_systematic_conv_seed(seeded_rng("edge-bytes-over"), spec,
                                       3, 1, 3)
    want = macwilliams_wam(wam(seed), spec)
    want_ip = macwilliams_ipwam(ipwam(seed), spec)
    monkeypatch.setattr(errors, "BUDGET", dual_key_bytes(
        2 ** 4, 2, 2)[1] - 1)
    grid, run = [], PolyMatrix.conjugate_by

    def counted(self, *args):
        grid.append(self.size)
        return run(self, *args)

    monkeypatch.setattr(PolyMatrix, "conjugate_by", counted)
    assert dual_wam(seed) == want
    assert dual_ipwam(seed) == want_ip
    assert not grid


def test_dual_wam_takes_the_edges_whose_count_wide_planes_fit(monkeypatch):
    # 2^7 edges under 2^12 cells: one key's planes take 8 * 2^7 bytes in
    # one-byte fields wide enough for the edge count, and fit a budget of
    # 1500; the grid's 4096 cells would not
    spec = field(2)
    seed = random_conv_seed(seeded_rng("edge-width"), spec, 4, 1, 6)
    want = macwilliams_wam(wam(seed), spec)
    assert dual_key_bytes(2 ** 7, 2, 2) == (1, 1024)
    monkeypatch.setattr(errors, "BUDGET", 1500)

    def refuse(self, *args):
        raise AssertionError("the state grid ran")

    monkeypatch.setattr(PolyMatrix, "conjugate_by", refuse)
    lam_hat = dual_wam(seed)
    assert sum(map(len, lam_hat.rows)) == 512
    assert lam_hat == want


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (2, 2)])
def test_dual_wam_stores_a_cell_per_dual_transition(p, r):
    # q^(m - k + rank(C; E)) cells, also with every output row but the
    # first zeroed, where the rank falls to 1
    spec = field(p, r)
    rng = seeded_rng("dual-transitions-%d-%d" % (p, r))
    for n, k, m in [(2, 1, 2), (3, 1, 2), (2, 0, 2), (1, 1, 2), (4, 1, 2)]:
        seed = random_conv_seed(rng, spec, n, k, m)
        low = ConvSeed(spec, n, k, m, [[0] * n + row[n:] if i else row
                                       for i, row in enumerate(
                                           seed.t_matrix)])
        for s in (seed, low):
            rank = gflinalg.rank(spec, [row[:n] for row in s.t_matrix])
            assert sum(map(len, dual_wam(s).rows)) == spec.q ** (m - k
                                                                  + rank)


def test_dual_wam_charges_its_cells_before_the_transform(monkeypatch):
    # a binary (16, 5, 12) dual WAM has 2^(12 - 5 + 16) cells: refused
    # before the 2^17 edges are transformed
    seed = random_conv_seed(seeded_rng("dual-cells-up-front"), field(2), 16,
                            5, 12)
    passes = _count_passes(monkeypatch)
    with pytest.raises(BudgetError, match="^the dual WAM needs 8388608 "
                                          "matrix cells"):
        dual_wam(seed)
    assert passes == []


def test_weight_map_runs_once_per_distinct_transformed_cell(monkeypatch,
                                                            example1):
    # a transformed grid shares its equal cells, and macwilliams maps and
    # divides each distinct one once
    lam = wam(example1)
    want = macwilliams_wam(lam, example1.spec)
    counts = lam.conjugate_by(fourier_matrix(example1.spec))
    cells = [e for row in counts.rows for e in row.values()]
    distinct = len({id(e) for e in cells})
    assert distinct < len(cells)
    divided, run = [], WeightPoly.exact_div
    monkeypatch.setattr(WeightPoly, "exact_div",
                        lambda self, n: divided.append(n) or run(self, n))
    assert macwilliams_wam(lam, example1.spec) == want
    assert len(divided) == distinct


def test_edge_readout_scans_each_nonzero_point_once(monkeypatch):
    # a binary systematic (8, 4, 6) dual IPWAM: 25 weight tuples over
    # 2^10 edges, whose counts cancel only after the weight map, so most
    # of a nonzero point's 25 fields are nonzero.  The readout searches
    # once per nonzero point, not once per nonzero field (thousands of
    # fields, which made the edge path up to twice as slow)
    seed = random_systematic_conv_seed(seeded_rng("edge-readout"), field(2),
                                       8, 4, 6)
    want = macwilliams_ipwam(ipwam(seed), seed.spec)
    pattern, searches = poly._NONZERO, []

    class Counted:
        def search(self, *args):
            searches.append(args)
            return pattern.search(*args)

    monkeypatch.setattr(poly, "_NONZERO", Counted())
    assert dual_ipwam(seed) == want
    assert len(searches) <= sum(map(len, want.rows)) + 1


def test_dual_ipwam_needs_a_systematic_seed(example1_nonsys):
    with pytest.raises(ShapeError, match="needs a systematic seed"):
        dual_ipwam(example1_nonsys)


def test_binary_m11_dual_wam_runs_on_the_edges():
    # 2^12 edges, not the 2^22 cells of the state grid: at the state pass
    # this took about 5 s and peaked at 270 MB under tracemalloc
    seed = random_conv_seed(seeded_rng("dual-wam-m11"), field(2), 2, 1, 11)
    start = time.perf_counter()
    lam_hat = dual_wam(seed)
    elapsed = time.perf_counter() - start
    assert sum(map(len, lam_hat.rows)) == 2 ** 12
    assert elapsed < 0.5, "binary m = 11 dual WAM took %.2f s" % elapsed
    tracemalloc.start()
    try:
        dual_wam(seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, "peak %.1f MB" % (peak / 2 ** 20)


@pytest.mark.parametrize("n, k, c, m", [
    (1, 0, 0, 1), (2, 0, 1, 2), (2, 1, 0, 2), (2, 1, 1, 2), (3, 1, 1, 3),
    (3, 2, 1, 3), (2, 1, 1, 1), (3, 1, 0, 2), (4, 2, 0, 3), (3, 2, 0, 2),
    (3, 0, 0, 1), (2, 1, 0, 0), (2, 0, 2, 2)])
def test_quantum_dual_wam_matches_the_grid_and_the_dual_spec(
        monkeypatch, n, k, c, m):
    # k = 0, c = 0 and a = 0 for m = 1..3, the ties 4^k 2^a = 4^m, more
    # edges than cells, m = 0 and k = 0 with c = n, a section without
    # input rows: all on the folded edges, none on the grid
    spec = random_eaqcc_spec(seeded_rng("quantum-dual-%d%d%d%d"
                                        % (n, k, c, m)), n, k, c, m)
    want = quantum_macwilliams(quantum_wam(spec))
    assert want == quantum_wam(dual_spec(spec))
    grid, run = [], PolyMatrix.conjugate_by

    def counted(self, *args):
        grid.append(self.size)
        return run(self, *args)

    monkeypatch.setattr(PolyMatrix, "conjugate_by", counted)
    assert quantum.dual_wam(spec) == want
    assert not grid


def test_quantum_dual_wam_takes_as_many_keys_a_pass_as_the_budget_holds(
        monkeypatch):
    # room for one key's planes: each image monomial gets its own pass
    spec = random_eaqcc_spec(seeded_rng("quantum-dual-passes"), 3, 1, 0, 3)
    want = quantum_macwilliams(quantum_wam(spec))
    edges = 4 ** 3 * 4 * 2 ** 2
    monkeypatch.setattr(errors, "BUDGET", dual_key_bytes(
        edges, 4, 2)[1])
    passes = _count_passes(monkeypatch)
    assert quantum.dual_wam(spec) == want
    assert len(passes) > 2 and set(passes) == {1}


def test_quantum_m5_dual_wam_runs_on_the_edges():
    # 2^12 edges, not the 2^20 cells of the state grid, where it took
    # about 1.7 s and peaked at 93 MB under tracemalloc
    spec = random_eaqcc_spec(seeded_rng("quantum-transform-m5"), 2, 1, 1, 5)
    start = time.perf_counter()
    quantum.dual_wam(spec)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, "quantum m = 5 dual WAM took %.2f s" % elapsed
    tracemalloc.start()
    try:
        quantum.dual_wam(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, "peak %.1f MB" % (peak / 2 ** 20)


def test_quantum_dual_wam_of_a_wide_spec_stays_small():
    # ((4, 3; 0, 5)): 2^17 edges, one key of whose planes is 4.7 MB; the
    # uncharged state grid it once fell back to took about 3 s and
    # peaked at 86.9 MB under tracemalloc, and its one layer of edges,
    # counted whole rather than in runs of four inputs, 14.8 MB
    spec = random_eaqcc_spec(seeded_rng("quantum-dual-memory"), 4, 3, 0, 5)
    tracemalloc.start()
    try:
        lam_hat = quantum.dual_wam(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20, "peak %.1f MB" % (peak / 2 ** 20)
    assert lam_hat == quantum_wam(dual_spec(spec))


def _grid_dual(seed):
    return macwilliams_wam(wam(seed), seed.spec)


def _quantum_grid_dual(spec):
    return quantum_macwilliams(quantum_wam(spec))


@pytest.mark.parametrize("case", ["binary-register-m12", "gf3-r-equals-k",
                                  "quantum-4-3-0-5"])
def test_a_wide_layer_is_counted_in_runs_of_inputs(monkeypatch, case):
    # layers of more than 2^12 edges: the binary (2, 1, 12) shift register
    # (one layer of 2^13), a GF(3) (3, 2, 6) seed with rank B = k (one
    # layer of 3^8) and the ((4, 3; 0, 5)) spec (one layer of 2^17).  Each
    # count holds at most 2^12 edges, the runs together hold each edge
    # once, and the dual is the grid's; the shift register's 2^24 grid
    # cells exceed the budget, so its dual is read from the dual
    # constraint relations instead
    if case == "binary-register-m12":
        seed = parse_conv_seed(shift_register_text(12))
        edges, route, want = 2 ** 13, dual_wam, constraint_dual_wam
    elif case == "gf3-r-equals-k":
        seed = random_conv_seed(seeded_rng("gf3-wide-layer"), field(3), 3,
                                2, 6)
        assert gflinalg.rank(seed.spec,
                             [row[3:] for row in seed.t_matrix[6:]]) == 2
        edges, route, want = 3 ** 8, dual_wam, _grid_dual
    else:
        seed = random_eaqcc_spec(seeded_rng("quantum-dual-memory"), 4, 3, 0,
                                 5)
        edges, route = 2 ** 17, quantum.dual_wam
        want = _quantum_grid_dual
    counted, run = [], conv._layer_counts

    def record(codes, *args):
        counted.append(len(codes))
        return run(codes, *args)

    monkeypatch.setattr(conv, "_layer_counts", record)
    lam_hat = route(seed)
    assert sum(counted) == edges and max(counted) <= 2 ** 12
    assert lam_hat == want(seed)


def test_each_transform_takes_the_weight_axis_once(monkeypatch, example1,
                                                   u1):
    # one weight_axis call per transform, over the code's size: the
    # coefficient sum of a grid input, the edge count of a seed
    calls, run = [], polymatrix.weight_axis

    def record(q, pairs, divisor, exps):
        calls.append((q, pairs, divisor))
        return run(q, pairs, divisor, exps)

    # the block and grid transforms call it in polymatrix, the seed
    # routes in conv
    monkeypatch.setattr(polymatrix, "weight_axis", record)
    monkeypatch.setattr(conv, "weight_axis", record)
    rng = seeded_rng("one-weight-axis")
    gf3, xy = field(3), (("x", "y"),)
    code = random_linear_code(rng, gf3, 5, 2)
    sys_code = random_systematic_code(rng, gf3, 5, 3)
    sys_seed = random_systematic_conv_seed(rng, field(2), 3, 1, 2)
    # rank B = 1 < k = 2: D holds the outputs of 3^(2 - 1) inputs
    low = ConvSeed(gf3, 3, 2, 1, [[1, 0, 2, 1], [0, 1, 1, 0],
                                  [2, 2, 0, 2]])
    spec = random_eaqcc_spec(rng, 3, 1, 1, 2)
    lam, q_lam = wam(example1), quantum_wam(u1)

    def coefficient_sum(matrix):
        return sum(sum(e.terms.values()) for row in matrix.rows
                   for e in row.values())

    cases = [
        (lambda: macwilliams_hwgf(hwgf(code), 3), (3, xy, 3 ** 2)),
        (lambda: macwilliams_ipwgf(ipwgf(sys_code), 3),
         (3, IP_PAIRS, 3 ** 3)),
        (lambda: macwilliams_wam(lam, example1.spec),
         (2, xy, coefficient_sum(lam))),
        (lambda: macwilliams_ipwam(ipwam(sys_seed), sys_seed.spec),
         (2, IP_PAIRS, coefficient_sum(ipwam(sys_seed)))),
        (lambda: quantum_macwilliams(q_lam), (4, xy, coefficient_sum(q_lam))),
        (lambda: dual_wam(example1), (2, xy, 2 ** (2 + 1))),
        (lambda: dual_ipwam(sys_seed), (2, IP_PAIRS, 2 ** (2 + 1))),
        (lambda: quantum.dual_wam(spec), (4, xy, 4 ** 2 * 4 ** 1 * 2 ** 1)),
        (lambda: dual_series_bounds(low), (3, xy, 3)),
    ]
    for transform, call in cases:
        calls.clear()
        transform()
        assert calls == [call]


@pytest.mark.parametrize("p, n, k, m, systematic", [
    (2, 260, 1, 1, False), (3, 256, 1, 0, False), (2, 34, 10, 1, True),
    (3, 44, 6, 1, True)])
def test_dual_wam_of_weights_beyond_one_byte(p, n, k, m, systematic):
    # weights above 254, or (input, parity) weight tuples past 255 codes,
    # take more than one digit byte an edge
    spec = field(p)
    rng = seeded_rng("wide-weights-%d-%d-%d-%d" % (p, n, k, m))
    if systematic:
        seed = random_systematic_conv_seed(rng, spec, n, k, m)
        assert (k + 1) * (n - k + 1) > 255
        assert dual_ipwam(seed) == macwilliams_ipwam(ipwam(seed), spec)
    else:
        seed = random_conv_seed(rng, spec, n, k, m)
        assert dual_wam(seed) == macwilliams_wam(wam(seed), spec)


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_rref_from_a_column_splits_rows_by_their_tail(p, r):
    # the rows with a pivot from column `first` on come first, the others
    # are zero there, and the rows span what the input spans
    spec = field(p, r)
    rng = seeded_rng("rref-first-%d-%d" % (p, r))
    for _ in range(40):
        rows, cols = rng.randint(0, 5), rng.randint(1, 6)
        first = rng.randint(0, cols)
        matrix = [[rng.choice([0, 0, rng.randrange(spec.q)])
                   for _ in range(cols)] for _ in range(rows)]
        basis, pivots = gflinalg.rref(spec, matrix, first)
        tail = len(pivots)
        assert len(basis) == rows and min(pivots, default=first) >= first
        assert tail == gflinalg.rank(spec, [row[first:] for row in matrix])
        assert not any(any(row[first:]) for row in basis[tail:])
        assert (gflinalg.rank(spec, basis) == gflinalg.rank(spec, matrix)
                == gflinalg.rank(spec, matrix + basis))
