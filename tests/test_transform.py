"""The per-coordinate state transform against dense oracles.

`PolyMatrix.conjugate_by` applies a q x q kernel once per coordinate;
here every result is compared with the dense F . M . F^dagger, where
the exponent of w in F is built entry by entry from the field's trace
and product tables (or from the single-qubit kernel) and each entry is
summed in the group ring of the p-th roots of unity, and the MacWilliams
transforms built on it are compared with brute-force dual enumeration.
"""

import inspect
import time

import pytest

from conftest import (brute_force_dual_wam, field, random_conv_seed,
                      random_eaqcc_spec, random_systematic_conv_seed,
                      seeded_rng)
from wamkit.block import macwilliams_hwgf, macwilliams_ipwgf
from wamkit.conv import (dual_systematic_seed, dual_total_wgf, fourier_matrix,
                         ipwam, macwilliams_ipwam, macwilliams_wam,
                         state_labels, state_vectors, wam)
from wamkit.errors import AlgebraError, ShapeError
from wamkit.poly import IP_PAIRS, WeightPoly
from wamkit.polymatrix import PolyMatrix, krawtchouk_map, macwilliams
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


def random_matrix(rng, labels, cells):
    """Sparse matrix with small integer polynomials in x, y and D."""
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
            poly = poly + rng.choice([-3, -2, -1, 1, 2, 3]) * mono
        rows[i][j] = poly
    return PolyMatrix(labels, rows)


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
@pytest.mark.parametrize("m", [1, 2])
def test_conjugate_by_matches_dense_character_matrix(p, r, m):
    spec = field(p, r)
    rng = seeded_rng("transform-dense-%d-%d-%d" % (p, r, m))
    kernel, dense = fourier_matrix(spec), dense_field_matrix(spec, m)
    for _ in range(2):
        matrix = random_matrix(rng, state_labels(spec, m), 8)
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


def test_macwilliams_wam_rejects_a_single_gf3_transition():
    # the whole transform, not only its state pass, refuses a result
    # that is not an integer polynomial
    spec = field(3)
    matrix = PolyMatrix(state_labels(spec, 1),
                        [{1: WeightPoly.var("y")}] + [{}] * (spec.q - 1))
    with pytest.raises(AlgebraError):
        macwilliams_wam(matrix, spec)


def test_conjugate_by_rejects_mismatched_kernel():
    matrix = PolyMatrix.identity(["0", "1", "2"])
    with pytest.raises(AlgebraError):  # 3 states, kernel size 2
        matrix.conjugate_by([[0, 0], [0, 1]])
    with pytest.raises(AlgebraError):  # not square
        matrix.conjugate_by([[0, 0, 0], [0, 1, 2]], 3)
    with pytest.raises(AlgebraError):  # exponent outside range(p)
        PolyMatrix.identity(["0", "1"]).conjugate_by([[0, 0], [0, 2]])
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


# --- the weight axis as a Krawtchouk table ---

def substitution(q, pairs):
    """The images x -> x' + (q-1) y', y -> x' - y' of WeightPoly.substitute,
    (x', y') the mirror pair of (x, y)."""
    mapping = {}
    for (x, y), (xm, ym) in zip(pairs, reversed(pairs)):
        xv, yv = WeightPoly.var(xm), WeightPoly.var(ym)
        mapping[x] = xv + (q - 1) * yv
        mapping[y] = xv - yv
    return mapping


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_krawtchouk_image_matches_substitute(q):
    pairs = (("x", "y"),)
    mapping = substitution(q, pairs)
    for deg in range(7):
        for b in range(deg + 1):
            mono = WeightPoly.monomial(3, {"x": deg - b, "y": b})
            assert krawtchouk_map(mono, q, pairs) == mono.substitute(mapping)
    mapping = substitution(q, IP_PAIRS)
    for exps in [(0, 0, 0, 0), (1, 0, 0, 2), (2, 1, 1, 1), (0, 3, 2, 0),
                 (1, 2, 3, 0), (3, 0, 0, 3)]:
        mono = WeightPoly.monomial(-2, dict(zip(("x_I", "y_I", "x_P", "y_P"),
                                                exps)))
        assert krawtchouk_map(mono, q, IP_PAIRS) == mono.substitute(mapping)


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (2, 2)])
def test_krawtchouk_images_match_substitute_on_wams(p, r):
    # one image per exponent tuple is shared by every cell that holds it
    spec = field(p, r)
    seed = random_systematic_conv_seed(seeded_rng("krawtchouk-%d-%d" % (p, r)),
                                       spec, 2, 1, 2)
    for lam, pairs in [(wam(seed), (("x", "y"),)), (ipwam(seed), IP_PAIRS)]:
        assert (krawtchouk_map(lam, spec.q, pairs)
                == lam.substitute(substitution(spec.q, pairs)))


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
        (lambda: macwilliams_ipwam(ip + ip + ip, spec), 24),
        (lambda: dual_total_wgf(lam * -1, 10, spec), -8),
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
              dual_total_wgf: "(lam, d_max, spec)",
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


def test_binary_m9_dual_wam_is_fast():
    spec = field(2)
    seed = random_conv_seed(seeded_rng("dual-wam-m9"), spec, 2, 1, 9)
    lam = wam(seed)
    start = time.perf_counter()
    lam_hat = macwilliams_wam(lam, spec)
    elapsed = time.perf_counter() - start
    assert sum(1 for row in lam_hat.rows for e in row.values() if e) == 2 ** 10
    assert elapsed < 2.0, "binary m = 9 dual WAM took %.2f s" % elapsed
