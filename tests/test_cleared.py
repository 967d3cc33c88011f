"""Polynomial matrices over GF(q)[D]: det(I - D A) by elimination, the
cleared impulse response, and the orthogonality checks built on them."""

import time

import pytest

from conftest import field, random_conv_seed, seeded_rng
from wamkit import gflinalg
from wamkit.cli import main
from wamkit.conv import dual_seed, poly_generator
from wamkit.errors import ShapeError
from wamkit.pauli import CliffordSeed, PauliWord
from wamkit.quantum import EaqccSpec, check_poly_orthogonality

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1)]


# --- a cofactor determinant over GF(q)[D], polynomials as coefficient
# lists low degree first ---

def _padd(spec, a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] = spec.add[out[i]][y]
    return out


def _pmul(spec, a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = spec.add[out[i + j]][spec.mul[x][y]]
    return out


def cofactor_det(spec, mat):
    if not mat:
        return [1]
    det = []
    for j, ent in enumerate(mat[0]):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = _pmul(spec, ent, cofactor_det(spec, minor))
        if j % 2:
            term = [spec.neg[x] for x in term]
        det = _padd(spec, det, term)
    return det


def _trimmed(poly, length):
    poly = list(poly) + [0] * length
    assert not any(poly[length:]), "determinant degree exceeds m"
    return poly[:length]


@pytest.mark.parametrize("p,r", FIELDS)
def test_det_by_elimination_matches_cofactor_expansion(p, r):
    spec = field(p, r)
    rng = seeded_rng("det-i-minus-da-%d-%d" % (p, r))
    for m in range(6):
        for _ in range(3):
            a = [[rng.randrange(spec.q) for _ in range(m)] for _ in range(m)]
            i_da = [[[1 if i == j else 0, spec.neg[x]]
                     for j, x in enumerate(row)] for i, row in enumerate(a)]
            want = _trimmed(cofactor_det(spec, i_da), m + 1)
            assert gflinalg.det_i_minus_da(spec, a) == want


@pytest.mark.parametrize("p,r", FIELDS)
def test_cleared_response_is_det_times_generator(p, r):
    spec = field(p, r)
    rng = seeded_rng("cleared-response-%d-%d" % (p, r))
    for _ in range(8):
        n = rng.randint(1, 3)
        k = rng.randint(1, n)
        m = rng.randint(0, 4)
        seed = random_conv_seed(rng, spec, n, k, m)
        det = gflinalg.det_i_minus_da(spec, seed.a_block)
        cleared = gflinalg.cleared_response(spec, seed.e_block, seed.b_block,
                                            seed.a_block, seed.c_block)
        assert len(cleared) == m + 1
        gen = poly_generator(seed, 2 * m)
        for d in range(2 * m + 1):
            for i in range(k):
                for j in range(n):
                    acc = 0
                    for t in range(min(d, m) + 1):
                        g = gen.coeffs[d - t][i][j]
                        acc = spec.add[acc][spec.mul[det[t]][g]]
                    # det(I - D A) G(D) is a polynomial of degree <= m
                    assert acc == (cleared[d][i][j] if d <= m else 0)


def test_poly_mat_mul_matches_entrywise_product():
    spec = field(3)
    rng = seeded_rng("poly-mat-mul")
    a = [[[rng.randrange(3) for _ in range(3)] for _ in range(2)]
         for _ in range(3)]
    b = [[[rng.randrange(3) for _ in range(4)] for _ in range(3)]
         for _ in range(2)]
    prod = gflinalg.poly_mat_mul(spec, a, b)
    assert len(prod) == 4
    for i in range(2):
        for j in range(4):
            want = [0]
            for t in range(3):
                want = _padd(spec, want, _pmul(
                    spec, [c[i][t] for c in a], [c[t][j] for c in b]))
            assert [c[i][j] for c in prod] == want


# --- orthogonality checks on the cleared responses ---

def random_nonsymplectic_spec(rng, n, k, c, m):
    """Role assignments over Z and X images drawn at random, so the seed
    is in general not a Clifford unitary and pairings fail."""
    width = n + m

    def word():
        return PauliWord(tuple((rng.randint(0, 1), rng.randint(0, 1))
                               for _ in range(width)))

    seed = CliffordSeed([word() for _ in range(width)],
                        [word() for _ in range(width)])
    positions = list(range(1, width + 1))
    rng.shuffle(positions)
    a = n - k - c
    outputs = list(range(1, width + 1))
    rng.shuffle(outputs)
    return EaqccSpec(seed, n, k, c, m, positions[:m], positions[m:m + k],
                     positions[m + k:m + k + a], positions[m + k + a:],
                     outputs[:m], outputs[m:])


# diagnostics of these seeded draws as the earlier cofactor-expansion
# implementation of det(I - D A) and adj(I - D A) printed them
PINNED_PAIRING_DIAGS = {
    (2, 1, 0, 1): [
        "L row 1 vs S^Z row 1: nonzero pairing at offsets [-2, 2]",
        "L row 2 vs S^Z row 1: nonzero pairing at offsets [-2, -1, 0, 1]",
    ],
    (3, 1, 1, 1): [
        "L row 1 vs S^Z row 1: nonzero pairing at offsets [-1]",
        "L row 2 vs S^E row 1: nonzero pairing at offsets [0, 1]",
        "L row 2 vs S^E row 2: nonzero pairing at offsets [0, 2]",
    ],
    (2, 1, 1, 2): [
        "L row 1 vs S^E row 1: nonzero pairing at offsets [-3, -1, 1, 3, 4]",
        "L row 1 vs S^E row 2: nonzero pairing at offsets [-3, 0, 2, 3]",
        "L row 2 vs S^E row 1: nonzero pairing at offsets [-2, -1, 2]",
        "L row 2 vs S^E row 2: nonzero pairing at offsets [-3, 0, 2, 3]",
    ],
}


@pytest.mark.parametrize("shape", sorted(PINNED_PAIRING_DIAGS))
def test_poly_orthogonality_diagnostics_are_pinned(shape):
    rng = seeded_rng("nonsymplectic-pairing-%d-%d-%d-%d" % shape)
    spec = random_nonsymplectic_spec(rng, *shape)
    ok, diags = check_poly_orthogonality(spec)
    assert not ok
    assert diags == PINNED_PAIRING_DIAGS[shape]


def test_check_dual_m14_is_fast(tmp_path, capsys):
    rng = seeded_rng("check-dual-m14")
    spec, n, k, m = field(2), 2, 1, 14
    while True:
        seed = random_conv_seed(rng, spec, n, k, m)
        try:
            dual_seed(seed)
            break
        except ShapeError:
            continue
    path = tmp_path / "m14.cc"
    path.write_text("q 2 1\nn %d\nk %d\nm %d\nT\n" % (n, k, m)
                    + "".join(" ".join(map(str, row)) + "\n"
                              for row in seed.t_matrix))
    start = time.perf_counter()
    code = main(["conv", "check-dual", str(path)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1] == "orthogonality: PASS"
    assert elapsed < 2.0
