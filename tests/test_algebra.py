"""Field tables, character exponent tables, weight polynomials and the
truncated series machinery."""

import time
from fractions import Fraction

import pytest

from conftest import (direct_conv_edges, field, identity_matrix,
                      matrix_sum)
from wamkit.conv import fourier_matrix, iowam, ipwam, macwilliams_wam, wam
from wamkit.errors import AlgebraError, FieldError
from wamkit.fields import FieldSpec, _is_prime, _poly_mulmod
from wamkit.gflinalg import digit_vectors
from wamkit.poly import VARS, WeightPoly
from wamkit.polymatrix import PolyMatrix, series_inverse
from wamkit.quantum import quantum_wam


# --- finite fields ---

def test_field_axioms_exhaustive():
    for p, r in [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]:
        spec = field(p, r)
        q = spec.q
        for a in range(q):
            assert spec.add[a][0] == a
            assert spec.mul[a][1] == a
            assert spec.mul[a][0] == 0
            assert spec.add[a][spec.neg[a]] == 0
            for b in range(q):
                assert spec.add[a][b] == spec.add[b][a]
                assert spec.mul[a][b] == spec.mul[b][a]
                for c in range(q):
                    assert (spec.mul[a][spec.add[b][c]]
                            == spec.add[spec.mul[a][b]][spec.mul[a][c]])
        for a in range(1, q):
            assert spec.mul[a][spec.inv[a]] == 1


def test_default_modulus_gf4():
    # least monic irreducible of degree 2 over GF(2) is 1 + x + x^2
    assert field(2, 2).modulus == (1, 1, 1)


def test_gf4_trace_values():
    spec = field(2, 2)
    # indices: 0, 1, alpha (=2), alpha+1 (=3); tr(a) = a + a^2
    assert [spec.trace[i] for i in range(4)] == [0, 0, 1, 1]


def test_trace_is_additive():
    for p, r in [(2, 3), (3, 2)]:
        spec = field(p, r)
        for a in range(spec.q):
            for b in range(spec.q):
                s = spec.add[a][b]
                assert spec.trace[s] == (spec.trace[a] + spec.trace[b]) % p


def test_bad_field_parameters():
    with pytest.raises(FieldError):
        FieldSpec(4)
    with pytest.raises(FieldError):
        FieldSpec(2, 0)
    with pytest.raises(FieldError):
        FieldSpec(2, 2, modulus=[1, 0, 1])  # (1+x)^2 is reducible


def test_character_orthogonality():
    # sum_b w^tr(ab) is q for a = 0 and 0 otherwise: row 0 of the
    # exponent table is all zeros, and every other row holds each
    # exponent t in range(p) exactly q/p times
    for p, r in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]:
        spec = field(p, r)
        table = fourier_matrix(spec)
        assert table[0] == [0] * spec.q
        for row in table[1:]:
            assert sorted(row) == [t for t in range(p)
                                   for _ in range(spec.q // p)]


@pytest.mark.parametrize("p, r", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2),
                                  (7, 2), (3, 3), (2, 5)])
def test_trace_sums_the_frobenius_powers(p, r):
    # tr(x) = x + x^p + ... + x^(p^(r-1)), each power by repeated mul
    spec = field(p, r)
    for x in range(spec.q):
        acc, power = 0, x
        for _ in range(r):
            acc = spec.add[acc][power]
            nxt = 1
            for _ in range(p):
                nxt = spec.mul[nxt][power]
            power = nxt
        assert spec.trace[x] == acc


def test_gf2003_tables_are_fast():
    # the largest prime field the budget admits: q^2 <= 2^22
    start = time.perf_counter()
    spec = FieldSpec(2003)
    elapsed = time.perf_counter() - start
    assert spec.trace[1234] == 1234 and spec.add[2002][3] == 2
    assert elapsed < 1.0, "FieldSpec(2003) took %.2f s" % elapsed


def test_field_trace_prime_field_is_identity():
    assert field(5).trace == list(range(5))


def polynomial_tables(p, r, modulus):
    """add, neg, mul and inv of GF(p^r) mod `modulus`, cell by cell from
    the coefficient vectors: the reference for the log/antilog build."""
    if r == 1:  # polynomials of degree 0: arithmetic mod p
        add = [[(a + b) % p for b in range(p)] for a in range(p)]
        mul = [[a * b % p for b in range(p)] for a in range(p)]
        neg = [-a % p for a in range(p)]
    else:
        coeffs = list(digit_vectors(p, r))
        index = {c: i for i, c in enumerate(coeffs)}

        def idx(c):
            return index[tuple((list(c) + [0] * r)[:r])]

        add = [[idx([(a + b) % p for a, b in zip(ca, cb)]) for cb in coeffs]
               for ca in coeffs]
        neg = [idx([-a % p for a in ca]) for ca in coeffs]
        mul = [[idx(_poly_mulmod(list(ca), list(cb), list(modulus), p))
                for cb in coeffs] for ca in coeffs]
    inv = [None] + [row.index(1) for row in mul[1:]]
    return add, neg, mul, inv


def test_log_tables_match_polynomial_tables():
    # the default GF(9) modulus x^2 + 1 is not primitive: x has order 4
    assert FieldSpec(3, 2).modulus == (1, 0, 1)
    fields = [(p, r) for p in range(2, 257) if _is_prime(p)
              for r in range(1, 9) if p ** r <= 256]
    assert len(fields) == 70
    for p, r in fields:
        spec = FieldSpec(p, r)
        assert ((spec.add, spec.neg, spec.mul, spec.inv)
                == polynomial_tables(p, r, spec.modulus)), (p, r)


@pytest.mark.parametrize("p, r, modulus", [
    (2, 4, (1, 1, 1, 1, 1)),  # x has order 5, so x is not primitive
    (2, 3, (1, 0, 1, 1)), (2, 6, (1, 1, 0, 1, 1, 0, 1)),
    (3, 2, (2, 1, 1)), (5, 2, (2, 1, 1)), (7, 2, (3, 1, 1))])
def test_log_tables_with_a_given_modulus(p, r, modulus):
    spec = FieldSpec(p, r, modulus=modulus)
    assert spec.modulus != FieldSpec(p, r).modulus
    assert ((spec.add, spec.neg, spec.mul, spec.inv)
            == polynomial_tables(p, r, modulus))


def test_gf512_tables_are_fast():
    start = time.perf_counter()
    spec = FieldSpec(2, 9)
    elapsed = time.perf_counter() - start
    assert spec.mul[2][spec.inv[2]] == 1
    assert elapsed < 1.5, "FieldSpec(2, 9) took %.2f s" % elapsed


# --- the group ring of the state pass ---

def test_root_powers_sum_to_zero():
    # off the diagonal, F I F^dag sums all p powers of w, which vanish
    for p in (3, 5, 7):
        ident = identity_matrix([str(i) for i in range(p)])
        out = ident.conjugate_by(fourier_matrix(field(p)), p)
        assert out == ident * p


def test_exact_div_errors_on_remainder():
    y = WeightPoly.var("y")
    matrix = PolyMatrix(["0", "1"], [{1: 4 * y}, {}])
    out = matrix.exact_div(2)
    assert out[0, 1] == 2 * y
    matrix = PolyMatrix(["0", "1"], [{1: 4 * y}, {0: 3 * y}])
    with pytest.raises(AlgebraError):
        matrix.exact_div(2)


# --- weight polynomials ---

def test_poly_str_canonical_order():
    x, y, d = (WeightPoly.var(v) for v in ("x", "y", "D"))
    p = y ** 3 + 3 * x * y ** 2 + 1 + y ** 3 * d
    assert str(p) == "1 + 3*x*y^2 + y^3 + y^3*D"


def test_poly_str_negative_terms():
    x, y = WeightPoly.var("x"), WeightPoly.var("y")
    assert str(x - y) == "x - y"
    assert str(-(x * y)) == "-x*y"


def test_poly_arithmetic_identities():
    x, y = WeightPoly.var("x"), WeightPoly.var("y")
    p = (x + y) ** 2
    assert p == x ** 2 + 2 * x * y + y ** 2
    assert p - p == WeightPoly.zero()
    assert (x + y) * (x - y) == x ** 2 - y ** 2


def test_substitute_requires_full_mapping():
    x, y = WeightPoly.var("x"), WeightPoly.var("y")
    p = x * y
    with pytest.raises(AlgebraError):
        p.substitute({"x": 1})
    assert p.substitute({"x": 1, "y": y}) == y


def test_collapse_keeps_unmapped_variables():
    p = poly = WeightPoly.var("x_I") * WeightPoly.var("y_P")
    out = poly.collapse({"x_I": 1})
    assert out == WeightPoly.var("y_P")
    assert p.collapse({}) == p


def _substitute_by_terms(poly, mapping):
    """The substitution as a sum of per-term ring products, each variable
    with its image (or an int image as a constant) to its power."""
    out = WeightPoly.zero()
    for exp, coeff in poly.terms.items():
        term = WeightPoly.const(coeff)
        for name, e in zip(VARS, exp):
            img = mapping[name]
            if isinstance(img, int):
                img = WeightPoly.const(img)
            if e:
                term = term * img ** e
        out = out + term
    return out


def test_collapse_matches_substitute_with_mixed_images():
    x, y, d = (WeightPoly.var(v) for v in ("x", "y", "D"))
    xi, yp = WeightPoly.var("x_I"), WeightPoly.var("y_P")
    poly = (3 * x ** 2 * y * xi - 2 * y ** 3 * yp * d + 5 * xi ** 2
            + x * y * yp - 7).truncated(4)
    keep = {v: WeightPoly.var(v) for v in VARS}
    for mapping in ({"x": 2, "x_I": x + y, "y_P": -1, "D": y * d},
                    {"x": 1}, {"y_P": xi ** 2 - 1, "x_I": 0},
                    {"x": d * y, "x_I": 1}):
        full = dict(keep, **mapping)
        want = _substitute_by_terms(poly, full)
        for got in (poly.collapse(mapping), poly.substitute(full)):
            assert got == want
    copy = poly.collapse({})
    assert copy == poly and copy is not poly
    with pytest.raises(AlgebraError):
        poly.collapse({"z": 1})


def test_matrix_collapse_with_no_mapping_is_the_matrix():
    # cells are never mutated, so sharing them is safe
    x, y = WeightPoly.var("x"), WeightPoly.var("y")
    matrix = _two_state([[x, WeightPoly.zero()], [y, WeightPoly.const(1)]])
    assert matrix.collapse({}) is matrix
    assert matrix.collapse({"x": 1})[0, 0] == WeightPoly.const(1)


def test_matrix_collapse_matches_the_cell_collapse():
    # each distinct exponent tuple is mapped once per call; every cell
    # must still equal its own collapse (and substitute)
    x, y, d = (WeightPoly.var(v) for v in ("x", "y", "D"))
    xi, yp = WeightPoly.var("x_I"), WeightPoly.var("y_P")
    keep = {v: WeightPoly.var(v) for v in VARS}
    matrix = _two_state([
        [(3 * x ** 2 * y * xi - 2 * y ** 3 * yp * d + 5 * xi ** 2
          ).truncated(4), x * y * yp - 7],
        [(d * x + y * d ** 2).truncated(2), x * xi - xi * y]])
    for mapping in ({"x": 2, "x_I": x + y, "y_P": -1, "D": y * d},
                    {"x": 1}, {"y_P": xi ** 2 - 1, "x_I": 0},
                    {"x": d * y, "x_I": 1},
                    {"x": y}):
        full = dict(keep, **mapping)
        for method, images in (("collapse", mapping), ("substitute", full)):
            got = getattr(matrix, method)(images)
            for i in range(2):
                for j in range(2):
                    want = getattr(matrix[i, j], method)(images)
                    cell = got.rows[i].get(j)
                    if not want:
                        assert cell is None
                    else:
                        assert cell == want


def test_unknown_variable_rejected():
    with pytest.raises(AlgebraError):
        WeightPoly.var("z")
    with pytest.raises(AlgebraError):
        WeightPoly.var("x").substitute({"q": 1, "x": 1})


def test_d_truncation_drops_high_orders():
    d = WeightPoly.var("D")
    p = ((1 + d) ** 5).truncated(3)
    assert (1 + d).truncated_mul((1 + d) ** 4, 3) == p
    assert p.max_d_degree() == 3
    assert p.coefficient({"D": 3}) == 10
    assert p.coefficient({"D": 4}) == 0


def test_exact_div_poly():
    y = WeightPoly.var("y")
    assert (4 * y + 8).exact_div(4) == y + 2
    with pytest.raises(AlgebraError):
        (4 * y + 2).exact_div(4)


def test_y_degrees_cover_all_y_flavors():
    p = (WeightPoly.var("y_I") * WeightPoly.var("y_O") ** 2
         + WeightPoly.var("y") + 1)
    assert p.y_degrees() == [0, 1, 3]


def test_macwilliams_substitution_roundtrip():
    # the [3, 1] transform followed by the [3, 2] transform is a
    # round trip: divisors 2^k and 2^(n-k)
    x, y = WeightPoly.var("x"), WeightPoly.var("y")
    g = x ** 3 + 3 * x * y ** 2
    once = g.substitute({"x": x + y, "y": x - y}).exact_div(2)
    twice = once.substitute({"x": x + y, "y": x - y}).exact_div(4)
    assert twice == g


# --- polynomial matrices ---

def _two_state(entries):
    return PolyMatrix(["0", "1"], [dict(enumerate(row)) for row in entries])


def test_a_matrix_multiplies_by_a_scalar_only():
    y = WeightPoly.var("y")
    a = _two_state([[WeightPoly.const(1), y], [y, WeightPoly.zero()]])
    assert (a * 2)[0, 1] == 2 * y
    assert (y * a)[1, 0] == y ** 2
    for other in (a, 1.5):
        with pytest.raises(TypeError):
            a * other


def test_conjugate_by_fourier_is_scaled_identity():
    # F I F^dag = q^m I for the binary m = 1 character matrix, whose
    # sign exponents are tr(ab) over GF(2)
    f = [[0, 0], [0, 1]]
    ident = identity_matrix(["0", "1"])
    out = ident.conjugate_by(f)
    assert out == ident * 2


def test_matrices_store_only_nonzero_cells(example1, u1):
    spec = example1.spec
    y = WeightPoly.var("y")
    lam = wam(example1)
    outs = [lam, ipwam(example1), iowam(example1), quantum_wam(u1),
            macwilliams_wam(lam, spec),
            lam.collapse({"x": 1}), lam.exact_div(1), lam.transpose(),
            lam * y, lam * 0]
    for out in outs:
        assert all(e for row in out.rows for e in row.values())
    assert not any(outs[-1].rows)
    absent = [(i, j) for i in range(lam.size) for j in range(lam.size)
              if j not in lam.rows[i]]
    assert absent and all(lam[i, j] == 0 for i, j in absent)
    # a binary (2, 1, 2) WAM: one stored cell per transition, no other
    edges = {(i, j) for i, j, _u, _p in direct_conv_edges(example1)}
    assert {(i, j) for i, row in enumerate(lam.rows) for j in row} == edges


def test_to_int_coeffs_rejects_non_integer():
    y = WeightPoly.var("y")
    assert (3 * y).to_int_coeffs() == 3 * y
    with pytest.raises(AlgebraError):
        (y + WeightPoly.const(Fraction(1, 2))).to_int_coeffs()


def test_series_inverse_geometric():
    y = WeightPoly.var("y")
    d = WeightPoly.var("D")
    lam = _two_state([[y, WeightPoly.zero()],
                      [WeightPoly.zero(), WeightPoly.zero()]])
    m = matrix_sum(identity_matrix(["0", "1"]), lam, -d)
    inv = series_inverse(m, 4)
    expect = sum((y * d) ** i for i in range(5))
    assert inv[0, 0] == expect + 0  # coerce to WeightPoly
    assert inv[1, 1] == WeightPoly.const(1)


def test_series_inverse_rejects_wrong_shape():
    y = WeightPoly.var("y")
    bad = _two_state([[y, WeightPoly.zero()],
                      [WeightPoly.zero(), WeightPoly.const(1)]])
    with pytest.raises(AlgebraError):
        series_inverse(bad, 3)
