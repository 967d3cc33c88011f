"""Quantum convolutional codes: Pauli algebra, WAMs and duality."""

import pytest

from conftest import (matrix_of, random_clifford_seed, random_eaqcc_spec,
                      seeded_rng)
from wamkit.errors import ShapeError
from wamkit.pauli import (CliffordSeed, PauliWord, pauli_state_labels,
                          symplectic_product)
from wamkit.poly import WeightPoly
from wamkit.polymatrix import PolyMatrix
from wamkit.quantum import (F1, EaqccSpec, check_poly_orthogonality,
                            constraint_stabilizers, dual_spec,
                            poly_check_matrix, quantum_macwilliams,
                            quantum_wam, state_diagram_dot,
                            state_diagram_edges)

PAULI4 = ["I", "X", "Y", "Z"]

U1_LAMBDA_Y = [
    ["1", "y^2", "y", "y"],
    ["y^2", "y^2", "y^2", "y^2"],
    ["y^2", "y", "y", "y^2"],
    ["y^2", "y", "y^2", "y"],
]

U2_EA_LAMBDA_Y = [
    ["1 + y^2", "0", "0", "y + y^2"],
    ["0", "1 + y^2", "y + y^2", "0"],
    ["0", "y + y^2", "1 + y^2", "0"],
    ["y + y^2", "0", "0", "1 + y^2"],
]

U2_EA_DUAL_Y = [
    ["1 + y + 2*y^2", "0", "0", "0"],
    ["0", "y + 3*y^2", "0", "0"],
    ["0", "0", "y + 3*y^2", "0"],
    ["0", "0", "0", "1 + y + 2*y^2"],
]

# zero-logical restriction of the U2 state diagram with QCC roles, in
# homogeneous form (n = 2)
EXAMPLE3_DUAL = [
    ["x^2", "0", "0", "x*y"],
    ["0", "y^2", "y^2", "0"],
    ["0", "y^2", "y^2", "0"],
    ["x*y", "0", "0", "y^2"],
]

EXAMPLE3_LAMBDA_Y = [
    ["1 + y^2", "y + y^2", "y + y^2", "2*y"],
    ["y + y^2", "2*y^2", "2*y^2", "y + y^2"],
    ["y + y^2", "2*y^2", "2*y^2", "y + y^2"],
    ["2*y", "y + y^2", "y + y^2", "1 + y^2"],
]


# --- Pauli algebra ---

def test_pauli_word_round_trip():
    w = PauliWord.from_str("IXZY")
    assert w.letters() == "IXZY"
    assert w.pairs == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert w.weight() == 3


def test_pauli_multiplication_is_xor():
    a = PauliWord.from_str("XZ")
    b = PauliWord.from_str("ZZ")
    assert (a * b).letters() == "YI"
    # phase-free group law: phi(gh) = phi(g) + phi(h) mod 2
    for g in ("XY", "ZI", "YY"):
        for h in ("IX", "ZZ", "XY"):
            gw, hw = PauliWord.from_str(g), PauliWord.from_str(h)
            prod = gw * hw
            for (z, x), (z1, x1), (z2, x2) in zip(prod.pairs, gw.pairs,
                                                  hw.pairs):
                assert (z, x) == ((z1 + z2) % 2, (x1 + x2) % 2)


def test_symplectic_product_commutation():
    x, z = PauliWord.from_str("X"), PauliWord.from_str("Z")
    assert symplectic_product(x, z) == 1
    assert symplectic_product(x, x) == 0
    assert symplectic_product(PauliWord.from_str("XX"),
                              PauliWord.from_str("ZZ")) == 0


def test_state_order_first_qubit_fastest():
    assert pauli_state_labels(1) == PAULI4
    labels = pauli_state_labels(2)
    assert labels[:5] == ["II", "XI", "YI", "ZI", "IX"]
    assert PauliWord.from_str("IX").state_index() == 4


def test_clifford_validate_catches_broken_seed():
    good = random_clifford_seed(2, seeded_rng("clifford-ok"))
    assert good.validate()[0]
    bad = CliffordSeed([PauliWord.from_str("ZI"), PauliWord.from_str("ZI")],
                       [PauliWord.from_str("XI"), PauliWord.from_str("IX")])
    ok, diags = bad.validate()
    assert not ok and diags


def test_random_seeds_are_symplectic():
    rng = seeded_rng("transvections")
    for width in (1, 2, 3, 4):
        for _ in range(5):
            assert random_clifford_seed(width, rng).validate()[0]


# --- fixture WAMs against frozen values ---

def test_u1_wam(u1):
    got = quantum_wam(u1).collapse({"x": 1})
    assert got == matrix_of(PAULI4, U1_LAMBDA_Y)


def test_u1_dual_is_transpose(u1):
    lam = quantum_wam(u1)
    lam_hat = quantum_macwilliams(lam)
    transpose = PolyMatrix(lam.labels,
                           [{j: lam[j, i] for j in range(4)}
                            for i in range(4)])
    assert lam_hat == transpose
    assert lam_hat == quantum_wam(dual_spec(u1))


def test_u2_ea_wam_and_dual(u2_ea):
    lam = quantum_wam(u2_ea)
    assert lam.collapse({"x": 1}) == matrix_of(PAULI4, U2_EA_LAMBDA_Y)
    lam_hat = quantum_macwilliams(lam)
    assert lam_hat.collapse({"x": 1}) == matrix_of(PAULI4, U2_EA_DUAL_Y)
    assert lam_hat == quantum_wam(dual_spec(u2_ea))


def test_example3_recovered_from_dual(u2_qcc):
    dual = dual_spec(u2_qcc)
    lam_perp = quantum_wam(dual)
    assert lam_perp == matrix_of(PAULI4, EXAMPLE3_DUAL)
    lam = quantum_macwilliams(lam_perp)
    assert lam.collapse({"x": 1}) == matrix_of(PAULI4, EXAMPLE3_LAMBDA_Y)
    assert lam == quantum_wam(u2_qcc)


def test_entry_sum_invariant(u1, u2_ea, u2_qcc):
    for spec in (u1, u2_ea, u2_qcc):
        total = sum((e for row in quantum_wam(spec).rows
                     for e in row.values()),
                    WeightPoly.zero()).substitute({"x": 1, "y": 1})
        expect = 4 ** spec.m * 4 ** spec.k * 2 ** spec.a
        assert total.coefficient({}) == expect


def test_fourier_kernel_squares_to_4i():
    for i in range(4):
        for j in range(4):
            val = sum((-1) ** (F1[i][t] + F1[t][j]) for t in range(4))
            assert val == (4 if i == j else 0)


# --- spec plumbing ---

def test_dual_spec_swaps_logical_and_entangled(u1):
    dual = dual_spec(u1)
    assert (dual.k, dual.c) == (u1.c, u1.k)
    assert dual.i_l == u1.i_e and dual.i_e == u1.i_l
    back = dual_spec(dual)
    assert (back.k, back.c, back.i_l, back.i_e) == \
        (u1.k, u1.c, u1.i_l, u1.i_e)


def test_role_partition_validated(u1):
    with pytest.raises(ShapeError):
        EaqccSpec(u1.seed, 2, 1, 1, 1, [1], [1], [], [3], [1], [2, 3])


def test_constraint_stabilizer_count(u1, u2_ea, u2_qcc):
    for spec in (u1, u2_ea, u2_qcc):
        gens = constraint_stabilizers(spec)
        assert len(gens) == 2 * spec.m + 2 * spec.c + spec.a
        for g in gens:
            assert len(g) == spec.m + spec.n + spec.m


def test_constraint_stabilizer_commutation(u2_qcc):
    # without entangled inputs the generator set is abelian
    gens = constraint_stabilizers(u2_qcc)
    for a in gens:
        for b in gens:
            assert symplectic_product(a, b) == 0


def test_entangled_pairs_anticommute(u1):
    gens = constraint_stabilizers(u1)
    # layout: 2m memory generators first, then Z/X pairs per ebit
    ez = gens[2 * u1.m]
    ex = gens[2 * u1.m + 1]
    assert symplectic_product(ez, ex) == 1


# --- state diagrams ---

def test_u1_state_diagram(u1):
    edges = state_diagram_edges(u1)
    assert len(edges) == 16
    assert ("I", "X", "Z", "ZY") in edges
    assert ("I", "I", "I", "II") in edges


def test_identity_seed_self_loops():
    seed = CliffordSeed([PauliWord.from_str("ZI"), PauliWord.from_str("IZ")],
                        [PauliWord.from_str("XI"), PauliWord.from_str("IX")])
    spec = EaqccSpec(seed, 1, 1, 0, 1, [1], [2], [], [], [1], [2])
    for src, dst, _log, _phys in state_diagram_edges(spec):
        assert src == dst


def test_state_diagram_dot_shape(u1):
    dot = state_diagram_dot(u1)
    assert dot.startswith("digraph")
    assert '"I" -> "X" [label="Z,ZY"];' in dot
    assert dot.count("->") == 16


def test_example3_diagram_is_zero_logical_restriction(u2_qcc):
    from wamkit.poly import WeightPoly
    dual = dual_spec(u2_qcc)
    x, y = WeightPoly.var("x"), WeightPoly.var("y")
    index = {label: i for i, label in enumerate(PAULI4)}
    rows = [{} for _ in PAULI4]
    for src, dst, log, phys in state_diagram_edges(u2_qcc):
        if log != "-" and log.strip("I"):
            continue  # keep only identity-logical edges
        w = sum(1 for ch in phys if ch != "I")
        i, j = index[src], index[dst]
        rows[i][j] = rows[i].get(j, 0) + x ** (2 - w) * y ** w
    assert PolyMatrix(PAULI4, rows) == quantum_wam(dual)


# --- polynomial check matrices ---

def test_poly_check_matrix_shapes(u1, u2_ea):
    for spec in (u1, u2_ea):
        s_z, s_e, logical = poly_check_matrix(spec, 6)
        assert len(s_z.rows) == spec.a
        assert len(s_e.rows) == 2 * spec.c
        assert len(logical.rows) == 2 * spec.k


def test_poly_check_row_str(u2_ea):
    _s_z, s_e, _logical = poly_check_matrix(u2_ea, 4)
    for i in range(len(s_e.rows)):
        text = s_e.row_str(i)
        assert text and all(part.lstrip("D^0123456789*")
                            for part in text.split(" + "))


def test_poly_orthogonality_on_fixtures(u1, u2_ea, u2_qcc):
    for spec in (u1, u2_ea, u2_qcc):
        ok, diags = check_poly_orthogonality(spec)
        assert ok, diags


def test_quantum_property_smoke():
    rng = seeded_rng("quantum-smoke")
    for _ in range(6):
        n, m = rng.choice([(2, 1), (2, 2), (3, 1)])
        k = rng.randint(0, n)
        c = rng.randint(0, n - k)
        spec = random_eaqcc_spec(rng, n, k, c, m)
        lam = quantum_wam(spec)
        lam_hat = quantum_macwilliams(lam)
        assert lam_hat == quantum_wam(dual_spec(spec))
        back = quantum_macwilliams(lam_hat)
        assert back == lam
