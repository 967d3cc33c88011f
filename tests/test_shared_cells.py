"""Equal WAM cells are one object, from enumeration to output.

A WAM has only a handful of distinct cells (a binary shift register has
three), so the enumerators give equal cells one shared WeightPoly, the
cell maps keep them shared, and the renderers write each distinct cell
object once per call.
"""

import gc

from conftest import (field, random_conv_seed, random_eaqcc_spec,
                      random_systematic_conv_seed, read_fixture, seeded_rng,
                      shift_register_text)
from wamkit import polymatrix
from wamkit.conv import (ConvSeed, SystematicConvSeed, iowam, ipwam,
                         macwilliams_wam, wam)
from wamkit.formats import (dumps, matrix_to_structured, parse_conv_seed,
                            parse_quantum_spec)
from wamkit.poly import VARS, WeightPoly, canonical
from wamkit.quantum import quantum_macwilliams, quantum_wam


def _shared(matrix):
    """Whether equal stored cells are one object: as many distinct cell
    ids as distinct term sets."""
    cells = [e for row in matrix.rows for e in row.values()]
    return (len({id(e) for e in cells})
            == len({frozenset(e.terms.items()) for e in cells}))


def _conv_seeds():
    """Random seeds over GF(2), GF(3) and GF(4): k < m, k >= m, k = n,
    m = 0 and k = 0, plain and systematic."""
    rng = seeded_rng("shared-cells")
    seeds = []
    for spec in (field(2), field(3), field(2, 2)):
        for n, k, m in ((2, 1, 3), (3, 1, 2), (3, 2, 1), (4, 3, 1),
                        (2, 2, 1), (3, 2, 0), (2, 0, 2)):
            seeds.append(random_conv_seed(rng, spec, n, k, m))
            seeds.append(random_systematic_conv_seed(rng, spec, n, k, m))
    return seeds


def test_equal_conv_cells_are_one_object():
    for seed in _conv_seeds():
        lam = wam(seed)
        for matrix in (lam, iowam(seed), lam.collapse({"x": 1}),
                       macwilliams_wam(lam, seed.spec)):
            assert _shared(matrix), seed.t_matrix
        if seed.k and isinstance(seed, SystematicConvSeed):
            lam = ipwam(seed)
            assert _shared(lam) and _shared(lam.collapse({"x": 1}))


def test_a_repeated_two_term_cell_is_one_object():
    # the k = n seed T = (1 0 1; 1 0 0; 0 1 1) has x^2 + x*y twice
    seed = ConvSeed(field(2), 2, 2, 1, [[1, 0, 1], [1, 0, 0], [0, 1, 1]])
    lam = wam(seed)
    x2, xy = WeightPoly.var("x", 2), WeightPoly.var("x") * WeightPoly.var("y")
    twice = [e for row in lam.rows for e in row.values() if e == x2 + xy]
    assert len(twice) == 2 and twice[0] is twice[1]
    assert _shared(lam) and _shared(macwilliams_wam(lam, seed.spec))


def test_equal_quantum_cells_are_one_object():
    rng = seeded_rng("shared-quantum-cells")
    specs = [parse_quantum_spec(read_fixture(name))
             for name in ("u1.qcc", "u2-ea.qcc", "u2-qcc.qcc")]
    specs += [random_eaqcc_spec(rng, n, k, c, m)
              for n, k, c, m in ((3, 1, 1, 2), (2, 1, 0, 2), (2, 2, 0, 1),
                                 (3, 0, 1, 1), (2, 1, 1, 0))]
    for spec in specs:
        lam = quantum_wam(spec)
        for matrix in (lam, lam.collapse({"x": 1}),
                       quantum_macwilliams(lam)):
            assert _shared(matrix)


def test_each_distinct_cell_is_rendered_once(monkeypatch):
    # a binary (2, 1, 11) shift register: 4,096 stored cells, 3 distinct
    lam = wam(parse_conv_seed(shift_register_text(11)))
    distinct = len({id(e) for row in lam.rows for e in row.values()})
    assert distinct == 3 and sum(map(len, lam.rows)) == 4096
    calls = []
    to_int, text = WeightPoly.to_int_coeffs, polymatrix.terms_text
    monkeypatch.setattr(WeightPoly, "to_int_coeffs",
                        lambda self: calls.append("int") or to_int(self))
    monkeypatch.setattr(polymatrix, "terms_text",
                        lambda *args: calls.append("text") or text(*args))
    matrix_to_structured(lam)
    assert calls.count("int") == distinct
    str(lam)
    assert calls.count("text") == distinct


def _dense_document(matrix):
    """The dense dict of a matrix's structured document, term by term."""
    def terms(cell):
        return [{"coeff": cell.terms[exp],
                 "exponents": {VARS[i]: e for i, e in enumerate(exp) if e}}
                for exp in canonical(cell.terms)]

    n = matrix.size
    return {"labels": matrix.labels,
            "entries": [[terms(matrix[i, j]) for j in range(n)]
                        for i in range(n)]}


def test_a_render_memo_lives_for_one_call():
    # the first matrix is dropped before the second is built, so the
    # second's cells are likely to reuse the first's ids
    rng = seeded_rng("render-memo")
    for spec in (field(2), field(3)):
        texts = []
        for n, k, m in ((2, 1, 3), (3, 2, 2)):
            lam = wam(random_conv_seed(rng, spec, n, k, m))
            texts.append((matrix_to_structured(lam), dumps(
                _dense_document(lam))))
            del lam
            gc.collect()
        for got, want in texts:
            assert got == want
