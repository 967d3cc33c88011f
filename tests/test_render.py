"""The canonical term order and the renderers that write it.

The oracles below rebuild the output term by term with the per-term sort
key (total degree, then the negated exponent tuple) that every renderer
used before the one per-call term table; the renderers must match them
byte for byte.
"""

import json
import time
from fractions import Fraction

import pytest

from conftest import seeded_rng, shift_register_text
from wamkit.cli import main
from wamkit.conv import total_wgf, wam
from wamkit.errors import AlgebraError
from wamkit.formats import (dumps, matrix_to_structured, parse_conv_seed,
                            poly_to_structured)
from wamkit.poly import VARS, WeightPoly, canonical
from wamkit.polymatrix import PolyMatrix


def _old_key(exp):
    return sum(exp), tuple(-e for e in exp)


def _old_text(poly):
    if not poly.terms:
        return "0"
    chunks = []
    for exp in sorted(poly.terms, key=_old_key):
        coeff = poly.terms[exp]
        factors = []
        for i, e in enumerate(exp):
            if e == 1:
                factors.append(VARS[i])
            elif e > 1:
                factors.append("%s^%d" % (VARS[i], e))
        neg, mag = coeff < 0, abs(coeff)
        body = None if mag == 1 and factors else str(mag)
        text = "*".join(([body] if body else []) + factors)
        if not chunks:
            chunks.append(("-" if neg else "") + text)
        else:
            chunks.append(("- " if neg else "+ ") + text)
    return " ".join(chunks)


def _old_terms(poly):
    return [{"coeff": poly.terms[exp],
             "exponents": {VARS[i]: e for i, e in enumerate(exp) if e}}
            for exp in sorted(poly.terms, key=_old_key)]


def _random_poly(rng, names, d_max=None):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exp = [0] * len(VARS)
        for name in names:
            exp[VARS.index(name)] = rng.choice([0, 0, 1, 2, 3, 11])
        terms[tuple(exp)] = rng.choice([1, -1, 2, -3, 12, 2 ** 70,
                                        -2 ** 70])
    poly = WeightPoly(terms)
    return poly if d_max is None else poly.truncated(d_max)


def _matrices():
    """Negative and 71-bit coefficients, D exponents cut at a d_max, all
    nine variables, Pauli labels, an empty last row, and 1 x 1 matrices."""
    rng = seeded_rng("render-table")
    out = []
    for labels, names, d_max in (
            (["00", "10", "01", "11"], ("x", "y"), None),
            (["I", "X", "Y", "Z"], ("x", "y", "D"), 3),
            (["IX", "ZY", "XX"], VARS, None),
            ([str(i) for i in range(7)], ("x_I", "y_I", "x_O", "y_O", "D"),
             5)):
        rows = [{} for _ in labels]
        for _ in range(2 * len(labels)):
            i, j = rng.randrange(len(labels) - 1), rng.randrange(len(labels))
            rows[i][j] = _random_poly(rng, names, d_max)
        out.append(PolyMatrix(labels, rows))
    out.append(PolyMatrix(["0"], [{0: _random_poly(
        rng, ("x_I", "y_I", "x_P", "y_P"))}]))
    out.append(PolyMatrix(["0"], [{0: WeightPoly.const(-2 ** 70)}]))
    out.append(PolyMatrix(["0"], [{}]))
    return out


def test_canonical_order_matches_the_per_term_key():
    rng = seeded_rng("canonical-order")
    for size in (0, 1, 2, 5, 40, 300):
        exps = {tuple(rng.randrange(4) for _ in VARS) for _ in range(size)}
        assert canonical(exps) == sorted(exps, key=_old_key)


def test_matrix_text_is_dumps_of_the_dense_document():
    for matrix in _matrices():
        n = matrix.size
        dense = {"labels": matrix.labels,
                 "entries": [[_old_terms(matrix[i, j]) for j in range(n)]
                             for i in range(n)]}
        text = matrix_to_structured(matrix)
        assert text == dumps(dense)
        assert json.loads(text) == dense
        for i in range(n):
            for j in range(n):
                doc = {"terms": dense["entries"][i][j]}
                text = poly_to_structured(matrix[i, j])
                assert text == dumps(doc)
                assert json.loads(text) == doc


def test_structured_renderers_check_every_cell_is_integral():
    half = WeightPoly({(0,) * len(VARS): Fraction(1, 2)})
    matrix = PolyMatrix(["0", "1"], [{1: WeightPoly.var("x")}, {0: half}])
    with pytest.raises(AlgebraError, match="is not an integer"):
        matrix_to_structured(matrix)
    with pytest.raises(AlgebraError, match="is not an integer"):
        poly_to_structured(half)


def test_text_renderers_match_the_per_term_rendering():
    for matrix in _matrices():
        lines = ["states: " + " ".join(matrix.labels)]
        lines += ["%s: %s" % (label, " | ".join(
            _old_text(matrix[i, j]) for j in range(matrix.size)))
            for i, label in enumerate(matrix.labels)]
        assert str(matrix) == "\n".join(lines)
        for row in matrix.rows:
            for cell in row.values():
                assert str(cell) == _old_text(cell)


def test_deep_total_text_matches_the_per_term_rendering(tmp_path, capsys):
    # coefficients of up to 190 bits
    path = tmp_path / "shift.cc"
    path.write_text(shift_register_text(6))
    assert main(["--dmax", "200", "conv", "total", str(path)]) == 0
    out = capsys.readouterr().out
    poly = total_wgf(wam(parse_conv_seed(shift_register_text(6))).collapse(
        {"x": 1}), 200)
    assert len(poly.terms) > 30000
    assert out == _old_text(poly) + "\n"
    assert main(["--format", "structured", "--dmax", "200", "conv", "total",
                 str(path)]) == 0
    assert capsys.readouterr().out == dumps({"terms": _old_terms(poly)})


def test_deep_text_render_is_quick():
    # about 35,000 terms, each rendered from the one per-call table
    poly = total_wgf(wam(parse_conv_seed(shift_register_text(6))).collapse(
        {"x": 1}), 200)
    start = time.perf_counter()
    str(poly)
    assert time.perf_counter() - start < 0.5


def test_structured_binary_m10_wam_is_quick(tmp_path, capsys):
    # 2^20 cells, 2^11 of them stored
    path = tmp_path / "shift.cc"
    path.write_text(shift_register_text(10))
    start = time.perf_counter()
    code = main(["--format", "structured", "conv", "wam", str(path)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0 and out.startswith('{"entries":[[[{"coeff":1,')
    assert elapsed < 0.35
