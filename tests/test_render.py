"""The canonical term order and the renderers that write it.

The oracles below rebuild the output term by term with the per-term sort
key (total degree, then the negated exponent tuple) that every renderer
used before the one per-call term table; the renderers must match them
byte for byte.
"""

import json
import time
from fractions import Fraction
from itertools import chain

import pytest

from conftest import seeded_rng, shift_register_text
from wamkit.cli import main
from wamkit.conv import total_wgf, wam
from wamkit.errors import AlgebraError
from wamkit.formats import (_exponents_json, dumps, matrix_to_structured,
                            parse_conv_seed, poly_to_structured)
from wamkit.poly import (VARS, WeightPoly, canonical, factor_text,
                         term_table, terms_text)
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
    nine variables, Pauli labels, an empty last row, 1 x 1 matrices, and
    the edge cases of writing rows from slices of a blank row."""
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
    # the edges of the blank-row slices: an empty first row, a cell in
    # column 0 only, in column S - 1 only, in adjacent columns, a full
    # row, and rows whose cells are stored out of column order
    labels = [str(i) for i in range(6)]
    cell = [_random_poly(rng, ("x", "y")) for _ in range(6)]
    out.append(PolyMatrix(labels, [
        {}, {0: cell[0]}, {5: cell[1]}, {2: cell[2], 3: cell[3]},
        dict(enumerate(cell)), {5: cell[4], 0: cell[5], 1: cell[0]}]))
    # sparse S = 130, a few shared cell objects over many cells
    shared = [_random_poly(rng, ("x", "y", "x_I", "y_I")) for _ in range(3)]
    rows = [{} for _ in range(130)]
    for _ in range(260):
        rows[rng.randrange(130)][rng.randrange(130)] = rng.choice(shared)
    rows[7].update({0: shared[0], 129: shared[1], 64: shared[2],
                    65: shared[2]})
    out.append(PolyMatrix.from_nonzero_rows(
        ["%02x" % i for i in range(130)], rows))
    out.append(PolyMatrix([], []))
    return out


def _list_join_rows(matrix, fragment, write, zero):
    """The list-join reference renderer: every row as a list of S cell
    texts, an absent cell as `zero`."""
    cells = {id(e): e for row in matrix.rows for e in row.values()}
    table = term_table(set(chain.from_iterable(
        e.terms for e in cells.values())), fragment)
    text = {key: write(e, table) for key, e in cells.items()}
    for row in matrix.rows:
        line = [zero] * matrix.size
        for j, e in row.items():
            line[j] = text[id(e)]
        yield line


def _list_join_text(matrix):
    def write(e, table):
        return terms_text(e.terms, sorted(e.terms, key=table.__getitem__),
                          table)

    lines = ["states: " + " ".join(matrix.labels)]
    for label, line in zip(matrix.labels,
                           _list_join_rows(matrix, factor_text, write, "0")):
        lines.append("%s: %s" % (label, " | ".join(line)))
    return "\n".join(lines)


def _list_join_structured(matrix):
    def write(e, table):
        terms = e.to_int_coeffs().terms
        return "[%s]" % ",".join([
            '{"coeff":%d' % terms[exp] + table[exp][1]
            for exp in sorted(terms, key=table.__getitem__)])

    rows = ["[" + ",".join(line) + "]" for line in _list_join_rows(
        matrix, _exponents_json, write, "[]")]
    return '{"entries":[%s],"labels":%s}\n' % (
        ",".join(rows), json.dumps(matrix.labels, separators=(",", ":")))


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


def test_slice_renderers_take_half_the_list_join_time():
    # binary m = 10: 2^20 cells, 2^11 of them stored; the best of 5
    # interleaved runs of each renderer, so a slow spell of the host
    # slows both sides alike
    matrix = wam(parse_conv_seed(shift_register_text(10)))
    for old, new in ((_list_join_text, str),
                     (_list_join_structured, matrix_to_structured)):
        best, out = {old: float("inf"), new: float("inf")}, {}
        for _ in range(5):
            for render in (old, new):
                start = time.perf_counter()
                out[render] = render(matrix)
                best[render] = min(best[render],
                                   time.perf_counter() - start)
        assert out[new] == out[old]
        assert best[new] <= 0.5 * best[old], (new.__name__, best)
