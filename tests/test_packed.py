"""Packed span enumeration against the per-edge oracles, and its budget.

Every enumerator built from packed span images (block hwgf/ipwgf, conv
wam/ipwam/iowam, quantum wam and state diagram) must equal a direct
enumeration that takes one vec_mat or conftest.conjugate per codeword
or edge.
"""

import time

import pytest

from conftest import (direct_conv_edges, direct_quantum_edges,
                      enumerate_codewords, field, pauli_single,
                      poly_from_counts,
                      random_conv_seed, random_eaqcc_spec, random_linear_code,
                      random_systematic_code, random_systematic_conv_seed,
                      seeded_rng, state_index)
from wamkit import errors, gflinalg, quantum
from wamkit.block import dual_code, hwgf, ipwgf
from wamkit.conv import (SystematicConvSeed, dual_systematic_seed, iowam,
                         ipwam, state_labels, wam)
from wamkit.errors import BudgetError, ShapeError
from wamkit.pauli import CliffordSeed
from wamkit.poly import IP_VARS
from wamkit.polymatrix import PolyMatrix
from wamkit.quantum import EaqccSpec, quantum_wam, state_diagram_edges

FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))


def _weight(v):
    return sum(1 for x in v if x)


def _split(word, groups):
    """(|g| - w, w) per coordinate group g of the word, flat."""
    out = ()
    for g in groups:
        w = _weight(word[j] for j in g)
        out += (len(g) - w, w)
    return out


def _from_cells(labels, names, cells):
    """The matrix whose cell (i, j) is poly_from_counts(names,
    cells[i, j]); cells missing from `cells` are zero."""
    rows = [{} for _ in labels]
    for (i, j), counts in cells.items():
        rows[i][j] = poly_from_counts(names, counts)
    return PolyMatrix(labels, rows)


def _direct_matrix(seed, names, key):
    cells = {}
    for i, j, u, p in direct_conv_edges(seed):
        counts = cells.setdefault((i, j), {})
        counts[key(u, p)] = counts.get(key(u, p), 0) + 1
    return _from_cells(state_labels(seed.spec, seed.m), names, cells)


def _check_conv(seed):
    n, k = seed.n, seed.k
    assert wam(seed) == _direct_matrix(
        seed, ("x", "y"), lambda u, p: _split(p, [range(n)]))
    assert iowam(seed) == _direct_matrix(
        seed, ("x_I", "y_I", "x_O", "y_O"),
        lambda u, p: _split(u, [range(k)]) + _split(p, [range(n)]))
    if isinstance(seed, SystematicConvSeed):
        groups = [seed.info_cols, seed.parity_cols]
        assert ipwam(seed) == _direct_matrix(
            seed, IP_VARS, lambda u, p: _split(p, groups))


def _direct_enumerator(code, names, groups):
    counts = {}
    for word in enumerate_codewords(code):
        key = _split(word, groups)
        counts[key] = counts.get(key, 0) + 1
    return poly_from_counts(names, counts)


def _check_block(code, info=None):
    """hwgf, and ipwgf on the information set `info` when one is given."""
    n = code.n
    assert hwgf(code) == _direct_enumerator(code, ("x", "y"), [range(n)])
    if info is not None:
        parity = [j for j in range(n) if j not in info]
        assert ipwgf(code, info_last=info[0] > 0) == _direct_enumerator(
            code, IP_VARS, [info, parity])


@pytest.mark.parametrize("p,r", FIELDS)
def test_conv_enumerators_match_per_edge_enumeration(p, r):
    rng = seeded_rng("packed-conv-%d-%d" % (p, r))
    spec = field(p, r)
    info_last_seeds = 0
    for m in range(3):
        for n in (1, 2, 3):
            k = rng.randint(1, n)
            if spec.q ** (m + k) > 2000:
                continue
            _check_conv(random_conv_seed(rng, spec, n, k, m))
            sys_seed = random_systematic_conv_seed(rng, spec, n, k, m)
            _check_conv(sys_seed)
            if k < n:
                try:
                    info_last = dual_systematic_seed(sys_seed)
                except ShapeError:
                    continue
                assert info_last.info_last
                _check_conv(info_last)
                info_last_seeds += 1
    assert info_last_seeds


@pytest.mark.parametrize("p,r", FIELDS)
def test_block_enumerators_match_codeword_enumeration(p, r):
    rng = seeded_rng("packed-block-%d-%d" % (p, r))
    spec = field(p, r)
    for n in (1, 2, 3, 5):
        for k in sorted({1, (n + 1) // 2, n}):
            if spec.q ** k > 5000:
                continue
            _check_block(random_linear_code(rng, spec, n, k))
            code = random_systematic_code(rng, spec, n, k)
            _check_block(code, list(range(k)))
            # (-A^T | I): systematic on the last n - k coordinates
            if k < n:
                _check_block(dual_code(code), list(range(k, n)))


@pytest.mark.parametrize("n,k,c,m", [
    (1, 1, 0, 0), (2, 1, 0, 1), (3, 1, 0, 2), (2, 0, 1, 1), (3, 1, 1, 1),
    (3, 0, 2, 1), (2, 2, 0, 2), (3, 1, 2, 1), (2, 1, 1, 3),
])
def test_quantum_enumerators_match_per_edge_conjugation(n, k, c, m):
    rng = seeded_rng("packed-quantum-%d-%d-%d-%d" % (n, k, c, m))
    for _ in range(3):
        spec = random_eaqcc_spec(rng, n, k, c, m)
        edges = direct_quantum_edges(spec)
        assert state_diagram_edges(spec) == [
            (mem.letters() or "-", out.letters() or "-",
             log.letters() or "-", phys.letters())
            for mem, log, phys, out in edges]
        cells = {}
        for mem, _log, phys, out in edges:
            counts = cells.setdefault(
                (state_index(mem), state_index(out)), {})
            key = (n - phys.weight(), phys.weight())
            counts[key] = counts.get(key, 0) + 1
        assert quantum_wam(spec) == _from_cells(
            quantum_wam(spec).labels, ("x", "y"), cells)


def _digit_list_images(spec, rows, width):
    """v . rows for every v in digit_vectors(q, len(rows)), summed as
    lists of element indices through the field tables, then packed."""
    b = gflinalg.field_bits(spec.q)
    out = []
    for v in gflinalg.digit_vectors(spec.q, len(rows)):
        acc = [0] * width
        for c, row in zip(v, rows):
            acc = [spec.add[x][spec.mul[c][y]] for x, y in zip(acc, row)]
        out.append(sum(x << (j * b) for j, x in enumerate(acc)))
    return out


@pytest.mark.parametrize("p, r", [(2, 1), (2, 2), (2, 3), (3, 1), (5, 1)])
def test_span_images_match_digit_lists(p, r):
    spec = field(p, r)
    rng = seeded_rng("span-images-%d-%d" % (p, r))
    for count, width in [(0, 0), (0, 3), (2, 0), (1, 1), (3, 4), (4, 2)]:
        rows = [[rng.randrange(spec.q) for _ in range(width)]
                for _ in range(count)]
        assert gflinalg.span_images(spec, rows) == _digit_list_images(
            spec, rows, width)


def test_binary_span_images_are_one_xor_each():
    # 2^15 images of 16 fields, as the inputs of a (16, 15, 0) seed: the
    # per-image packing over the field list took about 0.15 s
    rng = seeded_rng("span-images-2-15")
    rows = [[rng.randrange(2) for _ in range(16)] for _ in range(15)]
    start = time.perf_counter()
    images = gflinalg.span_images(field(2), rows)
    elapsed = time.perf_counter() - start
    assert len(images) == 2 ** 15
    assert elapsed < 0.05, "2^15 binary span images took %.3f s" % elapsed


def _refuse_tables(monkeypatch):
    def built(*_args):
        raise AssertionError("an image table was built before the budget "
                             "check")
    monkeypatch.setattr(gflinalg, "span_images", built)
    monkeypatch.setattr(quantum, "span_images", built)


def test_oversized_block_enumeration_fails_before_any_table(monkeypatch):
    spec = field(2)
    code = random_systematic_code(seeded_rng("budget-block"), spec, 24, 12)
    _refuse_tables(monkeypatch)
    monkeypatch.setattr(errors, "BUDGET", 2 ** 11)
    with pytest.raises(BudgetError):
        hwgf(code)
    with pytest.raises(BudgetError):
        ipwgf(code)


def test_oversized_state_diagram_fails_before_any_table(monkeypatch):
    # 4^12 edges > 2^22, k = n = 12 on the identity seed
    width = 12
    seed = CliffordSeed([pauli_single(width, i, "Z") for i in range(width)],
                        [pauli_single(width, i, "X") for i in range(width)])
    positions = list(range(1, width + 1))
    spec = EaqccSpec(seed, width, width, 0, 0, [], positions, [], [], [],
                     positions)
    _refuse_tables(monkeypatch)
    with pytest.raises(BudgetError):
        state_diagram_edges(spec)
    with pytest.raises(BudgetError):
        quantum_wam(spec)
    with pytest.raises(BudgetError):
        quantum.dual_wam(spec)


def test_binary_32_20_hwgf_time():
    code = random_linear_code(seeded_rng("hwgf-32-20"), field(2), 32, 20)
    start = time.perf_counter()
    poly = hwgf(code)
    elapsed = time.perf_counter() - start
    assert sum(poly.terms.values()) == 2 ** 20
    assert elapsed < 2.0, "binary [32, 20] hwgf took %.2f s" % elapsed


@pytest.mark.parametrize("p, r, n", [(2, 1, 62), (2, 2, 30), (3, 2, 15),
                                     (7, 1, 21)])
def test_conv_enumerators_of_words_wider_than_64_bits(p, r, n):
    # (n + k + m) b > 64: each edge's plane field is wider than 8 bytes
    spec = field(p, r)
    rng = seeded_rng("packed-conv-wide-%d-%d" % (p, r))
    b = gflinalg.field_bits(spec.q)
    for k, m in [(1, 2), (2, 1)]:
        assert (n + k + m) * b > 64
        _check_conv(random_conv_seed(rng, spec, n, k, m))
        _check_conv(random_systematic_conv_seed(rng, spec, n, k, m))
