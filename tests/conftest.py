import os
import random
import zlib
from collections import Counter
from itertools import chain, repeat

import pytest

from wamkit import gflinalg
from wamkit.block import LinearCode, SystematicCode
from wamkit.conv import (ConvSeed, SystematicConvSeed, iowam, state_labels,
                         state_vectors)
from wamkit.fields import FieldSpec
from wamkit.formats import (parse_block_code, parse_conv_seed,
                            parse_quantum_spec)
from wamkit.pauli import CliffordSeed, PauliWord, symplectic_product
from wamkit.poly import VARS, WeightPoly
from wamkit.polymatrix import PolyMatrix
from wamkit.quantum import EaqccSpec, binary_symplectic_matrix

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

_FIELD_CACHE = {}


def field(p, r=1):
    """FieldSpec with table reuse across tests (GF(4) etc. are cheap but
    there is no point rebuilding the tables hundreds of times)."""
    key = (p, r)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FieldSpec(p, r)
    return _FIELD_CACHE[key]


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def read_fixture(name):
    with open(fixture_path(name), "r", encoding="utf-8") as handle:
        return handle.read()


@pytest.fixture
def example1():
    return parse_conv_seed(read_fixture("example1.cc"))


@pytest.fixture
def example1_nonsys():
    return parse_conv_seed(read_fixture("example1-nonsys.cc"))


@pytest.fixture
def rep3():
    return parse_block_code(read_fixture("rep3.bc"))


@pytest.fixture
def u1():
    return parse_quantum_spec(read_fixture("u1.qcc"))


@pytest.fixture
def u2_ea():
    return parse_quantum_spec(read_fixture("u2-ea.qcc"))


@pytest.fixture
def u2_qcc():
    return parse_quantum_spec(read_fixture("u2-qcc.qcc"))


# --- matrix builders for frozen expected values ---

def poly_of(text):
    """Tiny monomial-sum parser for expected values: '1 + yI*yP' etc.

    Understands products of variable names (x, y, xI, yI, xP, yP, xO, yO)
    with ^ powers and integer coefficients; '0' is the zero polynomial.
    """
    alias = {"xI": "x_I", "yI": "y_I", "xP": "x_P", "yP": "y_P",
             "xO": "x_O", "yO": "y_O", "x": "x", "y": "y", "D": "D"}
    acc = WeightPoly.zero()
    for chunk in text.split("+"):
        chunk = chunk.strip()
        term = WeightPoly.const(1)
        for factor in chunk.split("*"):
            factor = factor.strip()
            if factor.isdigit():
                term = term * int(factor)
                continue
            if "^" in factor:
                name, power = factor.split("^")
                term = term * WeightPoly.var(alias[name]) ** int(power)
            else:
                term = term * WeightPoly.var(alias[factor])
        if chunk != "0":
            acc = acc + term
    return acc


def matrix_of(labels, rows):
    return PolyMatrix(labels, [{j: poly_of(cell) for j, cell in enumerate(row)}
                               for row in rows])


# --- dense matrix algebra for oracles, apart from the sparse code ---

def vec_mat(spec, v, a):
    """The row vector v times the matrix a over GF(q)."""
    return gflinalg.mat_mul(spec, [list(v)], a)[0]


def identity_matrix(labels):
    return PolyMatrix(labels, [{i: WeightPoly.const(1)}
                               for i in range(len(labels))])


def _cells(m):
    """Every cell of m, zero cells included, as a list of rows."""
    return [[m[i, j] for j in range(m.size)] for i in range(m.size)]


def _of_cells(labels, cells):
    return PolyMatrix(labels, [dict(enumerate(row)) for row in cells])


def matrix_sum(a, b, factor=1):
    """a + factor * b, cell by cell, factor an int or a WeightPoly."""
    assert a.labels == b.labels
    return _of_cells(a.labels, [[u + factor * v for u, v in zip(ra, rb)]
                                for ra, rb in zip(_cells(a), _cells(b))])


def matrix_product(a, b):
    """a b by the schoolbook sum over every cell."""
    assert a.labels == b.labels
    ca, cb = _cells(a), _cells(b)
    return _of_cells(a.labels, [
        [sum((u * cb[t][j] for t, u in enumerate(row) if u),
             WeightPoly.zero()) for j in range(a.size)] for row in ca])


def poly_from_counts(names, counts):
    """sum c * prod names[i]^e[i] over the items (e, c) of `counts`; each
    exponent tuple e is aligned with the variable names."""
    slots = [VARS.index(name) for name in names]
    terms = {}
    for exps, c in counts.items():
        e = [0] * len(VARS)
        for i, k in zip(slots, exps):
            e[i] = k
        terms[tuple(e)] = c
    return WeightPoly(terms)


def enumerate_codewords(code):
    """Every codeword of a block code, one vec_mat per message, messages
    in index order; the [n, 0] code has the zero word only."""
    if not code.k:
        yield [0] * code.n
        return
    for msg in gflinalg.digit_vectors(code.spec.q, code.k):
        yield vec_mat(code.spec, msg, code.generator)


# --- the per-word weight count that gflinalg.weight_codes replaced, kept
# as a reference for its results and its speed ---

def group_weights(q, words, groups):
    """One iterator per coordinate group over the Hamming weights of the
    packed words of the list `words` on that group: the bit counts of
    each word's fields ORed into their low bits (once per call) under
    the group's mask.  Runs as pipelines of builtins over the list."""
    b = gflinalg.field_bits(q)
    folded = words
    for s in range(1, b):
        folded = list(map(int.__or__, folded, map(int.__rshift__, words,
                                                  repeat(s))))
    return [map(int.bit_count, map(sum(1 << (j * b) for j in g).__and__,
                                   folded)) for g in groups]


def per_word_enumerator(code, names, groups):
    """The enumerator of a block code by its Hamming weights on each
    coordinate group, counted by weight tuple in one Counter over
    group_weights of the words lo XOR hi, one lo image at a time."""
    spec, half = code.spec, code.k // 2
    lo = gflinalg.span_images(spec, code.generator[:half])
    hi = gflinalg.span_images(spec, code.generator[half:])
    counts = Counter(chain.from_iterable(
        zip(*group_weights(spec.q, list(map(a.__xor__, hi)), groups))
        for a in lo))
    return poly_from_counts(names, {
        tuple(chain.from_iterable((len(g) - w, w)
                                  for g, w in zip(groups, ws))): c
        for ws, c in counts.items()})


def shift_register_text(m):
    """.cc text of a binary (2, 1, m) shift register: 2^m states but only
    2^(m+1) edges."""
    rows = ["%d 1 " % (i % 2) + " ".join("1" if j == i + 1 else "0"
                                         for j in range(m))
            for i in range(m)]
    rows.append("1 1 1" + " 0" * (m - 1))
    return "q 2 1\nn 2\nk 1\nm %d\nT\n" % m + "\n".join(rows) + "\n"


# --- randomized generators for the property suites ---

def random_linear_code(rng, spec, n, k):
    while True:
        gen = [[rng.randrange(spec.q) for _ in range(n)] for _ in range(k)]
        if gflinalg.rank(spec, gen) == k:
            return LinearCode(spec, gen)


def random_systematic_code(rng, spec, n, k):
    gen = [[1 if i == j else 0 for j in range(k)]
           + [rng.randrange(spec.q) for _ in range(n - k)]
           for i in range(k)]
    return SystematicCode(spec, gen)


def random_conv_seed(rng, spec, n, k, m):
    """Random seed with full-rank lower block, so G~ has rank m+k."""
    upper = [[rng.randrange(spec.q) for _ in range(n + m)] for _ in range(m)]
    while True:
        lower = [[rng.randrange(spec.q) for _ in range(n + m)]
                 for _ in range(k)]
        if gflinalg.rank(spec, lower) == k:
            return ConvSeed(spec, n, k, m, upper + lower)


def random_systematic_conv_seed(rng, spec, n, k, m):
    upper = [[0] * k + [rng.randrange(spec.q) for _ in range(n - k + m)]
             for _ in range(m)]
    lower = [[1 if i == j else 0 for j in range(k)]
             + [rng.randrange(spec.q) for _ in range(n - k + m)]
             for i in range(k)]
    return SystematicConvSeed(spec, n, k, m, upper + lower)


# --- Pauli words and their images under a seed, built one generator at a
# time: the package reads a seed's stored images directly ---

def pauli_identity(n):
    """The identity word on n qubits."""
    return PauliWord(((0, 0),) * n)


def pauli_single(n, pos, letter):
    """`letter` on qubit `pos` (0-based), identity elsewhere."""
    pairs = [(0, 0)] * n
    pairs[pos] = PauliWord.from_str(letter).pairs[0]
    return PauliWord(pairs)


def conjugate(seed, word):
    """U P U^dagger for a phase-free input word P: the product of the
    seed's images of the Z and X generators that P holds."""
    assert len(word) == seed.width
    out = pauli_identity(seed.width)
    for i, (z, x) in enumerate(word.pairs):
        if z:
            out = out * seed.z_img[i]
        if x:
            out = out * seed.x_img[i]
    return out


def conjugated_symplectic_rows(spec):
    """binary_symplectic_matrix(spec) by conjugating each single-qubit Z
    and X generator of the input roles in turn, reading the bit pairs of
    the physical, then output-memory qubits of its image."""
    seed = spec.seed
    outputs = [p - 1 for p in spec.i_p + spec.i_mout]
    rows = []
    for pos in spec.i_m + spec.i_l + spec.i_a + spec.i_e:
        for kind in "ZX":
            img = conjugate(seed, pauli_single(seed.width, pos - 1, kind))
            rows.append([bit for p in outputs for bit in img.pairs[p]])
    return rows


def random_clifford_seed(width, rng=None, transvections=None):
    """A random Clifford seed built from symplectic transvections.

    Each transvection T_h maps v to v * h^<v,h>; a product of 20-50 of
    them applied to the identity tableau is symplectic by construction.
    """
    rng = rng or random.Random()
    if transvections is None:
        transvections = rng.randint(20, 50)
    z_img = [pauli_single(width, i, "Z") for i in range(width)]
    x_img = [pauli_single(width, i, "X") for i in range(width)]
    for _ in range(transvections):
        h = PauliWord(tuple((rng.randint(0, 1), rng.randint(0, 1))
                            for _ in range(width)))
        if not h:
            continue
        z_img = [v * h if symplectic_product(v, h) else v for v in z_img]
        x_img = [v * h if symplectic_product(v, h) else v for v in x_img]
    return CliffordSeed(z_img, x_img)


def random_eaqcc_spec(rng, n, k, c, m):
    """Random Clifford seed plus shuffled role assignments."""
    width = n + m
    seed = random_clifford_seed(width, rng)
    positions = list(range(1, width + 1))
    rng.shuffle(positions)
    a = n - k - c
    i_m = positions[:m]
    i_l = positions[m:m + k]
    i_a = positions[m + k:m + k + a]
    i_e = positions[m + k + a:]
    outputs = list(range(1, width + 1))
    rng.shuffle(outputs)
    return EaqccSpec(seed, n, k, c, m, i_m, i_l, i_a, i_e,
                     outputs[:m], outputs[m:])


def seeded_rng(salt):
    # str hashes are randomized per process; crc32 keeps runs reproducible
    return random.Random(0xC0DE ^ zlib.crc32(salt.encode()))


# --- brute-force oracles shared between suites ---

def direct_conv_edges(seed):
    """(state_in, state_out, input, output) of every transition, from the
    defining map (w : u) T = (p : w') by one vec_mat per edge; states
    outer, inputs inner, each in state_vectors order."""
    spec = seed.spec
    states = state_vectors(spec, seed.m)
    index = {v: i for i, v in enumerate(states)}
    edges = []
    for w in states:
        for u in state_vectors(spec, seed.k):
            word = vec_mat(spec, list(w) + list(u), seed.t_matrix)
            edges.append((index[w], index[tuple(word[seed.n:])], u,
                          word[:seed.n]))
    return edges


# --- the IOWAM of a systematic seed assembled with feedback ---

def assemble_encoder(seed, f_matrix):
    """The nonsystematic seed (I_m | F | C0 + F E0 | A + F B; 0 | I_k |
    E0 | B) that a standard-form systematic seed, (C; E) = (0 C0; I_k E0),
    gives with the m x k feedback matrix F and L = I_k.  ConvSeed raises
    ShapeError when its constraint code is rank deficient."""
    assert isinstance(seed, SystematicConvSeed) and not seed.info_last
    spec, k = seed.spec, seed.k
    assert len(f_matrix) == seed.m and all(len(r) == k for r in f_matrix)
    c0, e0 = ([[row[j] for j in seed.parity_cols] for row in block]
              for block in (seed.c_block, seed.e_block))
    fe0 = gflinalg.mat_mul(spec, f_matrix, e0)
    fb = gflinalg.mat_mul(spec, f_matrix, seed.b_block)
    c_new = [list(fr) + [spec.add[x][y] for x, y in zip(cr, fer)]
             for fr, cr, fer in zip(f_matrix, c0, fe0)]
    a_new = gflinalg.mat_add(spec, seed.a_block, fb)
    e_new = [list(ir) + list(er) for ir, er in zip(gflinalg.identity(k), e0)]
    return ConvSeed(spec, seed.n, k, seed.m,
                    [cr + ar for cr, ar in zip(c_new, a_new)]
                    + [er + br for er, br in zip(e_new, seed.b_block)])


def factorized_iowam(seed, f_matrix):
    """The IOWAM of assemble_encoder(seed, f_matrix) by factorization:
    entry (w, w') is the systematic seed's input enumerator at
    (w, w' - w F B) times its output enumerator at (w, w').  It holds
    when every entry of the assembled encoder's IOWAM is a monomial."""
    spec, m = seed.spec, seed.m
    delta_s = iowam(seed)
    input_part = delta_s.collapse({"x_O": 1, "y_O": 1})
    lam_out = delta_s.collapse({"x_I": 1, "y_I": 1})
    fb = gflinalg.mat_mul(spec, f_matrix, seed.b_block)
    states = state_vectors(spec, m)
    index = {v: i for i, v in enumerate(states)}
    rows = []
    for i, (w, row) in enumerate(zip(states, lam_out.rows)):
        shift = vec_mat(spec, w, fb) if m else []
        cells = {}
        for j, e in row.items():
            tgt = tuple(spec.sub(a, b) for a, b in zip(states[j], shift))
            cells[j] = input_part[i, index[tgt]] * e
        rows.append(cells)
    return PolyMatrix(state_labels(spec, m), rows)


# (z, x) bits of I, X, Y, Z, the state letters in canonical order
_PAULI_BITS = ((0, 0), (0, 1), (1, 1), (1, 0))


def pauli_state_words(m):
    """All of {I,X,Y,Z}^m in canonical order, first qubit fastest, as
    PauliWords built from their bit pairs."""
    return [PauliWord(_PAULI_BITS[t] for t in digits)
            for digits in gflinalg.digit_vectors(4, m)]


def state_index(word):
    """The index of a Pauli word in pauli_state_words order."""
    return sum(_PAULI_BITS.index(pair) * 4 ** t
               for t, pair in enumerate(word.pairs))


def restrict(word, positions):
    """The Pauli word on the qubits `positions` of `word`, in that order."""
    return PauliWord(word.pairs[i] for i in positions)


def constraint_stabilizers(spec):
    """Generators of the constraint code's stabilizer group, as words on
    m + n + m qubits ordered (memory in : physical : memory out).

    Memory and entangled inputs contribute a Z-type and an X-type
    generator each; ancilla inputs contribute the Z-type one only.  The
    (physical : memory out) part of each is its row of
    binary_symplectic_matrix.
    """
    rows = binary_symplectic_matrix(spec)
    anc = 2 * (spec.m + spec.k)
    ent = anc + 2 * spec.a
    heads = ([pauli_single(spec.m, t, kind)
              for t in range(spec.m) for kind in "ZX"]
             + [pauli_identity(spec.m)] * (2 * spec.c + spec.a))
    return [PauliWord(head.pairs + tuple(zip(row[::2], row[1::2])))
            for head, row in zip(heads, rows[:2 * spec.m] + rows[ent:]
                                 + rows[anc:ent:2])]


def direct_quantum_edges(spec):
    """(memory, logical, physical, output memory) Pauli words of every
    edge, the image of M (x) L (x) S^Z by one conjugate per edge; memory,
    then logical, then ancilla words, first qubit fastest."""
    seed = spec.seed
    p_pos = [p - 1 for p in spec.i_p]
    mo_pos = [p - 1 for p in spec.i_mout]
    edges = []
    for mem in pauli_state_words(spec.m):
        for log in pauli_state_words(spec.k):
            for anc in range(2 ** spec.a):
                pairs = [(0, 0)] * seed.width
                for t, pos in enumerate(spec.i_m):
                    pairs[pos - 1] = mem.pairs[t]
                for t, pos in enumerate(spec.i_l):
                    pairs[pos - 1] = log.pairs[t]
                for t, pos in enumerate(spec.i_a):
                    pairs[pos - 1] = ((anc >> t) & 1, 0)
                img = conjugate(seed, PauliWord(pairs))
                edges.append((mem, log, restrict(img, p_pos),
                              restrict(img, mo_pos)))
    return edges


def span_words(spec, basis):
    """Every word in the row span of `basis`, by exhaustive combination."""
    if not basis:
        yield [0] * 0
        return
    width = len(basis[0])
    dim = len(basis)
    for combo in state_vectors(spec, dim):
        word = [0] * width
        for coeff, row in zip(combo, basis):
            if coeff:
                word = [spec.add[w][spec.mul[coeff][x]]
                        for w, x in zip(word, row)]
        yield word


def dual_constraint_words(seed):
    """All words of the dual constraint code of a conv seed.

    A word (w : p : w') is in the dual constraint code iff
    (w : p : -w') is orthogonal to every row of G~, so the basis is the
    nullspace of G~ with the trailing memory block negated.
    """
    spec = seed.spec
    cut = seed.m + seed.n
    basis = gflinalg.nullspace(spec, seed.gen_matrix())
    twisted = [row[:cut] + [spec.neg[x] for x in row[cut:]] for row in basis]
    return span_words(spec, twisted)


def brute_force_dual_wam(seed):
    """Dual WAM by direct enumeration, independent of the transform and
    of any dual seed in block shape."""
    spec = seed.spec
    m, n = seed.m, seed.n
    states = state_vectors(spec, m)
    index = {v: i for i, v in enumerate(states)}
    x, y = WeightPoly.var("x"), WeightPoly.var("y")
    rows = [{} for _ in states]
    for word in dual_constraint_words(seed):
        w, p, w2 = word[:m], word[m:m + n], word[m + n:]
        wt = sum(1 for s in p if s)
        i, j = index[tuple(w)], index[tuple(w2)]
        rows[i][j] = rows[i].get(j, 0) + x ** (n - wt) * y ** wt
    return PolyMatrix(state_labels(spec, m), rows)


def constraint_dual_wam(seed, pairs=(("x", "y"),), groups=None):
    """Dual WAM from the relations that define the dual constraint code,
    needing no dual seed and no nullspace: cell (a, b) sums
    x^(n - wt v) y^(wt v) over the v in F^n with v E^T = b B^T and
    a = b A^T - v C^T.  With (x, y) `pairs` and coordinate `groups` the
    weight of v on groups[t] is counted by the mirror pair pairs[-1 - t],
    as the MacWilliams transform trades the input and parity roles."""
    spec, n, m = seed.spec, seed.n, seed.m
    groups = groups or [range(n)]

    def dot(u, v):
        acc = 0
        for s, t in zip(u, v):
            acc = spec.add[acc][spec.mul[s][t]]
        return acc

    states = state_vectors(spec, m)
    index = {v: i for i, v in enumerate(states)}
    words = state_vectors(spec, n)
    rows = [{} for _ in states]
    for j, b in enumerate(states):
        b_b = [dot(b, row) for row in seed.b_block]
        b_a = [dot(b, row) for row in seed.a_block]
        for v in words:
            if [dot(v, row) for row in seed.e_block] != b_b:
                continue
            a = tuple(spec.sub(s, dot(v, row))
                      for s, row in zip(b_a, seed.c_block))
            mono = WeightPoly.const(1)
            for (x, y), g in zip(reversed(pairs), groups):
                wt = sum(1 for c in g if v[c])
                mono = (mono * WeightPoly.var(x) ** (len(g) - wt)
                        * WeightPoly.var(y) ** wt)
            i = index[a]
            rows[i][j] = rows[i].get(j, 0) + mono
    return PolyMatrix(state_labels(spec, m), rows)
