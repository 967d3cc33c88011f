"""Classical convolutional codes via memory/transition seeds.

A seed is the matrix T = (C A; E B) over GF(q): a time step takes the
current memory state w (length m) and an input block u (length k) to
the output block p = w C + u E (length n) and next state w' = w A + u B.
The associated constraint code C_(j) on (w_j : p_j : w_j+1) has
generator

    G~ = ( I_m | C  A )
         (  0  | E  B )

State labels enumerate GF(q)^m with the first coordinate varying
fastest, written as strings of element indices.
"""

from itertools import chain, islice, repeat
from operator import getitem, mul

from . import errors, gflinalg
from .errors import ShapeError, check_budget
from .poly import IP_PAIRS, IP_VARS, WeightPoly
from .polymatrix import (_CHUNK, PolyMatrix, _transform_points,
                         code_exponents, counted_series, edge_rows,
                         macwilliams, series_entry, series_width, weight_axis)


def state_vectors(spec, m):
    """All of GF(q)^m in canonical order: first coordinate fastest."""
    return list(gflinalg.digit_vectors(spec.q, m))


def state_labels(spec, m):
    return gflinalg.digit_strings([str(x) for x in range(spec.q)], m)


class ConvSeed:
    """A convolutional encoder seed T = (C A; E B) over GF(q)."""

    def __init__(self, spec, n, k, m, t_matrix):
        if k > n:
            raise ShapeError("a seed needs k <= n")
        self.spec = spec
        self.n, self.k, self.m = n, k, m
        t_matrix = [list(row) for row in t_matrix]
        if len(t_matrix) != m + k or any(len(r) != n + m for r in t_matrix):
            raise ShapeError("T must be (m+k) x (n+m)")
        self.t_matrix = t_matrix
        if gflinalg.rank(spec, self.gen_matrix()) != m + k:
            raise ShapeError("constraint-code generator is rank deficient")

    @property
    def c_block(self):
        return [row[:self.n] for row in self.t_matrix[:self.m]]

    @property
    def a_block(self):
        return [row[self.n:] for row in self.t_matrix[:self.m]]

    @property
    def e_block(self):
        return [row[:self.n] for row in self.t_matrix[self.m:]]

    @property
    def b_block(self):
        return [row[self.n:] for row in self.t_matrix[self.m:]]

    def gen_matrix(self):
        """Generator of the constraint code on m + n + m coordinates."""
        rows = []
        for i in range(self.m):
            e_i = [0] * self.m
            e_i[i] = 1
            rows.append(e_i + self.t_matrix[i])
        for i in range(self.k):
            rows.append([0] * self.m + self.t_matrix[self.m + i])
        return rows


class SystematicConvSeed(ConvSeed):
    """A seed whose output carries the input verbatim on k positions.

    Standard shape: the information positions are the first k output
    coordinates, i.e. (C; E) = (0 C0; I_k E0).  With `info_last` the
    identity block sits on the last k output coordinates instead, the
    shape a dual seed naturally arrives in.
    """

    def __init__(self, spec, n, k, m, t_matrix, info_last=False):
        if k > n:
            raise ShapeError("a systematic seed needs k <= n")
        super().__init__(spec, n, k, m, t_matrix)
        self.info_last = info_last
        if info_last:
            self.info_cols = list(range(n - k, n))
        else:
            self.info_cols = list(range(k))
        self.parity_cols = [j for j in range(n) if j not in self.info_cols]
        if any(row[j] for row in self.c_block for j in self.info_cols):
            raise ShapeError("C is nonzero on the information columns")
        if not gflinalg.is_identity_on(self.e_block, self.info_cols):
            raise ShapeError("E is not the identity on the information "
                             "columns")


def _edge_matrix(seed, names, groups):
    """The matrix whose (w, w') entry counts the transitions w -> w' by
    their Hamming weights on each coordinate group of (p : u), p the
    output and u the input: polymatrix.edge_rows over section_edges,
    whose rows the matrix holds as they are."""
    spec, m = seed.spec, seed.m
    states, edges = section_edges(spec, spec.q, seed.t_matrix[:m],
                                  seed.t_matrix[m:], seed.n, groups)
    return PolyMatrix.from_nonzero_rows(
        state_labels(spec, m), edge_rows(names, groups, states, edges))


def section_edges(field, q, state_rows, input_rows, n, groups):
    """(the state count, the stream of the (source, next state, weight
    code) tuples of every edge, for edge_rows) of the section with state
    rows (C : A) and input rows (E : B) over `field` and n output
    columns, once its edges are charged.  The code is that of the
    Hamming weights of (p : u) in GF(q) letters on the groups
    (gflinalg.weight_codes), p the output and u the input.

    The transition of state w on input -u is (w C : 0 : w A) minus
    (u E : u : u B), a state and an input packed span image, and its
    nonzero letters are the nonzero fields of their XOR (u and -u run
    over the same inputs and have the same weight).  Each source s
    yields its edges with every input in turn.  Over GF(2^r) the XOR is
    the difference, so its top bits are the next state's index, read
    from the planes of the codes; for odd p the next state's digits are
    subtracted through the field table.
    """
    m, k, b = len(state_rows), len(input_rows), gflinalg.field_bits(field.q)
    check_budget("WAM", field.q ** (m + k))
    # the u columns only when a group weighs them: wider words cost planes
    ins = k if any(j >= n for g in groups for j in g) else 0
    lo = gflinalg.span_images(field, [row[:n] + [0] * ins + row[n:]
                                      for row in state_rows])
    hi = gflinalg.span_images(field, [
        row[:n] + e[:ins] + row[n:]
        for row, e in zip(input_rows, gflinalg.identity(k))])
    shift = (n + ins) * b
    sources = chain.from_iterable(map(repeat, range(len(lo)),
                                      repeat(len(hi))))
    if field.p == 2:
        return len(lo), chain.from_iterable(
            zip(islice(sources, len(codes)), tops, codes)
            for codes, tops in gflinalg.weight_codes(q, lo, hi, groups,
                                                     shift))
    # digit t of the next state is (wA)_t - (uB)_t, and a state keeps its
    # rows diff[t][wA_t]
    diff = _digit_tables([[field.sub(x, y) for y in range(field.q)]
                          for x in range(field.q)], m)
    digits = [_digits(v, shift, m, b) for v in hi]
    nexts = (sum(map(getitem, diffs, d))
             for diffs in (list(map(getitem, diff, _digits(a, shift, m, b)))
                           for a in lo)
             for d in digits)
    return len(lo), zip(sources, nexts, chain.from_iterable(
        codes for codes, _ in gflinalg.weight_codes(q, lo, hi, groups)))


def _digits(v, shift, count, b):
    """Fields shift/b .. shift/b + count - 1 of the packed vector v."""
    return [v >> (shift + t * b) & (1 << b) - 1 for t in range(count)]


def _digit_tables(table, m):
    """[t][x][y] = table[x][y] q^t for the m state coordinates t, table a
    q x q table of GF(q) indices: the state whose digit t is
    table[x_t][y_t] has the index that sums [t][x_t][y_t] over t."""
    q = len(table)
    return [[[c * q ** t for c in row] for row in table] for t in range(m)]


def wam(seed):
    """Weight adjacency matrix with homogeneous x/y entries."""
    return _edge_matrix(seed, ("x", "y"), [range(seed.n)])


def ipwam(seed):
    """Input-parity WAM of a systematic seed."""
    return _edge_matrix(seed, IP_VARS, _ip_groups(seed))


def _ip_groups(seed):
    if not isinstance(seed, SystematicConvSeed):
        raise ShapeError("input-parity split needs a systematic seed")
    return [seed.info_cols, seed.parity_cols]


def iowam(seed):
    """Input-output WAM: tracks input weight and output weight."""
    n, k = seed.n, seed.k
    return _edge_matrix(seed, ("x_I", "y_I", "x_O", "y_O"),
                        [range(n, n + k), range(n)])


# --- duality ---

def _twist(spec, rows, cut):
    """rows . diag(I, -I): every entry from column `cut` on negated."""
    return [row[:cut] + [spec.neg[x] for x in row[cut:]] for row in rows]


def dual_seed(seed):
    """Seed of the dual constraint code.

    The dual constraint code consists of the words v with
    v . diag(I_m, I_n, -I_m) orthogonal to every row of G~.  Its basis
    is brought to the same (I_m | C' A'; 0 | E' B') block shape; when
    the first m coordinates cannot carry pivots this shape does not
    exist and a ShapeError reports the obstruction rather than silently
    permuting coordinates.
    """
    spec = seed.spec
    m, n, k = seed.m, seed.n, seed.k
    # with m = k = 0 the generator has no rows, and every word is dual
    basis = (gflinalg.nullspace(spec, seed.gen_matrix()) if m + k
             else gflinalg.identity(n))
    # undo the sign twist on the trailing memory block
    red, pivots = gflinalg.rref(spec, _twist(spec, basis, m + n))
    if pivots[:m] != list(range(m)):
        raise ShapeError("dual basis has no pivots on the memory block; "
                         "no seed of the required block shape exists")
    t_rows = [row[m:] for row in red]
    return ConvSeed(spec, n, n - k, m, t_rows)


def dual_systematic_seed(seed):
    """Dual seed in systematic form, information on the last n-k outputs."""
    if not isinstance(seed, SystematicConvSeed) or seed.info_last:
        raise ShapeError("expected a standard-form systematic seed")
    spec = seed.spec
    dual = dual_seed(seed)
    m, n, kd = dual.m, dual.n, dual.k
    # columns in the order memory block, last n-k outputs, the rest: the
    # rref is (I_m 0; 0 I_kd) on the first m + n-k of them exactly when a
    # systematic form exists
    info = range(m + n - kd, m + n)
    order = [*range(m), *info,
             *(c for c in range(m, 2 * m + n) if c not in info)]
    red, pivots = gflinalg.rref(spec, [[row[c] for c in order]
                                       for row in dual.gen_matrix()])
    if pivots != list(range(m + kd)):
        raise ShapeError("dual seed admits no systematic form on the "
                         "trailing information columns")
    # place[c] is the position of column c in `order`
    place = sorted(range(2 * m + n), key=order.__getitem__)
    t_rows = [[row[t] for t in place[m:]] for row in red]
    return SystematicConvSeed(spec, n, kd, m, t_rows, info_last=True)


def orthogonality_check(seed, dual):
    """Verify the four block relations and G(D) H(1/D)^T = 0.

    Returns (ok, diagnostics): diagnostics is a list of strings, one per
    failed relation.  A dimension mismatch short circuits with its own
    diagnostic instead of raising.

    The block relations are the four blocks of G~ diag(I_m, I_n, -I_m)
    G~'^T, the product of the constraint generators that dual_seed
    makes vanish.  For feedback encoders the impulse responses are
    infinite, so the product identity is checked with denominators
    cleared: det(I - D A) G(D) and det(I - D A') H(D) are the cleared
    responses of the two seeds, polynomial matrices of degree <= m, and
    their gflinalg.pairing must be identically zero.
    """
    spec, m, n = seed.spec, seed.m, seed.n
    if (seed.spec != dual.spec or seed.n != dual.n or seed.m != dual.m
            or dual.k != seed.n - seed.k):
        return False, ["dimension mismatch: dual of an (n=%d, k=%d, m=%d) "
                       "seed must be (n=%d, k=%d, m=%d)"
                       % (seed.n, seed.k, seed.m,
                          seed.n, seed.n - seed.k, seed.m)]
    prod = gflinalg.mat_mul(spec, seed.gen_matrix(), gflinalg.transpose(
        _twist(spec, dual.gen_matrix(), m + n)))
    top, bottom = prod[:m], prod[m:]
    diags = [relation + " != 0" for rows, cols, relation in (
        (top, slice(m), "I + C C'^T - A A'^T"),
        (bottom, slice(m, None), "E E'^T - B B'^T"),
        (top, slice(m, None), "C E'^T - A B'^T"),
        (bottom, slice(m), "E C'^T - B A'^T"))
        if any(any(row[cols]) for row in rows)]
    g, h = (gflinalg.cleared_response(spec, s.e_block, s.b_block, s.a_block,
                                      s.c_block) for s in (seed, dual))
    if not all(gflinalg.is_zero(x) for x in gflinalg.pairing(spec, g, h)):
        diags.append("G(D) H(1/D)^T is not identically zero")
    return not diags, diags


class PolyGenMatrix:
    """k x n polynomial generator matrix, held as its coefficient
    matrices over GF(q), degree 0 first."""

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def entry_str(self, i, j):
        parts = []
        for d, mat in enumerate(self.coeffs):
            c = mat[i][j]
            if not c:
                continue
            if d == 0:
                parts.append(str(c))
            else:
                dd = "D" if d == 1 else "D^%d" % d
                parts.append(dd if c == 1 else "%d*%s" % (c, dd))
        return " + ".join(parts) or "0"

    def __str__(self):
        head = self.coeffs[0]
        return "\n".join("( " + " , ".join(self.entry_str(i, j)
                                           for j in range(len(row))) + " )"
                         for i, row in enumerate(head))


def poly_generator(seed, d_max=10):
    """Truncated expansion of G(D) = E + sum_i B A^(i-1) C D^i."""
    return PolyGenMatrix(gflinalg.impulse_response(
        seed.spec, seed.e_block, seed.b_block, seed.a_block, seed.c_block,
        d_max))


# --- MacWilliams transforms ---

def fourier_matrix(spec):
    """Kernel of the q^m x q^m character matrix F[a][b] = w^tr(a . b),
    w a primitive p-th root of unity.

    F is the m-fold Kronecker power of the q x q table w^tr(ab), and
    PolyMatrix.conjugate_by(table, spec.p) and section_dual's stages, a
    quantum spec's over GF(2), apply it one coordinate at a time, so
    only the exponent table tr(ab) in range(p) is built; it is the same
    for every m.  quantum.F1 serves the quantum state grid only.
    """
    return [[spec.trace[spec.mul[a][b]] for b in range(spec.q)]
            for a in range(spec.q)]


def macwilliams_wam(lam, spec):
    """Dual WAM: F Lam(x + (q-1)y, x - y) F^dagger / (q^(m+k) edges)."""
    return macwilliams(lam, spec.q, (("x", "y"),),
                       (fourier_matrix(spec), spec.p))


def macwilliams_ipwam(lam, spec):
    """Dual input-parity WAM; swaps the I and P roles under transform."""
    return macwilliams(lam, spec.q, IP_PAIRS, (fourier_matrix(spec), spec.p))


def dual_wam(seed):
    """macwilliams_wam(wam(seed), seed.spec), from the seed's edges."""
    return _dual_edge_matrix(seed, ("x", "y"), [range(seed.n)])


def dual_ipwam(seed):
    """macwilliams_ipwam(ipwam(seed), seed.spec), from the seed's edges."""
    return _dual_edge_matrix(seed, IP_VARS, _ip_groups(seed))


def _dual_edge_matrix(seed, names, groups):
    """The MacWilliams transform of _edge_matrix(seed, names, groups),
    section_dual charged by _dual_charge."""
    spec, m = seed.spec, seed.m
    _dual_charge(seed)
    return PolyMatrix.from_nonzero_rows(state_labels(spec, m), section_dual(
        spec, spec.q, seed.t_matrix[:m], seed.t_matrix[m:], seed.n, names,
        groups))


def section_dual(field, q, state_rows, input_rows, n, names, groups):
    """The rows of the MacWilliams transform of the section_edges matrix
    over `names`, read from the character transform of the edges instead
    of the S x S state grid, charged by the caller.  No row stores a zero
    cell.

    Cell (a, b) of F Lam~ F^dagger sums g(w, u) w^tr(w.a - (wA + uB).b)
    over the edges (w, u), g(w, u) the weight substitution's image of
    the edge's monomial, so it is G^(a - b A^T, -b B^T): G^ is the
    character transform of g over the field's m + k coordinates.  In
    the input basis of the rref of (E : B) on B, u = (u1, u2) with
    u B = u1 B1, u1 of r = rank B coordinates, so G^ sums g over u2 on
    the points (w, u1), one fourier_matrix stage a coordinate.  The
    edges are the XORs of the output images wC and uE, each the edge
    (w, -u), so their transform at (alpha, beta) is G^(alpha, -beta),
    and cell (alpha + b A^T, b) reads point (alpha, b B1^T).

    Edge (s, t) counts at point (s, t mod q^r), field beta S + s: inputs
    that agree mod q^r differ by one that leaves the state alone.  Each
    weight code's counts are one key of _transform_points, and each
    distinct point polynomial takes weight_axis's tail, over the edge
    count.
    """
    m, b, p = len(state_rows), gflinalg.field_bits(field.q), field.p
    inputs, pivots = gflinalg.rref(field, input_rows, n)
    r = len(pivots)
    lo = gflinalg.span_images(field, [row[:n] for row in state_rows])
    hi = gflinalg.span_images(field, [row[:n] for row in inputs])
    states, edges, layer = len(lo), len(lo) * len(hi), field.q ** r
    w = dual_key_bytes(edges, q, p)[0]
    # chunks of `span` inputs, a power of p, about _CHUNK edges: edge
    # (s, t) is field (t - first) S + s of its chunk.  A chunk of whole
    # layers sums them; a shorter one is a run inside one layer, whose
    # points are the fields from (first % layer) S on
    span = 1
    while span < len(hi) and span * p * states <= _CHUNK:
        span *= p
    counts = {}
    for first in range(0, len(hi), span):
        # the inputs are the outer images, so the codes come hi-major
        codes = list(chain.from_iterable(c for c, _ in gflinalg.weight_codes(
            q, hi[first:first + span], lo, groups)))
        shift = first % layer * states * w * 8
        for code, value in _layer_counts(codes, w, p,
                                         max(1, span // layer)).items():
            counts[code] = counts.get(code, 0) + (value << shift)
    sources = [(code_exponents(names, groups, code), value, 0)
               for code, value in counts.items()]
    # every name is in a pair, so no exponent tuple is checked first
    tail = weight_axis(q, tuple(zip(names[::2], names[1::2])), edges, ())
    f = fourier_matrix(field)
    by_beta = {}
    for point, poly in _transform_points(
            sources, states * layer, w, q, p,
            [(f, field.q ** t) for t in range(m + r)]).items():
        beta, alpha = divmod(point, states)
        by_beta.setdefault(beta, []).append((alpha, tail(poly)))
    # column b reads the packed (b A^T : b B1^T) of state b
    images = gflinalg.span_images(field, [
        [row[n + t] for row in state_rows + inputs[:r]] for t in range(m)])
    rows = [{} for _ in images]
    if p == 2:
        # in characteristic 2 a packed vector is its own index; XOR adds
        cut, low = m * b, (1 << m * b) - 1
        for j, v in enumerate(images):
            for alpha, poly in by_beta.get(v >> cut, ()):
                rows[alpha ^ v & low][j] = poly
        return rows
    # digit t of a row is alpha_t + (b A^T)_t: a state keeps its rows
    # plus[t][(b A^T)_t]
    plus, vecs = _digit_tables(field.add, m), state_vectors(field, m)
    places = [field.q ** t for t in range(r)]
    for j, d in enumerate(_digits(v, 0, m + r, b) for v in images):
        sums = list(map(getitem, plus, d[:m]))
        for alpha, poly in by_beta.get(sum(map(mul, d[m:], places)), ()):
            rows[sum(map(getitem, sums, vecs[alpha]))][j] = poly
    return rows


def dual_key_bytes(edges, q, p):
    """(w, bytes): section_dual's field width over `edges` edges, for any
    sub-sum of one key's edge counts, and the (q p + p + 2) planes of a
    field per edge that one key of a pass over the edges holds."""
    w = (edges.bit_length() + 7) // 8
    return w, (q * p + p + 2) * edges * w


def _layer_counts(codes, w, p, layers):
    """{code: int of w-byte fields, field e the number of the `layers`
    equal runs of the list `codes`, a power of p, with the code at e}.
    Up to 255 codes at a time get a byte value each in one string, 255
    elsewhere, and bytes.translate marks one; runs sum p at a time."""
    # mark[255 - i:511 - i] is the translation table that marks i alone
    out, mark = {}, bytes(255) + b"\1" + bytes(255)
    distinct = list(dict.fromkeys(codes))
    for first in range(0, len(distinct), 255):
        byte = {code: i for i, code in enumerate(distinct[first:first + 255])}
        plane = bytearray(b"\xff") * (len(codes) * w)
        plane[::w] = bytes(map(byte.get, codes, repeat(255)))
        for code, i in byte.items():
            size, runs = len(plane), layers
            ind = int.from_bytes(plane.translate(mark[255 - i:511 - i]),
                                 "little")
            while runs > 1:
                size, runs = size // p, runs // p
                ind = sum(ind >> 8 * size * c & (1 << 8 * size) - 1
                          for c in range(p))
            out[code] = ind
    return out


def _dual_charge(seed):
    """The dual WAM's charge: the q^(m+k) edges and the q^(2m) cells of
    the state grid when the edges are at least the cells or one key of
    their planes (dual_key_bytes) exceeds the budget, and
    otherwise the stored cells, one per transition (a, b) of the
    q^(m+n-k) dual constraint words, q^(n-r) of which have a = b = 0:
    the words orthogonal to the outputs, r the rank of (C; E)."""
    spec, n, k, m = seed.spec, seed.n, seed.k, seed.m
    q, edges = spec.q, spec.q ** (m + k)
    if (edges >= q ** (2 * m)
            or dual_key_bytes(edges, q, spec.p)[1] > errors.BUDGET):
        check_budget("WAM", edges, q ** (2 * m))
    else:
        check_budget("the dual WAM", 0, q ** (m - k + gflinalg.rank(
            spec, [row[:n] for row in seed.t_matrix])))


def dual_series_bounds(seed):
    """(largest row sum, heaviest edge) of dual_wam(seed), read from the
    seed once dual_wam's own charges are made, building no cell.

    Row a of the dual WAM counts the dual constraint words (a : p : b).
    Those with a = 0 are the (p, b) with T (p : -b)^T = 0, so the
    q^(m+n-k) words fill the rows they reach equally, q^(m+n-rank T)
    each.  Their outputs p are the block code D^perp, D the outputs u E
    of the inputs with u B = 0 (the words of C whose states are both
    zero), so the heaviest edge is the largest weight of D^perp, read
    off the MacWilliams transform of D's weight enumerator.
    """
    spec, n, m = seed.spec, seed.n, seed.m
    _dual_charge(seed)
    # the inputs of the rref of (E : B) on B with no pivot there span
    # the u E: at most q^k words, within the edges either charge counts
    inputs, pivots = gflinalg.rref(spec, seed.t_matrix[m:], n)
    outputs = macwilliams(WeightPoly({
        code_exponents(("x", "y"), [range(n)], w): count
        for w, count in gflinalg.code_counts(_span_weights(
            spec, [row[:n] for row in inputs[len(pivots):]], n)).items()}),
        spec.q, (("x", "y"),))
    return (spec.q ** (m + n - gflinalg.rank(spec, seed.t_matrix)),
            max(outputs.y_degrees()))


def heaviest_edge(seed):
    """The largest output weight over the seed's q^(m+k) edges, charged
    first: the y-degree of wam(seed), read without building a cell.  The
    outputs w C + u E make the row space of (C; E), so it is the largest
    weight of the q^r words spanned by the r rows of its rref."""
    spec, n = seed.spec, seed.n
    check_budget("WAM", spec.q ** (seed.m + seed.k))
    red, pivots = gflinalg.rref(spec, [row[:n] for row in seed.t_matrix])
    return max(max(weights) for weights, _ in _span_weights(
        spec, red[:len(pivots)], n))


def _span_weights(spec, rows, n):
    """The gflinalg.weight_codes planes of the words that `rows`, of
    length n, span: a word's code on the one group range(n) is its
    Hamming weight."""
    return gflinalg.weight_codes(spec.q, gflinalg.span_images(spec, rows),
                                 [0], [range(n)])


# --- series enumerators ---

def total_wgf(lam, d_max=10):
    """<0| (I - Lam D)^(-1) |0> truncated at D^d_max."""
    return series_entry(lam, 0, d_max)[0]


def series_charge(seed, d_max, free=False):
    """(heaviest edge, field width) of the series to D^d_max over
    wam(seed) with x set to 1 (free: without its zero-state loop), once
    polymatrix.series_width has charged it to the budget, before any
    edge is enumerated.  Lam_y has q^m states, rows that sum to q^k (row
    0 one less without the loop, the only row when m = 0) and the
    y-degree of the heaviest edge, so the charge is the series' own."""
    q = seed.spec.q
    heaviest = heaviest_edge(seed)
    return heaviest, series_width(q ** seed.m, [heaviest],
                                  q ** seed.k - (free and not seed.m), d_max)


def seed_series(seed, d_max, free=False):
    """(free_wgf if free else total_wgf)(wam(seed).collapse({"x": 1}),
    d_max), charged by series_charge, with no cell built, from the seed's
    section_edges stream: the weight code of the one group is the weight."""
    heaviest, w = series_charge(seed, d_max, free)
    spec, m = seed.spec, seed.m
    return counted_series(*section_edges(
        spec, spec.q, seed.t_matrix[:m], seed.t_matrix[m:], seed.n,
        [range(seed.n)]), spec.q ** seed.k, d_max, heaviest, w, free)


def _without_zero_loop(lam):
    """Lam - |0><0|: only the zero-state self-loop weight 1 is removed;
    any extra terms of the (0, 0) entry stay."""
    rows = list(lam.rows)
    rows[0] = {**rows[0], 0: lam[0, 0] - 1}
    return PolyMatrix(lam.labels, rows)


def free_wgf(lam, d_max=10):
    """<0| [I - (Lam - |0><0|) D]^(-1) |0>, constant term kept."""
    return series_entry(_without_zero_loop(lam), 0, d_max)[0]


class FreeDistanceResult:
    """Outcome of a free-distance computation.

    `value` is the distance when `determined` is true and there is a
    nonzero fundamental path; value None with determined True means no
    fundamental path exists at all.  determined False means the
    truncation depth was too small to decide.
    """

    def __init__(self, value, determined, reason=""):
        self.value = value
        self.determined = determined
        self.reason = reason

    def __repr__(self):
        return ("FreeDistanceResult(value=%r, determined=%r)"
                % (self.value, self.determined))


def free_distance(lam, d_max=10):
    """Least positive y-degree among fundamental paths, if decidable."""
    reduced = _without_zero_loop(lam)
    entry, row_open = series_entry(reduced, 0, d_max)
    positive = [d for d in entry.y_degrees() if d > 0]
    if positive:
        return FreeDistanceResult(min(positive), True)
    # no merged path with positive weight seen: are paths still open,
    # that is, is row 0 or column 0 (row 0 of the transpose) of
    # reduced^d_max nonzero?
    if row_open or series_entry(reduced.transpose(), 0, d_max)[1]:
        return FreeDistanceResult(None, False,
                                  "paths still open at depth %d; increase "
                                  "the truncation depth" % d_max)
    return FreeDistanceResult(None, True, "no nonzero fundamental path")
