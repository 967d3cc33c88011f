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

from collections import Counter
from itertools import repeat
from operator import getitem, mul

from . import gflinalg
from .errors import AlgebraError, ShapeError, check_budget
from .poly import IP_PAIRS, IP_VARS, WeightPoly
from .polymatrix import (PolyMatrix, dual_on_edges, edge_dual_rows, edge_rows,
                         macwilliams, series_entry, span_edges,
                         weight_exponents)


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

    @property
    def c0_block(self):
        return [[row[j] for j in self.parity_cols] for row in self.c_block]

    @property
    def e0_block(self):
        return [[row[j] for j in self.parity_cols] for row in self.e_block]


def _edge_matrix(seed, names, groups):
    """The matrix whose (w, w') entry counts the transitions w -> w' by
    their Hamming weights on each coordinate group of (p : u), p the
    output and u the input, through polymatrix.edge_rows over the
    polymatrix.span_edges chunks.

    The transition of state w on input -u is (w C : 0 : w A) minus
    (u E : u : u B), one of q^m and one of q^k packed span images, and
    its nonzero coordinates are the nonzero fields of their XOR (u and
    -u run over the same inputs and have the same weight).  Over GF(2^r)
    the XOR is the difference, so its top m fields are the next state's
    index; for odd p the next state's digits are subtracted through the
    field table.
    """
    spec, n, k, m = seed.spec, seed.n, seed.k, seed.m
    q, b = spec.q, gflinalg.field_bits(spec.q)
    check_budget("WAM", q ** (m + k))
    ident = gflinalg.identity(k)
    lo = gflinalg.span_images(spec, [row[:n] + [0] * k + row[n:]
                                     for row in seed.t_matrix[:m]])
    hi = gflinalg.span_images(spec, [row[:n] + e + row[n:] for row, e
                                     in zip(seed.t_matrix[m:], ident)])
    shift = (n + k) * b
    if spec.p == 2:
        def nexts(images, edges):
            return map(int.__rshift__, edges, repeat(shift))
    else:
        # digit t of the next state is (wA)_t - (uB)_t, and a state keeps
        # its rows diff[t][wA_t]
        diff = _digit_tables([[spec.sub(x, y) for y in range(q)]
                              for x in range(q)], m)
        digits = [_digits(v, shift, m, b) for v in hi]

        def nexts(images, edges):
            for a in images:
                diffs = list(map(getitem, diff, _digits(a, shift, m, b)))
                yield from (sum(map(getitem, diffs, d)) for d in digits)

    return PolyMatrix(state_labels(spec, m), edge_rows(
        names, groups, len(lo), span_edges(q, lo, hi, groups, nexts)))


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
    basis = gflinalg.nullspace(spec, seed.gen_matrix())
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
    PolyMatrix.conjugate_by(table, spec.p) applies it one coordinate at
    a time, so only the exponent table tr(ab) in range(p) is built; it
    is the same for every m.
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
    """macwilliams_wam(wam(seed), seed.spec), from the seed's edges when
    polymatrix.dual_on_edges takes them."""
    return _dual_edge_matrix(seed, ("x", "y"), [range(seed.n)])


def dual_ipwam(seed):
    """macwilliams_ipwam(ipwam(seed), seed.spec), from the seed's edges
    when polymatrix.dual_on_edges takes them."""
    return _dual_edge_matrix(seed, IP_VARS, _ip_groups(seed))


def _dual_edge_matrix(seed, names, groups):
    """The MacWilliams transform of _edge_matrix(seed, names, groups),
    through the q^(m+k) edges instead of the S x S state grid when
    dual_on_edges takes them (k < m, within the budget); otherwise
    through the grid, charged before the WAM is enumerated.

    Cell (a, b) of F Lam~ F^dagger sums g(w, u) w^tr(w.a - (wA + uB).b)
    over the edges (w, u), g(w, u) the weight substitution's image of
    the edge's monomial, so it is G^(a - b A^T, -b B^T): G^ is the
    character transform of g over F^(m+k).  The edges are the XORs of
    the output images wC and uE, each the edge (w, -u), so their
    transform at (alpha, beta) is G^(alpha, -beta), and cell
    (alpha + b A^T, b) reads point (alpha, b B^T), through
    polymatrix.edge_dual_rows.
    """
    spec, n, k, m = seed.spec, seed.n, seed.k, seed.m
    q, b = spec.q, gflinalg.field_bits(spec.q)
    if not _dual_route(seed):
        return macwilliams(_edge_matrix(seed, names, groups), q,
                           list(zip(names[::2], names[1::2])),
                           (fourier_matrix(spec), spec.p))
    # (b A^T : b B^T) of every state b, packed
    images = gflinalg.span_images(spec, [[row[n + t] for row in seed.t_matrix]
                                         for t in range(m)])
    if spec.p == 2:
        # over GF(2^r) a packed vector is its own index, and XOR adds
        columns = [(v & (1 << m * b) - 1, v >> m * b) for v in images]
        place = int.__xor__
    else:
        # digit t of a row is alpha_t + (b A^T)_t: a state keeps its rows
        # plus[t][(b A^T)_t]
        plus, vecs = _digit_tables(spec.add, m), state_vectors(spec, m)
        places = [q ** t for t in range(k)]
        columns = [(list(map(getitem, plus, d[:m])),
                    sum(map(mul, d[m:], places)))
                   for d in (_digits(v, 0, m + k, b) for v in images)]

        def place(alpha, sums):
            return sum(map(getitem, sums, vecs[alpha]))
    lo = gflinalg.span_images(spec, [row[:n] for row in seed.t_matrix[:m]])
    hi = gflinalg.span_images(spec, [row[:n] for row in seed.t_matrix[m:]])
    f = fourier_matrix(spec)
    return PolyMatrix(state_labels(spec, m), edge_dual_rows(
        [x ^ y for x in lo for y in hi], names, groups, q, spec.p,
        [(f, q ** t) for t in range(m + k)], q ** k, columns, place))


def _dual_route(seed):
    """Whether _dual_edge_matrix takes the seed's edges, once the route's
    charges are made: the grid's q^(m+k) edges and q^(2m) cells, or the
    edge path's stored cells, one per transition (a, b) of the
    q^(m+n-k) dual constraint words, q^(n-r) of which have a = b = 0:
    the words orthogonal to the outputs, r the rank of (C; E)."""
    spec, n, k, m = seed.spec, seed.n, seed.k, seed.m
    q = spec.q
    if not dual_on_edges(q ** (m + k), q ** m, q, spec.p):
        check_budget("WAM", q ** (m + k), q ** (2 * m))
        return False
    check_budget("the dual WAM", 0, q ** (m - k + gflinalg.rank(
        spec, [row[:n] for row in seed.t_matrix])))
    return True


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
    _dual_route(seed)
    # rows of the rref of (B : E) that are zero on B span the u E: at
    # most q^k words, within the edges that either route charges
    red, pivots = gflinalg.rref(spec, [row[n:] + row[:n]
                                       for row in seed.t_matrix[m:]])
    outputs = macwilliams(WeightPoly({
        weight_exponents(("x", "y"), [range(n)], (w,)): count
        for w, count in Counter(_span_weights(spec, [
            row[m:] for row, c in zip(red, pivots) if c >= m], n)).items()}),
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
    return max(_span_weights(spec, red[:len(pivots)], n))


def _span_weights(spec, rows, n):
    """The Hamming weights of the words that `rows`, of length n, span:
    one per combination, through one group_weights pass."""
    return gflinalg.group_weights(spec.q, gflinalg.span_images(spec, rows),
                                  [range(n)])[0]


def iowam_from_systematic(seed, f_matrix):
    """IOWAM of the nonsystematic encoder G~ assembled from a systematic
    seed by feedback matrix F (m x k) and L = I_k.

    Entry (w, w') is the product of the systematic seed's input
    enumerator at (w, w' - w F B0) and its output enumerator at (w, w').
    The assembled encoder must have monomial IOWAM entries; a
    two-or-more-term entry is reported as an error.
    """
    if not isinstance(seed, SystematicConvSeed) or seed.info_last:
        raise ShapeError("expected a standard-form systematic seed")
    spec = seed.spec
    m, k = seed.m, seed.k
    if len(f_matrix) != m or any(len(r) != k for r in f_matrix):
        raise ShapeError("feedback matrix must be m x k")
    assembled = assemble_encoder(seed, f_matrix)
    direct = iowam(assembled)
    for row in direct.rows:
        for e in row.values():
            if len(e.terms) > 1:
                raise AlgebraError(
                    "assembled encoder has a non-monomial IOWAM entry; "
                    "the factorization formula does not apply")
    delta_s = iowam(seed)
    input_part = delta_s.collapse({"x_O": 1, "y_O": 1})
    lam_out = delta_s.collapse({"x_I": 1, "y_I": 1})
    fb = gflinalg.mat_mul(spec, f_matrix, seed.b_block)
    states = state_vectors(spec, m)
    index = {v: i for i, v in enumerate(states)}
    rows = []
    for i, (w, row) in enumerate(zip(states, lam_out.rows)):
        shift = gflinalg.vec_mat(spec, list(w), fb) if m else []
        cells = {}
        for j, e in row.items():
            tgt = tuple(spec.sub(a, b) for a, b in zip(states[j], shift))
            cells[j] = input_part[i, index[tgt]] * e
        rows.append(cells)
    out = PolyMatrix(state_labels(spec, m), rows)
    if out != direct:
        raise AlgebraError("factorized IOWAM disagrees with the direct "
                           "enumeration; the encoder violates the "
                           "factorization's hypotheses")
    return out


def assemble_encoder(seed, f_matrix):
    """Nonsystematic seed (I_m | F C0+F E0 | A0+F B0; 0 | I_k E0 | B0)."""
    spec = seed.spec
    m, k, n = seed.m, seed.k, seed.n
    c0, e0 = seed.c0_block, seed.e0_block
    fe0 = gflinalg.mat_mul(spec, f_matrix, e0)
    fb0 = gflinalg.mat_mul(spec, f_matrix, seed.b_block)
    c_new = [list(fr) + [spec.add[x][y] for x, y in zip(cr, fer)]
             for fr, cr, fer in zip(f_matrix, c0, fe0)]
    a_new = gflinalg.mat_add(spec, seed.a_block, fb0)
    ident = gflinalg.identity(k)
    e_new = [list(ir) + list(er) for ir, er in zip(ident, e0)]
    t_rows = ([cr + ar for cr, ar in zip(c_new, a_new)]
              + [er + br for er, br in zip(e_new, seed.b_block)])
    return ConvSeed(spec, n, k, m, t_rows)


# --- series enumerators ---

def total_wgf(lam, d_max=10):
    """<0| (I - Lam D)^(-1) |0> truncated at D^d_max."""
    return series_entry(lam, 0, d_max)[0]


def dual_total_wgf(lam, d_max, spec):
    """Total WGF of the dual, routed through the homogeneous dual WAM."""
    dual_lam = macwilliams_wam(lam, spec)
    return total_wgf(dual_lam.collapse({"x": 1}), d_max)


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
