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

from itertools import chain, repeat
from operator import getitem

from . import gflinalg
from .block import DEFAULT_BUDGET, check_budget
from .errors import AlgebraError, ShapeError
from .poly import IP_PAIRS, IP_VARS
from .polymatrix import PolyMatrix, edge_rows, macwilliams, series_row


def state_vectors(spec, m):
    """All of GF(q)^m in canonical order: first coordinate fastest."""
    return list(gflinalg.digit_vectors(spec.q, m))


def state_labels(spec, m):
    return ["".join(str(x) for x in v) for v in state_vectors(spec, m)]


class ConvSeed:
    """A convolutional encoder seed T = (C A; E B) over GF(q)."""

    def __init__(self, spec, n, k, m, t_matrix):
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
        super().__init__(spec, n, k, m, t_matrix)
        self.info_last = info_last
        if info_last:
            self.info_cols = list(range(n - k, n))
        else:
            self.info_cols = list(range(k))
        par = [j for j in range(n) if j not in self.info_cols]
        for i in range(m):
            for j in self.info_cols:
                if self.c_block[i][j] != 0:
                    raise ShapeError("C is nonzero on the information columns")
        for i in range(k):
            for jj, j in enumerate(self.info_cols):
                want = 1 if i == jj else 0
                if self.e_block[i][j] != want:
                    raise ShapeError("E is not the identity on the "
                                     "information columns")
        self.parity_cols = par

    @property
    def c0_block(self):
        return [[row[j] for j in self.parity_cols] for row in self.c_block]

    @property
    def e0_block(self):
        return [[row[j] for j in self.parity_cols] for row in self.e_block]


def _edge_matrix(seed, names, groups, budget):
    """The matrix whose (w, w') entry counts the transitions w -> w' by
    their Hamming weights on each coordinate group of (p : u), p the
    output and u the input, through polymatrix.edge_rows.

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
    check_budget("WAM", q ** (m + k), q ** (2 * m), budget)
    ident = gflinalg.identity(k)
    lo = gflinalg.span_images(spec, [row[:n] + [0] * k + row[n:]
                                     for row in seed.t_matrix[:m]])
    hi = gflinalg.span_images(spec, [row[:n] + e + row[n:] for row, e
                                     in zip(seed.t_matrix[m:], ident)])
    shift = (n + k) * b
    if spec.p != 2:
        # digit t of the next state is (wA)_t - (uB)_t: diff[t][x][y] is
        # x - y times q^t, and a state keeps its rows diff[t][wA_t]
        diff = [[[spec.sub(x, y) * q ** t for y in range(q)]
                 for x in range(q)] for t in range(m)]
        digits = [_digits(v, shift, m, b) for v in hi]

    def sources():
        for a in lo:
            edges = list(map(a.__xor__, hi))
            if spec.p == 2:
                nexts = map(int.__rshift__, edges, repeat(shift))
            else:
                diffs = list(map(getitem, diff, _digits(a, shift, m, b)))
                nexts = [sum(map(getitem, diffs, d)) for d in digits]
            yield zip(nexts, *gflinalg.group_weights(q, edges, groups))

    return PolyMatrix(state_labels(spec, m), edge_rows(names, groups,
                                                       sources()))


def _digits(v, shift, count, b):
    """Fields shift/b .. shift/b + count - 1 of the packed vector v."""
    return [v >> (shift + t * b) & (1 << b) - 1 for t in range(count)]


def wam(seed, budget=DEFAULT_BUDGET):
    """Weight adjacency matrix with homogeneous x/y entries."""
    return _edge_matrix(seed, ("x", "y"), [range(seed.n)], budget)


def ipwam(seed, budget=DEFAULT_BUDGET):
    """Input-parity WAM of a systematic seed."""
    if not isinstance(seed, SystematicConvSeed):
        raise ShapeError("input-parity split needs a systematic seed")
    return _edge_matrix(seed, IP_VARS, [seed.info_cols, seed.parity_cols],
                        budget)


def iowam(seed, budget=DEFAULT_BUDGET):
    """Input-output WAM: tracks input weight and output weight."""
    n, k = seed.n, seed.k
    return _edge_matrix(seed, ("x_I", "y_I", "x_O", "y_O"),
                        [range(n, n + k), range(n)], budget)


# --- duality ---

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
    twisted = [row[:m + n] + [spec.neg[x] for x in row[m + n:]] for row in basis]
    red, pivots = gflinalg.rref(spec, twisted)
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

    For feedback encoders the impulse responses are infinite, so the
    product identity is checked with denominators cleared:

        [det(I - D A) G(D)] . [det(D I - A'^T) H(1/D)^T]

    is a product of polynomial matrices of degree <= m each and must be
    identically zero.  The right factor is the cleared response of
    (E'^T, C'^T, A'^T, B'^T) with its m + 1 coefficients reversed.
    """
    spec = seed.spec
    diags = []
    if (seed.spec != dual.spec or seed.n != dual.n or seed.m != dual.m
            or dual.k != seed.n - seed.k):
        return False, ["dimension mismatch: dual of an (n=%d, k=%d, m=%d) "
                       "seed must be (n=%d, k=%d, m=%d)"
                       % (seed.n, seed.k, seed.m,
                          seed.n, seed.n - seed.k, seed.m)]
    mm = gflinalg.mat_mul
    tr = gflinalg.transpose
    c, a, e, b = seed.c_block, seed.a_block, seed.e_block, seed.b_block
    cd, ad = dual.c_block, dual.a_block
    ed, bd = dual.e_block, dual.b_block
    lhs = gflinalg.mat_add(spec, gflinalg.identity(seed.m),
                           gflinalg.mat_add(spec, mm(spec, c, tr(cd)),
                                            gflinalg.mat_neg(spec, mm(spec, a, tr(ad)))))
    if not gflinalg.is_zero(lhs):
        diags.append("I + C C'^T - A A'^T != 0")
    if not gflinalg.is_zero(gflinalg.mat_add(
            spec, mm(spec, e, tr(ed)), gflinalg.mat_neg(spec, mm(spec, b, tr(bd))))):
        diags.append("E E'^T - B B'^T != 0")
    if not gflinalg.is_zero(gflinalg.mat_add(
            spec, mm(spec, c, tr(ed)), gflinalg.mat_neg(spec, mm(spec, a, tr(bd))))):
        diags.append("C E'^T - A B'^T != 0")
    if not gflinalg.is_zero(gflinalg.mat_add(
            spec, mm(spec, e, tr(cd)), gflinalg.mat_neg(spec, mm(spec, b, tr(ad))))):
        diags.append("E C'^T - B A'^T != 0")
    g = gflinalg.cleared_response(spec, e, b, a, c)
    h = gflinalg.cleared_response(spec, tr(ed), tr(cd), tr(ad), tr(bd))[::-1]
    if not all(gflinalg.is_zero(x) for x in gflinalg.poly_mat_mul(spec, g, h)):
        diags.append("G(D) H(1/D)^T is not identically zero")
    return not diags, diags


class PolyGenMatrix:
    """k x n polynomial generator matrix, entries as {degree: element}."""

    def __init__(self, spec, entries, d_max):
        self.spec = spec
        self.entries = entries
        self.d_max = d_max
        self.k = len(entries)
        self.n = len(entries[0]) if entries else 0

    def entry_str(self, i, j):
        ent = self.entries[i][j]
        if not ent:
            return "0"
        parts = []
        for d in sorted(ent):
            c = ent[d]
            if d == 0:
                parts.append(str(c))
            else:
                dd = "D" if d == 1 else "D^%d" % d
                parts.append(dd if c == 1 else "%d*%s" % (c, dd))
        return " + ".join(parts)

    def __str__(self):
        rows = []
        for i in range(self.k):
            rows.append("( " + " , ".join(self.entry_str(i, j)
                                          for j in range(self.n)) + " )")
        return "\n".join(rows)


def poly_generator(seed, d_max=10):
    """Truncated expansion of G(D) = E + sum_i B A^(i-1) C D^i."""
    coeffs = gflinalg.impulse_response(seed.spec, seed.e_block, seed.b_block,
                                       seed.a_block, seed.c_block, d_max)
    entries = [[{d: mat[i][j] for d, mat in enumerate(coeffs) if mat[i][j]}
                for j in range(seed.n)] for i in range(seed.k)]
    return PolyGenMatrix(seed.spec, entries, d_max)


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


def iowam_from_systematic(seed, f_matrix, budget=DEFAULT_BUDGET):
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
    direct = iowam(assembled, budget)
    for row in direct.rows:
        for e in row.values():
            if len(e.terms) > 1:
                raise AlgebraError(
                    "assembled encoder has a non-monomial IOWAM entry; "
                    "the factorization formula does not apply")
    delta_s = iowam(seed, budget)
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
    return series_row(lam, 0, d_max)[0]


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
    return series_row(_without_zero_loop(lam), 0, d_max)[0]


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
    row = series_row(reduced, 0, d_max)
    positive = [d for d in row[0].y_degrees() if d > 0]
    if positive:
        return FreeDistanceResult(min(positive), True)
    # no merged path with positive weight seen: are paths still open?
    # row 0 (column 0) of reduced^d_max is the D^d_max coefficient of
    # row 0 of the series of reduced (of its transpose)
    column = series_row(reduced.transpose(), 0, d_max)
    if any(e.d_coefficient(d_max)
           for e in chain(row.values(), column.values())):
        return FreeDistanceResult(None, False,
                                  "paths still open at depth %d; increase "
                                  "the truncation depth" % d_max)
    return FreeDistanceResult(None, True, "no nonzero fundamental path")
