"""Dense linear algebra over GF(q); matrices are lists of lists of
element indices into a FieldSpec's tables."""

from itertools import product, repeat

from .errors import ShapeError


def digit_vectors(q, m):
    """Iterate over range(q)^m as tuples, first coordinate fastest."""
    return (v[::-1] for v in product(range(q), repeat=m))


# --- packed spans: a vector over GF(q) as one int, coordinate j holding
# its element index in bits [j*b, (j+1)*b), b = field_bits(q) ---

def field_bits(q):
    return (q - 1).bit_length()


def span_images(spec, rows):
    """The images v . rows of every v in digit_vectors(q, len(rows)), in
    that order, packed.  Field j of a XOR b is zero exactly when
    a_j = b_j, that is when a - b is zero at j; over GF(2^r) a XOR b is
    the packed a + b = a - b itself."""
    add, mul = spec.add, spec.mul
    vecs = [[0] * len(rows[0])] if rows else [[]]
    for row in rows:
        multiples = [[mul[c][x] for x in row] for c in range(spec.q)]
        vecs = [[add[x][y] for x, y in zip(v, mrow)]
                for mrow in multiples for v in vecs]
    b = field_bits(spec.q)
    return [sum(x << (j * b) for j, x in enumerate(v)) for v in vecs]


def group_weights(q, words, groups):
    """One iterator per coordinate group over the Hamming weights of the
    packed words of the list `words` on that group: the bit counts of
    each word's fields ORed into their low bits (once per call) under
    the group's mask.  Runs as pipelines of builtins over the list."""
    b = field_bits(q)
    folded = words
    for s in range(1, b):
        folded = list(map(int.__or__, folded, map(int.__rshift__, words,
                                                  repeat(s))))
    return [map(int.bit_count, map(sum(1 << (j * b) for j in g).__and__,
                                   folded)) for g in groups]


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def mat_add(spec, a, b):
    return [[spec.add[x][y] for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(spec, a):
    return [[spec.neg[x] for x in row] for row in a]


def mat_mul(spec, a, b):
    if a and b and len(a[0]) != len(b):
        raise ShapeError("matrix dimensions %dx%d and %dx%d do not chain"
                         % (len(a), len(a[0]), len(b), len(b[0])))
    cols = len(b[0]) if b else 0
    if not cols:
        # an empty right factor (n x 0, or 0 x 0 from transposing an
        # empty matrix) always yields rows of length zero
        return zeros(len(a), 0)
    out = zeros(len(a), cols)
    for i, row in enumerate(a):
        oi = out[i]
        for t, x in enumerate(row):
            if x:
                bt = b[t]
                mx = spec.mul[x]
                for j in range(cols):
                    if bt[j]:
                        oi[j] = spec.add[oi[j]][mx[bt[j]]]
    return out


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def vec_mat(spec, v, a):
    return mat_mul(spec, [list(v)], a)[0]


def rref(spec, a):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = spec.inv[m[r][c]]
        m[r] = [spec.mul[inv][x] for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [spec.sub(x, spec.mul[f][y]) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(spec, a):
    return len(rref(spec, a)[1])


def nullspace(spec, a):
    """Basis of the right kernel {v : a v^T = 0}, one row per basis vector."""
    if not a:
        return []
    cols = len(a[0])
    red, pivots = rref(spec, a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * cols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = spec.neg[red[i][f]]
        basis.append(v)
    return basis


def is_zero(a):
    return all(all(x == 0 for x in row) for row in a)


# --- polynomial matrices over GF(q)[D]: lists of coefficient matrices,
# degree 0 first ---

def impulse_response(spec, head, mem, a, out, d):
    """Coefficients of head + sum_{i=1..d} mem a^(i-1) out D^i."""
    zero = zeros(len(head), len(head[0]) if head else 0)
    coeffs, left = [head], mem
    for _ in range(d):
        coeffs.append(mat_mul(spec, left, out) if out else zero)
        left = mat_mul(spec, left, a)
    return coeffs


def _series_mul(spec, x, y):
    """Product of two power series, truncated to len(x) terms."""
    add, mul = spec.add, spec.mul
    out = [0] * len(x)
    for i, xi in enumerate(x):
        if xi:
            row = mul[xi]
            for j in range(len(x) - i):
                if y[j]:
                    out[i + j] = add[out[i + j]][row[y[j]]]
    return out


def _series_inv(spec, x):
    """Inverse of a power series with a unit constant term."""
    inv0 = spec.inv[x[0]]
    out = [inv0]
    for t in range(1, len(x)):
        acc = 0
        for i in range(1, t + 1):
            if x[i] and out[t - i]:
                acc = spec.add[acc][spec.mul[x[i]][out[t - i]]]
        out.append(spec.mul[spec.neg[acc]][inv0])
    return out


def det_i_minus_da(spec, a):
    """det(I - D a) as its m + 1 coefficients.

    Gaussian elimination over GF(q)[D]/(D^(m+1)), where the determinant
    of degree <= m is exact.  I - D a is I modulo D, and so is every
    Schur complement, so each pivot is a unit and no row is swapped.
    """
    m = len(a)
    mat = [[[1 if i == j else 0, spec.neg[x]] + [0] * (m - 1)
            for j, x in enumerate(row)] for i, row in enumerate(a)]
    det = [1] + [0] * m
    for j in range(m):
        pivot = mat[j][j]
        det = _series_mul(spec, det, pivot)
        pinv = _series_inv(spec, pivot)
        for i in range(j + 1, m):
            if any(mat[i][j]):
                f = [spec.neg[x] for x in _series_mul(spec, mat[i][j], pinv)]
                for c in range(j + 1, m):
                    mat[i][c] = [spec.add[x][y] for x, y in zip(
                        mat[i][c], _series_mul(spec, f, mat[j][c]))]
    return det


def cleared_response(spec, head, mem, a, out):
    """det(I - D a) (head + D mem (I - D a)^(-1) out), a polynomial
    matrix of degree <= m: the impulse response to D^m times det."""
    m = len(a)
    det = det_i_minus_da(spec, a)
    resp = impulse_response(spec, head, mem, a, out, m)
    return [_mat_sum(spec, [[[spec.mul[det[i]][x] for x in row]
                             for row in resp[d - i]] for i in range(d + 1)])
            for d in range(m + 1)]


def _mat_sum(spec, mats):
    acc = mats[0]
    for mat in mats[1:]:
        acc = mat_add(spec, acc, mat)
    return acc


def poly_mat_mul(spec, a, b):
    """Product of two polynomial matrices."""
    return [_mat_sum(spec, [mat_mul(spec, a[i], b[d - i])
                            for i in range(len(a)) if 0 <= d - i < len(b)])
            for d in range(len(a) + len(b) - 1)]
