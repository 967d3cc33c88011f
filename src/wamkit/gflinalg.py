"""Dense linear algebra over GF(q); matrices are lists of lists of
element indices into a FieldSpec's tables."""

import sys
from collections import Counter
from itertools import product
from math import prod

from . import errors
from .errors import ShapeError, check_budget


def digit_vectors(q, m):
    """Iterate over range(q)^m as tuples, first coordinate fastest."""
    return (v[::-1] for v in product(range(q), repeat=m))


def digit_strings(symbols, m):
    """The string symbols[v_0] symbols[v_1] ... of every v in
    digit_vectors(len(symbols), m), in that order: each coordinate is
    appended to all strings so far, as the slowest digit."""
    out = [""]
    for _ in range(m):
        out = [s + c for c in symbols for s in out]
    return out


# --- packed spans: a vector over GF(q) as one int, coordinate j holding
# its element index in bits [j*b, (j+1)*b), b = field_bits(q) ---

def field_bits(q):
    return (q - 1).bit_length()


def span_images(spec, rows):
    """The images v . rows of every v in digit_vectors(q, len(rows)), in
    that order, packed.  Field j of a XOR b is zero exactly when
    a_j = b_j, that is when a - b is zero at j; over GF(2^r) a XOR b is
    the packed a + b = a - b itself, so there each row's q multiples are
    packed once and every image is one XOR."""
    add, mul, b = spec.add, spec.mul, field_bits(spec.q)
    if spec.p == 2:
        images = [0]
        for row in rows:
            multiples = [sum(mul[c][x] << (j * b) for j, x in enumerate(row))
                         for c in range(spec.q)]
            images = [v ^ mult for mult in multiples for v in images]
        return images
    vecs = [[0] * len(rows[0])] if rows else [[]]
    for row in rows:
        multiples = [[mul[c][x] for x in row] for c in range(spec.q)]
        vecs = [[add[x][y] for x, y in zip(v, mrow)]
                for mrow in multiples for v in vecs]
    return [sum(x << (j * b) for j, x in enumerate(v)) for v in vecs]


# --- weight codes: the words lo[i] XOR hi[j] as the fixed-width fields of
# one big int, a plane, weighed on the whole plane at once ---

# bits set in each byte value: bytes.translate counts a plane's bits
_POPCOUNT = bytes(bin(i).count("1") for i in range(256))
# bytes per plane: some 2^12-2^14 words of a few bytes each
_PLANE_BYTES = 1 << 15
# coordinates per byte sum: a sum of at most 255 bits never carries
_PIECE = 255


def weight_codes(q, lo, hi, groups, shift=None):
    """The weight codes of the packed words lo[i] XOR hi[j], i-major, one
    (codes, tops) pair per plane of them, codes a bytes object or a list
    of ints.  A word's code is the mixed-radix number of its Hamming
    weights on the coordinate groups, digit t below |groups[t]| + 1, the
    first most significant (decode_code reads it).  With `shift`, tops
    holds each word's bits from `shift` up, and otherwise it is None.

    A plane has one F-byte field per word, F at least the width of the
    words and of the codes: each lo image's bytes repeated once per hi
    image, XORed with the hi images' bytes repeated once per lo image.
    Each coordinate's b bits are ORed onto its low bit.  Under a group's
    mask bytes.translate turns each byte into its bit count, and one
    product with 1 + 256 + 256^2 + ... sums each field's counts into
    one byte, 255 coordinates at a time so that no sum carries; a larger
    group adds its pieces' sums.  The codes are whole-plane
    multiply-adds.  A plane holds whole lo images while the hi images
    fit in one; it holds at most 32 kB and at most the budget, one word
    at least, and its bytes are charged to the budget first."""
    if not (lo and hi):
        return
    b = field_bits(q)
    radix = [len(g) + 1 for g in groups]
    # each group's pieces: (mask of their coordinates' low bits, the
    # repunit 1 + 256 + ... over the mask's bytes, bits below its top
    # byte); top counts the bits of the words and of every coordinate
    pieces, top = [], max(max(lo).bit_length(), max(hi).bit_length())
    for g in groups:
        pieces.append([])
        for at in range(0, len(g), _PIECE):
            mask = sum(1 << j * b for j in g[at:at + _PIECE])
            top = max(top, mask.bit_length() + b - 1)
            span = (mask.bit_length() + 7) // 8
            pieces[-1].append((mask, int.from_bytes(b"\1" * span, "little"),
                               8 * span - 8))
    # what the repeated fields of a plane's masks hold: 255, each group
    # mask and, with shift, the state's bits
    fills = [255] + [mask for ps in pieces for mask, _, _ in ps]
    widths = [_item_bytes(prod(radix) - 1)]
    if shift is not None:
        fills.append((1 << max(top - shift, 0)) - 1)
        widths.append(_item_bytes(fills[-1]))
    step = min(max(widths), 8)
    size = -(-max([(top + 7) // 8] + widths) // step) * step
    # a plane of more bytes than the budget only for a wider word
    per_plane = max(1, min(_PLANE_BYTES, errors.BUDGET) // size)
    check_budget("a weight-code plane", 0, nbytes=per_plane * size)
    reps, tops = {}, None
    for heads, count, his in _planes(lo, hi, size, per_plane):
        words = len(heads) * count
        nbytes = words * size
        if words not in reps:
            reps[words] = [int.from_bytes(v.to_bytes(size, "little") * words,
                                          "little") for v in fills]
        low, *masks = reps[words]
        plane = int.from_bytes(b"".join(
            [a.to_bytes(size, "little") * count for a in heads]),
            "little") ^ his
        if shift is not None:
            tops = _fields((plane >> shift & masks[-1]).to_bytes(
                nbytes, "little"), size, widths[1])
        folded = plane
        for s in range(1, b):
            folded |= plane >> s
        codes, at = 0, 0
        for ps, base in zip(pieces, radix):
            weights = 0
            for _, ones, below in ps:
                counts = int.from_bytes((folded & masks[at]).to_bytes(
                    nbytes, "little").translate(_POPCOUNT), "little")
                weights += counts * ones >> below & low
                at += 1
            codes = codes * base + weights
        yield _fields(codes.to_bytes(nbytes, "little"), size, widths[0]), tops


def _planes(lo, hi, size, per_plane):
    """(lo images, hi images per lo image, plane of those hi images) of
    each plane of weight_codes: whole lo images while the hi images fit
    in one plane, whose hi plane is built once for all full planes."""
    if len(hi) > per_plane:
        for a in lo:
            for at in range(0, len(hi), per_plane):
                part = hi[at:at + per_plane]
                yield [a], len(part), int.from_bytes(b"".join(
                    [h.to_bytes(size, "little") for h in part]), "little")
        return
    each = max(1, min(len(lo), per_plane // len(hi)))
    block = b"".join([h.to_bytes(size, "little") for h in hi])
    full = int.from_bytes(block * each, "little")
    for at in range(0, len(lo), each):
        heads = lo[at:at + each]
        yield heads, len(hi), (full if len(heads) == each else
                               int.from_bytes(block * len(heads), "little"))


# item bytes by the bytes a value needs, up to 8
_ITEMS = (1, 1, 2, 4, 4, 8, 8, 8, 8)


def _item_bytes(value):
    """The bytes of a field that holds value: 1, 2, 4 or 8, or more."""
    need = (value.bit_length() + 7) // 8
    return _ITEMS[need] if need <= 8 else need


_FORMATS = {2: "H", 4: "I", 8: "Q"}


def _fields(raw, size, width):
    """The little-endian ints in the low `width` bytes of each size-byte
    field of raw: a bytes object when width is 1, else a list, read
    through a cast view where the machine is little-endian."""
    if width == 1:
        return raw[::size]
    if width in _FORMATS and sys.byteorder == "little":
        return memoryview(raw).cast(_FORMATS[width])[::size // width].tolist()
    return [int.from_bytes(raw[at:at + width], "little")
            for at in range(0, len(raw), size)]


def decode_code(code, radix):
    """The digits of a weight code: the weights on the groups of sizes
    r - 1 for r in radix, first group first."""
    ws = []
    for base in reversed(radix):
        code, w = divmod(code, base)
        ws.append(w)
    return ws[::-1]


def code_counts(planes):
    """{code: number of words} over weight_codes's planes, counted in C.
    A bytes plane counts each code seen so far with bytes.count, and the
    distinct codes among the rest, if any are left, are new."""
    counts = {}
    for codes, _ in planes:
        if not isinstance(codes, bytes):
            for code, found in Counter(codes).items():
                counts[code] = counts.get(code, 0) + found
            continue
        seen = 0
        for code in counts:
            found = codes.count(code)
            counts[code] += found
            seen += found
        if seen < len(codes):
            for code in set(codes.translate(None, bytes(counts))):
                counts[code] = codes.count(code)
    return counts


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def mat_add(spec, a, b):
    return [[spec.add[x][y] for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


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


def rref(spec, a, first=0):
    """Reduced row echelon form on the columns from `first` on, the rows
    with no pivot last and zero there; returns (matrix, pivot columns)."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(first, cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        if m[r][c] != 1:  # element index 1 is the field's 1
            m[r] = [spec.mul[spec.inv[m[r][c]]][x] for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                minus = spec.mul[spec.neg[m[i][c]]]
                m[i] = [spec.add[x][minus[y]] for x, y in zip(m[i], m[r])]
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


def is_identity_on(rows, cols):
    """Whether rows[i][cols[j]] is 1 when i == j and 0 otherwise: on the
    columns `cols` the rows are the leading rows of an identity."""
    return all(row[c] == (i == j) for i, row in enumerate(rows)
               for j, c in enumerate(cols))


# --- polynomial matrices over GF(q)[D]: lists of coefficient matrices,
# degree 0 first ---

def impulse_response(spec, head, mem, a, out, d):
    """Coefficients of head + sum_{i=1..d} mem a^(i-1) out D^i.  The
    d + 1 coefficient matrices are charged to the budget first, an empty
    one as one cell, as the loop runs d times whatever their size."""
    rows, cols = len(head), len(head[0]) if head else 0
    check_budget("the impulse response to D^%d" % d, 0,
                 (d + 1) * max(1, rows * cols))
    zero = zeros(rows, cols)
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


def pairing(spec, a, b):
    """Coefficients of a(D) b(1/D)^T D^(len(b) - 1): coefficient e sums
    a_d b_(d+t)^T over d at the offset t = len(b) - 1 - e."""
    return poly_mat_mul(spec, a, [transpose(mat) for mat in reversed(b)])
