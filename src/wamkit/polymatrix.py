"""Square matrices of WeightPoly entries indexed by state labels."""

from collections import Counter
from itertools import chain
from math import comb
from operator import add, neg

from .errors import AlgebraError
from .poly import VARS, WeightPoly, _D, _VAR_INDEX, _ZERO_EXP


class PolyMatrix:
    """A labelled square matrix with polynomial entries.

    Labels fix both the row and column order; two matrices only combine
    when their label lists agree exactly.  `rows` holds one dict per row,
    {column index: nonzero WeightPoly}: a zero cell is not stored, and
    m[i, j] reads it as zero.  A matrix is never changed once built.
    """

    __slots__ = ("labels", "rows")

    def __init__(self, labels, rows):
        labels = list(labels)
        if len(rows) != len(labels):
            raise AlgebraError("%d rows for %d labels"
                               % (len(rows), len(labels)))
        self.labels = labels
        self.rows = [{j: e for j, e in row.items() if e} for row in rows]

    @classmethod
    def identity(cls, labels, d_max=None):
        return cls(labels, [{i: WeightPoly.const(1, d_max)}
                            for i in range(len(labels))])

    @property
    def size(self):
        return len(self.labels)

    def __getitem__(self, ij):
        i, j = ij
        cell = self.rows[i].get(j)
        return WeightPoly.zero() if cell is None else cell

    def _check(self, other):
        if not isinstance(other, PolyMatrix) or other.labels != self.labels:
            raise AlgebraError("matrix labels do not match")

    def __add__(self, other):
        self._check(other)
        rows = []
        for ra, rb in zip(self.rows, other.rows):
            row = dict(ra)
            for j, e in rb.items():
                row[j] = row[j] + e if j in row else e
            rows.append(row)
        return PolyMatrix(self.labels, rows)

    def __sub__(self, other):
        self._check(other)
        return self + other.map_entries(neg)

    def __mul__(self, other):
        if isinstance(other, (int, WeightPoly)):
            return self.map_entries(lambda e: e * other)
        self._check(other)
        rows = []
        for ra in self.rows:
            row = {}
            for t, a in ra.items():
                for j, b in other.rows[t].items():
                    row[j] = row[j] + a * b if j in row else a * b
            rows.append(row)
        return PolyMatrix(self.labels, rows)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, PolyMatrix)
                and self.labels == other.labels
                and self.rows == other.rows)

    def map_entries(self, fn):
        """fn applied to every stored cell; fn must send zero to zero, and
        the cells it maps to zero are dropped."""
        return PolyMatrix(self.labels, [{j: fn(e) for j, e in row.items()}
                                        for row in self.rows])

    def transpose(self):
        rows = [{} for _ in self.labels]
        for i, row in enumerate(self.rows):
            for j, e in row.items():
                rows[j][i] = e
        return PolyMatrix(self.labels, rows)

    def substitute(self, mapping):
        return self.map_entries(lambda e: e.substitute(mapping))

    def collapse(self, mapping):
        # cells are never mutated, so an empty mapping hands back self
        if not mapping:
            return self
        return self.map_entries(lambda e: e.collapse(mapping))

    def exact_div(self, n):
        return self.map_entries(lambda e: e.exact_div(n))

    def to_int_coeffs(self):
        return self.map_entries(WeightPoly.to_int_coeffs)

    def conjugate_by(self, f, p=2):
        """F . self . F^dagger, where F is the m-fold Kronecker power of
        the q x q kernel w^f[a][b], w a primitive p-th root of unity,
        and the state count is q^m.

        The kernel is given by its exponent table f, entries in range(p),
        such as the table tr(ab) of GF(q) with p its characteristic, or
        the single-qubit Pauli signs with p = 2 (the default; an odd-p
        table passed without its p is refused).  States are read as
        base-q digit strings, first coordinate fastest, so F is never
        formed: the kernel is applied to the row axis one coordinate at a
        time, then its conjugate to the column axis, on one integer grid
        per exponent key.  For p = 2 the grid holds plain ints and w^t is
        a sign; for odd p it holds the p planes of the group ring Z[C_p],
        where w^t rotates the planes and conjugation negates t.  A result
        coefficient that is not an integer raises AlgebraError.
        """
        m = _kernel(f, p, self.size)
        conj = [[-t % p for t in row] for row in f]
        n = self.size
        # row i of each plane holds the grids of all exponent keys side by
        # side: entry (i, j) of key number t sits at column t * n + j
        keys = {}
        for row in self.rows:
            for e in row.values():
                for exp in e.terms:
                    keys.setdefault(exp, len(keys))
        width = len(keys) * n
        planes = [[[0] * width for _ in range(n)]
                  for _ in range(1 if p == 2 else p)]
        for i, row in enumerate(self.rows):
            for j, e in row.items():
                for exp, c in e.terms.items():
                    planes[0][i][keys[exp] * n + j] = c
        _kernel_rows(planes, f, p, m)
        planes = [_transpose_states(plane, n) for plane in planes]
        _kernel_rows(planes, conj, p, m)
        # now entry (i, j) of key number t sits in row j at column t * n + i
        d_max = min((e.d_max for row in self.rows for e in row.values()
                     if e.d_max is not None), default=None)
        out = [{} for _ in range(n)]
        for j in range(n):
            if p == 2:
                row = planes[0][j]
            else:
                row = [_group_ring_value(v)
                       for v in zip(*(plane[j] for plane in planes))]
            blocks = [row[t:t + n] for t in range(0, width, n)]
            for i, values in enumerate(zip(*blocks)):
                if any(values):
                    out[i][j] = WeightPoly(dict(zip(keys, values)), d_max)
        return PolyMatrix(self.labels, out)

    def __str__(self):
        # every cell is written, an absent one as the "0" of str(0)
        lines = ["states: " + " ".join(self.labels)]
        cols = range(self.size)
        for label, row in zip(self.labels, self.rows):
            lines.append("%s: %s" % (label, " | ".join(str(row.get(j, 0))
                                                       for j in cols)))
        return "\n".join(lines)

    def __repr__(self):
        return "PolyMatrix(%d states)" % self.size


def edge_rows(names, groups, sources):
    """One row {next state: WeightPoly} per source state, from the (next
    state, w_1, ..., w_g) tuples of its edges: weights w on the
    coordinate groups g count as the product of x^(|g| - w) y^w over the
    (x, y) pairs of the flat `names`.  Each weight tuple's key is built
    once per call."""
    slots = [_VAR_INDEX[name] for name in names]
    pairs = list(zip(slots[::2], slots[1::2], map(len, groups)))
    keys, rows = {}, []
    for edges in sources:
        cells = {}
        for edge, c in Counter(edges).items():
            ws = edge[1:]
            if ws not in keys:
                e = list(_ZERO_EXP)
                for (x, y, size), w in zip(pairs, ws):
                    e[x], e[y] = size - w, w
                keys[ws] = tuple(e)
            cells.setdefault(edge[0], {})[keys[ws]] = c
        rows.append({j: WeightPoly(terms) for j, terms in cells.items()})
    return rows


def _kernel(f, p, size):
    """m for a q x q exponent table f, entries in range(p), acting on
    `size` = q^m states."""
    q = len(f)
    if q < 2 or any(len(row) != q for row in f):
        raise AlgebraError("kernel is not a square matrix of size >= 2")
    m, rest = 0, size
    while rest > 1 and rest % q == 0:
        rest //= q
        m += 1
    if rest != 1:
        raise AlgebraError("%d states are not a power of the kernel size %d"
                           % (size, q))
    for row in f:
        for t in row:
            if not (isinstance(t, int) and 0 <= t < p):
                raise AlgebraError("kernel exponent %r is not in range(%d)"
                                   % (t, p))
    return m


def _kernel_rows(grid, exps, p, m):
    """Apply the kernel to the row axis of every plane, in place, once
    per coordinate; coordinate j of a row index is its base-q digit of
    weight q^j."""
    q = len(exps)
    n = len(grid[0])
    for j in range(m):
        stride = q ** j
        for block in range(0, n, q * stride):
            for base in range(block, block + stride):
                idx = range(base, base + q * stride, stride)
                src = [[plane[r] for r in idx] for plane in grid]
                for exp_row, r in zip(exps, idx):
                    for plane, row in zip(grid, _combine(src, exp_row, p)):
                        plane[r] = row


def _combine(src, exp_row, p):
    """The planes of sum_t w^exp_row[t] x_t, where src[s][t] is plane s
    of x_t.  For p = 2 there is one plane and w = -1; for odd p, w^e
    moves plane s to plane s + e."""
    acc = [None] * len(src)
    for t, e in enumerate(exp_row):
        for s, rows in enumerate(src):
            row = rows[t]
            if p == 2:
                d, neg = 0, e
            else:
                d, neg = (s + e) % p, False
            cur = acc[d]
            if cur is None:
                acc[d] = [-v for v in row] if neg else row
            elif neg:
                acc[d] = [u - v for u, v in zip(cur, row)]
            else:
                acc[d] = [u + v for u, v in zip(cur, row)]
    return acc


def _transpose_states(rows, n):
    """Swap the state axes of side-by-side grids: out[j][t * n + i] is
    rows[i][t * n + j]."""
    cols = list(zip(*rows))
    return [list(chain.from_iterable(cols[j::n])) for j in range(n)]


def _group_ring_value(planes):
    """sum_s planes[s] w^s, which must be an int: the sum of all p powers
    of w vanishes, so it is one exactly when planes 1..p-1 agree."""
    top = planes[-1]
    if any(v != top for v in planes[1:]):
        raise AlgebraError("residual root-of-unity coefficient %s over "
                           "w^0..w^%d" % ([v - top for v in planes[:-1]],
                                          len(planes) - 2))
    return planes[0] - top


def macwilliams(enum, q, pairs, kernel=None):
    """MacWilliams transform of the weight enumerator or WAM of a code:
    krawtchouk_map on the weight axis, then for a WAM the state kernel,
    given as (exponent table, p) (block codes pass none), then division
    by the code's size, the enumerator at all ones (the sum of the stored
    coefficients).  A size that is not a power of the prime of q raises
    AlgebraError first; the state pass then rejects a non-integer value,
    the division must be exact, and every coefficient must be an int.
    """
    cells = ([enum] if isinstance(enum, WeightPoly)
             else chain.from_iterable(row.values() for row in enum.rows))
    count = sum(sum(e.terms.values()) for e in cells)
    # count is a power p^e of the prime p of q exactly when it divides
    # q^b, b its bit length: p^e <= count < 2^b <= p^b
    if count < 1 or q ** count.bit_length() % count:
        raise AlgebraError("the enumerator at all ones is %d, not a power of "
                           "the prime of q = %d" % (count, q))
    out = krawtchouk_map(enum, q, pairs)
    if kernel is not None:
        out = out.conjugate_by(*kernel)
    return out.exact_div(count).to_int_coeffs()


def krawtchouk_map(enum, q, pairs):
    """The weight axis of the MacWilliams transform, undivided: each
    (x, y) pair of `pairs` goes to x' + (q-1) y', x' - y', (x', y') its
    mirror pair pairs[-1 - t], so the input and parity roles of
    ((x_I, y_I), (x_P, y_P)) trade places.  Each exponent tuple's image
    comes from integer Krawtchouk values once per call, and only the
    stored cells are mapped; a variable outside `pairs` must not occur.
    """
    slots = [(_VAR_INDEX[x], _VAR_INDEX[y]) for x, y in pairs]
    mapped = set(chain.from_iterable(slots))
    images = {}

    def image(exp):
        for i, e in enumerate(exp):
            if e and i not in mapped:
                raise AlgebraError("variable %r occurs but has no image"
                                   % (VARS[i],))
        # x^a y^b -> sum_j K_j(b; a + b, q) x'^(a+b-j) y'^j for each pair;
        # the pairs have disjoint images, so their product adds no terms
        terms = {_ZERO_EXP: 1}
        for (x, y), (xm, ym) in zip(slots, reversed(slots)):
            a, b = exp[x], exp[y]
            row = _krawtchouk_row(a, b, q)
            nxt = {}
            for base, c in terms.items():
                for j, k in enumerate(row):
                    if k:
                        e = list(base)
                        e[xm] += a + b - j
                        e[ym] += j
                        nxt[tuple(e)] = c * k
            terms = nxt
        return terms

    def transform(cell):
        out = {}
        for exp, c in cell.terms.items():
            img = images.get(exp)
            if img is None:
                img = images[exp] = image(exp)
            for e, k in img.items():
                out[e] = out.get(e, 0) + c * k
        return WeightPoly(out, cell.d_max)

    if isinstance(enum, WeightPoly):
        return transform(enum)
    return enum.map_entries(transform)


def _krawtchouk_row(a, b, q):
    """[c_0, ..., c_(a+b)] with (x + (q-1)y)^a (x - y)^b = sum_j c_j
    x^(a+b-j) y^j, so c_j is the Krawtchouk value K_j(b; a + b, q)."""
    return [sum(comb(a, j - i) * (q - 1) ** (j - i) * comb(b, i) * (-1) ** i
                for i in range(max(0, j - a), min(j, b) + 1))
            for j in range(a + b + 1)]


def series_row(n, i, d_max):
    """Row i of sum_{t <= d_max} N^t D^t, each entry truncated at D^d_max,
    as {column index: WeightPoly} over the columns that v_t reaches.

    N must be D-free.  v_0 = <i|, v_(t+1) = v_t N runs over the stored
    cells of N only, so the cost is O(d_max * nonzero cells * terms)
    instead of the O(d_max * S^3) of full matrix powers.
    """
    if d_max < 0:  # truncation below D^0 drops the identity itself
        raise AlgebraError("matrix is not of the form I - N*D")
    if any(exp[_D] for row in n.rows for e in row.values() for exp in e.terms):
        raise AlgebraError("matrix is not of the form I - N*D")
    series = {}
    vec = {i: WeightPoly.const(1)}
    for t in range(d_max + 1):
        for j, v in vec.items():
            series.setdefault(j, {}).update((exp[:_D] + (t,), c)
                                            for exp, c in v.terms.items())
        if t == d_max:
            break
        nxt = {}
        for s, v in vec.items():
            for j, cell in n.rows[s].items():
                acc = nxt.setdefault(j, {})
                for ea, ca in v.terms.items():
                    for eb, cb in cell.terms.items():
                        e = tuple(map(add, ea, eb))
                        acc[e] = acc.get(e, 0) + ca * cb
        vec = {j: WeightPoly(acc) for j, acc in nxt.items()}
    return {j: WeightPoly(terms, d_max) for j, terms in series.items()}


def series_inverse(m, d_max):
    """Truncated inverse of a matrix of the form I - N*D.

    N must be D-free.  Returns sum_{i<=d_max} N^i D^i with every entry
    truncated at D^d_max, one series_row per row.
    """
    # split: constant-in-D part must be the identity, linear part gives -N
    ident = PolyMatrix.identity(m.labels)
    const = m.map_entries(lambda e: e.d_coefficient(0))
    if const != ident or any(e.max_d_degree() > 1
                             for row in m.rows for e in row.values()):
        raise AlgebraError("matrix is not of the form I - N*D")
    big_n = m.map_entries(lambda e: -e.d_coefficient(1))
    return PolyMatrix(m.labels, [series_row(big_n, i, d_max)
                                 for i in range(m.size)])
