"""Square matrices of WeightPoly entries indexed by state labels."""

from collections import Counter
from functools import reduce
from itertools import chain, compress, islice
from math import prod
from operator import add, or_

from . import errors
from .errors import AlgebraError, check_budget
from .gflinalg import decode_code
from .poly import (WeightPoly, _D, _VAR_INDEX, _ZERO_EXP, _field_terms,
                   _nonzero_fields, factor_text, monomial_map, term_table,
                   terms_text)


class PolyMatrix:
    """A labelled square matrix with polynomial entries.

    Labels fix both the row and column order.  `rows` holds one dict per
    row, {column index: nonzero WeightPoly}: a zero cell is not stored,
    and m[i, j] reads it as zero.  A matrix is never changed once built.
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
    def from_nonzero_rows(cls, labels, rows):
        """A matrix that holds `rows` as they are, one per label, neither
        copied nor tested: they must store no zero cell, as edge_rows's
        rows do not."""
        out = cls.__new__(cls)
        out.labels, out.rows = labels, rows
        return out

    @property
    def size(self):
        return len(self.labels)

    def __getitem__(self, ij):
        i, j = ij
        cell = self.rows[i].get(j)
        return WeightPoly.zero() if cell is None else cell

    def __mul__(self, other):
        if isinstance(other, (int, WeightPoly)):
            return self.map_entries(lambda e: e * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, PolyMatrix)
                and self.labels == other.labels
                and self.rows == other.rows)

    def map_entries(self, fn):
        """fn applied once to each distinct stored cell object, so cells
        that share one object stay shared; fn must send zero to zero, and
        the cells it maps to zero are dropped."""
        fn = _once(fn)
        return PolyMatrix(self.labels, [{j: fn(e) for j, e in row.items()}
                                        for row in self.rows])

    def transpose(self):
        rows = [{} for _ in self.labels]
        for i, row in enumerate(self.rows):
            for j, e in row.items():
                rows[j][i] = e
        return PolyMatrix(self.labels, rows)

    def substitute(self, mapping):
        """WeightPoly.substitute of every stored cell, through one
        monomial map per call, so each distinct exponent tuple is mapped
        once."""
        return self.map_entries(monomial_map(mapping, keep=False))

    def collapse(self, mapping):
        """WeightPoly.collapse of every stored cell, through one monomial
        map per call, so each distinct exponent tuple is mapped once."""
        # cells are never mutated, so an empty mapping hands back self
        if not mapping:
            return self
        return self.map_entries(monomial_map(mapping, keep=True))

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
        formed: _transform_points applies the kernel to the row axis one
        coordinate at a time, then its conjugate to the column axis, on
        one signed plane pair per exponent tuple, entry (i, j) at point
        i * S + j.  A result coefficient that is not an integer raises
        AlgebraError.  Equal result cells are one object.
        """
        m = _kernel(f, p, self.size)
        q, n = len(f), self.size
        check_budget("WAM", 0, n * n)
        entries, total = {}, 0
        for i, row in enumerate(self.rows):
            for j, e in row.items():
                for exp, c in e.terms.items():
                    entries.setdefault(exp, []).append((i * n + j, c))
                    total += abs(c)
        # a field only ever holds a sub-sum of the input's |c|
        w = max(1, (total.bit_length() + 7) // 8)
        conj = [[-t % p for t in row] for row in f]
        stages = ([(f, n * q ** t) for t in range(m)]
                  + [(conj, q ** t) for t in range(m)])
        cells = _transform_points(
            [(exp, *_signed_planes(at, n * n * w, w))
             for exp, at in entries.items()], n * n, w, q, p, stages)
        out = [{} for _ in range(n)]
        for cell in sorted(cells):
            out[cell // n][cell % n] = cells[cell]
        return PolyMatrix(self.labels, out)

    def __str__(self):
        def write(e, table):
            return terms_text(e.terms, sorted(e.terms, key=table.__getitem__),
                              table)

        rows = self.rendered_rows(factor_text, write, "0", " | ")
        return "".join(chain(["states: " + " ".join(self.labels)],
                             *zip(map("\n%s: ".__mod__, self.labels), rows)))

    def rendered_rows(self, fragment, write, zero, sep):
        """The text of every row, its cells joined by `sep`, an absent
        cell as `zero`, the S^2 cells charged to the budget first.  One
        call builds one term_table of `fragment` over the exponent tuples
        of the distinct stored cell objects, and write(cell, table)
        writes each distinct object once.  A row joins its stored cells
        in column order and, between them, each run of r absent cells as
        one slice of a blank row, sep.join([zero] * S), built once per
        call: its first r cells.  So an absent cell costs only the
        copying of its bytes."""
        check_budget("WAM", 0, self.size ** 2)
        # an id names one cell only while the matrix holds it
        cells = {id(e): e for row in self.rows for e in row.values()}
        table = term_table(set(chain.from_iterable(
            e.terms for e in cells.values())), fragment)
        text = {key: write(e, table) for key, e in cells.items()}
        n = self.size
        blank = sep.join([zero] * n)
        step = len(zero) + len(sep)
        for row in self.rows:
            items, at = [], 0
            for j in sorted(row):
                if j > at:
                    items.append(blank[:(j - at) * step - len(sep)])
                items.append(text[id(row[j])])
                at = j + 1
            if at < n:
                items.append(blank[:(n - at) * step - len(sep)])
            yield sep.join(items)

    def exponents(self):
        """The set of exponent tuples of the stored cells."""
        return set(chain.from_iterable(e.terms for row in self.rows
                                       for e in row.values()))

    def __repr__(self):
        return "PolyMatrix(%d states)" % self.size


def edge_rows(names, groups, states, edges):
    """One row {next state: WeightPoly} per source state in
    range(states), from one stream of (source, next state, weight code)
    edge tuples counted in one Counter.  Cells with equal counts are one
    WeightPoly object, each code counted as its code_exponents monomial,
    whose key is built once per call."""
    rows = [{} for _ in range(states)]
    for (s, j, code), c in Counter(edges).items():
        rows[s].setdefault(j, {})[code] = c
    keys, polys = {}, {}
    for row in rows:
        for j, counts in row.items():
            # equal counts in any insertion order give one key
            key = frozenset(counts.items())
            poly = polys.get(key)
            if poly is None:
                terms = {}
                for code, c in counts.items():
                    exp = keys.get(code)
                    if exp is None:
                        exp = keys[code] = code_exponents(names, groups, code)
                    terms[exp] = c
                poly = polys[key] = WeightPoly(terms)
            row[j] = poly
    return rows


# about the edges per run of conv.section_dual and per counted_series Counter
_CHUNK = 1 << 12


def code_exponents(names, groups, code):
    """The exponent tuple of the product of x^(|g| - w) y^w over the
    (x, y) pairs of the flat `names`, w the weight on the coordinate
    group g that the weight code holds (gflinalg.weight_codes)."""
    e = list(_ZERO_EXP)
    ws = decode_code(code, [len(g) + 1 for g in groups])
    for x, y, g, w in zip(names[::2], names[1::2], groups, ws):
        e[_VAR_INDEX[x]], e[_VAR_INDEX[y]] = len(g) - w, w
    return tuple(e)


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


def _signed_planes(entries, size, w):
    """(plus, minus): ints of `size` bytes whose w-byte field f holds c
    in plus for each (f, c) of `entries` with c > 0, and |c| in minus
    for c < 0."""
    plus, minus = bytearray(size), bytearray(size)
    for field, c in entries:
        at = field * w
        (plus if c > 0 else minus)[at:at + w] = abs(c).to_bytes(w, "little")
    return int.from_bytes(plus, "little"), int.from_bytes(minus, "little")


def _transform_points(sources, points, w, q, p, stages):
    """{point: polynomial} over the nonzero points of the character
    transform of `sources`, each (exponent tuple, plus, minus): one key,
    whose values plus - minus are ints of `points` w-byte fields, w
    wide enough for any sub-sum of the input's |c|.  character_pass
    takes as many keys a pass as errors.BUDGET holds at
    (q p + p + 2) points w bytes a key, at least one, their fields
    interleaved point by point.  A point's fields over all passes are
    one byte string, each pass's first key ahead of its fields, decoded
    once per distinct string, so points with equal polynomials share one
    object and a caller maps each distinct polynomial once."""
    width = points * w
    batch, found = max(1, errors.BUDGET // ((q * p + p + 2) * width)), {}
    for first in range(0, len(sources), batch):
        chunk = sources[first:first + batch]
        block = len(chunk) * w
        planes = [bytearray(points * block), bytearray(points * block)]
        for at, (_, *signed) in enumerate(chunk):
            for plane, value in zip(planes, signed):
                if value:
                    data = value.to_bytes(width, "little")
                    for b in range(w):
                        plane[at * w + b::block] = data[b::w]
        out = character_pass(
            [int.from_bytes(plane, "little") for plane in planes],
            len(chunk), points, w, p, stages)
        tag = first.to_bytes(4, "little")
        for point, fields in out.items():
            found[point] = found.get(point, b"") + tag + fields
    polys, values = {}, {}
    for point, key in found.items():
        poly = polys.get(key)
        if poly is None:
            terms, at = {}, 0
            while at < len(key):
                first = int.from_bytes(key[at:at + 4], "little")
                block = min(batch, len(sources) - first) * w
                for t in range(0, block, w):
                    lo = at + 4 + t
                    terms[sources[first + t // w][0]] = (
                        int.from_bytes(key[lo:lo + w], "little")
                        - int.from_bytes(key[lo + block:lo + block + w],
                                         "little"))
                at += 4 + 2 * block
            poly = polys[key] = WeightPoly(terms)
        values[point] = poly
    return values


def _once(fn):
    """fn, called once per distinct argument object, which must outlive
    the calls."""
    done = {}

    def mapped(e):
        out = done.get(id(e))
        if out is None:
            out = done[id(e)] = fn(e)
        return out

    return mapped


def character_pass(values, keys, cells, w, p, stages):
    """The character transform of `keys` grids of `cells` integers each,
    on packed planes: {cell: fields} over the cells with a nonzero
    result, fields the cell's `keys` w-byte fields of the result's plane
    0 and then of its plane p-1, whose difference is the value.

    `values` is the pair (plus, minus) of ints of w-byte fields, field
    cell * keys + key holding c of an input c > 0 in plus and |c| of an
    input c < 0 in minus, and `stages` one (exponent table, stride) pair
    per coordinate, the stride counted in cells: the coordinate's digit
    u of a cell moves it by u * stride.  A value lives in the
    group ring Z[C_p] as p nonnegative planes, where w^t rotates the
    planes; a coefficient c < 0 is |c| on planes 1..p-1, as
    -1 = w + ... + w^(p-1).  Each plane is one int of w-byte fields, so a
    coordinate is a few whole-plane shifts, masks and additions; w must
    hold any sub-sum of the |c|.  A result is an integer exactly when
    planes 1..p-1 agree; otherwise AlgebraError names the residual of
    the first bad field, by cell and then by key.
    """
    block = keys * w
    size = cells * block
    plus, minus = values
    planes = [plus] + [minus] * (p - 1)
    for exps, stride in stages:
        _kernel_stage(planes, exps, stride * block, size)
    top = planes[-1]
    if any(plane != top for plane in planes[1:]):
        bad = reduce(or_, (plane ^ top for plane in planes[1:]))
        first = next(_nonzero_fields(bad.to_bytes(size, "little"), w))
        field = (1 << 8 * w) - 1
        v = [plane >> 8 * w * first & field for plane in planes]
        raise AlgebraError("residual root-of-unity coefficient %s over "
                           "w^0..w^%d" % ([c - v[-1] for c in v[:-1]],
                                          p - 2))
    # the value is plane 0 minus plane p-1, nonzero where they differ
    lo = planes[0].to_bytes(size, "little")
    hi = top.to_bytes(size, "little")
    return {x: lo[x * block:x * block + block] + hi[x * block:x * block
                                                   + block]
            for x in _nonzero_fields((planes[0] ^ top).to_bytes(
                size, "little"), block)}


def _kernel_stage(planes, exps, stride, size):
    """Apply the kernel exps to one state coordinate of the packed
    planes, in place: the coordinate's digit u of an entry moves its
    field by u * stride bytes in a `size`-byte plane.  Output digit a on
    plane s sums input digit u on plane s - exps[a][u]."""
    q, p = len(exps), len(planes)
    mask = int.from_bytes((b"\xff" * stride + b"\x00" * (q - 1) * stride)
                          * (size // (q * stride)), "little")
    bits = 8 * stride
    # a shift by 0 would copy the plane, and so would a sum started at 0
    digits = [[(plane >> u * bits if u else plane) & mask for plane in planes]
              for u in range(q)]
    for s in range(p):
        for a, row in enumerate(exps):
            part = reduce(add, (digits[u][(s - e) % p]
                                for u, e in enumerate(row)))
            planes[s] = part if a == 0 else planes[s] | part << a * bits


def macwilliams(enum, q, pairs, kernel=None):
    """MacWilliams transform of the weight enumerator or WAM of a code.

    For a WAM the state kernel, given as (exponent table, p) (block
    codes pass none), transforms the counts.  Then each distinct cell
    takes weight_axis's tail, which divides by the code's size, the
    enumerator at all ones (the sum of the stored coefficients).  A
    size that is not a power of the prime of q raises AlgebraError
    first, then a variable outside `pairs`; the state pass rejects a
    non-integer value, the division must be exact, and every
    coefficient must be an int.
    """
    cells = ([enum] if isinstance(enum, WeightPoly)
             else [e for row in enum.rows for e in row.values()])
    count = sum(sum(e.terms.values()) for e in cells)
    # count is a power p^e of the prime p of q exactly when it divides
    # q^b, b its bit length: p^e <= count < 2^b <= p^b
    if count < 1 or q ** count.bit_length() % count:
        raise AlgebraError("the enumerator at all ones is %d, not a power of "
                           "the prime of q = %d" % (count, q))
    tail = weight_axis(q, pairs, count,
                       chain.from_iterable(e.terms for e in cells))
    out = enum if kernel is None else enum.conjugate_by(*kernel)
    return tail(out) if isinstance(out, WeightPoly) else out.map_entries(tail)


def weight_axis(q, pairs, divisor, exps):
    """The weight axis of the MacWilliams transform, built per call: the
    tail cell -> image(cell) / divisor, image the monomial map of
    weight_mapping(q, pairs), called once per distinct cell object; the
    division must be exact and every coefficient an int.  The exponent
    tuples `exps` are mapped first, in order, so a variable outside
    `pairs` raises before any state pass, and the tail reads their
    images from the map's cache; the map commutes with the state
    kernel."""
    image = monomial_map(weight_mapping(q, pairs), keep=False)
    for exp in dict.fromkeys(exps):
        image(WeightPoly({exp: 1}))
    return _once(lambda e: image(e).exact_div(divisor).to_int_coeffs())


def weight_mapping(q, pairs):
    """The weight axis of the MacWilliams transform: each (x, y) pair of
    `pairs` to x' + (q-1) y', x' - y', (x', y') its mirror pair
    pairs[-1 - t], so the input and parity roles of ((x_I, y_I),
    (x_P, y_P)) trade places."""
    mapping = {}
    for (x, y), (xm, ym) in zip(pairs, reversed(pairs)):
        xv, yv = WeightPoly.var(xm), WeightPoly.var(ym)
        mapping[x], mapping[y] = xv + (q - 1) * yv, xv - yv
    return mapping


def series_entry(n, i, d_max):
    """Entry (i, i) of sum_{t <= d_max} N^t D^t, and whether row i of
    N^d_max is nonzero, that is whether paths leaving state i are still
    open at depth d_max."""
    columns, open_paths = _series(n, i, d_max, (i,))
    return WeightPoly(columns[i]), open_paths


def series_width(states, degrees, rmax, d_max):
    """The field width w of the packed series to D^d_max over a matrix
    of `states` states, variable degrees `degrees` and largest row sum
    of |c| rmax, once its states * fields * w bytes are charged to the
    budget: fields is the product of d_max deg + 1 over the degrees.
    A state's int holds sums of |c| products, at most rmax^t, so w =
    ceil(bitlen(rmax^d_max) / 8) never overflows (_series adds a sign)."""
    if d_max < 0:  # truncation below D^0 drops the identity itself
        raise AlgebraError("no series is truncated below D^0")
    fields = prod(d_max * deg + 1 for deg in degrees)
    # rmax^d_max has more than d_max * (bitlen(rmax) - 1) bits: a depth
    # refused on that width is refused before the power is formed
    w = d_max * max(rmax.bit_length() - 1, 0) // 8 + 1
    if states * fields * w <= errors.BUDGET:
        w = max(1, ((rmax ** d_max).bit_length() + 7) // 8)
    check_budget("the series to D^%d" % d_max, 0,
                 nbytes=states * fields * w)
    return w


def counted_series(states, edges, inputs, d_max, degree, w, free=False):
    """Entry (0, 0) of sum_{t <= d_max} N^t D^t by packed_series, no cell
    of N built: N in y alone over range(states) has a term y^v in cell
    (s, j) per (s, j, v) of the stream `edges`, less one weight-0 loop at
    state 0 if free.  Each source has `inputs` edges in a row, so Counters
    of whole sources merge its parallel edges."""
    rows = [[] for _ in range(states)]
    runs = iter(lambda: Counter(islice(edges, max(1, _CHUNK // inputs)
                                       * inputs)), Counter())
    for (s, j, v), c in chain.from_iterable(map(Counter.items, runs)):
        rows[s].append((j, v * 8 * w, c))
    if free:
        rows[0] = [(j, f, c - (j == f == 0)) for j, f, c in rows[0]
                   if (j, f, c) != (0, 0, 1)]
    layout = [(_VAR_INDEX["y"], 1, d_max * degree + 1)] if degree else []
    return WeightPoly(packed_series(rows, 0, d_max, (0,), layout, w)[0][0])


def _series(n, i, d_max, columns):
    """packed_series of the PolyMatrix N from row i over `columns`,
    charged by series_width from the degrees and the largest row sum of
    |c| of its stored cells.  N must be D-free."""
    exps = n.exponents()
    if any(exp[_D] for exp in exps):
        raise AlgebraError("matrix is not of the form I - N*D")
    degrees = [max((exp[slot] for exp in exps), default=0)
               for slot in range(_D)]
    coeffs = [[c for e in row.values() for c in e.terms.values()]
              for row in n.rows]
    rmax = max((sum(map(abs, row)) for row in coeffs), default=0)
    w = series_width(n.size, degrees, rmax, d_max)
    # and room for a sign: at most a byte more, uncharged
    if signed := any(c < 0 for row in coeffs for c in row):
        w = (rmax ** d_max).bit_length() // 8 + 1
    layout, fields = [], 1
    for slot, deg in enumerate(degrees):
        if deg:
            layout.append((slot, fields, d_max * deg + 1))
            fields *= d_max * deg + 1
    return packed_series(
        [[(j, 8 * w * sum(exp[slot] * place for slot, place, _ in layout), c)
          for j, e in row.items() for exp, c in e.terms.items()]
         for row in n.rows], i, d_max, columns, layout, w, signed)


def packed_series(edges, i, d_max, columns, layout, w, signed=False):
    """Row i of sum_{t <= d_max} N^t D^t over `columns`, as {column:
    terms}, and whether row i of N^d_max is nonzero, N given by its
    edges: edges[s] lists (j, shift, c) per term c x^e of cell (s, j),
    shift 8w times the field of e.

    v_0 = <i|, v_(t+1) = v_t N, and each state's entry of v_t is one int
    in a list by state, x^e its little-endian w-byte field sum_v e_v R_v,
    R_v the place value of v in the mixed radix of the bounds d_max
    deg_v(N) + 1, `layout` one (exponent slot, R_v, radix) per variable.
    A step adds each live state's int, shifted by each edge and times c
    if c != 1, to the edge's next state.  Only `columns` are decoded,
    through a per-field bias if N is `signed`."""
    out, live, vec = {}, [i], [int(s == i) for s in range(len(edges))]
    for t in range(d_max + 1):
        if t:
            nxt = [0] * len(edges)
            for s in live:
                x = vec[s]
                for j, shift, c in edges[s]:
                    y = x << shift if c == 1 else (x << shift) * c
                    nxt[j] = nxt[j] + y if nxt[j] else y  # 0 + y copies y
            # a state that holds zero leaves no successor
            vec, live = nxt, list(compress(range(len(nxt)), nxt))
            if not live:
                break
        for j in columns:
            if vec[j]:
                out.setdefault(j, {}).update(
                    _field_terms(vec[j], layout, w, signed, t))
    return out, bool(live)


def series_inverse(m, d_max):
    """Truncated inverse of a matrix of the form I - N*D.

    N must be D-free.  Returns sum_{i<=d_max} N^i D^i, every row and
    column from the packed series.
    """
    # split: constant-in-D part must be the identity, linear part gives -N
    const = m.map_entries(lambda e: e.d_coefficient(0))
    if const.rows != [{i: WeightPoly.const(1)} for i in range(m.size)] or any(
            e.max_d_degree() > 1 for row in m.rows for e in row.values()):
        raise AlgebraError("matrix is not of the form I - N*D")
    big_n = m.map_entries(lambda e: -e.d_coefficient(1))
    return PolyMatrix(m.labels, [
        {j: WeightPoly(terms)
         for j, terms in _series(big_n, i, d_max, range(m.size))[0].items()}
        for i in range(m.size)])
