"""Sparse multivariate polynomials over a fixed variable alphabet.

The alphabet is x, y, x_I, y_I, x_P, y_P, x_O, y_O, D.  Terms are stored
in a dict keyed by the 9-tuple of exponents.  Coefficients are ints.

A power series in D is held as the polynomial of its terms up to D^d,
built that way where the series is expanded; `truncated(d)` drops the
terms above D^d of any polynomial, and `truncated_mul(other, d)` is a
product that never forms them.
"""

import re
from math import prod
from operator import add, mul

from .errors import AlgebraError

VARS = ("x", "y", "x_I", "y_I", "x_P", "y_P", "x_O", "y_O", "D")
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}
_NVARS = len(VARS)
_D = _VAR_INDEX["D"]
_ZERO_EXP = (0,) * _NVARS

# the input/parity variables, flat and as the (x, y) pairs that the
# MacWilliams transform maps together
IP_VARS = ("x_I", "y_I", "x_P", "y_P")
IP_PAIRS = (IP_VARS[:2], IP_VARS[2:])


class WeightPoly:
    """A polynomial with exact coefficients; zero terms are not stored."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # an explicit loop: a dict comprehension costs more per small cell
        clean = {}
        if terms:
            for exp, coeff in terms.items():
                if coeff:
                    clean[exp] = coeff
        self.terms = clean

    # --- constructors ---

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def const(cls, c):
        return cls({_ZERO_EXP: c})

    @classmethod
    def var(cls, name, exp=1):
        if name not in _VAR_INDEX:
            raise AlgebraError("unknown variable %r" % (name,))
        e = [0] * _NVARS
        e[_VAR_INDEX[name]] = exp
        return cls({tuple(e): 1})

    @classmethod
    def monomial(cls, coeff, exps):
        """`exps` maps variable names to exponents."""
        e = [0] * _NVARS
        for name, k in exps.items():
            if name not in _VAR_INDEX:
                raise AlgebraError("unknown variable %r" % (name,))
            e[_VAR_INDEX[name]] = k
        return cls({tuple(e): coeff})

    # --- ring operations ---

    def _coerce(self, other):
        if isinstance(other, int):
            return WeightPoly.const(other)
        if isinstance(other, WeightPoly):
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, 0) + c
        return WeightPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return WeightPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return WeightPoly({e: other * c for e, c in self.terms.items()})
        if not isinstance(other, WeightPoly):
            return NotImplemented
        terms = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(map(add, ea, eb))
                terms[e] = terms.get(e, 0) + ca * cb
        return WeightPoly(terms)

    __rmul__ = __mul__

    def truncated_mul(self, other, d):
        """(self * other).truncated(d), without forming the terms above
        D^d.  An operand's terms at D^t are one int, c x^e in w-byte field
        sum_v e_v R_v, R_v the place value of v in the mixed radix of the
        product's degrees in the other variables, and D^t of the product
        sums the products of the ints at D^s and D^(t-s), read through a
        bias.  Sparse operands, over four fields a term, multiply term pair
        by term pair."""
        da, db = ([max(col) for col in zip(*p.terms)] or [0] * _D
                  for p in (self, other))
        radix = [a + b + 1 for a, b in zip(da[:_D], db)]
        places, slices = [prod(radix[:v]) for v in range(_D)], ({}, {})
        for part, terms in zip(slices, (self.terms, other.terms)):
            for e, c in terms.items():
                if e[_D] <= d:
                    part.setdefault(e[_D], []).append(
                        (sum(map(mul, e, places)), c))
        rows = [row for part in slices for row in part.values()]
        if sum(max(row)[0] + 1 for row in rows) > 4 * sum(map(len, rows)):
            terms = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    if ea[_D] + eb[_D] <= d:
                        e = tuple(map(add, ea, eb))
                        terms[e] = terms.get(e, 0) + ca * cb
            return WeightPoly(terms)
        sa, sb = ({t: sum(abs(c) for _, c in row) for t, row in part.items()}
                  for part in slices)
        pairs = [(s, u) for s in sa for u in sb if s + u <= d]
        w = (max((sa[s] * sb[u] for s, u in pairs), default=0)
             * len(sa)).bit_length() // 8 + 1
        pa, pb = ({t: sum(c << 8 * w * f for f, c in row)
                   for t, row in part.items()} for part in slices)
        product = {}
        for s, u in pairs:
            product[s + u] = product.get(s + u, 0) + pa[s] * pb[u]
        layout = [(v, places[v], r) for v, r in enumerate(radix) if r > 1]
        return WeightPoly({e: c for t, x in product.items() for e, c in
                           _field_terms(x, layout, w, True, t).items()})

    def __pow__(self, n):
        if n < 0:
            raise AlgebraError("negative powers are not defined")
        acc = WeightPoly.const(1)
        for _ in range(n):
            acc = acc * self
        return acc

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # --- substitution and collapse ---

    def substitute(self, mapping):
        """Replace every variable occurring in self.

        `mapping` maps variable names to WeightPoly (or int) images.  A
        variable that occurs with positive exponent but has no image is
        an error, so accidental partial substitutions cannot slip by.
        """
        return monomial_map(mapping, keep=False)(self)

    def collapse(self, mapping):
        """Like substitute, but variables without an image are kept.

        Only the mapped variables are rewritten: an int image folds into
        the coefficient and a polynomial image multiplies in.
        """
        return monomial_map(mapping, keep=True)(self)

    # --- coefficient utilities ---

    def exact_div(self, n):
        """Divide every coefficient by the integer n; error if not exact."""
        out = {}
        for e, c in self.terms.items():
            q, r = divmod(c, n)
            if r:
                raise AlgebraError("coefficient %r not divisible by %d" % (c, n))
            out[e] = q
        return WeightPoly(out)

    def to_int_coeffs(self):
        """Assert every coefficient is a plain integer and return self."""
        for c in self.terms.values():
            if not isinstance(c, int):
                raise AlgebraError("coefficient %r is not an integer" % (c,))
        return self

    def coefficient(self, exps):
        e = [0] * _NVARS
        for name, k in exps.items():
            e[_VAR_INDEX[name]] = k
        return self.terms.get(tuple(e), 0)

    def d_coefficient(self, d):
        """The coefficient of D^d, as a WeightPoly in the other variables."""
        out = {}
        for e, c in self.terms.items():
            if e[_D] == d:
                out[e[:_D] + (0,)] = c
        return WeightPoly(out)

    def max_d_degree(self):
        return max((e[_D] for e in self.terms), default=0)

    def y_degrees(self):
        """Total degree in all y-flavored variables, per term."""
        ys = [_VAR_INDEX[v] for v in ("y", "y_I", "y_P", "y_O")]
        return sorted({sum(e[i] for i in ys) for e in self.terms})

    def truncated(self, d):
        """self without its terms above D^d."""
        return WeightPoly({e: c for e, c in self.terms.items() if e[_D] <= d})

    # --- canonical rendering ---

    def __str__(self):
        # the table's keys are the terms in canonical order
        table = term_table(self.terms, factor_text)
        return terms_text(self.terms, table, table)

    def __repr__(self):
        return "WeightPoly(%s)" % (self,)


# --- packed fields ---

_NONZERO = re.compile(rb"[^\x00]+")


def _nonzero_fields(data, w):
    """Ascending indices of the w-byte fields of `data` that hold a
    nonzero byte."""
    run = _NONZERO.search(data)
    while run:
        nxt = (run.end() - 1) // w + 1
        yield from range(run.start() // w, nxt)
        # the rest of the last field is skipped, not searched
        run = _NONZERO.search(data, nxt * w)


def _field_terms(x, layout, w, signed, t):
    """{exponent tuple: value} of the nonzero w-byte fields of the int x,
    field sum_v e_v R_v the term x^e D^t, `layout` one (slot, R_v, radix)
    per variable; signed fields, under 2^(8w-1) in size, read via a bias."""
    fields = prod(radix for _, _, radix in layout)
    size, half = fields * w, 1 << 8 * w - 1 if signed else 0
    bias = half and half * ((1 << 8 * size) - 1) // ((1 << 8 * w) - 1)
    # each field's first byte ORs its bytes: nonzero fields make one run
    fold, span = x + bias ^ bias, 1
    while 2 * span <= w:
        fold, span = fold | fold >> 8 * span, 2 * span
    flags = (fold | fold >> 8 * (w - span)).to_bytes(size, "little")[::w]
    data, exp, out = (x + bias).to_bytes(size, "little"), [0] * _D + [t], {}
    for f in _nonzero_fields(flags, 1):
        for slot, place, radix in layout:
            exp[slot] = f // place % radix
        out[tuple(exp)] = int.from_bytes(data[f * w:f * w + w], "little") - half
    return out


# --- the monomial map behind substitute and collapse ---

def monomial_map(mapping, keep):
    """The map cell -> sum c * image(exp) over the terms c x^exp of a
    WeightPoly cell, one map per substitute or collapse call.

    `mapping` maps variable names to WeightPoly or int images.  Each
    distinct exponent tuple's image is built once per map, from powers
    of the polynomial images that are themselves built once; an int
    image folds into the coefficient.  A variable with no image is kept
    when `keep` is set and raises AlgebraError when it is not.
    """
    images = {}
    for name, img in mapping.items():
        if name not in _VAR_INDEX:
            raise AlgebraError("unknown variable %r" % (name,))
        images[_VAR_INDEX[name]] = img
    # powers[i][e] is the image of variable i to the power e
    powers = {i: [1, img] for i, img in images.items()
              if not isinstance(img, int)}
    cache = {}

    def image(exp):
        """The terms of the image of the monomial x^exp."""
        rest, coeff, factors = list(exp), 1, []
        for i, e in enumerate(exp):
            if not e:
                continue
            if i not in images:
                if not keep:
                    raise AlgebraError("variable %r occurs but has no image"
                                       % (VARS[i],))
                continue
            rest[i] = 0
            if i in powers:
                pw = powers[i]
                while len(pw) <= e:
                    pw.append(pw[-1] * pw[1])
                factors.append(pw[e])
            else:
                coeff *= images[i] ** e
        # a unit monomial is left out of the product
        if factors and coeff == 1 and not any(rest):
            out = factors.pop()
        else:
            out = WeightPoly({tuple(rest): coeff})
        for factor in factors:
            out = out * factor
        return tuple(out.terms.items())

    def transform(cell):
        out = {}
        for exp, c in cell.terms.items():
            terms = cache.get(exp)
            if terms is None:
                terms = cache[exp] = image(exp)
            for e, k in terms:
                out[e] = out.get(e, 0) + c * k
        return WeightPoly(out)

    return transform


# --- canonical order and the per-call term table ---

def canonical(exps):
    """The exponent tuples `exps` in the one order every output writes:
    total degree ascending, then the tuples in descending order (two
    C-level sorts, the second stable)."""
    out = sorted(exps, reverse=True)
    out.sort(key=sum)
    return out


def term_table(exps, fragment):
    """{exp: (rank, fragment(exp))} over the distinct exponent tuples
    `exps`, in canonical order, rank the place in that order.  A render
    call builds one table for all the terms it writes."""
    return {exp: (rank, fragment(exp))
            for rank, exp in enumerate(canonical(exps))}


def factor_text(exp):
    """The variables of a monomial as text, such as "x^2*y"; "" for 1."""
    return "*".join([VARS[i] if e == 1 else "%s^%d" % (VARS[i], e)
                     for i, e in enumerate(exp) if e])


def terms_text(terms, order, table):
    """The polynomial {exp: coeff} as text, its exponent tuples taken in
    the order of `order`, each one's factors from a table of
    factor_text."""
    if not terms:
        return "0"
    chunks = []
    for exp in order:
        c, factors = terms[exp], table[exp][1]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = factors
        else:
            body = "%s*%s" % (mag, factors)
        chunks.append((" - " if c < 0 else " + ") + body)
    # the first term drops its separator but keeps a minus sign
    text = "".join(chunks)
    return ("-" if text[1] == "-" else "") + text[3:]
