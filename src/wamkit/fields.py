"""Finite fields GF(p^r) in a polynomial basis.

An element is identified with an index in range(q): index i has
polynomial coefficients given by the base-p digits of i, least degree
first.  Index 0 is the zero element and index 1 the multiplicative unit.
Arithmetic is table driven, so FieldSpec construction does all the work
once and element operations are dictionary-free integer lookups.
"""

from .errors import FieldError, check_budget
from .gflinalg import digit_vectors


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# --- polynomial helpers over GF(p), coefficient lists low degree first ---

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a, b, p):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p)
    q = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and any(a):
        da = len(a) - 1
        if a[-1] == 0:
            a.pop()
            continue
        c = (a[-1] * inv_lb) % p
        q[da - db] = c
        for i in range(db + 1):
            a[da - db + i] = (a[da - db + i] - c * b[i]) % p
        _poly_trim(a)
    return q, a


def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    _, r = _poly_divmod(out, mod, p)
    return r


def _irreducible(poly, p):
    """Trial division test for a monic poly of degree r over GF(p)."""
    r = len(poly) - 1
    if r < 1:
        return False
    if poly[0] == 0:  # divisible by x
        return r == 1
    for deg in range(1, r // 2 + 1):
        for digits in digit_vectors(p, deg):
            _, rem = _poly_divmod(list(poly), list(digits) + [1], p)
            if not _poly_trim(rem):
                return False
    return True


def default_modulus(p, r):
    """Lexicographically least monic irreducible of degree r over GF(p)."""
    for digits in digit_vectors(p, r):
        cand = digits + (1,)
        if _irreducible(cand, p):
            return cand
    raise FieldError("no irreducible polynomial found (p=%d, r=%d)" % (p, r))


class FieldSpec:
    """GF(p^r) with precomputed add/mul/neg/inv/trace tables."""

    def __init__(self, p, r=1, modulus=None):
        if r < 1:
            raise FieldError("extension degree must be >= 1, got %r" % (r,))
        self.p = p
        self.r = r
        self.q = p ** r
        # the q x q tables are checked before any of them, or the
        # modulus search, is started
        check_budget("the GF(%d^%d) field table" % (p, r), 0, self.q ** 2)
        if not _is_prime(p):
            raise FieldError("p=%r is not prime" % (p,))
        if modulus is None:
            self.modulus = default_modulus(p, r)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != r + 1 or modulus[-1] != 1:
                raise FieldError("modulus must be monic of degree %d" % r)
            if not _irreducible(list(modulus), p):
                raise FieldError("modulus %r is reducible over GF(%d)" % (modulus, p))
            self.modulus = modulus
        self._build_tables()

    def _build_tables(self):
        p, r, q = self.p, self.r, self.q
        # digit-wise: index a * w + i0 holds digit a at weight w = p^t
        # above the t lower digits of i0, so row a * w + i0 is row i0
        # with digit c at weight w added in block c, turned by a blocks
        self.add, self.neg = [[0]], [0]
        for t in range(r):
            w = p ** t
            blocks = [[s + w * c for c in range(p) for s in row]
                      for row in self.add]
            self.add = [row[a * w:] + row[:a * w] for a in range(p)
                        for row in blocks]
            self.neg = [s + w * (-a % p) for a in range(p) for s in self.neg]
        exp = self._exp_table()
        log = [None] * q
        for e, i in enumerate(exp):
            log[i] = e
        logs = log[1:]
        exp2 = exp + exp
        self.mul = [[0] * q] + [[0] + list(map(exp2[li:].__getitem__, logs))
                                for li in logs]
        self.inv = [None] + [exp[-li] for li in logs]
        # the conjugate x^(p^j) of x = g^l is g^(l p^j), read off the
        # table
        powers = [p ** j for j in range(r)]
        self.trace = [0] + [self._trace(exp[li * pj % (q - 1)]
                                        for pj in powers) for li in logs]

    def _exp_table(self):
        """[g^0, ..., g^(q-2)] for the least primitive index g; the
        modulus need not be primitive, so x itself may not generate."""
        p, q, mod = self.p, self.q, list(self.modulus)
        for g in range(1, q):
            base = [g // p ** t % p for t in range(self.r)]
            exp, cur = [1], [1]
            while len(exp) < q:
                cur = _poly_mulmod(cur, base, mod, p)
                i = sum(c * p ** t for t, c in enumerate(cur))
                if i == 1:
                    break
                exp.append(i)
            if len(exp) == q - 1:
                return exp
        raise FieldError("no primitive element found")  # every field has one

    def _trace(self, conjugates):
        """The sum of an element's conjugates x, x^p, ..., x^(p^(r-1))."""
        acc = 0
        for x in conjugates:
            acc = self.add[acc][x]
        # trace lands in the prime subfield, whose elements are indices 0..p-1
        if acc >= self.p:
            raise FieldError("trace fell outside the prime subfield")
        return acc

    def sub(self, i, j):
        return self.add[i][self.neg[j]]

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.r, self.modulus) == (other.p, other.r, other.modulus))

    def __hash__(self):
        return hash((self.p, self.r, self.modulus))

    def __repr__(self):
        return "FieldSpec(p=%d, r=%d, modulus=%s)" % (self.p, self.r, list(self.modulus))
