"""Small GF(p^r) arithmetic and linear algebra for the benchmark.

Inputs are generated and outputs are checked with this module instead of
wamkit's own field and matrix code, so that an oracle does not share a
defect with the program it checks.  Elements are indices in range(q): the
base-p digits of an index are its polynomial coefficients, least degree
first, reduced modulo the least monic irreducible of degree r (the same
element numbering wamkit uses for a field given without a modulus).
"""

import itertools


def _digits(x, p, r):
    return [(x // p ** i) % p for i in range(r)]


def _undigits(ds, p):
    return sum(d * p ** i for i, d in enumerate(ds))


def _polymod_mul(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    r = len(mod) - 1
    for d in range(len(out) - 1, r - 1, -1):
        c = out[d]
        if c:
            for i in range(r + 1):
                out[d - r + i] = (out[d - r + i] - c * mod[i]) % p
    return out[:r]


def _least_irreducible(p, r):
    """Least monic irreducible of degree r, constant coefficient fastest
    (wamkit's default modulus); a root test decides irreducibility for
    r <= 3."""
    if r == 1:
        return (0, 1)
    for idx in range(p ** r):
        cand = _digits(idx, p, r) + [1]
        if all(sum(c * x ** i for i, c in enumerate(cand)) % p
               for x in range(p)):
            return tuple(cand)
    raise ValueError("no irreducible of degree %d over GF(%d)" % (r, p))


class GF:
    """GF(p^r) for r <= 3 with add/sub/mul/neg tables."""

    def __init__(self, p, r=1):
        if r > 3:
            raise ValueError("only extension degrees up to 3 are supported")
        self.p, self.r, self.q = p, r, p ** r
        q = self.q
        mod = _least_irreducible(p, r)
        dig = [_digits(x, p, r) for x in range(q)]
        self.add = [[_undigits([(a + b) % p for a, b in zip(dig[x], dig[y])], p)
                     for y in range(q)] for x in range(q)]
        self.neg = [_undigits([(-a) % p for a in dig[x]], p) for x in range(q)]
        self.mul = [[_undigits(_polymod_mul(dig[x], dig[y], mod, p), p)
                     for y in range(q)] for x in range(q)]
        self.inv = [0] + [next(y for y in range(1, q) if self.mul[x][y] == 1)
                          for x in range(1, q)]

    def sub(self, x, y):
        return self.add[x][self.neg[y]]

    def dot(self, u, v):
        acc = 0
        for a, b in zip(u, v):
            acc = self.add[acc][self.mul[a][b]]
        return acc

    def vec_mat(self, v, rows):
        """v . M for a vector v and a matrix given by its rows."""
        if not rows:
            return []
        out = [0] * len(rows[0])
        for c, row in zip(v, rows):
            if c:
                out = [self.add[o][self.mul[c][x]] for o, x in zip(out, row)]
        return out

    def mat_mul(self, a, b):
        return [self.vec_mat(row, b) for row in a]

    def rref(self, rows):
        """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
        work = [list(r) for r in rows]
        pivots = []
        top = 0
        ncols = len(work[0]) if work else 0
        for col in range(ncols):
            pick = next((i for i in range(top, len(work)) if work[i][col]), None)
            if pick is None:
                continue
            work[top], work[pick] = work[pick], work[top]
            inv = self.inv[work[top][col]]
            work[top] = [self.mul[inv][x] for x in work[top]]
            for i in range(len(work)):
                f = work[i][col]
                if i != top and f:
                    work[i] = [self.sub(x, self.mul[f][y])
                               for x, y in zip(work[i], work[top])]
            pivots.append(col)
            top += 1
        return work[:top], pivots

    def rank(self, rows):
        return len(self.rref(rows)[1]) if rows else 0

    def nullspace(self, rows, ncols):
        """Basis of {v : v . row = 0 for every row}."""
        red, pivots = self.rref(rows) if rows else ([], [])
        free = [c for c in range(ncols) if c not in pivots]
        basis = []
        for f in free:
            v = [0] * ncols
            v[f] = 1
            for row, pc in zip(red, pivots):
                v[pc] = self.neg[row[f]]
            basis.append(v)
        return basis

    def span(self, basis, width):
        """Every word in the row span of `basis`, by exhaustive combination."""
        for combo in itertools.product(range(self.q), repeat=len(basis)):
            yield self.vec_mat(list(combo), basis) if basis else [0] * width

    def vectors(self, length):
        """All of GF(q)^length, first coordinate varying fastest."""
        for t in itertools.product(range(self.q), repeat=length):
            yield tuple(reversed(t))
