"""Linear block codes: codeword enumeration, duals, and weight
generating functions with their MacWilliams transforms.

All enumeration is exhaustive over the q^k messages, guarded by a
budget, and all transforms are exact integer computations with a final
checked division by q^k.
"""

from collections import Counter
from itertools import chain

from . import gflinalg
from .errors import BudgetError, FieldError, ShapeError, WamkitError
from .poly import IP_PAIRS, IP_VARS, WeightPoly
from .polymatrix import macwilliams

DEFAULT_BUDGET = 2 ** 22


def check_budget(what, edges, cells=0, budget=DEFAULT_BUDGET):
    """Raise BudgetError if building `what` would enumerate more than
    `budget` edges (or codewords) or fill more than `budget` matrix cells.
    Callers check before they allocate anything."""
    for count, noun in ((edges, "edges"), (cells, "matrix cells")):
        if count > budget:
            raise BudgetError("%s needs %d %s, which exceeds the budget of %d"
                              % (what, count, noun, budget))


class LinearCode:
    """An [n, k] code over GF(q), given by a full-rank generator matrix.

    The generator is a k x n list of lists of element indices.
    """

    def __init__(self, spec, generator):
        self.spec = spec
        self.generator = [list(row) for row in generator]
        self.k = len(self.generator)
        if self.k == 0:
            raise WamkitError("zero-row generator; the [n, 0] code is "
                              "block._ZeroCode(spec, n), or a block-code "
                              "file with 'k 0'")
        self.n = len(self.generator[0])
        if any(len(row) != self.n for row in self.generator):
            raise ShapeError("ragged generator matrix")
        for row in self.generator:
            for x in row:
                if not 0 <= x < spec.q:
                    raise FieldError("entry %r is not an element index" % (x,))
        if gflinalg.rank(spec, self.generator) != self.k:
            raise ShapeError("generator rows are linearly dependent")

    def enumerate_codewords(self, budget=DEFAULT_BUDGET):
        """Yield all q^k codewords, messages in index order."""
        spec, k = self.spec, self.k
        check_budget("codeword enumeration", spec.q ** k, budget=budget)
        for msg in gflinalg.digit_vectors(spec.q, k):
            yield gflinalg.vec_mat(spec, msg, self.generator)


class _ZeroCode:
    """The trivial [n, 0] code; only needed so duals stay total."""

    def __init__(self, spec, n):
        self.spec = spec
        self.generator = []
        self.k = 0
        self.n = n

    def enumerate_codewords(self, budget=DEFAULT_BUDGET):
        yield [0] * self.n


class SystematicCode(LinearCode):
    """A code whose generator has the shape (I_k | A)."""

    def __init__(self, spec, generator):
        super().__init__(spec, generator)
        for i in range(self.k):
            for j in range(self.k):
                want = 1 if i == j else 0
                if self.generator[i][j] != want:
                    raise ShapeError("generator is not of the form (I_k | A)")

    @property
    def parity_part(self):
        return [row[self.k:] for row in self.generator]


def dual_code(code):
    """The dual code under the standard inner product.

    For a systematic (I_k | A) generator the result has the systematic
    dual generator (-A^T | I_{n-k}), which falls out of the kernel
    computation without special casing.
    """
    spec = code.spec
    if code.k == 0:
        return LinearCode(spec, gflinalg.identity(code.n))
    basis = gflinalg.nullspace(spec, code.generator)
    if not basis:
        return _ZeroCode(spec, code.n)
    return LinearCode(spec, basis)


def weight_exponents(groups, weights):
    """(|g| - w, w) for each coordinate group g and its weight w, flat."""
    return tuple(chain.from_iterable((len(g) - w, w)
                                     for g, w in zip(groups, weights)))


def _enumerator(code, names, groups, budget):
    """The enumerator over all q^k codewords by their Hamming weights on
    each coordinate group.  Each codeword is lo - hi for one of the
    q^floor(k/2) packed images lo of the first generator rows and one of
    the q^ceil(k/2) images hi of the others (a span is closed under
    negation), and its nonzero coordinates are the nonzero fields of
    lo XOR hi."""
    spec, half = code.spec, code.k // 2
    check_budget("codeword enumeration", spec.q ** code.k, budget=budget)
    lo = gflinalg.span_images(spec, code.generator[:half])
    hi = gflinalg.span_images(spec, code.generator[half:])
    counts = Counter()
    for a in lo:
        counts.update(gflinalg.group_weights(spec.q, list(map(a.__xor__, hi)),
                                             groups))
    return WeightPoly.from_counts(names, {
        weight_exponents(groups, ws): c for ws, c in counts.items()})


def hwgf(code, budget=DEFAULT_BUDGET):
    """Homogeneous Hamming weight generating function sum x^(n-w) y^w."""
    return _enumerator(code, ("x", "y"), [range(code.n)], budget)


def macwilliams_hwgf(g, q, k):
    """Transform g(x, y) -> g(x + (q-1)y, x - y) / q^k, exactly."""
    return macwilliams(g, q, q ** k, (("x", "y"),))


def ipwgf(code, info_last=False, budget=DEFAULT_BUDGET):
    """Input-parity split weight generating function.

    The information set is the first k coordinates (or the last k when
    `info_last` is set, which is the natural reading of a systematic
    dual generator).  Requires the generator to be the identity on that
    set so that the split is well defined.
    """
    k, n = code.k, code.n
    if info_last:
        info = list(range(n - k, n))
    else:
        info = list(range(k))
    parity = [j for j in range(n) if j not in info]
    for i in range(k):
        for jj, j in enumerate(info):
            want = 1 if i == jj else 0
            if code.generator[i][j] != want:
                raise ShapeError("generator is not systematic on the "
                                 "requested information set")
    return _enumerator(code, IP_VARS, [info, parity], budget)


def macwilliams_ipwgf(g, q, k):
    """Input/parity MacWilliams transform; swaps the I and P roles."""
    return macwilliams(g, q, q ** k, IP_PAIRS)
