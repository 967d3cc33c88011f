"""Linear block codes: codeword enumeration, duals, and weight
generating functions with their MacWilliams transforms.

All enumeration is exhaustive over the q^k messages, guarded by a
budget, and all transforms are exact integer computations with a final
checked division by the code's size q^k, read off the enumerator.
"""

from itertools import chain, repeat

from . import gflinalg
from .errors import FieldError, ShapeError, WamkitError, check_budget
from .poly import IP_PAIRS, IP_VARS
from .polymatrix import edge_rows, macwilliams

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


class _ZeroCode:
    """The trivial [n, 0] code; only needed so duals stay total."""

    def __init__(self, spec, n):
        self.spec = spec
        self.generator = []
        self.k = 0
        self.n = n


class SystematicCode(LinearCode):
    """A code whose generator has the shape (I_k | A)."""

    def __init__(self, spec, generator):
        super().__init__(spec, generator)
        if not gflinalg.is_identity_on(self.generator, range(self.k)):
            raise ShapeError("generator is not of the form (I_k | A)")


def dual_code(code):
    """The dual code under the standard inner product.

    For a systematic (I_k | A) generator the result has the systematic
    dual generator (-A^T | I_{n-k}), which falls out of the kernel
    computation without special casing.
    """
    spec = code.spec
    basis = (gflinalg.nullspace(spec, code.generator) if code.k
             else gflinalg.identity(code.n))
    if not basis:
        return _ZeroCode(spec, code.n)
    return LinearCode(spec, basis)


def _enumerator(code, names, groups):
    """The enumerator over all q^k codewords by their Hamming weights on
    each coordinate group, through polymatrix.edge_rows: the codewords
    are the edges from state 0 to state 0, streamed one lo image at a
    time, so they are never stored.  Each codeword is lo - hi for one of
    the q^floor(k/2) packed images lo of the first generator rows and
    one of the q^ceil(k/2) images hi of the others (a span is closed
    under negation), and its nonzero coordinates are the nonzero fields
    of lo XOR hi."""
    spec, half = code.spec, code.k // 2
    check_budget("codeword enumeration", spec.q ** code.k)
    lo = gflinalg.span_images(spec, code.generator[:half])
    hi = gflinalg.span_images(spec, code.generator[half:])
    edges = chain.from_iterable(
        zip(repeat(0), repeat(0), *gflinalg.group_weights(
            spec.q, list(map(a.__xor__, hi)), groups)) for a in lo)
    return edge_rows(names, groups, 1, edges)[0][0]


def hwgf(code):
    """Homogeneous Hamming weight generating function sum x^(n-w) y^w."""
    return _enumerator(code, ("x", "y"), [range(code.n)])


def macwilliams_hwgf(g, q):
    """Transform g(x, y) -> g(x + (q-1)y, x - y) / g(1, 1), exactly."""
    return macwilliams(g, q, (("x", "y"),))


def ipwgf(code, info_last=False):
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
    if not gflinalg.is_identity_on(code.generator, info):
        raise ShapeError("generator is not systematic on the requested "
                         "information set")
    return _enumerator(code, IP_VARS, [info, parity])


def macwilliams_ipwgf(g, q):
    """Input/parity MacWilliams transform; swaps the I and P roles."""
    return macwilliams(g, q, IP_PAIRS)
