"""Quantum convolutional codes (entanglement assisted) from Clifford
seeds: weight adjacency matrices, duality, polynomial check matrices
and state diagrams.

A code uses a Clifford seed on n + m qubits.  Input qubits are split
into memory (I_M), logical (I_L), ancilla (I_A) and entangled (I_E)
roles; output qubits into next-memory (I_Mout) and physical (I_P).  The
WAM enumerates the image of M (x) L (x) S^Z (x) I over all memory words
M, logical words L and Z-type ancilla words S^Z, reading off the input
memory word, the physical output weight, and the output memory word.
The sum of all entries at x = y = 1 is therefore 4^m * 4^k * 2^a.
"""

from collections import Counter
from itertools import repeat

from .block import check_budget
from .errors import ShapeError
from .fields import FieldSpec
from .gflinalg import (cleared_response, impulse_response, masked_weights,
                       span_images)
from .pauli import (PauliWord, pauli_state_labels, pauli_state_words,
                    symplectic_product)
from .poly import WeightPoly
from .polymatrix import PolyMatrix, macwilliams

_GF2 = FieldSpec(2)

# the letter of a qubit by its (z, x) bits
_LETTER = (("I", "X"), ("Z", "Y"))

# single-qubit transform kernel in the I, X, Y, Z basis, as the
# exponents e of its signs (-1)^e
F1 = (
    (0, 0, 0, 0),
    (0, 0, 1, 1),
    (0, 1, 0, 1),
    (0, 1, 1, 0),
)


class EaqccSpec:
    """A Clifford seed plus role assignments for an ((n, k; c, m)) code.

    Role sets hold 1-based qubit positions.  Input roles partition
    1..n+m into I_M (size m), I_L (size k), I_A (size a = n-k-c) and
    I_E (size c); output roles partition the same range into I_Mout
    (size m) and I_P (size n).
    """

    def __init__(self, seed, n, k, c, m, i_m, i_l, i_a, i_e, i_mout, i_p):
        self.seed = seed
        self.n, self.k, self.c, self.m = n, k, c, m
        self.a = n - k - c
        if self.a < 0:
            raise ShapeError("need k + c <= n")
        if seed.width != n + m:
            raise ShapeError("seed acts on %d qubits, expected n + m = %d"
                             % (seed.width, n + m))
        self.i_m = tuple(sorted(i_m))
        self.i_l = tuple(sorted(i_l))
        self.i_a = tuple(sorted(i_a))
        self.i_e = tuple(sorted(i_e))
        self.i_mout = tuple(sorted(i_mout))
        self.i_p = tuple(sorted(i_p))
        full = set(range(1, n + m + 1))
        if (len(self.i_m), len(self.i_l), len(self.i_a), len(self.i_e)) != \
                (m, k, self.a, c):
            raise ShapeError("input role sizes do not match (k, c, m)")
        if set(self.i_m) | set(self.i_l) | set(self.i_a) | set(self.i_e) != full \
                or m + k + self.a + c != n + m:
            raise ShapeError("input roles do not partition the qubits")
        if (len(self.i_mout), len(self.i_p)) != (m, n) \
                or set(self.i_mout) | set(self.i_p) != full:
            raise ShapeError("output roles do not partition the qubits")

    def validate_clifford(self):
        return self.seed.validate()


def dual_spec(spec):
    """Dual code: logical and entangled roles trade places."""
    return EaqccSpec(spec.seed, spec.n, spec.c, spec.k, spec.m,
                     spec.i_m, spec.i_e, spec.i_a, spec.i_l,
                     spec.i_mout, spec.i_p)


def constraint_stabilizers(spec):
    """Generators of the constraint code's stabilizer group, as words on
    m + n + m qubits ordered (memory in : physical : memory out).

    Memory and entangled inputs contribute a Z-type and an X-type
    generator each; ancilla inputs contribute the Z-type one only.
    """
    out = []
    for t, pos in enumerate(spec.i_m):
        for kind in ("Z", "X"):
            head = PauliWord.single(spec.m, t, kind)
            out.append(_extend(spec, head, pos, kind))
    for pos in spec.i_e:
        for kind in ("Z", "X"):
            out.append(_extend(spec, PauliWord.identity(spec.m), pos, kind))
    for pos in spec.i_a:
        out.append(_extend(spec, PauliWord.identity(spec.m), pos, "Z"))
    return out


def _extend(spec, head, pos, kind):
    img = spec.seed.conjugate(
        PauliWord.single(spec.seed.width, pos - 1, kind))
    body = img.restrict([p - 1 for p in spec.i_p])
    tail = img.restrict([p - 1 for p in spec.i_mout])
    return PauliWord(head.pairs + body.pairs + tail.pairs)


def _edge_count(spec):
    return 4 ** spec.m * 4 ** spec.k * 2 ** spec.a


def _span_tables(spec):
    """(memory images, logical (x) ancilla images) of the seed, packed
    over GF(2) as z|x of the physical qubits, then z|x of the output
    memory qubits, in the order of pauli_state_words(m) and of the
    logical words with the Z-type ancilla words varying fastest."""
    n2 = 2 * spec.n
    rows = [r[0:n2:2] + r[1:n2:2] + r[n2::2] + r[n2 + 1::2]
            for r in binary_symplectic_matrix(spec)]

    def pauli_rows(block):
        # the letter of index a + 2b in I, X, Y, Z is X^a Y^b, so a qubit
        # spans its words with the rows of X and of Y = Z X
        out = []
        for z, x in zip(block[::2], block[1::2]):
            out += [x, [s ^ t for s, t in zip(z, x)]]
        return out

    m2, k2 = 2 * spec.m, 2 * spec.k
    return (span_images(_GF2, pauli_rows(rows[:m2])),
            span_images(_GF2, rows[m2 + k2:m2 + k2 + 2 * spec.a:2]
                        + pauli_rows(rows[m2:m2 + k2])))


def _edges(spec):
    """Per memory word, in order: the packed images of its edges, its
    own image XOR each logical (x) ancilla image, and the index of each
    edge's output memory word."""
    m = spec.m
    mem_images, la_images = _span_tables(spec)
    # the 2m bits z|x of an output memory word to the word's index
    index = [0] * 4 ** m
    for i, word in enumerate(pauli_state_words(m)):
        index[sum((z | x << m) << t
                  for t, (z, x) in enumerate(word.pairs))] = i
    for a in mem_images:
        edges = list(map(a.__xor__, la_images))
        yield edges, map(index.__getitem__, map(int.__rshift__, edges,
                                                repeat(2 * spec.n)))


def quantum_wam(spec):
    """WAM over the memory basis {I,X,Y,Z}^m, first qubit fastest."""
    check_budget("quantum WAM", _edge_count(spec), 16 ** spec.m)
    n, rows = spec.n, []
    for edges, nexts in _edges(spec):
        # a physical qubit is busy when its z or its x bit is set
        weights = masked_weights(edges, (1 << n) - 1, (n,))
        counts = {}
        for (sj, w), c in Counter(zip(nexts, weights)).items():
            counts.setdefault(sj, {})[n - w, w] = c
        rows.append({sj: WeightPoly.from_counts(("x", "y"), cell)
                     for sj, cell in counts.items()})
    return PolyMatrix(pauli_state_labels(spec.m), rows)


def quantum_macwilliams(lam, n, k, a, m):
    """Dual WAM: F^(x)m Lam(x + 3y, x - y) F^(x)m / (4^m 4^k 2^a)."""
    return macwilliams(lam, 4, 4 ** m * 4 ** k * 2 ** a, (("x", "y"),),
                       (F1, 2))


def dual_wam(spec):
    return quantum_macwilliams(quantum_wam(spec), spec.n, spec.k, spec.a,
                               spec.m)


# --- polynomial check matrices ---

class PolyCheckMatrix:
    """Rows of binary symplectic vectors with D coefficients.

    Each row is a dict degree -> tuple of (z, x) pairs on n qubits.
    """

    def __init__(self, n, rows):
        self.n = n
        self.rows = rows

    def row_str(self, i):
        row = self.rows[i]
        if not row:
            return "I" * self.n
        parts = []
        for d in sorted(row):
            word = PauliWord(row[d]).letters()
            parts.append(word if d == 0 else
                         ("D*%s" % word if d == 1 else "D^%d*%s" % (d, word)))
        return " + ".join(parts)

    def __str__(self):
        return "\n".join(self.row_str(i) for i in range(len(self.rows)))


def binary_symplectic_matrix(spec):
    """The seed's action as a binary matrix, rows (Z_i, X_i per input
    qubit in role order memory, logical, ancilla, entangled), columns
    (physical bit pairs, then output-memory bit pairs)."""
    seed = spec.seed
    p_pos = [p - 1 for p in spec.i_p]
    mo_pos = [p - 1 for p in spec.i_mout]
    rows = []
    order = list(spec.i_m) + list(spec.i_l) + list(spec.i_a) + list(spec.i_e)
    for pos in order:
        for kind in ("Z", "X"):
            img = seed.conjugate(PauliWord.single(seed.width, pos - 1, kind))
            bits = []
            for p in p_pos:
                bits.extend(img.pairs[p])
            for p in mo_pos:
                bits.extend(img.pairs[p])
            rows.append(bits)
    return rows


def _symplectic_blocks(spec):
    """Blocks of the binary symplectic matrix: (A, F, rows), with A the
    memory-to-memory loop, F the memory-to-physical feed, and rows
    mapping "L", "S^Z" and "S^E" to (physical head, memory part) of the
    logical, Z-type ancilla and entangled input rows."""
    m2 = binary_symplectic_matrix(spec)
    n2, cut, parts = 2 * spec.n, 0, []
    for size in (spec.m, spec.k, spec.a, spec.c):
        block = m2[cut:cut + 2 * size]
        cut += 2 * size
        parts.append(([row[:n2] for row in block], [row[n2:] for row in block]))
    (f_blk, a_blk), logical, (h_blk, c_blk), entangled = parts
    return a_blk, f_blk, {"L": logical, "S^Z": (h_blk[::2], c_blk[::2]),
                          "S^E": entangled}


def _row_polys(coeffs, n):
    """Split a polynomial bit matrix into rows, each a list of Pauli
    words on n qubits, degree 0 first."""
    return [[PauliWord(tuple((mat[i][2 * t], mat[i][2 * t + 1])
                             for t in range(n))) for mat in coeffs]
            for i in range(len(coeffs[0]))]


def poly_check_matrix(spec, d_max=10):
    """Truncated polynomial stabilizer/logical matrices.

    Returns (s_z, s_e, logical): the Z-type ancilla rows S^Z(D) (a of
    them), the entangled rows S^E(D) (2c), and the logical rows L(D)
    (2k), each a PolyCheckMatrix on the n physical qubits.
    """
    a_blk, f_blk, blocks = _symplectic_blocks(spec)

    def check_matrix(name):
        head, mem = blocks[name]
        coeffs = impulse_response(_GF2, head, mem, a_blk, f_blk, d_max)
        return PolyCheckMatrix(spec.n, [
            {d: word.pairs for d, word in enumerate(row) if word}
            for row in _row_polys(coeffs, spec.n)])

    return check_matrix("S^Z"), check_matrix("S^E"), check_matrix("L")


def _pairing_offsets(row_a, row_b):
    """Offsets t where sum_d <a_d, b_(d+t)> is odd; rows are lists of
    Pauli words, degree 0 first."""
    degs_a = [d for d, word in enumerate(row_a) if word]
    degs_b = [d for d, word in enumerate(row_b) if word]
    if not degs_a or not degs_b:
        return []
    bad = []
    for t in range(degs_b[0] - degs_a[-1], degs_b[-1] - degs_a[0] + 1):
        acc = 0
        for d in degs_a:
            if d + t in degs_b:
                acc ^= symplectic_product(row_a[d], row_b[d + t])
        if acc:
            bad.append(t)
    return bad


def check_poly_orthogonality(spec):
    """Logical rows must commute with all stabilizer rows at every
    D-offset; returns (ok, diagnostics).

    Memory loops make the raw impulse responses infinite, so the
    pairing is checked on the rows cleared by det(I - D A), which are
    polynomials of degree <= 2m; clearing by this unit power series
    preserves whether the pairing vanishes at every offset.
    """
    a_blk, f_blk, blocks = _symplectic_blocks(spec)
    rows = {name: _row_polys(cleared_response(_GF2, head, mem, a_blk, f_blk),
                             spec.n)
            for name, (head, mem) in blocks.items()}
    diags = []
    for i, lrow in enumerate(rows["L"]):
        for name in ("S^Z", "S^E"):
            for j, srow in enumerate(rows[name]):
                bad = _pairing_offsets(lrow, srow)
                if bad:
                    diags.append("L row %d vs %s row %d: nonzero pairing at "
                                 "offsets %s" % (i + 1, name, j + 1, bad))
    return not diags, diags


# --- state diagram ---

def state_diagram_edges(spec):
    """Edges (mem_in, mem_out, logical_label, physical_label)."""
    check_budget("state diagram", _edge_count(spec))
    n = spec.n
    mem = [w or "-" for w in pauli_state_labels(spec.m)]
    logical = [w or "-" for w in pauli_state_labels(spec.k)
               for _ in range(2 ** spec.a)]
    out = []
    for src, (edges, nexts) in zip(mem, _edges(spec)):
        out.extend((src, mem[j], log, _physical_letters(v, n))
                   for v, j, log in zip(edges, nexts, logical))
    return out


def _physical_letters(v, n):
    """The letters of the physical word, z|x in the low 2n bits of v."""
    return "".join(_LETTER[v >> t & 1][v >> (n + t) & 1] for t in range(n))


def state_diagram_dot(spec):
    """Graphviz DOT text: one node per memory word, edges labelled
    'logical,physical'."""
    edges = state_diagram_edges(spec)
    lines = ["digraph state_diagram {", "  rankdir=LR;"]
    for label in pauli_state_labels(spec.m):
        lines.append('  "%s";' % label)
    for src, dst, log, phys in edges:
        lines.append('  "%s" -> "%s" [label="%s,%s"];' % (src, dst, log, phys))
    lines.append("}")
    return "\n".join(lines)
