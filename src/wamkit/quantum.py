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

from .conv import section_dual, section_edges
from .errors import ShapeError, check_budget
from .fields import FieldSpec
from .gflinalg import (cleared_response, impulse_response, pairing,
                       span_images)
from .pauli import LETTERS, PauliWord, pauli_state_labels
from .polymatrix import PolyMatrix, edge_rows, macwilliams

_GF2 = FieldSpec(2)

# the state grid's single-qubit transform kernel in the I, X, Y, Z
# basis, as the exponents e of its signs (-1)^e
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


def dual_spec(spec):
    """Dual code: logical and entangled roles trade places."""
    return EaqccSpec(spec.seed, spec.n, spec.c, spec.k, spec.m,
                     spec.i_m, spec.i_e, spec.i_a, spec.i_l,
                     spec.i_mout, spec.i_p)


def _edge_count(spec):
    return 4 ** spec.m * 4 ** spec.k * 2 ** spec.a


def _span_rows(spec):
    """(memory rows, logical (x) ancilla rows) of the seed in the GF(4)
    layout, a 2-bit field per physical, then output memory qubit,
    holding its letter's index in I, X, Y, Z: X^a Y^b has (z, x) =
    (b, a XOR b) and field a + 2b, so a product is the XOR of fields.
    Their span images follow pauli_state_labels(m), and the logical
    words with the Z-type ancilla words varying fastest."""
    rows = [[v for z, x in zip(r[::2], r[1::2]) for v in (z ^ x, z)]
            for r in binary_symplectic_matrix(spec)]

    def pauli_rows(block):
        # the letter of index a + 2b in I, X, Y, Z is X^a Y^b, so a qubit
        # spans its words with the rows of X and of Y = Z X
        out = []
        for z, x in zip(block[::2], block[1::2]):
            out += [x, [s ^ t for s, t in zip(z, x)]]
        return out

    m2, k2 = 2 * spec.m, 2 * spec.k
    return (pauli_rows(rows[:m2]),
            rows[m2 + k2:m2 + k2 + 2 * spec.a:2]
            + pauli_rows(rows[m2:m2 + k2]))


def quantum_wam(spec):
    """WAM over the memory basis {I,X,Y,Z}^m, first qubit fastest: the
    section_edges of the binary section _span_rows in 2-bit letters."""
    check_budget("quantum WAM", _edge_count(spec), 16 ** spec.m)
    physical = [range(spec.n)]
    states, edges = section_edges(_GF2, 4, *_span_rows(spec), 2 * spec.n,
                                  physical)
    return PolyMatrix.from_nonzero_rows(
        pauli_state_labels(spec.m),
        edge_rows(("x", "y"), physical, states, edges))


def quantum_macwilliams(lam):
    """Dual WAM: F^(x)m Lam(x + 3y, x - y) F^(x)m / (4^m 4^k 2^a edges)."""
    return macwilliams(lam, 4, (("x", "y"),), (F1, 2))


def dual_wam(spec):
    """quantum_macwilliams(quantum_wam(spec)), from the 4^m 4^k 2^a edges:
    the conv.section_dual of the binary section _span_rows with its
    memory words in symplectic-partner order, state row i ^ 1 and
    next-state bit t ^ 1.

    F1[i][j] is the Kronecker square of the GF(2) kernel (-1)^(s t) at
    (i, j with its two bits swapped): X^a Y^b and X^c Y^d have symplectic
    form a d + b c, which pairs each bit of one letter with the other bit
    of the other.  The section dual applies the GF(2) kernel one bit at a
    time, so on partner-ordered rows its stages are F1 on each letter.
    """
    n2 = 2 * spec.n
    check_budget("quantum WAM", _edge_count(spec), 16 ** spec.m)
    mem_rows, la_rows = _span_rows(spec)

    def partner(row):
        return row[:n2] + [row[n2 + (t ^ 1)] for t in range(2 * spec.m)]

    return PolyMatrix.from_nonzero_rows(
        pauli_state_labels(spec.m), section_dual(
            _GF2, 4, [partner(mem_rows[i ^ 1]) for i in range(2 * spec.m)],
            [partner(row) for row in la_rows], n2, ("x", "y"),
            [range(spec.n)]))


# --- polynomial check matrices ---

class PolyCheckMatrix:
    """Rows of binary symplectic vectors with D coefficients, held as
    their coefficient matrices, degree 0 first, each row the (z, x) bit
    pairs of the n qubits."""

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def __len__(self):
        return len(self.coeffs[0])

    def row_str(self, i):
        parts = []
        for d, mat in enumerate(self.coeffs):
            row = mat[i]
            if not any(row):
                continue
            word = PauliWord(zip(row[::2], row[1::2])).letters()
            parts.append(word if d == 0 else
                         ("D*%s" % word if d == 1 else "D^%d*%s" % (d, word)))
        return " + ".join(parts) or "I" * (len(self.coeffs[0][i]) // 2)

    def __str__(self):
        return "\n".join(self.row_str(i) for i in range(len(self)))


def binary_symplectic_matrix(spec):
    """The seed's action as a binary matrix, rows (the images of Z_i, X_i
    per input qubit in role order memory, logical, ancilla, entangled),
    columns (physical bit pairs, then output-memory bit pairs)."""
    seed, outputs = spec.seed, [p - 1 for p in spec.i_p + spec.i_mout]
    return [[bit for p in outputs for bit in img.pairs[p]]
            for pos in spec.i_m + spec.i_l + spec.i_a + spec.i_e
            for img in (seed.z_img[pos - 1], seed.x_img[pos - 1])]


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


def poly_check_matrix(spec, d_max=10):
    """Truncated polynomial stabilizer/logical matrices.

    Returns (s_z, s_e, logical): the Z-type ancilla rows S^Z(D) (a of
    them), the entangled rows S^E(D) (2c), and the logical rows L(D)
    (2k), each a PolyCheckMatrix on the n physical qubits.
    """
    a_blk, f_blk, blocks = _symplectic_blocks(spec)

    def check_matrix(name):
        head, mem = blocks[name]
        return PolyCheckMatrix(impulse_response(_GF2, head, mem, a_blk, f_blk,
                                                d_max))

    return check_matrix("S^Z"), check_matrix("S^E"), check_matrix("L")


def check_poly_orthogonality(spec):
    """Logical rows must commute with all stabilizer rows at every
    D-offset; returns (ok, diagnostics).

    Memory loops make the raw impulse responses infinite, so the
    pairing is checked on the rows cleared by det(I - D A), which are
    polynomials of degree <= 2m; clearing by this unit power series
    preserves whether the pairing vanishes at every offset.  Swapping z
    and x in every qubit's bit pair of the stabilizer rows turns
    gflinalg.pairing's dot product into the symplectic form.
    """
    a_blk, f_blk, blocks = _symplectic_blocks(spec)
    cleared = {name: cleared_response(_GF2, head, mem, a_blk, f_blk)
               for name, (head, mem) in blocks.items()}
    pairings = {name: pairing(_GF2, cleared["L"], [
        [[v for z, x in zip(row[::2], row[1::2]) for v in (x, z)]
         for row in mat] for mat in cleared[name]])
        for name in ("S^Z", "S^E")}
    diags = []
    for i in range(2 * spec.k):
        for name, coeffs in pairings.items():
            for j in range(len(coeffs[0][i])):
                # coefficient e holds the offset 2m - e
                bad = [t for t, mat in enumerate(reversed(coeffs),
                                                 -2 * spec.m) if mat[i][j]]
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
    mem_images, la_images = (span_images(_GF2, rows)
                             for rows in _span_rows(spec))
    # each physical word's letters once per call, at most one per edge
    low, letters, out = (1 << 2 * n) - 1, {}, []
    for src, a in zip(mem, mem_images):
        for v, log in zip(map(a.__xor__, la_images), logical):
            word = letters.get(v & low)
            if word is None:
                word = letters[v & low] = _physical_letters(v, n)
            out.append((src, mem[v >> 2 * n], log, word))
    return out


def _physical_letters(v, n):
    """The letters of the physical word, one 2-bit field per qubit in the
    low 2n bits of v."""
    return "".join(LETTERS[v >> 2 * t & 3] for t in range(n))


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
