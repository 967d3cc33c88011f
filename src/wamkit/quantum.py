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

from itertools import repeat

from .errors import ShapeError, check_budget
from .fields import FieldSpec
from .gflinalg import (cleared_response, impulse_response, pairing,
                       span_images)
from .pauli import LETTERS, PauliWord, pauli_state_labels
from .polymatrix import (PolyMatrix, dual_on_edges, edge_dual_rows,
                         edge_rows, macwilliams, span_edges)

_GF2 = FieldSpec(2)

# single-qubit transform kernel in the I, X, Y, Z basis, as the
# exponents e of its signs (-1)^e
F1 = (
    (0, 0, 0, 0),
    (0, 0, 1, 1),
    (0, 1, 0, 1),
    (0, 1, 1, 0),
)

# the kernel of one Z-type ancilla bit s: the sign (-1)^(s t)
_F_BIT = ((0, 0), (0, 1))


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
    generator each; ancilla inputs contribute the Z-type one only.  The
    (physical : memory out) part of each is its row of
    binary_symplectic_matrix.
    """
    rows = binary_symplectic_matrix(spec)
    anc = 2 * (spec.m + spec.k)
    ent = anc + 2 * spec.a
    heads = ([PauliWord.single(spec.m, t, kind)
              for t in range(spec.m) for kind in "ZX"]
             + [PauliWord.identity(spec.m)] * (2 * spec.c + spec.a))
    return [PauliWord(head.pairs + tuple(zip(row[::2], row[1::2])))
            for head, row in zip(heads, rows[:2 * spec.m] + rows[ent:]
                                 + rows[anc:ent:2])]


def _edge_count(spec):
    return 4 ** spec.m * 4 ** spec.k * 2 ** spec.a


def _span_tables(spec):
    """(memory images, logical (x) ancilla images) of the seed in the
    order of pauli_state_labels(m) and of the logical words with the
    Z-type ancilla words varying fastest, packed in the GF(4) layout: a
    2-bit field per physical, then output memory qubit, holding its
    letter's index in I, X, Y, Z.  X^a Y^b has (z, x) = (b, a XOR b) and
    field a + 2b, so a product of words is the XOR of their fields."""
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
    return (span_images(_GF2, pauli_rows(rows[:m2])),
            span_images(_GF2, rows[m2 + k2:m2 + k2 + 2 * spec.a:2]
                        + pauli_rows(rows[m2:m2 + k2])))


def quantum_wam(spec):
    """WAM over the memory basis {I,X,Y,Z}^m, first qubit fastest: an
    edge is a memory word's image XOR a logical (x) ancilla image."""
    check_budget("quantum WAM", _edge_count(spec), 16 ** spec.m)
    mem_images, la_images = _span_tables(spec)
    # the fields above the 2n bits of the physical qubits are the index
    # of the edge's output memory word
    physical, shift = [range(spec.n)], 2 * spec.n
    return PolyMatrix(pauli_state_labels(spec.m), edge_rows(
        ("x", "y"), physical, len(mem_images), span_edges(
            4, mem_images, la_images, physical,
            lambda images, edges: map(int.__rshift__, edges,
                                      repeat(shift)))))


def quantum_macwilliams(lam):
    """Dual WAM: F^(x)m Lam(x + 3y, x - y) F^(x)m / (4^m 4^k 2^a edges)."""
    return macwilliams(lam, 4, (("x", "y"),), (F1, 2))


def dual_wam(spec):
    """quantum_macwilliams(quantum_wam(spec)), from the 4^m 4^k 2^a edges
    when they are fewer than the 16^m cells (4^k 2^a < 4^m) and one
    key's planes fit the budget; otherwise through the grid.

    Cell (alpha, beta) of F Lam~ F sums g(e) (-1)^(<alpha, M> + <beta, M'>)
    over the edges e = (M, L, S) with output memory word M', g(e) the
    weight substitution's image of the edge's monomial and < , > the
    symplectic form, so it is G^(alpha + A* beta, L* beta, S* beta): G^
    is the character transform of g over the memory and logical letters
    (kernel F1) and the ancilla bits, and A*, L*, S* are the adjoints
    of the GF(2)-linear map from (M, L, S) to M' (_adjoint_images).
    """
    m, k, a = spec.m, spec.k, spec.a
    edges, inner = _edge_count(spec), 4 ** k * 2 ** a
    check_budget("quantum WAM", edges, 16 ** m)
    if not dual_on_edges(edges, 4 ** m, 4, 2):
        return quantum_macwilliams(quantum_wam(spec))
    mem_images, la_images = _span_tables(spec)
    # edge e = M 4^k 2^a + la, the ancilla bits fastest
    stages = ([(_F_BIT, 2 ** t) for t in range(a)]
              + [(F1, 2 ** a * 4 ** t) for t in range(k + m)])
    # every state beta reads its points at (A* beta, (L* beta, S* beta))
    columns = [(v >> a + 2 * k, v & inner - 1)
               for v in _adjoint_images(spec, mem_images, la_images)]
    return PolyMatrix(pauli_state_labels(m), edge_dual_rows(
        [x ^ y for x in mem_images for y in la_images], ("x", "y"),
        [range(spec.n)], 4, 2, stages, inner, columns, int.__xor__))


def _adjoint_images(spec, mem_images, la_images):
    """The packed (S* beta, L* beta, A* beta) of every memory word beta in
    state order: one bit per ancilla, then one 2-bit letter field per
    logical and per memory qubit.

    <beta, M'> is linear in the input, so it sums <beta, o(g)> over the
    generators g that the input holds, o(g) the output memory word of
    g's image.  F1 pairs the letter X^x Y^y with 2 s + t to x s + y t,
    so letter t of A* beta is 2 <beta, o(X_t)> + <beta, o(Y_t)>: an X
    generator sets the high bit of its field and a Y generator the low
    one.  L* beta is alike, and bit t of S* beta is <beta, o(Z_t)>.
    beta is spanned by X_t (row 2t) and Y_t (row 2t + 1), and <X_t, o>
    is bit 2t + 1 of o, <Y_t, o> bit 2t, so row j reads bit j ^ 1.
    """
    a, shift = spec.a, 2 * spec.n
    # the generators in input order: ancilla Z, then logical and memory
    # (X, Y) pairs, the rows of the two span tables
    outs = ([la_images[1 << i] >> shift
             for i in range(len(la_images).bit_length() - 1)]
            + [mem_images[1 << i] >> shift
               for i in range(len(mem_images).bit_length() - 1)])
    # the field bits in generator order, each (X, Y) pair swapped
    order = [i if i < a else a + (i - a ^ 1) for i in range(len(outs))]
    return span_images(_GF2, [[outs[i] >> (j ^ 1) & 1 for i in order]
                              for j in range(2 * spec.m)])


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
    mem_images, la_images = _span_tables(spec)
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
