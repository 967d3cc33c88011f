"""Seeded random inputs for the benchmark, written as wamkit input text.

Every draw comes from one `random.Random(seed)`, so a workload seed gives
the same files on every machine.  A draw is repeated only when its shape
is wrong (rank-deficient generator, unreachable states), never for what
wamkit will answer: a convolutional seed whose dual has no block-shape
seed is kept as drawn, and its expected `check-dual` outcome is exit 2.
"""

import functools

from gf import GF


@functools.cache
def field(p, r=1):
    return GF(p, r)


def _q_line(p, r):
    return "q %d %d" % (p, r)


def _rows_text(rows):
    return "".join(" ".join(str(x) for x in row) + "\n" for row in rows)


class ConvInput:
    """Seed T = (C A; E B) of an (n, k, m) convolutional code over GF(p^r)."""

    ext = ".cc"

    def __init__(self, p, r, n, k, m, t_rows, systematic=False):
        self.p, self.r, self.n, self.k, self.m = p, r, n, k, m
        self.t = t_rows
        self.systematic = systematic
        self.f = field(p, r)

    @property
    def states(self):
        return self.f.q ** self.m

    @property
    def edges(self):
        return self.f.q ** (self.m + self.k)

    def blocks(self):
        """(C, A, E, B) as lists of rows."""
        n, m = self.n, self.m
        upper, lower = self.t[:m], self.t[m:]
        return ([r[:n] for r in upper], [r[n:] for r in upper],
                [r[:n] for r in lower], [r[n:] for r in lower])

    def gen_matrix(self):
        """Constraint-code generator (I_m | C A; 0 | E B)."""
        m = self.m
        return ([[1 if j == i else 0 for j in range(m)] + self.t[i]
                 for i in range(m)]
                + [[0] * m + row for row in self.t[m:]])

    def text(self):
        head = [_q_line(self.p, self.r), "n %d" % self.n, "k %d" % self.k,
                "m %d" % self.m]
        if self.systematic:
            head.append("systematic")
        head.append("T")
        return "\n".join(head) + "\n" + _rows_text(self.t)


class BlockInput:
    """[n, k] linear block code over GF(p^r), by its generator rows."""

    ext = ".bc"

    def __init__(self, p, r, rows):
        self.p, self.r = p, r
        self.rows = rows
        self.k, self.n = len(rows), len(rows[0])
        self.f = field(p, r)

    @property
    def codewords(self):
        return self.f.q ** self.k

    def text(self):
        return ("%s\nn %d\nk %d\n" % (_q_line(self.p, self.r), self.n, self.k)
                + _rows_text(self.rows))


class QuantumInput:
    """((n, k; c, m)) entanglement-assisted code: a Clifford seed on n + m
    qubits plus role positions (1-based).  A Pauli word is a tuple of (z, x)
    bit pairs; z_img[i] and x_img[i] are the images of Z and X on qubit i."""

    ext = ".qcc"
    ROLE_KEYS = ("IM", "IL", "IA", "IE", "IMout", "IP")

    def __init__(self, n, k, c, m, z_img, x_img, roles):
        self.n, self.k, self.c, self.m = n, k, c, m
        self.a = n - k - c
        self.z_img, self.x_img = z_img, x_img
        self.roles = {key: sorted(v) for key, v in roles.items()}

    @property
    def states(self):
        return 4 ** self.m

    @property
    def edges(self):
        return 4 ** self.m * 4 ** self.k * 2 ** self.a

    def dual(self):
        """The dual code: logical and entangled roles trade places."""
        roles = dict(self.roles, IL=self.roles["IE"], IE=self.roles["IL"])
        return QuantumInput(self.n, self.c, self.k, self.m, self.z_img,
                            self.x_img, roles)

    def text(self):
        out = ["n %d" % self.n, "k %d" % self.k, "c %d" % self.c,
               "m %d" % self.m]
        for key in self.ROLE_KEYS:
            out.append("%s: %s" % (key, " ".join(str(v) for v in self.roles[key])))
        for kind, imgs in (("Z", self.z_img), ("X", self.x_img)):
            for pos, word in enumerate(imgs, start=1):
                out.append("%s%d -> %s" % (kind, pos, letters(word)))
        return "\n".join(out) + "\n"


_LETTER = {(0, 0): "I", (0, 1): "X", (1, 0): "Z", (1, 1): "Y"}


def letters(word):
    return "".join(_LETTER[pair] for pair in word)


def symplectic(u, v):
    acc = 0
    for (z1, x1), (z2, x2) in zip(u, v):
        acc ^= (z1 & x2) ^ (x1 & z2)
    return acc


def pauli_mul(u, v):
    return tuple((z1 ^ z2, x1 ^ x2) for (z1, x1), (z2, x2) in zip(u, v))


def _controllable(f, a_blk, b_blk, m):
    """Every one of the q^m states is reachable from the zero state."""
    rows, left = [], b_blk
    for _ in range(m):
        rows += left
        left = f.mat_mul(left, a_blk)
    return f.rank(rows) == m


def conv_seed(rng, p, r, n, k, m, systematic=False):
    """Random seed with a full-rank lower block (E B), so the constraint
    code has dimension m + k, and a controllable state space, so that all
    S = q^m states are reachable and S is the state count the
    state_exponent fit assumes.  A systematic seed has (C; E) = (0 C0;
    I_k E0)."""
    f = field(p, r)
    q = f.q
    while True:
        if systematic:
            upper = [[0] * k + [rng.randrange(q) for _ in range(n - k + m)]
                     for _ in range(m)]
            lower = [[1 if j == i else 0 for j in range(k)]
                     + [rng.randrange(q) for _ in range(n - k + m)]
                     for i in range(k)]
        else:
            upper = [[rng.randrange(q) for _ in range(n + m)] for _ in range(m)]
            lower = [[rng.randrange(q) for _ in range(n + m)] for _ in range(k)]
            if f.rank(lower) != k:
                continue
        a_blk = [row[n:] for row in upper]
        b_blk = [row[n:] for row in lower]
        if _controllable(f, a_blk, b_blk, m):
            return ConvInput(p, r, n, k, m, upper + lower, systematic)


def block_code(rng, p, r, n, k, systematic=False):
    f = field(p, r)
    while True:
        if systematic:
            rows = [[1 if j == i else 0 for j in range(k)]
                    + [rng.randrange(f.q) for _ in range(n - k)]
                    for i in range(k)]
        else:
            rows = [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)]
        if f.rank(rows) == k:
            return BlockInput(p, r, rows)


def clifford(rng, width):
    """Random Clifford seed: 20-50 symplectic transvections v -> v h^<v,h>
    applied to the identity tableau."""
    z_img = [tuple((1, 0) if j == i else (0, 0) for j in range(width))
             for i in range(width)]
    x_img = [tuple((0, 1) if j == i else (0, 0) for j in range(width))
             for i in range(width)]
    for _ in range(rng.randint(20, 50)):
        h = tuple((rng.randint(0, 1), rng.randint(0, 1)) for _ in range(width))
        if not any(z or x for z, x in h):
            continue
        z_img = [pauli_mul(v, h) if symplectic(v, h) else v for v in z_img]
        x_img = [pauli_mul(v, h) if symplectic(v, h) else v for v in x_img]
    return z_img, x_img


def quantum_spec(rng, n, k, c, m):
    """Random Clifford seed with shuffled roles, checked by wamkit's
    CliffordSeed.validate before use."""
    from wamkit.pauli import CliffordSeed, PauliWord

    width = n + m
    z_img, x_img = clifford(rng, width)
    ok, diags = CliffordSeed([PauliWord(w) for w in z_img],
                             [PauliWord(w) for w in x_img]).validate()
    if not ok:
        raise RuntimeError("generated Clifford seed is not symplectic: %s"
                           % diags[0])
    pos = list(range(1, width + 1))
    rng.shuffle(pos)
    a = n - k - c
    outs = list(range(1, width + 1))
    rng.shuffle(outs)
    roles = {"IM": pos[:m], "IL": pos[m:m + k], "IA": pos[m + k:m + k + a],
             "IE": pos[m + k + a:], "IMout": outs[:m], "IP": outs[m:]}
    return QuantumInput(n, k, c, m, z_img, x_img, roles)
