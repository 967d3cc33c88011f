"""Phase-free Pauli words and Clifford seeds in binary symplectic form.

A Pauli word on n qubits is a tuple of (z, x) bit pairs, one per qubit:
I = (0,0), X = (0,1), Z = (1,0), Y = (1,1).  Multiplication is bitwise
XOR since global phases are quotiented out.
"""

from .errors import ShapeError, WamkitError
from .gflinalg import digit_strings

_LETTER_TO_BITS = {"I": (0, 0), "X": (0, 1), "Z": (1, 0), "Y": (1, 1)}
_BITS_TO_LETTER = {v: k for k, v in _LETTER_TO_BITS.items()}

# canonical single-qubit order used for state labels and the transform
LETTERS = ("I", "X", "Y", "Z")


class PauliWord:
    """An element of the phase-free Pauli group on a fixed qubit count."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        pairs = tuple((z & 1, x & 1) for z, x in pairs)
        self.pairs = pairs

    @classmethod
    def from_str(cls, text):
        try:
            return cls(tuple(_LETTER_TO_BITS[c] for c in text))
        except KeyError as exc:
            raise WamkitError("bad Pauli letter %r" % (exc.args[0],)) from exc

    def __len__(self):
        return len(self.pairs)

    def __mul__(self, other):
        if len(other) != len(self):
            raise ShapeError("Pauli words of different lengths")
        return PauliWord(tuple((z1 ^ z2, x1 ^ x2) for (z1, x1), (z2, x2)
                               in zip(self.pairs, other.pairs)))

    def __eq__(self, other):
        return isinstance(other, PauliWord) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __bool__(self):
        return any(z or x for z, x in self.pairs)

    def weight(self):
        return sum(1 for z, x in self.pairs if z or x)

    def letters(self):
        return "".join(_BITS_TO_LETTER[p] for p in self.pairs)

    def __str__(self):
        return self.letters()

    def __repr__(self):
        return "PauliWord(%s)" % self.letters()


def symplectic_product(a, b):
    """0 when the words commute, 1 when they anticommute."""
    if len(a) != len(b):
        raise ShapeError("Pauli words of different lengths")
    acc = 0
    for (z1, x1), (z2, x2) in zip(a.pairs, b.pairs):
        acc ^= (z1 & x2) ^ (x1 & z2)
    return acc


def pauli_state_labels(m):
    """The letters of all of {I,X,Y,Z}^m in canonical order, first qubit
    fastest."""
    return digit_strings(LETTERS, m)


class CliffordSeed:
    """A Clifford unitary on `width` qubits, given by its action on the
    single-qubit Z and X generators (phase-free)."""

    def __init__(self, z_img, x_img):
        if len(z_img) != len(x_img):
            raise ShapeError("need equally many Z and X images")
        self.width = len(z_img)
        for w in list(z_img) + list(x_img):
            if len(w) != self.width:
                raise ShapeError("image width does not match qubit count")
        self.z_img = list(z_img)
        self.x_img = list(x_img)

    def validate(self):
        """Check the symplectic relations; returns (ok, diagnostics)."""
        diags = []
        for i in range(self.width):
            for j in range(self.width):
                if symplectic_product(self.z_img[i], self.z_img[j]):
                    diags.append("images of Z%d and Z%d anticommute" % (i + 1, j + 1))
                if symplectic_product(self.x_img[i], self.x_img[j]):
                    diags.append("images of X%d and X%d anticommute" % (i + 1, j + 1))
                want = 1 if i == j else 0
                if symplectic_product(self.z_img[i], self.x_img[j]) != want:
                    verb = "must anticommute" if want else "must commute"
                    diags.append("images of Z%d and X%d %s" % (i + 1, j + 1, verb))
        return not diags, diags
