"""Input file parsing and deterministic output rendering.

Three line-oriented input formats share a 'key value' header style:

block code (.bc):       q <p> <r> [modulus coeffs...]; n; k; then k
                        generator rows of n element indices.
convolutional (.cc):    adds m, an optional 'systematic' flag line, and
                        a 'T' marker followed by m+k rows of n+m
                        indices (output columns first, then memory).
quantum (.qcc):         n, k, c, m; role lines IM:/IL:/IA:/IE:/IMout:/IP:
                        with 1-based positions; then 2(n+m) image lines
                        like 'Z2 -> XZY'.

Structured output is JSON: a polynomial is {"terms": [...]} and a
matrix {"labels": [...], "entries": [[term-list, ...], ...]}, each term
{"coeff": int, "exponents": {var: exp}}.  Both shapes round-trip
through the parsers below; both are written straight to the text of
`dumps`, so they are read back through json.loads.
"""

import json
from itertools import chain, repeat

from .conv import ConvSeed, SystematicConvSeed
from .errors import (AlgebraError, BudgetError, FieldError, FormatError,
                     ShapeError, WamkitError)
from .fields import FieldSpec, default_modulus
from .block import LinearCode, SystematicCode, _ZeroCode
from .pauli import CliffordSeed, PauliWord
from .poly import VARS, WeightPoly, term_table
from .polymatrix import PolyMatrix
from .quantum import EaqccSpec


def _lines(text):
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def _parse_header(lines, keys):
    """Pull 'key value...' lines for the given keys, each at most once;
    returns (dict, rest)."""
    values = {}
    rest = []
    for i, line in lines:
        parts = line.split()
        if parts[0] in values:
            raise FormatError("second %r line" % parts[0], i)
        if parts[0] in keys:
            values[parts[0]] = (i, parts[1:])
        else:
            rest.append((i, line))
    return values, rest


def _field_from_header(values):
    if "q" not in values:
        raise FormatError("missing 'q <p> <r>' line")
    i, parts = values["q"]
    try:
        p, r = int(parts[0]), int(parts[1])
        modulus = [int(x) for x in parts[2:]] or None
    except (IndexError, ValueError):
        raise FormatError("expected 'q <p> <r> [modulus]'", i)
    try:
        return FieldSpec(p, r, modulus)
    except (BudgetError, FieldError) as exc:
        raise FormatError(str(exc), i) from exc


def _int_header(values, key):
    if key not in values:
        raise FormatError("missing '%s' line" % key)
    i, parts = values[key]
    try:
        value = int(parts[0])
    except (IndexError, ValueError):
        raise FormatError("expected '%s <int>'" % key, i)
    if value < 0:
        raise FormatError("%s must not be negative, got %d" % (key, value), i)
    return value


def _parse_rows(spec, rest, count, width):
    rows = []
    for i, line in rest:
        parts = line.split()
        try:
            row = [int(x) for x in parts]
        except ValueError:
            raise FormatError("expected %d element indices" % width, i)
        if len(row) != width:
            raise FormatError("expected %d entries, got %d" % (width, len(row)), i)
        for x in row:
            if not 0 <= x < spec.q:
                raise FormatError("element index %d out of range for GF(%d)"
                                  % (x, spec.q), i)
        rows.append(row)
    if len(rows) != count:
        raise FormatError("expected %d matrix rows, got %d" % (count, len(rows)))
    return rows


def parse_block_code(text):
    values, rest = _parse_header(_lines(text), {"q", "n", "k"})
    spec = _field_from_header(values)
    n = _int_header(values, "n")
    k = _int_header(values, "k")
    rows = _parse_rows(spec, rest, k, n)
    if k == 0:
        return _ZeroCode(spec, n)
    try:
        return SystematicCode(spec, rows)
    except ShapeError:
        return LinearCode(spec, rows)


def parse_conv_seed(text):
    lines = _lines(text)
    systematic = any(line == "systematic" for _i, line in lines)
    lines = [(i, line) for i, line in lines if line != "systematic"]
    marker = next((idx for idx, (_i, line) in enumerate(lines) if line == "T"),
                  None)
    if marker is None:
        raise FormatError("missing 'T' marker line")
    header, matrix_lines = lines[:marker], lines[marker + 1:]
    values, extra = _parse_header(header, {"q", "n", "k", "m"})
    if extra:
        raise FormatError("unexpected line %r" % extra[0][1], extra[0][0])
    spec = _field_from_header(values)
    n = _int_header(values, "n")
    k = _int_header(values, "k")
    m = _int_header(values, "m")
    rows = _parse_rows(spec, matrix_lines, m + k, n + m)
    if systematic:
        return SystematicConvSeed(spec, n, k, m, rows)
    return ConvSeed(spec, n, k, m, rows)


def render_block_code(code):
    """The .bc text of a code; the modulus is written only when it is not
    the default one, so the text always names the code's own field."""
    spec = code.spec
    head = "q %d %d" % (spec.p, spec.r)
    if spec.modulus != default_modulus(spec.p, spec.r):
        head += " " + " ".join(str(c) for c in spec.modulus)
    out = [head, "n %d" % code.n, "k %d" % code.k]
    out.extend(" ".join(str(x) for x in row) for row in code.generator)
    return "\n".join(out) + "\n"


def render_conv_seed(seed):
    out = ["q %d %d" % (seed.spec.p, seed.spec.r)
           if seed.spec.r == 1 else
           "q %d %d %s" % (seed.spec.p, seed.spec.r,
                           " ".join(str(c) for c in seed.spec.modulus)),
           "n %d" % seed.n, "k %d" % seed.k, "m %d" % seed.m]
    if isinstance(seed, SystematicConvSeed):
        out.append("systematic")
    out.append("T")
    for row in seed.t_matrix:
        out.append(" ".join(str(x) for x in row))
    return "\n".join(out) + "\n"


_ROLE_KEYS = ("IM", "IL", "IA", "IE", "IMout", "IP")


def parse_quantum_spec(text):
    lines = _lines(text)
    ints, rest = _parse_header(lines, {"n", "k", "c", "m"})
    n = _int_header(ints, "n")
    k = _int_header(ints, "k")
    c = _int_header(ints, "c")
    m = _int_header(ints, "m")
    roles, images = {}, {}
    for i, line in rest:
        if ":" in line and line.split(":", 1)[0].strip() in _ROLE_KEYS:
            key, tail = line.split(":", 1)
            if key.strip() in roles:
                raise FormatError("second %s: line" % key.strip(), i)
            try:
                roles[key.strip()] = [int(x) for x in tail.split()]
            except ValueError:
                raise FormatError("bad position list for %s" % key, i)
        elif "->" in line:
            lhs, rhs = (s.strip() for s in line.split("->", 1))
            if not lhs or lhs[0] not in "ZX":
                raise FormatError("image lines look like 'Z2 -> XZY'", i)
            try:
                pos = int(lhs[1:])
            except ValueError:
                raise FormatError("bad qubit index in %r" % lhs, i)
            if not 1 <= pos <= n + m:
                raise FormatError("qubit index %d out of range" % pos, i)
            if len(rhs) != n + m:
                raise FormatError("image must have %d letters" % (n + m), i)
            if (lhs[0], pos) in images:
                raise FormatError("second image line for %s" % lhs, i)
            try:
                images[(lhs[0], pos)] = PauliWord.from_str(rhs)
            except WamkitError as exc:
                raise FormatError(str(exc), i) from exc
        else:
            raise FormatError("unrecognized line %r" % line, i)
    width = n + m
    missing = [(kind, pos) for kind in "ZX" for pos in range(1, width + 1)
               if (kind, pos) not in images]
    if missing:
        raise FormatError("missing image for %s%d" % missing[0])
    seed = CliffordSeed([images[("Z", p)] for p in range(1, width + 1)],
                        [images[("X", p)] for p in range(1, width + 1)])
    return EaqccSpec(seed, n, k, c, m,
                     *(roles.get(key, []) for key in _ROLE_KEYS))


def render_quantum_spec(spec):
    out = ["n %d" % spec.n, "k %d" % spec.k, "c %d" % spec.c, "m %d" % spec.m]
    for key, vals in (("IM", spec.i_m), ("IL", spec.i_l), ("IA", spec.i_a),
                      ("IE", spec.i_e), ("IMout", spec.i_mout),
                      ("IP", spec.i_p)):
        out.append("%s: %s" % (key, " ".join(str(v) for v in vals)))
    for pos in range(1, spec.seed.width + 1):
        out.append("Z%d -> %s" % (pos, spec.seed.z_img[pos - 1].letters()))
    for pos in range(1, spec.seed.width + 1):
        out.append("X%d -> %s" % (pos, spec.seed.x_img[pos - 1].letters()))
    return "\n".join(out) + "\n"


# --- structured JSON ---

# the variable slots in the key order of dumps, "D" before the lower case
_JSON_SLOTS = sorted(range(len(VARS)), key=VARS.__getitem__)


def _exponents_json(exp):
    """The text that follows a term's "coeff" value in dumps."""
    return ',"exponents":{%s}}' % ",".join([
        '"%s":%d' % (VARS[i], exp[i]) for i in _JSON_SLOTS if exp[i]])


def poly_to_structured(poly):
    """The structured document of a polynomial as text, byte for byte
    what dumps writes for {"terms": [...]}, each term from the call's
    term table."""
    terms = poly.to_int_coeffs().terms
    return '{"terms":[%s]}\n' % ",".join([
        '{"coeff":%d' % terms[exp] + fragment
        for exp, (_rank, fragment) in term_table(
            terms, _exponents_json).items()])


def matrix_to_structured(matrix):
    """The structured document of a matrix as text, byte for byte what
    dumps writes for its dense dict: every absent cell "[]", each
    distinct stored cell written once from the call's term table."""
    def write(e, table):
        terms = e.to_int_coeffs().terms
        return "[%s]" % ",".join([
            '{"coeff":%d' % terms[exp] + table[exp][1]
            for exp in sorted(terms, key=table.__getitem__)])

    rows = matrix.rendered_rows(_exponents_json, write, "[]", ",")
    labels = json.dumps(matrix.labels, separators=(",", ":"))
    # one join: each row in brackets, a comma before all but the first
    return "".join(chain(
        ['{"entries":['],
        *zip(chain(["["], repeat(",[")), rows, repeat("]")),
        ['],"labels":%s}\n' % labels]))


def _poly_from_terms(terms):
    acc = WeightPoly.zero()
    for term in terms:
        acc = acc + WeightPoly.monomial(term["coeff"], term["exponents"])
    return acc


def structured_to_poly(data):
    return _poly_from_terms(data["terms"])


def structured_to_matrix(data):
    n, entries = len(data["labels"]), data["entries"]
    if len(entries) != n or any(len(row) != n for row in entries):
        raise AlgebraError("entries are not %dx%d" % (n, n))
    return PolyMatrix(data["labels"],
                      [{j: _poly_from_terms(cell) for j, cell in enumerate(row)}
                       for row in entries])


def dumps(data):
    """The structured text of a document dict, the bytes that both
    renderers above write directly."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
