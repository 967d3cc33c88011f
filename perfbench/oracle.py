"""Independent oracles for every benchmark job.

Each oracle recomputes a job's answer from the generated input with this
directory's own field arithmetic and enumeration, never with the wamkit
routine the job exercises, and compares it with what the CLI printed.
`check(job, rc, out)` returns None for a correct job or a one-line reason.
"""

import heapq
import json

from gen import letters, pauli_mul

DMAX = 10  # the CLI's default --dmax, which every job uses

# actions whose --format structured output is JSON
JSON_ACTIONS = {"conv wam", "conv ipwam", "conv iowam", "conv dual-wam",
                "conv dual-ipwam", "conv total", "conv dual-total", "conv free",
                "quantum wam", "quantum dual-wam", "block hwgf", "block ipwgf"}


def _mono(**exps):
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def _bump(table, key, mono):
    cell = table.setdefault(key, {})
    cell[mono] = cell.get(mono, 0) + 1


def _weight(word):
    return sum(1 for s in word if s)


def _terms(term_list):
    return {tuple(sorted(t["exponents"].items())): t["coeff"]
            for t in term_list}


def _matrix_from_json(data):
    cells = {}
    for i, row in enumerate(data["entries"]):
        for j, cell in enumerate(row):
            if cell:
                cells[(i, j)] = _terms(cell)
    return data["labels"], cells


def _roundtrip(out):
    data = json.loads(out)
    if json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n" != out:
        raise ValueError("structured output is not canonical JSON")
    return data


# --- convolutional codes ---

def _index(vec, q):
    return sum(x * q ** t for t, x in enumerate(vec))


def conv_labels(inp):
    return ["".join(str(x) for x in v) for v in inp.f.vectors(inp.m)]


def conv_transitions(inp):
    """(state, next state, input block, output block) for every edge."""
    f = inp.f
    c, a, e, b = inp.blocks()
    for w in f.vectors(inp.m):
        wc, wa = f.vec_mat(w, c) or [0] * inp.n, f.vec_mat(w, a)
        for u in f.vectors(inp.k):
            out = [f.add[x][y] for x, y in zip(wc, f.vec_mat(u, e))]
            nxt = [f.add[x][y] for x, y in zip(wa, f.vec_mat(u, b))]
            yield _index(w, f.q), _index(nxt, f.q), u, out


def conv_wam(inp, kind="wam"):
    n, k = inp.n, inp.k
    cells = {}
    for si, sj, u, out in conv_transitions(inp):
        if kind == "wam":
            mono = _mono(x=n - _weight(out), y=_weight(out))
        elif kind == "ipwam":
            wi, wp = _weight(out[:k]), _weight(out[k:])
            mono = _mono(x_I=k - wi, y_I=wi, x_P=n - k - wp, y_P=wp)
        else:
            wu, wo = _weight(u), _weight(out)
            mono = _mono(x_I=k - wu, y_I=wu, x_O=n - wo, y_O=wo)
        _bump(cells, (si, sj), mono)
    return cells


def dual_constraint_words(inp):
    """Words (w : p : w') of the dual constraint code: (w : p : -w') is
    orthogonal to every row of the seed's constraint-code generator."""
    f, m, n = inp.f, inp.m, inp.n
    basis = f.nullspace(inp.gen_matrix(), 2 * m + n)
    twisted = [row[:m + n] + [f.neg[x] for x in row[m + n:]] for row in basis]
    return twisted, f.span(twisted, 2 * m + n)


def dual_wam(inp, input_parity=False):
    """Dual WAM (or, for a standard systematic seed, dual input-parity WAM)
    by brute-force enumeration of the dual constraint code.  The dual
    input-parity roles swap: I counts the seed's parity columns."""
    m, n, k, q = inp.m, inp.n, inp.k, inp.f.q
    cells = {}
    for word in dual_constraint_words(inp)[1]:
        w, out, w2 = word[:m], word[m:m + n], word[m + n:]
        if input_parity:
            wi, wp = _weight(out[k:]), _weight(out[:k])
            mono = _mono(x_I=n - k - wi, y_I=wi, x_P=k - wp, y_P=wp)
        else:
            mono = _mono(x=n - _weight(out), y=_weight(out))
        _bump(cells, (_index(w, q), _index(w2, q)), mono)
    return cells


def series(inp, d_max, free):
    """<0|(I - N D)^-1|0> by the row-vector recursion v_(t+1) = v_t N,
    where N is the y-collapsed WAM, less the zero-state loop if `free`."""
    edges = {}
    for si, sj, u, out in conv_transitions(inp):
        if free and si == 0 and sj == 0 and not any(u):
            continue
        edges.setdefault(si, []).append((sj, _weight(out)))
    result = {}
    vec = {0: {0: 1}}
    for t in range(d_max + 1):
        for w, c in vec.get(0, {}).items():
            result[_mono(D=t, y=w)] = c
        nxt = {}
        for si, poly in vec.items():
            for sj, wt in edges.get(si, ()):
                cell = nxt.setdefault(sj, {})
                for w, c in poly.items():
                    cell[w + wt] = cell.get(w + wt, 0) + c
        vec = nxt
    return {mono: c for mono, c in result.items() if c}


def free_distance(inp):
    """Least positive weight of a closed walk from the zero state that
    leaves by another edge than the zero-input self loop (Dijkstra over
    (state, positive weight seen)); None when there is none."""
    adj = {}
    for si, sj, u, out in conv_transitions(inp):
        adj.setdefault(si, []).append((sj, _weight(out), si == 0 and sj == 0
                                       and not any(u)))
    heap = [(w, sj, w > 0) for sj, w, trivial in adj.get(0, []) if not trivial]
    heapq.heapify(heap)
    done = set()
    while heap:
        d, s, pos = heapq.heappop(heap)
        if (s, pos) in done:
            continue
        done.add((s, pos))
        if s == 0 and pos:
            return d
        for sj, w, _trivial in adj.get(s, ()):
            if (sj, pos or w > 0) not in done:
                heapq.heappush(heap, (d + w, sj, pos or w > 0))
    return None


def generator_text(inp, d_max):
    """`conv gd` text: G(D) = E + sum_d B A^(d-1) C D^d, truncated."""
    f = inp.f
    c, a, e, b = inp.blocks()
    coeffs, left = [e], b
    for _ in range(d_max):
        coeffs.append(f.mat_mul(left, c))
        left = f.mat_mul(left, a)
    lines = []
    for i in range(inp.k):
        ents = []
        for j in range(inp.n):
            parts = []
            for d, mat in enumerate(coeffs):
                x = mat[i][j]
                if x:
                    dd = "" if d == 0 else ("D" if d == 1 else "D^%d" % d)
                    parts.append(str(x) if d == 0 else
                                 (dd if x == 1 else "%d*%s" % (x, dd)))
            ents.append(" + ".join(parts) or "0")
        lines.append("( " + " , ".join(ents) + " )")
    return "\n".join(lines) + "\n"


def _check_dual_seed(inp, rc, out):
    f, m, n, k = inp.f, inp.m, inp.n, inp.k
    twisted, _words = dual_constraint_words(inp)
    if f.rank([row[:m] for row in twisted]) < m:
        if rc == 2 and out == "":
            return None
        return "dual has no block-shape seed, expected exit 2, got %s" % (rc,)
    lines = out.splitlines()
    if rc != 0 or not lines or lines[-1] != "orthogonality: PASS":
        return ("expected a dual seed and 'orthogonality: PASS', got exit %s"
                % (rc,))
    head = dict(line.split(None, 1) for line in lines[:4])
    if head.get("n") != str(n) or head.get("m") != str(m) or \
            head.get("k") != str(n - k) or \
            head.get("q", "").split()[:2] != [str(inp.p), str(inp.r)]:
        return "dual seed header does not match (n, n-k, m)"
    rows = [[int(x) for x in line.split()] for line in lines[5:-1]]
    if lines[4] != "T" or len(rows) != m + n - k or \
            any(len(r) != n + m for r in rows):
        return "dual seed has the wrong shape"
    dual_gen = ([[1 if j == i else 0 for j in range(m)] + rows[i]
                 for i in range(m)] + [[0] * m + r for r in rows[m:]])
    for row in dual_gen:
        tw = row[:m + n] + [f.neg[x] for x in row[m + n:]]
        if any(f.dot(tw, g) for g in inp.gen_matrix()):
            return "dual seed row is not in the dual constraint code"
    if f.rank(dual_gen) != m + n - k:
        return "dual seed does not span the dual constraint code"
    return None


# --- block codes ---

def block_wgf(inp, input_parity=False):
    n, k = inp.n, inp.k
    terms = {}
    for word in inp.f.span(inp.rows, inp.n):
        if input_parity:
            wi, wp = _weight(word[:k]), _weight(word[k:])
            mono = _mono(x_I=k - wi, y_I=wi, x_P=n - k - wp, y_P=wp)
        else:
            mono = _mono(x=n - _weight(word), y=_weight(word))
        terms[mono] = terms.get(mono, 0) + 1
    return terms


def _check_block_dual(inp, out):
    f = inp.f
    lines = out.splitlines()
    if lines[:3] != ["q %d %d" % (inp.p, inp.r), "n %d" % inp.n,
                     "k %d" % (inp.n - inp.k)]:
        return "dual code header does not match [n, n-k]"
    rows = [[int(x) for x in line.split()] for line in lines[3:]]
    if len(rows) != inp.n - inp.k or f.rank(rows) != inp.n - inp.k:
        return "dual generator does not have rank n-k"
    if any(f.dot(r, g) for r in rows for g in inp.rows):
        return "dual generator row is not orthogonal to the code"
    return None


# --- quantum codes ---

_PAIRS = ((0, 0), (0, 1), (1, 1), (1, 0))  # I, X, Y, Z: label order


def pauli_words(m):
    """{I,X,Y,Z}^m in label order, first qubit fastest."""
    out = []
    for idx in range(4 ** m):
        out.append(tuple(_PAIRS[(idx // 4 ** t) % 4] for t in range(m)))
    return out


def _state_index(word):
    return sum(_PAIRS.index(p) * 4 ** t for t, p in enumerate(word))


def _conjugate(inp, word):
    out = ((0, 0),) * len(word)
    for i, (z, x) in enumerate(word):
        if z:
            out = pauli_mul(out, inp.z_img[i])
        if x:
            out = pauli_mul(out, inp.x_img[i])
    return out


def quantum_edges(inp):
    """(memory in, logical, physical, memory out) over memory words,
    logical words and Z-type ancilla words, as wamkit enumerates them."""
    width = inp.n + inp.m
    r = inp.roles
    for mem in pauli_words(inp.m):
        for log in pauli_words(inp.k):
            for anc in range(2 ** inp.a):
                word = [(0, 0)] * width
                for t, pos in enumerate(r["IM"]):
                    word[pos - 1] = mem[t]
                for t, pos in enumerate(r["IL"]):
                    word[pos - 1] = log[t]
                for t, pos in enumerate(r["IA"]):
                    word[pos - 1] = ((anc >> t) & 1, 0)
                img = _conjugate(inp, tuple(word))
                yield (mem, log, tuple(img[p - 1] for p in r["IP"]),
                       tuple(img[p - 1] for p in r["IMout"]))


def quantum_wam(inp):
    cells = {}
    for mem, _log, phys, mem_out in quantum_edges(inp):
        w = sum(1 for p in phys if p != (0, 0))
        _bump(cells, (_state_index(mem), _state_index(mem_out)),
              _mono(x=inp.n - w, y=w))
    return cells


def _gf2_mul(a, b):
    out = []
    for row in a:
        acc = [0] * len(b[0]) if b else []
        for t, v in enumerate(row):
            if v:
                acc = [x ^ y for x, y in zip(acc, b[t])]
        out.append(acc)
    return out


def check_matrix_text(inp, d_max):
    """`quantum sd` text: truncated impulse responses of the Z-type
    ancilla rows, the entangled rows and the logical rows."""
    r = inp.roles
    rows = {}
    for role in ("IM", "IL", "IA", "IE"):
        rows[role] = []
        for pos in r[role]:
            for imgs in (inp.z_img, inp.x_img):
                img = imgs[pos - 1]
                rows[role].append([bit for p in r["IP"] + r["IMout"]
                                   for bit in img[p - 1]])
    n2 = 2 * inp.n
    feed = [row[:n2] for row in rows["IM"]]
    loop = [row[n2:] for row in rows["IM"]]

    def render(role, z_only):
        block = rows[role][::2] if z_only else rows[role]
        coeffs = {0: [row[:n2] for row in block]}
        cur = [row[n2:] for row in block]
        for d in range(1, d_max + 1):
            contrib = _gf2_mul(cur, feed)
            if any(any(row) for row in contrib):
                coeffs[d] = contrib
            cur = _gf2_mul(cur, loop)
        if not block:
            return "(none)"
        lines = []
        for i in range(len(block)):
            parts = []
            for d in sorted(coeffs):
                bits = coeffs[d][i]
                if any(bits):
                    word = letters(tuple((bits[2 * t], bits[2 * t + 1])
                                         for t in range(inp.n)))
                    parts.append(word if d == 0 else
                                 ("D*%s" % word if d == 1 else
                                  "D^%d*%s" % (d, word)))
            lines.append(" + ".join(parts) or "I" * inp.n)
        return "\n".join(lines)

    return ("S^Z(D):\n%s\nS^E(D):\n%s\nL(D):\n%s\n"
            % (render("IA", True), render("IE", False), render("IL", False)))


def state_diagram_text(inp):
    lines = ["digraph state_diagram {", "  rankdir=LR;"]
    lines += ['  "%s";' % letters(w) for w in pauli_words(inp.m)]
    for mem, log, phys, mem_out in quantum_edges(inp):
        lines.append('  "%s" -> "%s" [label="%s,%s"];'
                     % (letters(mem) or "-", letters(mem_out) or "-",
                        letters(log) or "-", letters(phys)))
    return "\n".join(lines + ["}"]) + "\n"


# --- dispatch ---

def _expect_matrix(data, labels, cells):
    got_labels, got = _matrix_from_json(data)
    if got_labels != labels:
        return "state labels differ"
    if got != cells:
        bad = sorted(set(got) ^ set(cells)) or \
            sorted(key for key in cells if got.get(key) != cells[key])
        return "WAM entry %s differs" % (bad[0],)
    return None


def _expect_poly(data, terms):
    if _terms(data["terms"]) != terms:
        return "polynomial terms differ"
    return None


def _check_conv(job, out):
    inp, action = job.inp, job.action
    if action == "conv dfree":
        want = free_distance(inp)
        line = out.rstrip("\n")
        if line.startswith("d_free not determined"):
            return None
        if line.startswith("d_free = "):
            got = int(line.split("=")[1])
            return None if got == want else \
                "d_free %d reported as determined, shortest path gives %s" \
                % (got, want)
        if line.startswith("d_free: ") and want is None:
            return None
        return "unexpected d_free answer %r (shortest path gives %s)" \
            % (line, want)
    if action == "conv gd":
        return None if out == generator_text(inp, DMAX) else \
            "G(D) expansion differs"
    data = _roundtrip(out)
    if action in ("conv total", "conv free"):
        return _expect_poly(data, series(inp, DMAX, action == "conv free"))
    labels = conv_labels(inp)
    if action == "conv dual-wam":
        return _expect_matrix(data, labels, dual_wam(inp))
    if action == "conv dual-ipwam":
        return _expect_matrix(data, labels, dual_wam(inp, input_parity=True))
    return _expect_matrix(data, labels, conv_wam(inp, action.split()[1]))


def _check_quantum(job, out):
    inp, action = job.inp, job.action
    if action == "quantum check-seed":
        return None if out == "clifford: PASS\n" else "seed check did not PASS"
    if action == "quantum sd":
        return None if out == check_matrix_text(inp, DMAX) else \
            "check matrices differ"
    if action == "quantum state-diagram":
        return None if out == state_diagram_text(inp) else \
            "state diagram differs"
    data = _roundtrip(out)
    labels = [letters(w) for w in pauli_words(inp.m)]
    if action == "quantum wam":
        return _expect_matrix(data, labels, quantum_wam(inp))
    dual = inp.dual()
    total = sum(c for cell in _matrix_from_json(data)[1].values()
                for c in cell.values())
    if total != 4 ** dual.m * 4 ** dual.k * 2 ** dual.a:
        return "dual WAM entries sum to %d, not 4^m 4^k 2^a" % total
    return _expect_matrix(data, labels, quantum_wam(dual))


def _check_block(job, out):
    if job.action == "block dual":
        return _check_block_dual(job.inp, out)
    data = _roundtrip(out)
    return _expect_poly(data, block_wgf(job.inp, job.action == "block ipwgf"))


def check(job, rc, out):
    """None if the job's exit code and stdout are right, else a reason."""
    try:
        if job.expect is not None:
            want_rc, want_out = job.expect
            if rc != want_rc:
                return "exit code %s, captured %d" % (rc, want_rc)
            if out != want_out:
                return "stdout differs from the captured output"
            if job.fmt == "structured" and job.action in JSON_ACTIONS \
                    and rc == 0:
                _roundtrip(out)
            return None
        if job.action == "conv check-dual":
            return _check_dual_seed(job.inp, rc, out)
        if rc != 0:
            return "exit code %s" % (rc,)
        if job.action.startswith("conv"):
            return _check_conv(job, out)
        if job.action.startswith("quantum"):
            return _check_quantum(job, out)
        return _check_block(job, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "unreadable output: %s" % exc


def output_counts(job, out):
    """(terms, largest coefficient bit length) of a JSON result, else (0, 0)."""
    if job.fmt != "structured" or job.action not in JSON_ACTIONS:
        return 0, 0
    try:
        data = json.loads(out)
    except ValueError:
        return 0, 0
    cells = data["entries"] if "entries" in data else [[data["terms"]]]
    terms = [t for row in cells for cell in row for t in cell]
    return len(terms), max((abs(t["coeff"]).bit_length() for t in terms),
                           default=0)
