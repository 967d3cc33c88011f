"""Command line interface.

Exit codes: 0 on success (all verifications PASS), 1 when a
verification FAILs, 2 on malformed input or usage errors.
"""

import argparse
import functools
import sys

from . import block, conv, quantum
from .errors import FormatError, ShapeError, WamkitError, check_budget
from .formats import (matrix_to_structured, parse_block_code,
                      parse_conv_seed, parse_quantum_spec, poly_to_structured,
                      render_block_code, render_conv_seed,
                      render_quantum_spec)
from .poly import WeightPoly
from .polymatrix import series_width

_COLLAPSE_MAPS = {
    None: {},
    "y": {"x": 1, "x_I": 1, "x_P": 1, "x_O": 1},
    "yIyP": {"x_I": 1, "x_P": 1},
    "yIyO": {"x_I": 1, "x_O": 1},
}


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wamkit",
        description="Exact weight enumerators and MacWilliams transforms "
                    "for block, convolutional and quantum convolutional codes.")
    parser.add_argument("--dmax", type=int, default=10,
                        help="series truncation depth (default 10)")
    parser.add_argument("--collapse", choices=["y", "yIyP", "yIyO"],
                        help="set the matching x-variables to 1")
    parser.add_argument("--format", choices=["text", "structured"],
                        default="text", help="output format")
    sub = parser.add_subparsers(dest="group", required=True)
    for group, (text, _parse, actions) in _GROUPS.items():
        grp = sub.add_parser(group, help=text)
        grp.add_argument("action", choices=list(actions))
        grp.add_argument("file")
    return parser


def _read(path):
    """The file's text, its bytes decoded from UTF-8 once.  Bytes that
    are not UTF-8 raise FormatError at the line of the first bad byte,
    counted as the parsers count lines."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte's line is the last one of its prefix plus a stand-in
        line = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise FormatError("not UTF-8 text: %s 0x%02x"
                          % (exc.reason, data[exc.start]), line) from None


def _emit_poly(poly, args):
    if args.format == "structured":
        sys.stdout.write(poly_to_structured(poly))
    else:
        print(poly)


def _emit_matrix(matrix, args):
    matrix = matrix.collapse(_COLLAPSE_MAPS[args.collapse])
    if args.format == "structured":
        sys.stdout.write(matrix_to_structured(matrix))
    else:
        print(matrix)


def _whole_wam(seed):
    """seed, once its WAM's q^(m+k) edges and then its q^(2m) cells are
    charged to the budget: an action that renders or transforms the
    whole S x S matrix is refused before the WAM is enumerated."""
    q = seed.spec.q
    check_budget("WAM", q ** (seed.m + seed.k), q ** (2 * seed.m))
    return seed


def _lam_y(seed, d_max, free=False):
    """conv.wam(seed) with x set to 1, once conv.series_charge has
    charged the series to D^d_max over it (free: without its zero-state
    loop), before any cell is built."""
    conv.series_charge(seed, d_max, free)
    return conv.wam(seed).collapse({"x": 1})


def _dual_lam_y(seed, d_max):
    """conv.dual_wam(seed) with x set to 1, once its own charges and then
    the series to D^d_max over it are charged to the budget, from its
    q^m states and conv.dual_series_bounds, before any cell is
    built."""
    rows, heaviest = conv.dual_series_bounds(seed)
    series_width(seed.spec.q ** seed.m, [heaviest], rows, d_max)
    return conv.dual_wam(seed).collapse({"x": 1})


def _dfree(seed, args):
    result = conv.free_distance(_lam_y(seed, args.dmax, free=True),
                                args.dmax)
    if result.determined and result.value is not None:
        print("d_free = %d" % result.value)
    elif result.determined:
        print("d_free: %s" % result.reason)
    else:
        print("d_free not determined: %s" % result.reason)


def _check_dual(seed, args):
    dual = conv.dual_seed(seed)
    sys.stdout.write(render_conv_seed(dual))
    ok, diags = conv.orthogonality_check(seed, dual)
    for diag in diags:
        print("FAIL %s" % diag)
    print("orthogonality: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def _check_seed(spec, args):
    ok, diags = spec.seed.validate()
    for diag in diags:
        print("FAIL %s" % diag)
    print("clifford: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def _sd(spec, args):
    s_z, s_e, logical = quantum.poly_check_matrix(spec, args.dmax)
    for name, mat in (("S^Z", s_z), ("S^E", s_e), ("L", logical)):
        print("%s(D):" % name)
        print(mat if len(mat) else "(none)")


# action tables: each entry runs one action on the parsed file and
# returns its exit code (None for 0); modules are looked up at call time
_BLOCK = {
    "hwgf": lambda code, args: _emit_poly(block.hwgf(code), args),
    "ipwgf": lambda code, args: _emit_poly(block.ipwgf(code), args),
    "dual": lambda code, args: print(
        render_block_code(block.dual_code(code)), end=""),
}

_CONV = {
    "wam": lambda seed, args: _emit_matrix(conv.wam(_whole_wam(seed)),
                                           args),
    "ipwam": lambda seed, args: _emit_matrix(conv.ipwam(_whole_wam(seed)),
                                             args),
    "iowam": lambda seed, args: _emit_matrix(conv.iowam(_whole_wam(seed)),
                                             args),
    "dual-wam": lambda seed, args: _emit_matrix(
        conv.dual_wam(_whole_wam(seed)), args),
    "dual-ipwam": lambda seed, args: _emit_matrix(
        conv.dual_ipwam(_whole_wam(seed)), args),
    "total": lambda seed, args: _emit_poly(conv.seed_series(seed, args.dmax),
                                           args),
    "dual-total": lambda seed, args: _emit_poly(conv.total_wgf(
        _dual_lam_y(seed, args.dmax), args.dmax), args),
    "free": lambda seed, args: _emit_poly(
        conv.seed_series(seed, args.dmax, free=True), args),
    "dfree": _dfree,
    "gd": lambda seed, args: print(conv.poly_generator(seed, args.dmax)),
    "check-dual": _check_dual,
}

_QUANTUM = {
    "wam": lambda spec, args: _emit_matrix(quantum.quantum_wam(spec), args),
    "dual-wam": lambda spec, args: _emit_matrix(quantum.dual_wam(spec), args),
    "dual-spec": lambda spec, args: print(
        render_quantum_spec(quantum.dual_spec(spec)), end=""),
    "check-seed": _check_seed,
    "sd": _sd,
    "state-diagram": lambda spec, args: print(
        quantum.state_diagram_dot(spec)),
}


def _check(name, ok, lines, diags=()):
    lines.append("%s: %s" % (name, "PASS" if ok else "FAIL"))
    if not ok:
        lines.extend("FAIL %s" % diag for diag in diags)
    return ok


def _check_equal(name, left, right, lines):
    """_check of left == right, two WeightPolys or two PolyMatrix over
    the same labels; a failure names both sides of the first differing
    cell, by row and then column in label order."""
    if left == right:
        return _check(name, True, lines)
    if isinstance(left, WeightPoly):
        diag = "%s != %s" % (left, right)
    else:
        i, j = min((i, j) for i, row in enumerate(left.rows)
                   for j in row.keys() | right.rows[i].keys()
                   if left[i, j] != right[i, j])
        diag = "cell (%s, %s): %s != %s" % (left.labels[i], left.labels[j],
                                            left[i, j], right[i, j])
    return _check(name, False, lines, [diag])


def _verify_block(code):
    lines, all_ok = [], True
    dual = block.dual_code(code)
    enum = block.hwgf(code)
    transformed = block.macwilliams_hwgf(enum, code.spec.q)
    all_ok &= _check_equal("hwgf transform matches dual enumeration",
                           transformed, block.hwgf(dual), lines)
    back = block.macwilliams_hwgf(transformed, code.spec.q)
    all_ok &= _check_equal("hwgf transform involution", back, enum, lines)
    if isinstance(code, block.SystematicCode):
        ipt = block.macwilliams_ipwgf(block.ipwgf(code), code.spec.q)
        all_ok &= _check_equal("ipwgf transform matches dual enumeration",
                               ipt, block.ipwgf(dual, info_last=True), lines)
    return all_ok, lines


def _dual_or_error(build, seed):
    """(build(seed), None), or (None, the ShapeError) when the seed's
    dual has no seed of the required shape."""
    try:
        return build(seed), None
    except ShapeError as exc:
        return None, exc


def _verify_conv(seed, dmax):
    """The checks' lines, in order; the checks that need a dual seed are
    left out when it cannot be built, and the first such error is
    raised after the other lines are printed."""
    lines, all_ok = [], True
    lam = conv.wam(_whole_wam(seed))
    dual, error = _dual_or_error(conv.dual_seed, seed)
    if dual is not None:
        ok, diags = conv.orthogonality_check(seed, dual)
        all_ok &= _check("dual seed orthogonality", ok, lines, diags)
    lam_hat = conv.dual_wam(seed)
    if dual is not None:
        all_ok &= _check_equal("wam transform matches dual enumeration",
                               lam_hat, conv.wam(dual), lines)
    back = conv.macwilliams_wam(lam_hat, seed.spec)
    all_ok &= _check_equal("wam transform involution", back, lam, lines)
    if isinstance(seed, conv.SystematicConvSeed) and not seed.info_last:
        ip_hat = conv.dual_ipwam(seed)
        dual_sys, sys_error = _dual_or_error(conv.dual_systematic_seed, seed)
        error = error or sys_error
        if dual_sys is not None:
            all_ok &= _check_equal("ipwam transform matches dual "
                                   "enumeration", ip_hat,
                                   conv.ipwam(dual_sys), lines)
    lam_y = lam.collapse({"x": 1})
    w_total = conv.total_wgf(lam_y, dmax)
    w_free = conv.free_wgf(lam_y, dmax)
    d = WeightPoly.var("D")
    all_ok &= _check_equal("free/total series relation",
                           w_free.truncated_mul(1 + w_total * d, dmax),
                           w_total, lines)
    return all_ok, lines, error


def _verify_quantum(spec):
    lines, all_ok = [], True
    ok, diags = spec.seed.validate()
    all_ok &= _check("clifford seed symplectic relations", ok, lines, diags)
    lam = quantum.quantum_wam(spec)
    dual = quantum.dual_spec(spec)
    lam_hat = quantum.dual_wam(spec)
    all_ok &= _check_equal("wam transform matches dual enumeration",
                           lam_hat, quantum.quantum_wam(dual), lines)
    back = quantum.quantum_macwilliams(lam_hat)
    all_ok &= _check_equal("wam transform involution", back, lam, lines)
    ok, diags = quantum.check_poly_orthogonality(spec)
    all_ok &= _check("polynomial check-matrix orthogonality", ok, lines,
                     diags)
    return all_ok, lines


def _verify_all(text, args):
    error = None
    if args.file.endswith(".qcc"):
        ok, lines = _verify_quantum(parse_quantum_spec(text))
    elif args.file.endswith(".cc"):
        ok, lines, error = _verify_conv(parse_conv_seed(text), args.dmax)
    else:
        ok, lines = _verify_block(parse_block_code(text))
    for line in lines:
        print(line)
    if error is not None:
        raise error
    return 0 if ok else 1


# group -> (help, parser of the file's text, action table)
_GROUPS = {
    "block": ("linear block codes", parse_block_code, _BLOCK),
    "conv": ("classical convolutional codes", parse_conv_seed, _CONV),
    "quantum": ("quantum convolutional codes", parse_quantum_spec, _QUANTUM),
    "verify": ("run every identity check on a file", str,
               {"all": _verify_all}),
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.dmax < 0:
        parser.error("argument --dmax: %d is negative" % args.dmax)
    _help, parse, actions = _GROUPS[args.group]
    try:
        return actions[args.action](parse(_read(args.file)), args) or 0
    except (WamkitError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
