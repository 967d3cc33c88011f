"""Command line interface.

Exit codes: 0 on success (all verifications PASS), 1 when a
verification FAILs, 2 on malformed input or usage errors.
"""

import argparse
import functools
import sys

from . import block, conv, quantum
from .errors import WamkitError
from .formats import (dumps, matrix_to_structured, parse_block_code,
                      parse_conv_seed, parse_quantum_spec, poly_to_structured,
                      render_conv_seed, render_quantum_spec)
from .poly import WeightPoly

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
    parser.add_argument("--format", choices=["text", "structured", "dot"],
                        default="text", help="output format")
    sub = parser.add_subparsers(dest="group", required=True)

    blk = sub.add_parser("block", help="linear block codes")
    blk.add_argument("action", choices=["hwgf", "ipwgf", "dual"])
    blk.add_argument("file")

    cc = sub.add_parser("conv", help="classical convolutional codes")
    cc.add_argument("action", choices=[
        "wam", "ipwam", "iowam", "dual-wam", "dual-ipwam", "total",
        "dual-total", "free", "dfree", "gd", "check-dual"])
    cc.add_argument("file")

    qc = sub.add_parser("quantum", help="quantum convolutional codes")
    qc.add_argument("action", choices=[
        "wam", "dual-wam", "dual-spec", "check-seed", "sd", "state-diagram"])
    qc.add_argument("file")

    ver = sub.add_parser("verify", help="run every identity check on a file")
    ver.add_argument("action", choices=["all"])
    ver.add_argument("file")
    return parser


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit_poly(poly, args):
    if args.format == "structured":
        sys.stdout.write(dumps(poly_to_structured(poly)))
    else:
        print(poly)


def _emit_matrix(matrix, args):
    matrix = matrix.collapse(_COLLAPSE_MAPS[args.collapse])
    if args.format == "structured":
        sys.stdout.write(dumps(matrix_to_structured(matrix)))
    else:
        print(matrix)


def _run_block(args):
    code = parse_block_code(_read(args.file))
    if args.action == "hwgf":
        _emit_poly(block.hwgf(code), args)
    elif args.action == "ipwgf":
        _emit_poly(block.ipwgf(code), args)
    else:  # dual
        dual = block.dual_code(code)
        print("q %d %d" % (code.spec.p, code.spec.r))
        print("n %d" % dual.n)
        print("k %d" % dual.k)
        for row in dual.generator:
            print(" ".join(str(x) for x in row))
    return 0


def _run_conv(args):
    seed = parse_conv_seed(_read(args.file))
    spec, q = seed.spec, seed.spec.q
    if args.action == "wam":
        _emit_matrix(conv.wam(seed), args)
    elif args.action == "ipwam":
        _emit_matrix(conv.ipwam(seed), args)
    elif args.action == "iowam":
        _emit_matrix(conv.iowam(seed), args)
    elif args.action == "dual-wam":
        lam = conv.wam(seed)
        _emit_matrix(conv.macwilliams_wam(lam, q, seed.n, seed.k, seed.m,
                                          spec), args)
    elif args.action == "dual-ipwam":
        lam = conv.ipwam(seed)
        _emit_matrix(conv.macwilliams_ipwam(lam, q, seed.n, seed.k, seed.m,
                                            spec), args)
    elif args.action == "total":
        lam = conv.wam(seed).collapse({"x": 1})
        _emit_poly(conv.total_wgf(lam, args.dmax), args)
    elif args.action == "dual-total":
        lam = conv.wam(seed)
        _emit_poly(conv.dual_total_wgf(lam, q, seed.n, seed.k, seed.m,
                                       args.dmax, spec), args)
    elif args.action == "free":
        lam = conv.wam(seed).collapse({"x": 1})
        _emit_poly(conv.free_wgf(lam, args.dmax), args)
    elif args.action == "dfree":
        lam = conv.wam(seed).collapse({"x": 1})
        result = conv.free_distance(lam, args.dmax)
        if result.determined and result.value is not None:
            print("d_free = %d" % result.value)
        elif result.determined:
            print("d_free: %s" % result.reason)
        else:
            print("d_free not determined: %s" % result.reason)
    elif args.action == "gd":
        print(conv.poly_generator(seed, args.dmax))
    else:  # check-dual
        dual = conv.dual_seed(seed)
        sys.stdout.write(render_conv_seed(dual))
        ok, diags = conv.orthogonality_check(seed, dual)
        for diag in diags:
            print("FAIL %s" % diag)
        print("orthogonality: %s" % ("PASS" if ok else "FAIL"))
        return 0 if ok else 1
    return 0


def _run_quantum(args):
    spec = parse_quantum_spec(_read(args.file))
    if args.action == "wam":
        _emit_matrix(quantum.quantum_wam(spec), args)
    elif args.action == "dual-wam":
        _emit_matrix(quantum.dual_wam(spec), args)
    elif args.action == "dual-spec":
        sys.stdout.write(render_quantum_spec(quantum.dual_spec(spec)))
    elif args.action == "check-seed":
        ok, diags = spec.validate_clifford()
        for diag in diags:
            print("FAIL %s" % diag)
        print("clifford: %s" % ("PASS" if ok else "FAIL"))
        return 0 if ok else 1
    elif args.action == "sd":
        s_z, s_e, logical = quantum.poly_check_matrix(spec, args.dmax)
        print("S^Z(D):")
        print(s_z if s_z.rows else "(none)")
        print("S^E(D):")
        print(s_e if s_e.rows else "(none)")
        print("L(D):")
        print(logical if logical.rows else "(none)")
    else:  # state-diagram
        print(quantum.state_diagram_dot(spec))
    return 0


def _check(name, ok, lines, diags=()):
    lines.append("%s: %s" % (name, "PASS" if ok else "FAIL"))
    if not ok:
        lines.extend("FAIL %s" % diag for diag in diags)
    return ok


def _verify_block(code):
    lines, all_ok = [], True
    q, k = code.spec.q, code.k
    dual = block.dual_code(code)
    transformed = block.macwilliams_hwgf(block.hwgf(code), q, k)
    all_ok &= _check("hwgf transform matches dual enumeration",
                     transformed == block.hwgf(dual), lines)
    back = block.macwilliams_hwgf(transformed, q, code.n - k)
    all_ok &= _check("hwgf transform involution",
                     back == block.hwgf(code), lines)
    if isinstance(code, block.SystematicCode):
        ipt = block.macwilliams_ipwgf(block.ipwgf(code), q, k)
        all_ok &= _check("ipwgf transform matches dual enumeration",
                         ipt == block.ipwgf(dual, info_last=True), lines)
    return all_ok, lines


def _verify_conv(seed, dmax):
    lines, all_ok = [], True
    spec, q = seed.spec, seed.spec.q
    lam = conv.wam(seed)
    dual = conv.dual_seed(seed)
    ok, diags = conv.orthogonality_check(seed, dual)
    all_ok &= _check("dual seed orthogonality", ok, lines, diags)
    lam_hat = conv.macwilliams_wam(lam, q, seed.n, seed.k, seed.m, spec)
    all_ok &= _check("wam transform matches dual enumeration",
                     lam_hat == conv.wam(dual), lines)
    back = conv.macwilliams_wam(lam_hat, q, seed.n, seed.n - seed.k, seed.m,
                                spec)
    all_ok &= _check("wam transform involution", back == lam, lines)
    if isinstance(seed, conv.SystematicConvSeed) and not seed.info_last:
        ip_hat = conv.macwilliams_ipwam(conv.ipwam(seed), q, seed.n, seed.k,
                                        seed.m, spec)
        dual_sys = conv.dual_systematic_seed(seed)
        all_ok &= _check("ipwam transform matches dual enumeration",
                         ip_hat == conv.ipwam(dual_sys), lines)
    lam_y = lam.collapse({"x": 1})
    w_total = conv.total_wgf(lam_y, dmax)
    w_free = conv.free_wgf(lam_y, dmax)
    d = WeightPoly.var("D", d_max=dmax)
    all_ok &= _check("free/total series relation",
                     w_free * (1 + w_total * d) == w_total, lines)
    return all_ok, lines


def _verify_quantum(spec):
    lines, all_ok = [], True
    ok, diags = spec.validate_clifford()
    all_ok &= _check("clifford seed symplectic relations", ok, lines, diags)
    lam = quantum.quantum_wam(spec)
    dual = quantum.dual_spec(spec)
    lam_hat = quantum.quantum_macwilliams(lam, spec.n, spec.k, spec.a, spec.m)
    all_ok &= _check("wam transform matches dual enumeration",
                     lam_hat == quantum.quantum_wam(dual), lines)
    back = quantum.quantum_macwilliams(lam_hat, spec.n, dual.k, dual.a,
                                       dual.m)
    all_ok &= _check("wam transform involution", back == lam, lines)
    ok, diags = quantum.check_poly_orthogonality(spec)
    all_ok &= _check("polynomial check-matrix orthogonality", ok, lines,
                     diags)
    return all_ok, lines


def _run_verify(args):
    text = _read(args.file)
    if args.file.endswith(".qcc"):
        ok, lines = _verify_quantum(parse_quantum_spec(text))
    elif args.file.endswith(".cc"):
        ok, lines = _verify_conv(parse_conv_seed(text), args.dmax)
    else:
        ok, lines = _verify_block(parse_block_code(text))
    for line in lines:
        print(line)
    return 0 if ok else 1


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    runners = {"block": _run_block, "conv": _run_conv,
               "quantum": _run_quantum, "verify": _run_verify}
    try:
        return runners[args.group](args)
    except (WamkitError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
