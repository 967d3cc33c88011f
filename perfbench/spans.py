"""Outside-in span tracing of wamkit's public layer functions.

`install(tracer)` replaces each function in SPANS, under every name a
caller can look it up by (a module global bound with `from ... import`,
or a class attribute such as `__rmul__ = __mul__`), with a wrapper that
records a span.  Spans stay in memory as [name, start, end, parent index,
job id] and are written out when the run ends; `layer_times` turns them
into per-name call counts, self time and inclusive time.  WeightPoly and
CyclotomicInt methods are deliberately not wrapped: they run per term, and
their cost shows as the self time of the PolyMatrix spans.
"""

import functools
import importlib
import inspect
import sys
import time

# span names are <module>.<function>; "fields.FieldSpec" wraps __init__
SPANS = (
    "fields.FieldSpec",
    "formats.parse_conv_seed", "formats.parse_quantum_spec",
    "formats.parse_block_code", "formats.matrix_to_structured",
    "formats.poly_to_structured", "formats.dumps",
    "block.hwgf", "block.ipwgf", "block.dual_code", "block.macwilliams_hwgf",
    "block.macwilliams_ipwgf",
    "conv.wam", "conv.ipwam", "conv.iowam", "conv.macwilliams_wam",
    "conv.macwilliams_ipwam", "conv.fourier_matrix", "conv.total_wgf",
    "conv.free_wgf", "conv.free_distance", "conv.dual_seed",
    "conv.orthogonality_check", "conv.poly_generator",
    "quantum.quantum_wam", "quantum.quantum_macwilliams",
    "quantum.poly_check_matrix", "quantum.check_poly_orthogonality",
    "quantum.state_diagram_dot",
    "pauli.CliffordSeed.validate",
    "polymatrix.PolyMatrix.substitute", "polymatrix.PolyMatrix.conjugate_by",
    "polymatrix.PolyMatrix.exact_div", "polymatrix.PolyMatrix.to_int_coeffs",
    "polymatrix.PolyMatrix.collapse", "polymatrix.PolyMatrix.__mul__",
    "polymatrix.series_inverse",
    "cli.main",
)
# entry points that also report inclusive time
INCLUSIVE = ("conv.macwilliams_wam", "conv.macwilliams_ipwam", "conv.total_wgf",
             "conv.free_wgf", "conv.free_distance", "quantum.quantum_macwilliams",
             "polymatrix.series_inverse", "cli.main")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return traced


def install(tracer):
    """Wrap every function in SPANS; wamkit must already be imported."""
    modules = [mod for key, mod in sys.modules.items()
               if key == "wamkit" or key.startswith("wamkit.")]
    for name in SPANS:
        modname, *path = name.split(".")
        owner = importlib.import_module("wamkit." + modname)
        if len(path) == 2:  # Class.method
            owner = getattr(owner, path[0])
        attr = path[-1]
        if inspect.isclass(getattr(owner, attr)):  # time the constructor
            owner, attr = getattr(owner, attr), "__init__"
        orig = vars(owner)[attr]
        wrapper = tracer.wrap(name, orig)
        for ns in [owner] if inspect.isclass(owner) else modules:
            for key, val in list(vars(ns).items()):
                if val is orig:
                    setattr(ns, key, wrapper)


def layer_times(spans, scale=lambda job: 1.0):
    """{pass: {name: [calls, self seconds, inclusive seconds]}} for a span
    list whose job ids are (pass, job) and whose parent indices point into
    the same list.  Self time is a span's duration less its children's;
    both times are multiplied by scale(job id)."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _job in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _parent, job), covered in zip(spans, child):
        acc = out.setdefault(job[0], {}).setdefault(name, [0, 0.0, 0.0])
        factor = scale(job)
        acc[0] += 1
        acc[1] += (end - start - covered) * factor
        acc[2] += (end - start) * factor
    return out
