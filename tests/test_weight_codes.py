"""gflinalg.weight_codes, the whole-plane weight-code kernel, against a
count of nonzero fields taken one word at a time, and its time and
memory against the per-word group_weights count it replaced."""

import time
import tracemalloc

import pytest

from conftest import (field, per_word_enumerator, random_linear_code,
                      random_systematic_code, seeded_rng)
from wamkit import gflinalg
from wamkit.block import SystematicCode, hwgf, ipwgf
from wamkit.poly import IP_VARS

FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))


def _per_word_codes(q, lo, hi, groups):
    """The code of every word lo[i] XOR hi[j], i-major, from the number of
    nonzero b-bit fields of the word on each group."""
    b = gflinalg.field_bits(q)
    out = []
    for a in lo:
        for h in hi:
            word, code = a ^ h, 0
            for g in groups:
                weight = sum(1 for j in g if word >> j * b & (1 << b) - 1)
                code = code * (len(g) + 1) + weight
            out.append(code)
    return out


def _kernel(q, lo, hi, groups, shift=None):
    """(codes, tops) of weight_codes, each flattened over its planes."""
    codes, tops = [], []
    for plane_codes, plane_tops in gflinalg.weight_codes(q, lo, hi, groups,
                                                         shift):
        codes += plane_codes
        if plane_tops is not None:
            tops += plane_tops
    return codes, tops


def _random_groups(rng, n, count):
    """`count` disjoint groups that cover range(n), some maybe empty."""
    coords = list(range(n))
    rng.shuffle(coords)
    cuts = sorted(rng.randint(0, n) for _ in range(count - 1))
    return [sorted(coords[a:c]) for a, c in zip([0] + cuts, cuts + [n])]


def _words(rng, spec, n, width, count):
    """`count` packed words of n random coordinates over GF(q) and random
    bits above them up to `width` bits, outside every group."""
    b = gflinalg.field_bits(spec.q)
    return [sum(rng.randrange(spec.q) << j * b for j in range(n))
            | rng.getrandbits(width - n * b) << n * b for _ in range(count)]


@pytest.mark.parametrize("p, r", FIELDS)
@pytest.mark.parametrize("width", [0, 7, 8, 9, 63, 64, 65, 130])
def test_codes_match_the_per_word_count(p, r, width):
    spec = field(p, r)
    rng = seeded_rng("weight-codes-%d-%d-%d" % (p, r, width))
    n = width // gflinalg.field_bits(spec.q)
    for count, (los, his) in zip((1, 2, 3, 4, 1, 2, 3, 4),
                                 [(1, 1), (1, 7), (9, 1), (3, 5)] * 2):
        groups = _random_groups(rng, n, count)
        if count > 1:
            groups.insert(rng.randrange(count), [])
        lo, hi = (_words(rng, spec, n, width, c) for c in (los, his))
        shift = n * gflinalg.field_bits(spec.q)
        codes, tops = _kernel(spec.q, lo, hi, groups, shift)
        assert codes == _per_word_codes(spec.q, lo, hi, groups)
        assert tops == [(a ^ h) >> shift for a in lo for h in hi]
        assert _kernel(spec.q, lo, hi, groups) == (codes, [])


@pytest.mark.parametrize("plane_bytes", [1, 24, 200])
def test_planes_split_lo_and_a_long_hi(monkeypatch, plane_bytes):
    # planes of 1, 8 and 66 three-byte words: a plane of part of hi, of
    # whole lo images, and a last plane of fewer lo images
    monkeypatch.setattr(gflinalg, "_PLANE_BYTES", plane_bytes)
    rng = seeded_rng("weight-code-planes-%d" % plane_bytes)
    spec = field(3)
    for los, his in [(1, 40), (13, 3), (7, 11), (40, 1)]:
        lo, hi = (_words(rng, spec, 9, 20, c) for c in (los, his))
        groups = _random_groups(rng, 9, 2)
        codes, tops = _kernel(spec.q, lo, hi, groups, 18)
        assert codes == _per_word_codes(spec.q, lo, hi, groups)
        assert tops == [(a ^ h) >> 18 for a in lo for h in hi]


def test_a_hi_longer_than_one_plane():
    # 3 * 2^13 hi images of 3 bytes: about 2.3 planes of 2^15 bytes each
    rng = seeded_rng("weight-code-long-hi")
    spec = field(2)
    lo, hi = _words(rng, spec, 20, 20, 2), _words(rng, spec, 20, 20, 3 << 13)
    groups = [range(8), range(8, 20)]
    planes = list(gflinalg.weight_codes(2, lo, hi, groups))
    assert len(planes) == 6
    assert [c for codes, _ in planes for c in codes] == _per_word_codes(
        2, lo, hi, groups)


def test_no_words_and_no_coordinates():
    assert list(gflinalg.weight_codes(2, [], [1, 2], [range(2)])) == []
    assert list(gflinalg.weight_codes(2, [3], [], [range(2)])) == []
    assert _kernel(4, [0, 0], [0], [range(0)]) == ([0, 0], [])
    assert _kernel(9, [0], [0, 0], [[], []], 0) == ([0, 0], [0, 0])
    # coordinates and a shift above every word's top bit
    assert _kernel(2, [1], [0, 2], [range(20)], 30) == ([1, 2], [0, 0])
    assert _kernel(3, [0], [1], [range(1), range(1, 40)]) == ([40], [])


def test_codes_of_256_and_more():
    # the input-parity codes of a binary [40, 20] code run to 21 * 21
    code = random_systematic_code(seeded_rng("codes-40-20"), field(2), 40,
                                  20)
    info, parity = list(range(20)), list(range(20, 40))
    assert ipwgf(code) == per_word_enumerator(code, IP_VARS, [info, parity])


@pytest.mark.parametrize("p, r, k", [(2, 1, 10), (3, 1, 6), (2, 2, 5)])
def test_weights_of_256_and_more(p, r, k):
    # (I_k | A) of length 300, A with no zero entry: every row weighs
    # 291, and a field's byte sums count 255 coordinates at a time
    spec = field(p, r)
    rng = seeded_rng("weights-300-%d-%d" % (p, r))
    code = SystematicCode(spec, [
        [int(i == j) for j in range(k)]
        + [rng.randrange(1, spec.q) for _ in range(300 - k)]
        for i in range(k)])
    want = per_word_enumerator(code, ("x", "y"), [range(300)])
    assert hwgf(code) == want
    assert max(want.y_degrees()) > 255


def test_plane_counted_hwgf_takes_under_two_fifths_of_the_per_word_time():
    # GF(3) [24, 12]: 3^12 codewords; the best of 5 interleaved runs of
    # each side, so that a slow spell of the host slows both alike
    code = random_linear_code(seeded_rng("hwgf-time-24-12"), field(3), 24, 12)
    best, out = {}, {}
    sides = {"plane": hwgf,
             "word": lambda c: per_word_enumerator(c, ("x", "y"),
                                                   [range(24)])}
    for _ in range(5):
        for name, run in sides.items():
            start = time.perf_counter()
            out[name] = run(code)
            best[name] = min(best.get(name, float("inf")),
                             time.perf_counter() - start)
    assert out["plane"] == out["word"]
    assert best["plane"] * 2.5 <= best["word"], best


def test_binary_40_20_hwgf_peaks_below_8_mb():
    # 2^20 codewords in planes of 32 kB; one plane of all of them would
    # hold 5 MB, and its copies far more
    code = random_linear_code(seeded_rng("hwgf-memory-40-20"), field(2), 40,
                              20)
    tracemalloc.start()
    try:
        poly = hwgf(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(poly.terms.values()) == 2 ** 20
    assert peak < 8 * 2 ** 20, "peak %.1f MB" % (peak / 2 ** 20)
