"""Block codes: enumeration, duals and transform-vs-oracle checks."""

import time

import pytest

from conftest import (field, poly_of, random_linear_code,
                      random_systematic_code, seeded_rng)
from wamkit.block import (LinearCode, SystematicCode, _ZeroCode, dual_code,
                          hwgf, ipwgf, macwilliams_hwgf, macwilliams_ipwgf)
from wamkit.conv import (ConvSeed, SystematicConvSeed, ipwam,
                         macwilliams_ipwam, macwilliams_wam, wam)
from wamkit.errors import AlgebraError, BudgetError, ShapeError, WamkitError
from wamkit.formats import parse_block_code
from wamkit.poly import WeightPoly


def test_rep3_hwgf(rep3):
    assert hwgf(rep3) == poly_of("x^3 + y^3")


def test_rep3_dual_is_parity_check(rep3):
    dual = dual_code(rep3)
    assert dual.k == 2
    assert hwgf(dual) == poly_of("x^3 + 3*x*y^2")


def test_rep3_transform_matches_dual(rep3):
    assert macwilliams_hwgf(hwgf(rep3), 2) == hwgf(dual_code(rep3))


def test_rep3_dual_ipwgf(rep3):
    # dual generator is (-A^T | I), information on the last two positions
    dual = dual_code(rep3)
    got = ipwgf(dual, info_last=True)
    assert got == poly_of("xI^2*xP + 2*xI*yI*yP + yI^2*xP")
    assert macwilliams_ipwgf(ipwgf(rep3), 2) == got


def test_systematic_shape_enforced():
    spec = field(2)
    with pytest.raises(ShapeError):
        SystematicCode(spec, [[0, 1, 1]])
    code = SystematicCode(spec, [[1, 0, 1], [0, 1, 1]])
    assert code.parity_part == [[1], [1]]


def test_rank_deficient_generator_rejected():
    with pytest.raises(ShapeError):
        LinearCode(field(2), [[1, 1, 0], [1, 1, 0]])


def test_budget_guard():
    spec = field(2)
    code = SystematicCode(spec, [[1 if i == j else 0 for j in range(30)]
                                 for i in range(30)])
    with pytest.raises(BudgetError):
        list(code.enumerate_codewords(budget=2 ** 10))


def test_dual_of_dual_is_original_span():
    rng = seeded_rng("dual-involution")
    for _ in range(20):
        spec = field(rng.choice([2, 3]))
        n = rng.randint(2, 6)
        k = rng.randint(1, n - 1)
        code = random_linear_code(rng, spec, n, k)
        back = dual_code(dual_code(code))
        assert sorted(map(tuple, back.enumerate_codewords())) == \
            sorted(map(tuple, code.enumerate_codewords()))


def test_hwgf_transform_property_small():
    rng = seeded_rng("block-small")
    for q, r in [(2, 1), (3, 1), (4, 2), (5, 1)]:
        spec = field(2, 2) if q == 4 else field(q)
        for _ in range(5):
            n = rng.randint(2, 5)
            k = rng.randint(1, n - 1)
            code = random_linear_code(rng, spec, n, k)
            assert macwilliams_hwgf(hwgf(code), q) == hwgf(dual_code(code))


def test_ipwgf_transform_property_small():
    rng = seeded_rng("block-ip-small")
    for _ in range(10):
        spec = field(rng.choice([2, 3]))
        n = rng.randint(2, 6)
        k = rng.randint(1, n - 1)
        code = random_systematic_code(rng, spec, n, k)
        got = macwilliams_ipwgf(ipwgf(code), spec.q)
        assert got == ipwgf(dual_code(code), info_last=True)


def test_transform_refuses_a_non_code(rep3):
    # the divisor is the enumerator at all ones, the size of the code; a
    # count that is not a power of the prime of q is no code's size
    x = WeightPoly.var("x")
    for transform, g, q, count in [
            (macwilliams_hwgf, WeightPoly.zero(), 2, 0),
            (macwilliams_hwgf, hwgf(rep3) + x ** 3, 2, 3),
            (macwilliams_hwgf, hwgf(rep3) * 3, 4, 6),
            (macwilliams_ipwgf, -ipwgf(rep3), 2, -2),
            (macwilliams_ipwgf, WeightPoly.zero(), 3, 0)]:
        with pytest.raises(AlgebraError, match="at all ones is %d," % count):
            transform(g, q)


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_block_code_is_the_memoryless_conv_code(p, r):
    # a block code is a convolutional code with m = 0: its enumerators
    # and their transforms are entry (0, 0) of the one-state WAMs
    spec = field(p, r)
    q = spec.q
    rng = seeded_rng("block-memoryless-%d-%d" % (p, r))
    for _ in range(3):
        n = rng.randint(2, 5)
        k = rng.randint(1, n - 1)
        code = random_linear_code(rng, spec, n, k)
        lam = wam(ConvSeed(spec, n, k, 0, code.generator))
        assert lam.rows == [{0: hwgf(code)}]
        assert (macwilliams_wam(lam, spec).rows
                == [{0: macwilliams_hwgf(hwgf(code), q)}])
        code = random_systematic_code(rng, spec, n, k)
        lam = ipwam(SystematicConvSeed(spec, n, k, 0, code.generator))
        assert lam.rows == [{0: ipwgf(code)}]
        assert (macwilliams_ipwam(lam, spec).rows
                == [{0: macwilliams_ipwgf(ipwgf(code), q)}])


def test_ipwgf_of_a_28_14_code_is_fast():
    # the input-parity enumerator is counted, not summed monomial by
    # monomial, so 2^14 codewords take a fraction of a second
    code = random_systematic_code(seeded_rng("block-ip-28-14"), field(2),
                                  28, 14)
    start = time.perf_counter()
    got = ipwgf(code)
    assert time.perf_counter() - start < 1.5
    assert sum(got.terms.values()) == 2 ** 14
    assert got.coefficient({"x_I": 14, "x_P": 14}) == 1


def test_zero_row_generator_names_what_exists():
    spec = field(2)
    with pytest.raises(WamkitError) as err:
        LinearCode(spec, [])
    assert "block._ZeroCode(spec, n)" in str(err.value)
    assert "'k 0'" in str(err.value)
    code = _ZeroCode(spec, 3)
    assert (code.k, code.n) == (0, 3)
    assert hwgf(code) == hwgf(parse_block_code("q 2 1\nn 3\nk 0\n"))
