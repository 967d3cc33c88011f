"""`conv total` and `conv free` from the seed's counted edges: the same
series and the same bytes as the WAM route, with no matrix built."""

import pytest

from conftest import (field, random_conv_seed, random_systematic_conv_seed,
                      seeded_rng)
from wamkit.cli import main
from wamkit.conv import free_wgf, seed_series, total_wgf, wam
from wamkit.formats import poly_to_structured, render_conv_seed
from wamkit.polymatrix import PolyMatrix

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]
# (n, k, m): k < m, k >= m, k = n, m = 0 and k = 0
SHAPES = [(2, 1, 2), (3, 1, 1), (3, 2, 1), (2, 2, 1), (2, 1, 0), (3, 0, 2),
          (1, 1, 2), (3, 3, 0)]


def _seeds(p, r):
    spec = field(p, r)
    rng = seeded_rng("seed-series-%d-%d" % (p, r))
    for n, k, m in SHAPES:
        yield random_conv_seed(rng, spec, n, k, m)
        if k:
            yield random_systematic_conv_seed(rng, spec, n, k, m)


@pytest.mark.parametrize("p, r", FIELDS)
def test_seed_series_is_the_wam_series(p, r):
    for seed in _seeds(p, r):
        lam_y = wam(seed).collapse({"x": 1})
        for d in (0, 1, 4, 12):
            assert seed_series(seed, d) == total_wgf(lam_y, d)
            assert seed_series(seed, d, free=True) == free_wgf(lam_y, d)


def _refuse(*args):
    raise AssertionError("a matrix was built")


@pytest.mark.parametrize("p, r", FIELDS)
def test_total_and_free_build_no_matrix(monkeypatch, capsys, tmp_path, p,
                                        r):
    # the bytes of the WAM route, then the CLI with every way to build or
    # collapse a matrix refused
    path = tmp_path / "seed.cc"
    cases = []
    for seed in _seeds(p, r):
        lam_y = wam(seed).collapse({"x": 1})
        for d in (0, 1, 10):
            for action, series in (("total", total_wgf), ("free", free_wgf)):
                poly = series(lam_y, d)
                cases += [(seed, ["--dmax", str(d), "conv", action],
                           "%s\n" % poly),
                          (seed, ["--format", "structured", "--dmax", str(d),
                                  "conv", action], poly_to_structured(poly))]
    for name in ("__init__", "collapse", "from_nonzero_rows"):
        monkeypatch.setattr(PolyMatrix, name, _refuse)
    for seed, argv, want in cases:
        path.write_text(render_conv_seed(seed))
        assert main(argv + [str(path)]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (want, "")
