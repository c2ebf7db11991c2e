import numpy as np
import pytest

from fdrlos.empirics import (_KS_BLOCK, CdfContractError, default_ks_threshold,
                             histogram_density, ks_distance, tabulated_cdf)
from fdrlos.models import _chunk_rng
from fdrlos.specfun import DomainError


def exp_cdf(x):
    return 1.0 - np.exp(-np.asarray(x, dtype=float))


class TestKsDistance:
    def test_same_law_passes_default_threshold(self):
        x = _chunk_rng(8, 0).exponential(1.0, 10 ** 6)
        rep = ks_distance(x, exp_cdf)
        assert rep.passed
        assert rep.threshold == pytest.approx(default_ks_threshold(10 ** 6))

    def test_large_exponential_sample_close_to_truth(self):
        x = _chunk_rng(5, 0).exponential(1.0, 10 ** 6)
        rep = ks_distance(x, exp_cdf)
        assert rep.statistic < 0.002, rep

    def test_empty_sample_rejected(self):
        with pytest.raises(DomainError):
            ks_distance(np.array([]), exp_cdf)

    def test_degenerate_sample_fails_badly(self):
        x = np.full(1000, 2.0)
        rep = ks_distance(x, exp_cdf)
        assert rep.statistic > 0.5
        assert not rep.passed

    def test_non_monotone_cdf_rejected(self):
        x = np.linspace(0.1, 6.0, 100)
        with pytest.raises(CdfContractError):
            ks_distance(x, np.sin)
        ramp = (x - 0.1) / 5.9                            # 0 to 1 over x
        for bad in (0.5 - 1e-11 * (x > 3.0),              # a dip
                    ramp - 2e-9,                          # below 0
                    ramp + 2e-9):                         # above 1
            with pytest.raises(CdfContractError):
                ks_distance(x, lambda g: bad)

    @pytest.mark.parametrize("sample", [
        np.array([2.0, 0.5, 1.0]),
        np.array([1.0, 3.0, 2.0, 1.0, 2.0, 2.0]),
        np.full(1000, 2.0),
        _chunk_rng(14, 0).exponential(1.0, 10 ** 5),
    ], ids=["three-points", "ties", "degenerate", "exponential-1e5"])
    def test_statistic_matches_direct_formula(self, sample):
        # max_i max((i+1)/n - F_i, F_i - i/n) over the sorted sample
        f = exp_cdf(np.sort(sample))
        n = len(f)
        direct = max(max((i + 1) / n - fi, fi - i / n) for i, fi in enumerate(f))
        assert ks_distance(sample, exp_cdf).statistic == pytest.approx(
            direct, rel=0, abs=1e-15)

    @pytest.mark.parametrize("n", [1, _KS_BLOCK - 1, _KS_BLOCK, _KS_BLOCK + 1,
                                   3 * _KS_BLOCK + 7])
    def test_blocks_give_the_full_array_statistic(self, n):
        # the unblocked computation, with the same elementwise operations
        x = _chunk_rng(15, 0).exponential(1.0, n)
        f = np.clip(exp_cdf(np.sort(x)), 0.0, 1.0)
        above = np.arange(1.0, n + 1.0) / n - f
        direct = float(max(above.max(), 1.0 / n - above.min()))
        assert ks_distance(x, exp_cdf).statistic == direct

    def test_contract_checked_across_blocks(self):
        b = _KS_BLOCK
        x = np.linspace(0.1, 6.0, 3 * b + 7)
        ramp = lambda g: (g - 0.1) / 5.9                   # 0 to 1 over x
        for bad in (lambda g: 0.5 - 1e-11 * (g >= x[b]),   # a dip at the first join
                    lambda g: ramp(g) - 2e-9 * (g < x[1]), # below 0, first block only
                    lambda g: ramp(g) + 2e-9 * (g > x[-2])):  # above 1, last block only
            with pytest.raises(CdfContractError):
                ks_distance(x, bad)
        ks_distance(x, ramp)                               # the ramp itself passes

    @pytest.mark.parametrize("at", [0, _KS_BLOCK - 1, _KS_BLOCK, 2 * _KS_BLOCK])
    def test_nan_cdf_rejected(self, at):
        x = np.linspace(0.1, 6.0, 2 * _KS_BLOCK + 1)      # the last block holds one value

        def cdf(g):
            f = exp_cdf(g)
            f[g == x[at]] = np.nan
            return f

        with pytest.raises(CdfContractError):
            ks_distance(x, cdf)

    def test_cdf_of_another_shape_rejected(self):
        with pytest.raises(CdfContractError, match="shape"):
            ks_distance(np.linspace(0.1, 6.0, 10), lambda g: 0.5)

    def test_statistic_shrinks_like_root_n(self):
        stats = {}
        for n in (10 ** 4, 10 ** 6):
            x = _chunk_rng(9, 0).exponential(1.0, n)
            stats[n] = ks_distance(x, exp_cdf).statistic
        ratio = stats[10 ** 4] / stats[10 ** 6]
        assert 3.0 < ratio < 30.0

    def test_report_invariants(self):
        x = _chunk_rng(10, 0).exponential(1.0, 10 ** 4)
        rep = ks_distance(x, exp_cdf)
        assert 0.0 <= rep.statistic <= 1.0
        assert rep.n == 10 ** 4
        assert rep.passed == (rep.statistic < rep.threshold)


class TestHistogram:
    def test_uniform_heights(self):
        x = _chunk_rng(11, 0).uniform(0.0, 1.0, 10 ** 5)
        curve = histogram_density(x, 0.1, (0.0, 1.0))
        assert np.all(np.abs(curve.ordinate - 1.0) < 0.05)

    def test_mass_equals_fraction_in_range(self):
        x = _chunk_rng(12, 0).uniform(0.0, 2.0, 10 ** 4)
        curve = histogram_density(x, 0.1, (0.0, 1.0))
        frac = np.mean((x >= 0.0) & (x < 1.0))
        assert float(np.sum(curve.ordinate) * 0.1) == pytest.approx(frac, abs=1e-9)

    def test_bin_centers(self):
        x = np.array([0.05, 0.15])
        curve = histogram_density(x, 0.1, (0.0, 0.2))
        np.testing.assert_allclose(curve.abscissa, [0.05, 0.15])

    def test_invalid_inputs(self):
        x = np.array([1.0])
        with pytest.raises(DomainError):
            histogram_density(x, 0.0, (0.0, 1.0))
        with pytest.raises(DomainError):
            histogram_density(x, 0.1, (1.0, 0.0))
        with pytest.raises(DomainError):
            histogram_density(x, 0.3, (0.0, 1.0))


class TestTabulatedCdf:
    def test_matches_exact_cdf(self):
        f = tabulated_cdf(exp_cdf, 1e-4, 30.0)
        x = np.geomspace(2e-4, 25.0, 500) * 1.0137
        assert float(np.max(np.abs(f(x) - exp_cdf(x)))) < 1e-6

    def test_clamps_to_unit_interval(self):
        f = tabulated_cdf(exp_cdf, 0.01, 5.0)
        assert f(0.0) == 0.0
        assert f(1e9) <= 1.0
