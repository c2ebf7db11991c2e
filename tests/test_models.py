import tracemalloc

import numpy as np
import pytest

from fdrlos.analytic import (drlos_cdf_oracle, fdrlos_cdf, fdrlos_cdf_oracle,
                             rician_cdf, rs_cdf)
from fdrlos.cli import _variance
from fdrlos.empirics import ks_distance, tabulated_cdf
from fdrlos.models import (_CHUNK, FadingParams, ModelKind, _chunk_rng,
                           sample_gamma_rv, sample_snr)
from fdrlos.specfun import DomainError


class TestFadingParams:
    def test_normalized_amplitudes(self):
        p = FadingParams(5.0, 3, 2.0)
        assert p.omega0 ** 2 == pytest.approx(5.0 / 6.0)
        assert p.omega2 ** 2 == pytest.approx(1.0 / 6.0)
        assert p.omega0 ** 2 + p.omega2 ** 2 == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            FadingParams(-0.1, 1, 1.0)
        with pytest.raises(DomainError):
            FadingParams(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            FadingParams(1.0, 1, 0.0)

    def test_rejects_nonfinite(self):
        for args in ((1.0, 2, np.inf), (np.inf, 2, 1.0), (1.0, np.inf, 1.0),
                     (np.nan, 2, 1.0)):
            with pytest.raises(DomainError, match="finite"):
                FadingParams(*args)

    def test_every_positive_m_accepted(self):
        # every law takes a real m, so the shape is kept as given
        for m in (0.3, 2.5, 3):
            assert FadingParams(1.0, m, 1.0).m == m

    def test_model_parsing(self):
        assert ModelKind.parse("FDRLOS") is ModelKind.FDRLOS
        assert ModelKind.parse("rician_shadowed") is ModelKind.RICIAN_SHADOWED
        with pytest.raises(DomainError):
            ModelKind.parse("nakagami")


class TestGammaSampler:
    @staticmethod
    def draw(m, seed):
        xi = np.empty(10 ** 6)
        sample_gamma_rv(m, _chunk_rng(seed, 0), xi)
        return xi

    def test_unit_mean_exponential_case(self):
        xi = self.draw(1.0, 11)
        assert np.mean(xi) == pytest.approx(1.0, abs=0.005)

    def test_variance_at_m5(self):
        xi = self.draw(5.0, 12)
        assert np.var(xi) == pytest.approx(0.2, abs=0.01)

    def test_skewness_below_unit_shape(self):
        xi = self.draw(0.5, 13)
        skew = np.mean((xi - xi.mean()) ** 3) / np.std(xi) ** 3
        assert skew == pytest.approx(2.0 / np.sqrt(0.5), abs=0.05)


def reference_snr(model, p, n, seed):
    """The module docstring's real form in plain allocating numpy:
    gamma_bar |w0 sqrt(xi) + w2 sqrt(E3) G|^2, chunk c drawn from stream
    (seed, c) in the order E3, xi, (Gr, Gi)."""
    parts = []
    for c in range(-(-n // _CHUNK)):
        rng = _chunk_rng(seed, c)
        size = min(_CHUNK, n - c * _CHUNK)
        e3 = rng.standard_exponential(size) if model.has_double_scatter else 1.0
        xi = rng.standard_gamma(p.m, size) / p.m if model.has_los_fluctuation else 1.0
        gr, gi = rng.standard_normal((2, size))
        a = np.sqrt(p.gamma_bar / 2.0) * p.omega2 * np.sqrt(e3)
        los = np.sqrt(p.gamma_bar) * p.omega0 * np.sqrt(xi)
        parts.append((gr * a + los) ** 2 + (gi * a) ** 2)
    return np.concatenate(parts)


class TestSampler:
    def test_mean_matches_gamma_bar(self):
        s = sample_snr(ModelKind.FDRLOS, FadingParams(5.0, 3, 2.0), 10 ** 7, 42)
        assert float(np.mean(s.values)) == pytest.approx(2.0, abs=0.01)

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_mean_for_every_model(self, model):
        s = sample_snr(model, FadingParams(3.0, 2, 1.5), 10 ** 6, 7)
        assert float(np.mean(s.values)) == pytest.approx(1.5, abs=0.02)

    def test_bit_exact_regeneration(self):
        p = FadingParams(1.0, 2, 1.0)
        a = sample_snr(ModelKind.FDRLOS, p, 2_500_000, 99)
        b = sample_snr(ModelKind.FDRLOS, p, 2_500_000, 99)
        assert np.array_equal(a.values, b.values)

    def test_thread_count_does_not_change_values(self):
        p = FadingParams(2.0, 1, 1.0)
        serial = sample_snr(ModelKind.FDRLOS, p, 3_000_000, 5, threads=1)
        t2 = sample_snr(ModelKind.FDRLOS, p, 3_000_000, 5, threads=2)
        t8 = sample_snr(ModelKind.FDRLOS, p, 3_000_000, 5, threads=8)
        assert np.array_equal(serial.values, t2.values)
        assert np.array_equal(serial.values, t8.values)

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_stream_matches_reference(self, model):
        p = FadingParams(2.0, 2.5, 1.3)
        n = 2 * _CHUNK + 12345                  # ends in a partial chunk
        ref = reference_snr(model, p, n, 17)
        for threads in (1, 2, 8):
            assert np.array_equal(sample_snr(model, p, n, 17, threads=threads).values, ref)

    def test_nonnegative_and_counted(self):
        s = sample_snr(ModelKind.DRLOS, FadingParams(1.0, 1, 1.0), 10_000, 3)
        assert s.count == 10_000 == len(s.values)
        assert np.all(s.values >= 0)

    def test_array_k_rejected(self):
        # the laws take an array K; the sampler draws for one K at a time
        with pytest.raises(DomainError, match="scalar K"):
            sample_snr(ModelKind.FDRLOS, FadingParams(np.array([1.0, 2.0]), 2.0, 1.0), 10, 1)

    def test_empty_request_rejected(self):
        with pytest.raises(DomainError):
            sample_snr(ModelKind.RICIAN, FadingParams(1.0, 1, 1.0), 0, 1)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(DomainError, match="threads"):
            sample_snr(ModelKind.RICIAN, FadingParams(1.0, 1, 1.0), 10, 1, threads=threads)

    @pytest.mark.parametrize("seed, chunk", [(0, 0), (7, 3), (20260810, 1)])
    def test_chunk_stream_is_sfc64_of_its_spawn_key(self, seed, chunk):
        rng = _chunk_rng(seed, chunk)
        assert type(rng.bit_generator) is np.random.SFC64
        ref = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(seed, spawn_key=(chunk,))))
        assert np.array_equal(rng.random(8), ref.random(8))

    def test_streams_differ_by_chunk_and_seed(self):
        first = {(seed, c): _chunk_rng(seed, c).random()
                 for seed in (1, 2, 3) for c in (0, 1, 2)}
        assert len(set(first.values())) == len(first)

    def test_values_frozen(self):
        s = sample_snr(ModelKind.RICIAN, FadingParams(1.0, 1, 1.0), 10, 1)
        with pytest.raises(ValueError):
            s.values[0] = -1.0


def traced_peak(fn):
    """fn() and the peak of the memory it allocated, numpy buffers included."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


class TestMemory:
    """The Monte-Carlo path allocates its output, one sorted copy for KS and
    chunk- or block-sized scratch; nothing else scales with the sample."""

    N = 2 ** 21 + 5

    def test_sampler_and_ks_peaks(self):
        p = FadingParams(5.0, 3, 2.0)
        s, peak = traced_peak(lambda: sample_snr(ModelKind.FDRLOS, p, self.N, 3, threads=2))
        assert peak <= 8 * self.N + 2 * 2 * 8 * _CHUNK + 2 ** 20
        cdf = tabulated_cdf(lambda g: fdrlos_cdf(g, p),
                            float(s.values.min()), float(s.values.max()))
        rep, peak = traced_peak(lambda: ks_distance(s, cdf))
        assert rep.passed, rep
        assert peak <= 8 * self.N + 2 ** 20

    def test_sim_variance_peak(self):
        x = np.random.default_rng(5).exponential(2.0, self.N)
        _, peak = traced_peak(lambda: _variance(x, float(np.mean(x))))
        assert peak < 2 ** 20


class TestDistributionalChecks:
    def test_rician_shadowed_m1_is_rayleigh_power(self):
        gbar = 1.5
        s = sample_snr(ModelKind.RICIAN_SHADOWED, FadingParams(2.0, 1, gbar),
                       10 ** 6, 23)
        rep = ks_distance(s, lambda g: 1.0 - np.exp(-g / gbar))
        assert rep.passed, rep

    def test_fdrlos_no_los_matches_product_law(self):
        # K = 0 collapses to the double-Rayleigh product SNR; oracle cdf
        p = FadingParams(0.0, 1, 1.0)
        s = sample_snr(ModelKind.FDRLOS, p, 10 ** 6, 31)
        cdf = tabulated_cdf(lambda g: fdrlos_cdf_oracle(g, p),
                            float(s.values.min()), float(s.values.max()))
        rep = ks_distance(s, cdf)
        assert rep.statistic < 0.002, rep

    def test_huge_m_degenerates_to_deterministic_los(self):
        p = FadingParams(5.0, 10 ** 4, 2.0)
        s = sample_snr(ModelKind.FDRLOS, p, 10 ** 6, 37)
        cdf = tabulated_cdf(lambda g: drlos_cdf_oracle(g, 5.0, 2.0),
                            float(s.values.min()), float(s.values.max()))
        rep = ks_distance(s, cdf)
        assert rep.statistic < 0.005, rep

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_conditional_slice_is_rician_shadowed(self, x):
        # fdrlos given |G3|^2 = x is the rician-shadowed sampler at (K_x, gbar_x)
        k, m, gbar = 5.0, 3, 2.0
        n = 10 ** 6
        k_x = k / x
        gbar_x = gbar * (k + x) / (k + 1.0)
        s = sample_snr(ModelKind.RICIAN_SHADOWED, FadingParams(k_x, m, gbar_x), n, 123)
        rep = ks_distance(s, lambda g: rs_cdf(g, k_x, m, gbar_x))
        assert rep.passed, rep

    @pytest.mark.parametrize("model, params, law, tabulate, seed", [
        (ModelKind.RICIAN, FadingParams(3.0, 1, 1.5),
         lambda g, p: rician_cdf(g, p.k, p.gamma_bar), False, 501),
        (ModelKind.RICIAN_SHADOWED, FadingParams(2.0, 2.5, 1.5),
         lambda g, p: rs_cdf(g, p.k, p.m, p.gamma_bar), False, 502),
        (ModelKind.DRLOS, FadingParams(4.0, 1, 2.0),
         lambda g, p: drlos_cdf_oracle(g, p.k, p.gamma_bar), True, 503),
        (ModelKind.FDRLOS, FadingParams(5.0, 3, 2.0), fdrlos_cdf, True, 504),
    ], ids=["rician", "rician-shadowed", "drlos", "fdrlos"])
    def test_sampler_matches_analytic_cdf(self, model, params, law, tabulate, seed):
        s = sample_snr(model, params, 10 ** 6, seed)
        def cdf(g):
            return law(g, params)
        if tabulate:
            cdf = tabulated_cdf(cdf, float(s.values.min()), float(s.values.max()))
        rep = ks_distance(s, cdf)
        assert rep.passed, rep

    def test_standard_error_scaling(self):
        p = FadingParams(1.0, 2, 1.0)
        err = {}
        for n in (10 ** 4, 10 ** 6):
            devs = [abs(np.mean(sample_snr(ModelKind.FDRLOS, p, n, seed).values) - 1.0)
                    for seed in range(60, 70)]
            err[n] = np.mean(devs)
        # mean absolute deviation should shrink by roughly sqrt(100) = 10
        assert 4.0 < err[10 ** 4] / err[10 ** 6] < 25.0
