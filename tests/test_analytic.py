import contextlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc, chndtr, digamma, k0, k1

from fdrlos import analytic, specfun
from fdrlos.analytic import (Curve, UnderflowWarning, asymptotic_op,
                             coding_gain, drlos_cdf_oracle, drlos_pdf_oracle,
                             fdrlos_cdf, fdrlos_cdf_oracle, fdrlos_pdf,
                             rician_cdf, rician_pdf, rs_cdf, rs_pdf)
from fdrlos.models import FadingParams, check_params
from fdrlos.specfun import AccuracyError, DomainError, adaptive_quad_vec

# Rician shadowed cdf (gamma, K, m, gbar) -> F from scripts/make_goldens.py:
# mpmath integrals of the 1F1 density at 40 and 50 digits
RS_CDF_GOLDENS = {
    (1.3, 2.0, 2.5, 1.0): 0.7178311442408333,  # real m
    (4.0, 3.0, 2.5, 2.0): 0.8861522439282938,  # real m
    (0.5, 10.0, 0.7, 1.0): 0.45096962361444914,  # m below 1
    (3.0, 0.5, 0.7, 2.0): 0.7785854700031712,  # m below 1
    (1.9952623149688795, 6.0, 10, 1000000.0): 1.270300747823861e-07,  # 60 dB deep outage
    (1.9952623149688795, 1.0, 10, 1000000.0): 1.5385197133060144e-06,  # 60 dB deep outage
    (1.0, 10000.0, 2.5, 1.0001): 0.5840588090196206,  # K_x = 1e4, y near 1e4
    (1.02, 10000.0, 3, 1.0001): 0.590047362875984,  # K_x = 1e4, y near 1e4
    (500000.0, 3.0, 2.5, 2.0): 1.0,  # far tail
    (1000000.0, 3.0, 2.5, 2.0): 1.0,  # far tail
}
# the same at m = 1e6 (past the old m <= 1e5 refusal) and at K_x = 1e6, whose
# windows of about 24k terms would show rounding carried along the rows
RS_CDF_WIDE_GOLDENS = {
    (1.0, 3.0, 1000000.0, 1.0): 0.5730925020402815,  # m = 1e6
    (0.5, 30.0, 1000000.0, 2.0): 4.8435618801522995e-05,  # m = 1e6
    (1.0, 300.0, 1000000.0, 1.0): 0.5081343875667227,  # m = 1e6, NB mass below the window
    (2.0, 1000000.0, 2.5, 2.0): 0.5841198130049498,  # K_x = 1e6, y near 1e6
    (1.0, 1000000.0, 0.7, 1.0): 0.6565890602594594,  # K_x = 1e6, y near 1e6
}
# deep outage at large m and K_x, where the terms of the series peak far past
# y: the 1F1 density by Gauss-Legendre on 256 and 512 panels at 40 and 50
# digits, confirmed by an mpmath negative-binomial sum of Erlang cdfs
RS_CDF_PEAK_GOLDENS = {
    (5.0, 600.0, 100000.5, 601.0): 1.1277575134597824e-217,  # m = 1e5, terms peak near 54, y = 5
    (4.0, 650.0, 1000000.5, 651.0): 7.303641169435931e-243,  # m = 1e6, terms peak near 50, y = 4
    (3.0, 600.0, 10000.5, 601.0): 1.0032727970450268e-221,  # m = 1e4, terms peak near 40, y = 3
}
# the same cdf at integer m, from scripts/make_goldens.py
RS_CDF_2_4_2_15 = 0.7310867571901103
# the Rician shadowed pdf from scripts/make_goldens.py (the 1F1 density at 40
# and 50 digits) at K_x up to 1e8, where e^-x and 1F1 each leave double range,
# and at m = 1e-12 and 1e-20, where m - 1 rounds m away
RS_PDF_GOLDENS = {
    (3.0, 50000.0, 3, 1.7): 0.12417405320652712,
    (3.0, 1000000.0, 3, 1.7): 0.12417203665086425,
    (3.0, 100000000.0, 3, 1.7): 0.12417193155855319,
    (3.0, 50000.0, 2.5, 1.7): 0.12438606905659301,
    (3.0, 1000000.0, 2.5, 1.7): 0.12438514130706335,
    (3.0, 100000000.0, 2.5, 1.7): 0.1243850929565179,
    (30.0, 1.0, 1e-12, 1.0): 3.3908400786864395e-14,
    (50.0, 1.0, 1e-12, 1.0): 2.0204125053042746e-14,
    (30.0, 1.0, 1e-20, 1.0): 3.391015209177911e-22,
    (50.0, 1.0, 1e-20, 1.0): 2.0204125055496712e-22,
}
# fluctuating double-Rayleigh LoS pdf and cdf (gamma, K, m, gbar) and coding
# gains (K, m) from scripts/make_goldens.py: the paper's closed form at a
# precision that outlasts its cancellation, and the 1F1 conditional averaged
# over e^{-x}, agreeing to 16 digits
FDRLOS_PDF_GOLDENS = {
    (0.1, 5.0, 3, 2.0): 0.1574020371212645,  # fig1 K = 5, m = 3
    (1.0, 5.0, 3, 2.0): 0.36140440595290274,  # fig1 K = 5, m = 3
    (5.0, 5.0, 3, 2.0): 0.032089535751977226,  # fig1 K = 5, m = 3
    (1.0, 1.0, 20, 1.0): 0.3894811749459374,  # m = 20
    (1.0, 1.0, 30, 1.0): 0.38850394502757785,  # m = 30
    (1.0, 1.0, 40, 1.0): 0.38801115980365714,  # m = 40
    (1.0, 1.0, 60, 1.0): 0.38751983479884294,  # m = 60
    (1.0, 5.0, 20, 2.0): 0.334199681168694,  # m = 20
    (1.0, 5.0, 30, 2.0): 0.3194220156044113,  # m = 30
    (1.0, 5.0, 40, 2.0): 0.3107539632971728,  # m = 40
    (1.0, 5.0, 60, 2.0): 0.30160870907171744,  # m = 60
}
FDRLOS_CDF_GOLDENS = {
    (2.0, 5.0, 3, 2.0): 0.6029973647466391,  # fig1 K = 5, m = 3
    (1.0, 1.0, 20, 1.0): 0.679183890006319,  # m = 20
    (1.0, 1.0, 30, 1.0): 0.6800002994150839,  # m = 30
    (1.0, 1.0, 40, 1.0): 0.6804065080427366,  # m = 40
    (1.0, 1.0, 60, 1.0): 0.6808112084352526,  # m = 60
    (1.0, 5.0, 20, 2.0): 0.16453306598198678,  # m = 20
    (1.0, 5.0, 30, 2.0): 0.1553018315293895,  # m = 30
    (1.0, 5.0, 40, 2.0): 0.15068978587231516,  # m = 40
    (1.0, 5.0, 60, 2.0): 0.1461423630245213,  # m = 60
    (1.9952623149688795, 1.0, 10, 1000000.0): 1.0149781762694633e-06,  # 60 dB outage
    (1.9952623149688795, 1.0, 10, 100000000.0): 1.0149761713758882e-08,  # 80 dB outage
    (1.9952623149688795, 1.0, 10, 10000000000.0): 1.0149761513269658e-10,  # 100 dB outage
    (1.9952623149688795, 1.0, 10, 1000000000000.0): 1.0149761511264766e-12,  # 120 dB outage
    (1.9952623149688795, 1.0, 40, 1000000000000.0): 9.346018830915675e-13,  # 120 dB outage
}
# real m from scripts/make_goldens.py: the 1F1 average alone (the closed form
# needs integer m), by tanh-sinh at 40 and 50 digits and Gauss-Legendre at 30
FDRLOS_PDF_REAL_M_GOLDENS = {
    (0.5, 1.0, 30.5, 1.0): 0.9131070805370192,
    (1.25, 1.0, 30.5, 1.0): 0.26406310908128805,
    (2.0, 1.0, 30.5, 1.0): 0.10226562424162511,
    (1.0, 1.0, 50.5, 1.0): 0.38770447828957766,
    (1.0, 5.0, 30.5, 2.0): 0.3188761031538301,
    (1.0, 5.0, 50.5, 2.0): 0.30507522969887024,
}
# the same at m = 140.5, the grid of fdrlos pdf --k 1 --m 140.5 --gamma-bar 1
# --grid 0.5:2:3, where a 1F1 series from k = 0 needs more than 2e4 terms
FDRLOS_PDF_M140_GOLDENS = {
    (0.5, 1.0, 140.5, 1.0): 0.975619851009281,
    (1.25, 1.0, 140.5, 1.0): 0.26303472180070425,
    (2.0, 1.0, 140.5, 1.0): 0.10186735327083887,
}
# and at m = 1000.5, the same grid
FDRLOS_PDF_M1000_GOLDENS = {
    (0.5, 1.0, 1000.5, 1.0): 1.0139403529375624,
    (1.25, 1.0, 1000.5, 1.0): 0.2627913656526993,
    (2.0, 1.0, 1000.5, 1.0): 0.10177310698073032,
}
# the cdf at real m from scripts/make_goldens.py: the drlos cdf averaged over
# the LoS power at 40 and 50 digits, confirmed by the 1F1 density integrated
# over [0, gamma] and averaged over e^{-x}
FDRLOS_CDF_REAL_M_GOLDENS = {
    (0.01, 3.0, 2.5, 2.0): 0.002014804880096249,  # K = 3, m = 2.5
    (1.0, 3.0, 2.5, 2.0): 0.32040852552813204,  # K = 3, m = 2.5
    (20.0, 3.0, 2.5, 2.0): 0.9998507053035582,  # K = 3, m = 2.5
    (1.0, 3.0, 0.7, 2.0): 0.44431112701590186,  # m below 1
    (1.9952623149688795, 1.0, 2.5, 10000000000.0): 1.390073580526743e-10,  # 100 dB outage
}
# the cdf from scripts/make_goldens.py as the drlos cdf averaged over the LoS
# power xi ~ Gamma(m, 1/m), by tanh-sinh in log xi at 40 and 50 digits
LOS_POWER_CDF_GOLDENS = {
    (1e-12, 0.1, 0.3, 1.0): 4.053472422897105e-12,  # deep outage, small K, m below 1
    (1e-12, 0.001, 0.3, 1.0): 8.062682494256866e-12,  # deep outage, small K, m below 1
    (1.0, 100000000.0, 2.5, 1.0): 0.5841198130044923,  # a step 1e-4 wide at the kink
    (0.001, 1.0, 1000000000.0, 1.0): 0.0004560312188809684,  # 1.1e-9 above the drlos limit
    # m = 1e-7: the weight right of its mode is flat in log xi up to 16
    (50.0, 1.0, 1e-07, 1.0): 0.9999988936411256,
}
# the drlos pdf from scripts/make_goldens.py where y = (1+K) g/gbar is K, and
# 1e-6 and 1e-7 above: the Rician density averaged in s = sqrt(x) by
# tanh-sinh at 40 and 50 digits
DRLOS_PDF_GOLDENS = {
    (0.5, 1.0, 1.0): 1.038523193383883,
    (0.5000005, 1.0, 1.0): 1.038521918040206,
    (1.6666666666666667, 5.0, 2.0): 0.6755095053276836,
    (1.6666668333333334, 5.0, 2.0): 0.6755093381758853,
}
# the drlos cdf from scripts/make_goldens.py: the disc and annulus integrals
# of 4 r K0(2 r) at 40 and 50 digits, confirmed by the exponential average of
# the Rician cdf where 0 < K <= 5 and by the product law where K = 0
DRLOS_CDF_GOLDENS = {
    (1.0, 10000.0, 1.0): 0.5037250253618799,  # chndtr gave NaN at this K
    (1e-12, 0.0, 1.0): 2.747658978613997e-11,  # K = 0
    (1e-100, 0.0, 1.0): 2.301040779696015e-98,  # K = 0
    (1.9952623149688795, 1.0, 1.0): 0.8856878212654401,  # fig3 at 0 dB
    (1.9952623149688795, 1.0, 1000000.0): 9.089944224919235e-07,  # fig3 at 60 dB
    (0.5, 1.0, 1.0): 0.3623275830255641,  # y = K
    (1.6666666666666667, 5.0, 2.0): 0.4428272549478012,  # y = K
}
CODING_GAIN_GOLDENS = {
    (1.0, 1): 1.1926947246463881,
    (1.0, 3): 0.6512207920791714,
    (1.0, 2.5): 0.6966871322235483,
    (1.0, 0.7): 1.6281872765286165,
    (1.0, 0.3): 4.076437889776474,
    (1.0, 0.01): 189.91457423660682,
    (120000.0, 10000.0): 5.862202729559586e-295,
    (117000.0, 1000000.0): 9.375199980398427e-294,
    (10000.0, 1000000000000.0): 2.4516091083299542e-84,
    (10000.0, 1000000.0): 2.464021136403582e-84,
}
# the coding gain at (K, m) = (1e-30, 5) from scripts/make_goldens.py, which
# only the CLI tests read: it grows like log(m/K) (DLMF 13.2(iii))
GAIN_TINY_K = 68.0264417040206
# the product law's cdf 1 - 2 sqrt y K1(2 sqrt y) from scripts/make_goldens.py
# at 150 digits, y -> P; on both sides of y = 1/4, where ``_product_cdf`` turns
# from its series to the closed form
PRODUCT_CDF = {
    1e-100: 2.301040779696015e-98,
    1e-30: 6.892312146001831e-29,
    1e-12: 2.747658978613997e-11,
    1e-06: 1.3661086808702156e-05,
    0.001: 0.006757451368442257,
    0.01: 0.04480549135590555,
    0.1: 0.23343313884643196,
    0.2499999: 0.39809268559786576,
    0.25: 0.3980927698027654,
    0.2500001: 0.39809285400764105,
    0.5: 0.555657476367764,
    1.0: 0.7202682363669551,
    2.0: 0.8603325259847069,
    10.0: 0.9940323069611795,
    100.0: 0.999999988233884,
    900.0: 1.0,
}
FDRLOS_PDF_532 = {g: v for (g, k, m, gbar), v in FDRLOS_PDF_GOLDENS.items()
                  if (k, m, gbar) == (5.0, 3, 2.0)}
FDRLOS_CDF_2_532 = FDRLOS_CDF_GOLDENS[(2.0, 5.0, 3, 2.0)]
A_K1_M1 = CODING_GAIN_GOLDENS[(1.0, 1)]
A_K1_M3 = CODING_GAIN_GOLDENS[(1.0, 3)]

TIGHT = 1e-12


@contextlib.contextmanager
def underflow_ignored():
    """Ignore a density's UnderflowWarning, and no other warning, within:
    for a quadrature whose nodes reach a law's tail."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderflowWarning)
        yield


@pytest.fixture
def quad_calls(monkeypatch):
    """The list that each ``adaptive_quad_vec`` call of ``analytic`` adds to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return adaptive_quad_vec(*args, **kwargs)

    monkeypatch.setattr(analytic, "adaptive_quad_vec", counted)
    return calls


class TestRsPdf:
    def test_no_los_reduces_to_exponential(self):
        assert rs_pdf(1.0, 0.0, 2.7, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_m1_is_exponential_for_any_k(self):
        assert rs_pdf(1.0, 2.0, 1, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_normalizes_at_real_m(self):
        with underflow_ignored():
            val, _ = adaptive_quad_vec(lambda g: rs_pdf(g, 3.0, 2.5, 2.0), rel_tol=TIGHT)
        assert val[0] == pytest.approx(1.0, abs=1e-9)

    def test_rejects_negative_snr(self):
        with pytest.raises(DomainError):
            rs_pdf(-0.5, 1.0, 2, 1.0)

    def test_broadcasts(self):
        out = rs_pdf(np.array([0.5, 1.0, 2.0]), 1.0, 2, 1.0)
        assert out.shape == (3,)
        assert np.all(out > 0)

    @pytest.mark.parametrize("g, k", [(1e-9, 1e10), (1e-25, 1e20), (300.0, 1.0)])
    def test_tiny_m_over_k_is_the_m_to_0_limit(self, g, k):
        # at m = 1e-300 K_x/m passes double range, and m |log p| is about
        # 1e-297: the density is the m -> 0 limit (1+K) e^-y, y = 10, 1e-5 and
        # 600, the last from the second branch of the large-x 1F1 expansion
        y = (1.0 + k) * g
        assert rs_pdf(g, k, 1e-300, 1.0) == pytest.approx(
            (1.0 + k) * math.exp(-y), rel=1e-14, abs=0)

    @pytest.mark.parametrize("args,want", sorted(RS_PDF_GOLDENS.items()))
    def test_frozen_goldens_at_huge_k(self, args, want):
        # neither route forms e^{+x} against e^{-y}: relative accuracy holds
        assert rs_pdf(*args) == pytest.approx(want, rel=1e-13, abs=0)

    def test_integer_m_needs_no_1f1(self, monkeypatch):
        # at integer m the density is the Binomial mixture; the 1F1 serves
        # real m alone
        g, params = np.array([0.2, 1.0, 3.0]), FadingParams(5.0, 3, 2.0)
        want_rs, want_fd = rs_pdf(g, 4.0, 3, 1.5), fdrlos_pdf(g, params)

        def refuse(*args):
            raise AssertionError("log_kummer_1f1 called")

        monkeypatch.setattr(specfun, "log_kummer_1f1", refuse)
        monkeypatch.setattr(analytic, "log_kummer_1f1", refuse)
        np.testing.assert_array_equal(rs_pdf(g, 4.0, 3, 1.5), want_rs)
        np.testing.assert_array_equal(fdrlos_pdf(g, params), want_fd)
        with pytest.raises(AssertionError, match="log_kummer_1f1"):
            rs_pdf(g, 4.0, 2.5, 1.5)


class TestRoute:
    """Integer m up to 100 takes the Binomial mixture; past it, as at real m,
    the 1F1 density, the negative-binomial series of ``rs_cdf`` and the
    LoS-power average of ``fdrlos_cdf``."""

    @pytest.mark.parametrize("m, mixture", [(100, True), (101, False), (10 ** 4, False)])
    def test_mixture_serves_integer_m_up_to_100(self, m, mixture, monkeypatch):
        def refuse(*args):
            raise AssertionError("mixture called")

        monkeypatch.setattr(analytic, "_binomial_mixture", refuse)
        params = FadingParams(1.0, m, 1.0)
        for law in (lambda: fdrlos_pdf(1.0, params), lambda: fdrlos_cdf(1.0, params),
                    lambda: rs_pdf(1.0, 2.0, m, 1.0), lambda: rs_cdf(1.0, 2.0, m, 1.0)):
            if mixture:
                with pytest.raises(AssertionError, match="mixture called"):
                    law()
            else:
                assert law() > 0.0

    def test_integer_m_past_100_is_the_oracle(self):
        # past the cut both cdfs are the same LoS-power average
        params = FadingParams(1.0, 1e4, 1.0)
        assert fdrlos_cdf(1.0, params) == fdrlos_cdf_oracle(1.0, params)

    @pytest.mark.parametrize("args,want", [(args, want) for args, want in sorted(
        RS_CDF_WIDE_GOLDENS.items()) if args[2] == 1e6])
    def test_integer_cdf_at_m_1e6(self, args, want):
        assert rs_cdf(*args) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("m", [1e12 + 0.5, 1e15])
    def test_density_at_huge_m_is_the_rician_limit(self, m):
        # p^m from -m log1p(K_x/m): a rounded log p would carry an error of
        # m eps into the exponent.  Integer 1e15, the largest m checked,
        # takes the 1F1 as real m does
        assert rs_pdf(1.0, 3.0, m, 1.0) == pytest.approx(
            rician_pdf(1.0, 3.0, 1.0), rel=1e-9, abs=0)

    @pytest.mark.parametrize("m", [1e16, 1e300])
    def test_density_past_the_checked_m_is_refused(self, m):
        with pytest.raises(AccuracyError, match=r"m <= 1e\+15"):
            rs_pdf(1.0, 3.0, m, 1.0)


class TestRsMixture:
    """The finite Binomial mixture of ``rs_cdf`` at integer m,
    F = sum_{j<m} Bin(j; m-1, m/(m+K_x)) P(m-j, .), against the 1F1 form of
    the density and the negative-binomial series ``_nb_series``, at the
    conditional slice K_x = K/x, gbar_x = gbar (K+x)/(K+1)."""

    def test_m1_single_term(self):
        # m = 1 leaves one exponential term of mean gbar_x for every K
        g = np.array([0.3, 1.0, 4.0])
        np.testing.assert_allclose(rs_cdf(g, 2.0 / 1.5, 1, 3.5),
                                   1.0 - np.exp(-g / 3.5), rtol=1e-14)

    def test_no_los_keeps_last_term_only(self):
        g = np.array([0.3, 1.0, 4.0])
        np.testing.assert_allclose(rs_cdf(g, 0.0, 4, 1.0),
                                   1.0 - np.exp(-g), rtol=1e-14)

    @pytest.mark.parametrize("m", [1, 3, 10, 40, 100])
    def test_matches_negative_binomial_series(self, m):
        # m Binomial terms against the infinite negative-binomial series: two
        # conditionals that share no code, on 2000 random slices and K_x = 0
        rng = np.random.default_rng(600 + m)
        g = 10.0 ** rng.uniform(-3.0, 2.0, 2000)
        k_x = 10.0 ** rng.uniform(-3.0, 3.0, 2000)
        k_x[:20] = 0.0
        gbar_x = 10.0 ** rng.uniform(-1.0, 1.0, 2000)
        np.testing.assert_allclose(rs_cdf(g, k_x, m, gbar_x),
                                   analytic._nb_series(g * (1 + k_x) / gbar_x, k_x, m),
                                   rtol=1e-13, atol=0)

    @given(st.integers(1, 8), st.floats(0.0, 20.0), st.floats(0.05, 5.0))
    def test_weights_sum_to_one(self, m, k, x):
        # F(g) + int_g^inf f = 1 holds only if the weights sum to one
        k_x, gbar_x = k / x, 2.0 * (k + x) / (k + 1.0)
        with underflow_ignored():
            tail, _ = adaptive_quad_vec(lambda u: rs_pdf(gbar_x + u, k_x, m, gbar_x),
                                        rel_tol=TIGHT)
        assert rs_cdf(0.0, k_x, m, gbar_x) == 0.0
        assert rs_cdf(gbar_x, k_x, m, gbar_x) + tail[0] == pytest.approx(
            1.0, abs=1e-10)

    @pytest.mark.parametrize("g", [0.5, 1.0, 4.0])
    def test_mixture_equals_hypergeometric_form(self, g):
        x, k, m, gbar = 1.0, 5.0, 3, 2.0
        k_x, gbar_x = k / x, gbar * (k + x) / (k + 1.0)
        direct, _ = quad(rs_pdf, 0.0, g, args=(k_x, m, gbar_x), epsabs=0.0, epsrel=TIGHT)
        assert rs_cdf(g, k_x, m, gbar_x) == pytest.approx(direct, rel=1e-10)


class TestRsCdf:
    def test_zero_at_origin(self):
        assert rs_cdf(0.0, 4.0, 2, 1.5) == 0.0

    def test_no_los_is_exponential_cdf(self):
        got = rs_cdf(1.2, 0.0, 5, 2.0)
        assert got == pytest.approx(1.0 - math.exp(-1.2 / 2.0), rel=1e-12)

    def test_frozen_golden(self):
        assert rs_cdf(2.0, 4.0, 2, 1.5) == pytest.approx(
            RS_CDF_2_4_2_15, rel=1e-9)

    def test_matches_quadrature_of_pdf(self):
        val, _ = quad(rs_pdf, 0.0, 2.0, args=(4.0, 2, 1.5), epsabs=0.0, epsrel=TIGHT)
        assert rs_cdf(2.0, 4.0, 2, 1.5) == pytest.approx(val, rel=1e-9)

    def test_real_m_dispatch_agrees_at_integer(self):
        # the mixture at integer m meets the series at the reals beside it
        got = rs_cdf(1.3, 2.0, 2, 1.0)
        for m in (2.0 - 1e-9, 2.0 + 1e-9):
            assert rs_cdf(1.3, 2.0, m, 1.0) == pytest.approx(got, rel=1e-8)

    @pytest.mark.parametrize("args,want", sorted(RS_CDF_GOLDENS.items()))
    def test_frozen_goldens(self, args, want):
        assert rs_cdf(*args) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_tiny_m_over_k_is_the_m_to_0_limit(self):
        # p = m/(m+K_x) = 1e-330 underflows; the series still sums, to the
        # m -> 0 limit 1 - e^-y at y = 1, 1e5 and 1e10
        g = np.array([1e-30, 1e-25, 1e-20])
        np.testing.assert_allclose(rs_cdf(g, 1e30, 1e-300, 1.0), -np.expm1(-(1.0 + 1e30) * g),
                                   rtol=1e-14, atol=0)

    @pytest.mark.parametrize("args,want", sorted(RS_CDF_WIDE_GOLDENS.items()))
    def test_frozen_goldens_at_huge_m_and_k(self, args, want):
        assert rs_cdf(*args) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("args,want", sorted(RS_CDF_PEAK_GOLDENS.items()))
    def test_frozen_goldens_where_the_terms_peak_past_y(self, args, want):
        # the terms NB(n) P(n+1, y) peak near sqrt((m-1) K_x/(m+K_x) y), at 40
        # to 54 here, far past y = 3..5: the window must reach past the peak
        assert rs_cdf(*args) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_every_finite_input_finishes(self, monkeypatch):
        # huge y settles from the bracket on F without a window; a long
        # window whose mass matters, or an m past the checked range, is refused
        monkeypatch.setattr(analytic, "MAX_TERMS", 64)
        assert rs_cdf(np.array([1e6, 1e300]), 3.0, 2.5, 2.0).tolist() == [1.0, 1.0]
        with pytest.raises(AccuracyError, match="window"):
            rs_cdf(1.0, 1e12, 2.5, 1.0)
        with pytest.raises(AccuracyError, match=r"m <= 1e\+15"):
            rs_cdf(1.0, 3.0, 1e16, 1.0)

    def test_blocks_do_not_change_the_sum(self, monkeypatch):
        # K_x = 2e6 needs a window of about 34k terms, over 500 rows of 64
        g = np.array([0.3, 1.0, 1.0, 1e-12, 40.0])
        k_x = np.array([3.0, 2e6, 5e5, 255.0, 1e-3])
        want = rs_cdf(g, k_x, 2.5, 1.0)
        for row_block, anchor_block in ((7, 5), (61, 200)):
            monkeypatch.setattr(analytic, "_ROW_BLOCK", row_block)
            monkeypatch.setattr(analytic, "_ANCHOR_BLOCK", anchor_block)
            np.testing.assert_array_equal(rs_cdf(g, k_x, 2.5, 1.0), want)
            np.testing.assert_array_equal(rs_cdf(g[1:], k_x[1:], 2.5, 1.0), want[1:])
            np.testing.assert_array_equal(
                [rs_cdf(gi, ki, 2.5, 1.0) for gi, ki in zip(g, k_x)], want)

    def test_bracket_only_where_the_window_starts_above_zero(self, monkeypatch):
        # below y of about 200 every window starts at n = 0, where the
        # bracket could only skip a window whose sum underflows
        sizes = []

        def counted(*args):
            sizes.append(np.broadcast(*args).size)
            return betainc(*args)

        monkeypatch.setattr(analytic, "betainc", counted)
        rs_cdf(np.geomspace(1e-300, 50.0, 64), 2.0, 2.5, 1.0)     # y up to 150
        assert sum(sizes) == 0
        rs_cdf(1e3, 2.0, 2.5, 1.0)
        assert sum(sizes) > 0

    def test_huge_m_tends_to_rician(self):
        # the weights keep their digits at huge m: the O(K/m) gap to the
        # Rician limit shows at m = 1e10 and closes by m = 1e15
        g = np.array([1e-6, 0.5, 1.0, 3.0, 100.0])
        want = rician_cdf(g, 3.0, 1.0)
        np.testing.assert_allclose(rs_cdf(g, 3.0, 1e10, 1.0), want, rtol=1e-9, atol=0)
        np.testing.assert_allclose(rs_cdf(g, 3.0, 1e15, 1.0), want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("law", [rs_pdf, rs_cdf], ids=["rs_pdf", "rs_cdf"])
    @pytest.mark.parametrize("bad", ["k_x", "gbar_x", "m"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameters_are_domain_errors(self, law, bad, value):
        args = {"k_x": 2.0, "m": 3, "gbar_x": 1.0}
        args[bad] = value
        with pytest.raises(DomainError):
            law(1.0, args["k_x"], args["m"], args["gbar_x"])

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            rs_cdf(-1.0, 1.0, 2, 1.0)

    @pytest.mark.parametrize("m", [2, 2.5])
    def test_broadcasts_snr_row_against_parameter_columns(self, m):
        g = np.array([[0.0, 0.7, 3.0]])
        k_x = np.array([[0.5], [4.0]])
        gbar_x = np.array([[1.0], [2.5]])
        got = rs_cdf(g, k_x, m, gbar_x)
        assert got.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert got[i, j] == rs_cdf(g[0, j], k_x[i, 0], m, gbar_x[i, 0])


class TestFdrlosPdf:
    def test_product_law_collapse(self):
        # K=0, m=1, unit mean: density at 1 is 2 K0(2)
        got = fdrlos_pdf(1.0, FadingParams(0.0, 1, 1.0))
        assert got == pytest.approx(2.0 * k0(2.0), rel=1e-6)

    @pytest.mark.parametrize("g,want", sorted(FDRLOS_PDF_532.items()))
    def test_frozen_goldens(self, g, want):
        assert fdrlos_pdf(g, FadingParams(5.0, 3, 2.0)) == pytest.approx(
            want, rel=1e-12, abs=0)

    def test_normalization_and_mean(self):
        p = FadingParams(5.0, 3, 2.0)

        def f(g):
            pdf = fdrlos_pdf(g, p, rel_tol=TIGHT)
            return np.stack([pdf, g * pdf], axis=1)

        vals, _ = adaptive_quad_vec(f, rel_tol=TIGHT)
        assert vals[0] == pytest.approx(1.0, abs=1e-8)
        assert vals[1] == pytest.approx(2.0, rel=1e-8)

    @pytest.mark.parametrize("args,want", sorted(FDRLOS_PDF_REAL_M_GOLDENS.items()))
    def test_real_m_goldens(self, args, want):
        # real m past 25, where the 1F1 arguments run past x = 200 below a^2
        g, k, m, gbar = args
        assert fdrlos_pdf(g, FadingParams(k, m, gbar)) == pytest.approx(
            want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("args,want", sorted(FDRLOS_PDF_M140_GOLDENS.items()))
    def test_real_m_140_goldens(self, args, want):
        # the 1F1 series sums windows that start far above k = 0
        g, k, m, gbar = args
        assert fdrlos_pdf(g, FadingParams(k, m, gbar)) == pytest.approx(
            want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("args,want", sorted(FDRLOS_PDF_M1000_GOLDENS.items()))
    def test_real_m_1000_goldens(self, args, want):
        # the values agree to 8.3e-15; rel 1e-13 leaves a factor of 12
        g, k, m, gbar = args
        assert fdrlos_pdf(g, FadingParams(k, m, gbar)) == pytest.approx(
            want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("m", [0.3, 0.7, 1, 2.5, 3])
    def test_density_at_origin_is_the_coding_gain(self, m):
        # gbar f(0) = a(K, m), taken from the coding gain: the scatter
        # average at 0 meets an x^(m-1) endpoint below m = 1
        assert 2.0 * fdrlos_pdf(0.0, FadingParams(1.0, m, 2.0)) == pytest.approx(
            CODING_GAIN_GOLDENS[(1.0, m)], rel=1e-12, abs=0)

    @pytest.mark.parametrize("m", [3, 2.5])
    def test_integrand_runs_no_checks(self, m, monkeypatch):
        # the domain is checked once at entry, not on every integrand call
        params = FadingParams(5.0, m, 2.0)
        want = fdrlos_pdf(1.0, params)
        calls = []

        def counted(*args):
            calls.append(args)
            return check_params(*args)

        monkeypatch.setattr(analytic, "check_params", counted)
        assert fdrlos_pdf(1.0, params) == want
        assert len(calls) == 1

    def test_matches_oracle_pointwise(self):
        # the oracle is mpmath: the paper's closed form at a precision that
        # outlasts its cancellation, confirmed by the 1F1 average (m up to 60)
        for (g, k, m, gbar), want in FDRLOS_PDF_GOLDENS.items():
            assert fdrlos_pdf(g, FadingParams(k, m, gbar)) == pytest.approx(
                want, rel=1e-12, abs=0)

    def test_tail_thins_as_fluctuation_decreases(self):
        # right-tail mass shrinks as m grows (K=5, mean snr 2, snr 8)
        p1 = fdrlos_pdf(8.0, FadingParams(5.0, 1, 2.0))
        p15 = fdrlos_pdf(8.0, FadingParams(5.0, 15, 2.0))
        assert p1 > p15

    def test_oracle_is_the_same_function(self):
        # one density route serves every m; the second name is kept for the
        # benchmark's tracer, which wraps it by name
        assert analytic.fdrlos_pdf_oracle is fdrlos_pdf

    def test_negative_snr_rejected(self):
        with pytest.raises(DomainError):
            fdrlos_pdf(-1.0, FadingParams(1.0, 1, 1.0))

    def test_deep_tail_underflows_to_zero(self):
        with pytest.warns(UnderflowWarning):
            assert fdrlos_pdf(1e6, FadingParams(1.0, 1, 1.0)) == 0.0

    @pytest.mark.parametrize("g", [6.6e4, 1e6])
    def test_every_underflow_is_flagged(self, g):
        # the density is positive at every g > 0: a subnormal average (6.6e4)
        # and one that reaches 0 (1e6) are both underflows, each one warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert fdrlos_pdf(g, FadingParams(1.0, 2, 1.0)) == 0.0
        assert [w.category for w in caught] == [UnderflowWarning]

    def test_zero_snr_checks_k_over_m(self):
        # the density at 0 runs the coding gain's domain check: K/m = 1e310
        with pytest.raises(DomainError, match="K/m"):
            fdrlos_pdf(0.0, FadingParams(1e10, 1e-300, 1.0))

    def test_zero_snr_at_tiny_m_is_the_coding_gain(self):
        # the gain (1+K)/m to about m log m: its fold point z/x* = 1e400 is
        # taken in logs, and the left half of its quadrature in 1000 m s
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fdrlos_pdf(0.0, FadingParams(1.0, 1e-200, 1.0))
        assert got == pytest.approx(2e200, rel=1e-13, abs=0)


class TestFdrlosPdfRealM:
    def test_supports_real_m(self):
        got = fdrlos_pdf(1.0, FadingParams(5.0, 2.5, 2.0))
        assert got > 0.0

    def test_huge_m_approaches_deterministic_los(self):
        p = FadingParams(5.0, 10 ** 4, 2.0)
        for g in (0.5, 1.0, 3.0):
            lim = drlos_pdf_oracle(g, 5.0, 2.0)
            assert fdrlos_pdf(g, p) == pytest.approx(lim, rel=0.02)

    def test_no_los_density_grows_toward_origin(self):
        p = FadingParams(0.0, 2, 1.0)
        assert fdrlos_pdf(1e-6, p) > fdrlos_pdf(1e-3, p)


class TestFdrlosCdf:
    def test_zero_at_origin(self):
        assert fdrlos_cdf(0.0, FadingParams(5.0, 3, 2.0)) == 0.0

    def test_frozen_golden(self):
        assert fdrlos_cdf(2.0, FadingParams(5.0, 3, 2.0)) == pytest.approx(
            FDRLOS_CDF_2_532, rel=1e-12, abs=0)

    @pytest.mark.parametrize("args,want", sorted(FDRLOS_CDF_GOLDENS.items()))
    def test_script_goldens(self, args, want):
        # m up to 60 and outage down to 120 dB, where the closed form cancelled
        g, k, m, gbar = args
        assert fdrlos_cdf(g, FadingParams(k, m, gbar)) == pytest.approx(
            want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("args,want", sorted(FDRLOS_CDF_REAL_M_GOLDENS.items()))
    def test_real_m_goldens(self, args, want):
        # the drlos cdf averaged over the LoS power, down to 100 dB
        g, k, m, gbar = args
        assert fdrlos_cdf(g, FadingParams(k, m, gbar)) == pytest.approx(
            want, rel=1e-12, abs=0)

    def test_matches_oracle(self):
        got = fdrlos_cdf(2.0, FadingParams(5.0, 3, 2.0), rel_tol=TIGHT)
        want = fdrlos_cdf_oracle(2.0, FadingParams(5.0, 3, 2.0), rel_tol=TIGHT)
        assert got == pytest.approx(want, rel=1e-10)

    def test_total_probability(self):
        got = fdrlos_cdf(1e6, FadingParams(1.0, 2, 1.0))
        assert got == pytest.approx(1.0, abs=1e-8)

    def test_nondecreasing(self):
        p = FadingParams(5.0, 3, 2.0)
        vals = fdrlos_cdf(np.linspace(0.0, 12.0, 60), p)
        assert np.all(np.diff(vals) >= 0)

    def test_derivative_matches_pdf(self):
        p = FadingParams(5.0, 3, 2.0)
        for g in (0.5, 1.5, 4.0):
            h = 1e-4
            der = (fdrlos_cdf(g + h, p, rel_tol=TIGHT)
                   - fdrlos_cdf(g - h, p, rel_tol=TIGHT)) / (2 * h)
            assert der == pytest.approx(fdrlos_pdf(g, p, rel_tol=TIGHT), rel=1e-5)


class TestFdrlosCdfOracle:
    def test_consistent_with_pdf_oracle(self):
        p = FadingParams(5.0, 3, 2.0)

        def f(g):
            return fdrlos_pdf(g, p, rel_tol=TIGHT)

        integral, _ = quad(f, 0.0, 1.0, epsabs=0.0, epsrel=TIGHT)
        assert fdrlos_cdf_oracle(1.0, p, rel_tol=TIGHT) == pytest.approx(
            integral, abs=1e-9)

    def test_product_law_bessel_value(self):
        # K = 0 at snr = mean: 1 - 2 K1(2)
        got = fdrlos_cdf_oracle(1.0, FadingParams(0.0, 3, 1.0))
        assert got == pytest.approx(1.0 - 2.0 * k1(2.0), rel=1e-9)

    def test_m1_closed_form_rederivation(self):
        p = FadingParams(2.0, 1, 1.5)
        assert fdrlos_cdf(0.8, p, rel_tol=TIGHT) == pytest.approx(
            fdrlos_cdf_oracle(0.8, p, rel_tol=TIGHT), rel=1e-10)

    def test_real_m_consistency_with_pdf(self):
        p = FadingParams(5.0, 2.5, 2.0)
        h = 1e-3
        der = (fdrlos_cdf_oracle(1.0 + h, p) - fdrlos_cdf_oracle(1.0 - h, p)) / (2 * h)
        assert der == pytest.approx(fdrlos_pdf(1.0, p), rel=1e-4)

    @pytest.mark.parametrize("m", [1, 3, 2.5, 10, 40])
    def test_deep_outage_keeps_relative_accuracy(self, m):
        # the mixture and the drlos cdf are positive sums, so 80-120 dB outage
        # neither cancels nor stalls the quadrature; it tends to a gamma_th /
        # gbar, a the coding gain; at real m fdrlos_cdf is the oracle's LoS-power
        # average, at integer m the two share no code
        gth = 10.0 ** 0.3
        p = FadingParams(1.0, m, 1.0)
        routes = (fdrlos_cdf_oracle, fdrlos_cdf) if m == int(m) else (fdrlos_cdf,)
        for route in routes:
            for db in (80.0, 100.0, 120.0):
                slope = route(gth / 10.0 ** (db / 10.0), p) * 10.0 ** (db / 10.0) / gth
                assert slope == pytest.approx(coding_gain(1.0, m), rel=1e-6)

    def test_real_m_is_one_quadrature_per_chunk(self, quad_calls):
        fdrlos_cdf_oracle(np.geomspace(0.01, 20.0, 16), FadingParams(3.0, 2.5, 2.0))
        assert len(quad_calls) == 1


class TestLosPowerAverage:
    """The cdf at every m the mixture does not serve, and the oracle at every
    m, as the drlos cdf averaged over the LoS power xi ~ Gamma(m, 1/m): each
    value's breakpoints are the near ends of the pieces they bound, so no
    narrow weight or step lies unseen at the far end of a wide piece."""

    @pytest.mark.parametrize("args,want", sorted(LOS_POWER_CDF_GOLDENS.items()))
    def test_goldens(self, args, want):
        g, k, m, gbar = args
        for cdf in (fdrlos_cdf, fdrlos_cdf_oracle):
            assert cdf(g, FadingParams(k, m, gbar)) == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("t", [1e-3, 0.45, 0.5, 0.55, 5.0])
    def test_m_1e300_is_the_drlos_limit(self, t):
        # the weight is 1e-150 wide and the O(1/m) correction far below eps;
        # a piece mapped linearly from the kink to the mode returned half
        assert fdrlos_cdf(t, FadingParams(1.0, 1e300, 1.0)) == pytest.approx(
            drlos_cdf_oracle(t, 1.0, 1.0), rel=1e-14, abs=0)

    @pytest.mark.parametrize("m", [1e12, 1e15])
    @pytest.mark.parametrize("t", [1e-3, 0.45, 0.55])
    def test_huge_m_nears_the_drlos_limit(self, m, t):
        # within the O(1/m) correction; at m = 1e9 it is 1.1e-9
        # (``LOS_POWER_CDF_GOLDENS``)
        assert fdrlos_cdf(t, FadingParams(1.0, m, 1.0)) == pytest.approx(
            drlos_cdf_oracle(t, 1.0, 1.0), rel=1e-11, abs=0)

    @pytest.mark.parametrize("k", [1e12, 1e100])
    def test_narrow_kink_is_the_step_limit(self, k):
        # y = (1+K) t rounds to K at t = 1, where the drlos cdf steps from 1 to
        # 0 over a width 1/sqrt(K) in log xi: F is P(xi < 1) = P(m, m)
        assert fdrlos_cdf(1.0, FadingParams(k, 2.5, 1.0)) == pytest.approx(
            0.584119813004492, rel=1e-12, abs=0)

    @pytest.mark.parametrize("m", [1e-5, 3e-5, 1e-100, 1e-300, specfun.TINY])
    def test_tiny_m_keeps_the_mass_on_both_sides_of_the_mode(self, m):
        # in tau = m log xi the weight falls like e^tau to the left, is flat up
        # to its cliff near log(1/m) to the right, and steps by m just left of
        # its mode: at m = 3e-5 a piece that missed that step was 9e-10 off
        y, k = np.array([0.5, 110.0, 1.0, 1e-8]), np.array([1e-50, 10.0, 1.0, 1.0])
        f = analytic._los_power_average(m)(y, k)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analytic, "_drlos_cdf", lambda terms, k_xi: np.ones(k_xi.shape))
            mass, _ = adaptive_quad_vec(f, rel_tol=1e-12)
        np.testing.assert_allclose(mass, 1.0, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("t, k, m", [
        (1.2232347462399492e-4, 2.183073338855242e245, 7.9931418483679e-288),
        (4.6300942432303036e94, 1.2872478771642867e-255, 5.328060544880314e-277),
        (0.8003426026329111, 4.824917325550586e222, 1.6773595622541767e-135),
        (1.0, 1.0, 1e300), (1e-300, 1e300, 1e-300), (1e150, 1e-300, 1e300)])
    def test_extremes_raise_no_warning(self, t, k, m):
        # K xi, e^(tau/m) and the scales of a step leave double range, or
        # underflow, only where the weight or the piece is empty
        try:
            value = fdrlos_cdf(t, FadingParams(k, m, 1.0))
        except AccuracyError as exc:
            assert "smallest normal double" in str(exc)
        else:
            assert 0.0 <= value <= 1.0


class TestOutage:
    """The outage probability is the cdf at the threshold; a sweep over K is
    one ``fdrlos_cdf`` call with an array K."""

    def test_is_cdf_at_threshold(self):
        for m in (3, 2.5):
            assert fdrlos_cdf(2.0, FadingParams(np.array([5.0]), m, 2.0)) == fdrlos_cdf(
                2.0, FadingParams(5.0, m, 2.0))

    def test_decreasing_in_fluctuation_shape(self):
        ops = [fdrlos_cdf(2.0, FadingParams(1.0, m, 10.0)) for m in (1, 5, 15)]
        assert ops[0] > ops[1] > ops[2]

    def test_vanishes_with_threshold(self):
        assert fdrlos_cdf(1e-9, FadingParams(1.0, 2, 1.0)) < 1e-7
        assert fdrlos_cdf(0.0, FadingParams(1.0, 2, 1.0)) == 0.0

    def test_monotone_decreasing_in_mean_snr(self):
        ops = [fdrlos_cdf(2.0, FadingParams(1.0, 3, gb)) for gb in (2.0, 8.0, 50.0)]
        assert ops[0] > ops[1] > ops[2]

    def test_matches_asymptote_at_high_snr(self):
        k, m, gth = 1.0, 3, 2.0
        exact = fdrlos_cdf(gth, FadingParams(k, m, 1e3))
        asym = asymptotic_op(gth, 1e3, k, m)
        assert exact == pytest.approx(asym, rel=0.05)

    def test_broadcasts_over_k(self):
        # a sweep over K, K = 0 included, is one vector call; its points
        # share the panels of one quadrature, so they match the scalar
        # calls to the tolerance, not bit for bit
        k = np.array([0.0, 0.25, 5.0, 20.0])
        got = fdrlos_cdf(10.0 ** 0.3, FadingParams(k, 3, 10.0 ** 2.5))
        assert got.shape == (4,)
        want = [fdrlos_cdf(10.0 ** 0.3, FadingParams(kk, 3, 10.0 ** 2.5)) for kk in k]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("args", [(-1.0, [1.0], 3, 2.0), (2.0, [-1.0], 3, 2.0),
                                      (2.0, [1.0, np.inf], 3, 2.0), (2.0, [1.0], 0.0, 2.0),
                                      (2.0, [1.0], np.inf, 2.0), (2.0, [1.0], 3, 0.0),
                                      (2.0, [1.0], 3, np.inf)])
    def test_rejects_bad_inputs(self, args):
        gamma_th, k, m, gbar = args
        with pytest.raises(DomainError):
            fdrlos_cdf(gamma_th, FadingParams(np.array(k), m, gbar))


# every model's SNR law is a scale family, F(g; gbar) = F(g / gbar; 1) and
# f(g; gbar) = f(g / gbar; 1) / gbar, exactly: each evaluates at t = g / gbar
SCALE_FAMILY_ROUTES = {
    "fdrlos_cdf": lambda g, k, m, gb: fdrlos_cdf(g, FadingParams(k, m, gb)),
    "fdrlos_cdf_oracle": lambda g, k, m, gb: fdrlos_cdf_oracle(
        g, FadingParams(k, m, gb)),
    "rs_cdf_integer_m": lambda g, k, m, gb: rs_cdf(g, k, m, gb),
    "rs_cdf_real_m": lambda g, k, m, gb: rs_cdf(g, k, m - 0.5, gb),
    "drlos_cdf_oracle": lambda g, k, m, gb: drlos_cdf_oracle(g, k, gb),
    "rician_cdf": lambda g, k, m, gb: rician_cdf(g, k, gb),
    "fdrlos_pdf": lambda g, k, m, gb: fdrlos_pdf(g, FadingParams(k, m, gb)),
    "rs_pdf_integer_m": lambda g, k, m, gb: rs_pdf(g, k, m, gb),
    "rs_pdf_real_m": lambda g, k, m, gb: rs_pdf(g, k, m - 0.5, gb),
    "drlos_pdf_oracle": lambda g, k, m, gb: drlos_pdf_oracle(g, k, gb),
    "rician_pdf": lambda g, k, m, gb: rician_pdf(g, k, gb),
}


@pytest.mark.parametrize("route", sorted(SCALE_FAMILY_ROUTES))
@given(k=st.floats(0.1, 10.0), m=st.integers(1, 5),
       gbar_db=st.floats(-10.0, 40.0), gamma=st.floats(0.01, 100.0))
def test_scale_family_identity(route, k, m, gbar_db, gamma):
    law = SCALE_FAMILY_ROUTES[route]
    gbar = 10.0 ** (gbar_db / 10.0)
    with underflow_ignored():
        unit = law(gamma / gbar, k, m, 1.0)
        got = law(gamma, k, m, gbar)
    assert got == (unit / gbar if "pdf" in route else unit)


class TestHugeMeanSnr:
    """A huge gbar only scales t = g / gbar: nothing overflows, and a density
    is certified at unit mean before it is divided by gbar."""

    def test_cdf_answers(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fdrlos_cdf(1.0, FadingParams(1.0, 2, 1e305))
        assert got == fdrlos_cdf(1e-305, FadingParams(1.0, 2, 1.0))
        # F(t) -> a t at the origin
        assert got == pytest.approx(coding_gain(1.0, 2) * 1e-305, rel=1e-9, abs=0)

    def test_tiny_density_of_a_huge_mean_is_returned(self):
        # only a unit-mean value below the smallest normal double is an underflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fdrlos_pdf(1.0, FadingParams(1.0, 2.5, 1e305))
        assert got == fdrlos_pdf(1e-305, FadingParams(1.0, 2.5, 1.0)) / 1e305
        assert got == pytest.approx(coding_gain(1.0, 2.5) * 1e-305, rel=1e-9, abs=0)

    @pytest.mark.parametrize("t", [1e-11, 1e-12])
    def test_product_law_density_near_zero(self, t):
        # K = 0: the product law 2 K0(2 sqrt t), whose mass spreads evenly in
        # log x between t and 1
        assert fdrlos_pdf(t, FadingParams(0.0, 2, 1.0)) == pytest.approx(
            2.0 * k0(2.0 * math.sqrt(t)), rel=1e-9, abs=0)

    def test_density_answers_as_at_unit_mean(self):
        # the small-m density at t = 1e-300 is f(0) = a(K, m), whatever gbar
        # brings t there
        got = fdrlos_pdf(1e-300, FadingParams(1.0, 0.3, 1.0))
        assert got == pytest.approx(coding_gain(1.0, 0.3), rel=1e-9, abs=0)
        assert fdrlos_pdf(1.0, FadingParams(1.0, 0.3, 1e300)) == got / 1e300


class TestUnderflowFloor:
    """Relative accuracy down to the smallest normal double, one rule below
    it: averages between 1e-300 and 1e-290 are certified, not accepted
    against an absolute floor, and a cdf below it refuses."""

    def test_density_near_zero_meets_a_gain_near_1e_293(self):
        # the unit-mean average a/(1+K), about 8e-299, lies where an absolute
        # 1e-300 floor certifies only a few digits
        got = fdrlos_pdf(1e-30, FadingParams(1.17e5, 1e6, 1.0))
        assert got == pytest.approx(CODING_GAIN_GOLDENS[(1.17e5, 1e6)], rel=1e-12, abs=0)

    @pytest.mark.parametrize("t", [1e-295, 1e-300, 1e-305])
    def test_deep_outage_keeps_its_digits(self, t):
        # F(t) -> a t at the origin, to the accuracy the seed round gives at
        # t = 1e-280, where the floor never bound
        a_1, a_25 = CODING_GAIN_GOLDENS[(1.0, 1)], CODING_GAIN_GOLDENS[(1.0, 2.5)]
        for cdf in (fdrlos_cdf, fdrlos_cdf_oracle):
            assert cdf(t, FadingParams(1.0, 1, 1.0)) == pytest.approx(a_1 * t, rel=1e-14, abs=0)
        assert fdrlos_cdf(t, FadingParams(1.0, 2.5, 1.0)) == pytest.approx(
            a_25 * t, rel=1e-12, abs=0)

    def test_oracle_deep_outage_at_integer_m(self):
        assert fdrlos_cdf_oracle(1e-305, FadingParams(1.0, 2, 1.0)) == pytest.approx(
            coding_gain(1.0, 2) * 1e-305, rel=1e-14, abs=0)

    @pytest.mark.parametrize("cdf, m", [(fdrlos_cdf, 2.5), (fdrlos_cdf_oracle, 2)])
    def test_subnormal_probability_is_refused(self, cdf, m):
        # F(1e-312) is about a 1e-312, which no normal double holds
        with pytest.raises(AccuracyError, match="below the smallest normal double"):
            cdf(1e-312, FadingParams(1.0, m, 1.0))


@pytest.mark.parametrize("call", [
    lambda: rs_cdf(1e-310, 1.0, 2.5, 1.0),
    lambda: rs_cdf(1e-310, 1.0, 2, 1.0),
    lambda: rician_cdf(1e-312, 1.0, 1.0),
    lambda: drlos_cdf_oracle(1e-312, 1.0, 1.0)],
    ids=["rs_cdf_real_m", "rs_cdf_integer_m", "rician_cdf", "drlos_cdf_oracle"])
def test_every_cdf_law_refuses_a_subnormal_probability(call):
    # F(t) is about a t near 0, below the smallest normal double here: the
    # real-m series underflows to 0, the others keep only a few digits
    with pytest.raises(AccuracyError, match="below the smallest normal double"):
        call()


#: each law's density below the smallest normal double at unit mean: at
#: t > 0 and at t = 0; the last is a vector whose second value underflows
UNDERFLOWING_DENSITIES = {
    "rician_pdf": lambda: rician_pdf(395.0, 1.0, 1.0),
    "rs_pdf_real_m": lambda: rs_pdf(520.0, 1.0, 2.5, 1.0),
    "rs_pdf_integer_m": lambda: rs_pdf(540.0, 1.0, 2, 1.0),
    "drlos_pdf_oracle": lambda: drlos_pdf_oracle(1e5, 1.0, 1.0),
    "drlos_pdf_oracle_at_zero": lambda: drlos_pdf_oracle(0.0, 1.4e5, 1.0),
    "fdrlos_pdf_at_zero": lambda: fdrlos_pdf(0.0, FadingParams(1.3e5, 1e6, 1.0)),
    "fdrlos_pdf_vector": lambda: fdrlos_pdf(np.array([1.0, 6.6e4]), FadingParams(1.0, 2, 1.0)),
}


@pytest.mark.parametrize("case", sorted(UNDERFLOWING_DENSITIES))
def test_every_density_underflow_is_reported_as_zero(case):
    # the one density rule, at ``_law``: 0 and one UnderflowWarning a call
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = np.atleast_1d(UNDERFLOWING_DENSITIES[case]())
    assert [w.category for w in caught] == [UnderflowWarning]
    assert got[-1] == 0.0
    if got.size > 1:
        # the value beside it is the density, as a scalar call gives it
        assert got[0] == pytest.approx(fdrlos_pdf(1.0, FadingParams(1.0, 2, 1.0)),
                                       rel=1e-10, abs=0)


@pytest.mark.parametrize("call", [
    lambda: rician_pdf(1e200, 1e150, 1.0),
    lambda: drlos_pdf_oracle(1e200, 1e150, 1.0),
    lambda: rs_cdf(2.0, 1e308, 2.5, 1.0),
    lambda: fdrlos_cdf(2.0, FadingParams(1e308, 2, 1.0))],
    ids=["rician_pdf", "drlos_pdf_oracle", "rs_cdf", "fdrlos_cdf"])
def test_y_past_double_range_is_refused(call):
    # t <= 1e200 passes the limit cut, but (1+K) t overflows, and no limit is
    # the value: at t = 2 and K = 1e308 the cdf is about P(xi <= 2), 0.91
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AccuracyError, match=r"\(1\+K\) gamma/gamma_bar overflows"):
            call()


@pytest.mark.parametrize("m", [1, 2, 10])
def test_route_is_continuous_across_integer_m(m):
    # the finite Binomial mixture at m and the LoS-power average at m -/+ 1e-9
    # (the 1F1 series for the density) must meet
    g = np.array([0.3, 1.0, 4.0])
    for law in (fdrlos_cdf, fdrlos_pdf):
        at = law(g, FadingParams(2.0, m, 1.5))
        for near in (m - 1e-9, m + 1e-9):
            np.testing.assert_allclose(law(g, FadingParams(2.0, near, 1.5)), at,
                                       rtol=1e-8, atol=0)


class TestSnrBoundary:
    @pytest.mark.parametrize("params", [FadingParams(2.0, 3, 1.5),
                                        FadingParams(0.0, 2, 1.5)],
                             ids=["closed-form", "k0-oracle"])
    def test_infinite_snr_takes_the_limit(self, params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fdrlos_pdf(np.inf, params) == 0.0
            assert fdrlos_cdf(np.inf, params) == 1.0
            np.testing.assert_array_equal(
                fdrlos_cdf(np.array([1.0, np.inf]), params),
                [fdrlos_cdf(1.0, params), 1.0])

    @pytest.mark.parametrize("law", [
        lambda g: fdrlos_pdf(g, FadingParams(0.0, 3, 2.0)),
        lambda g: fdrlos_pdf(g, FadingParams(0.0, 2.5, 2.0)),
        lambda g: drlos_pdf_oracle(g, 0.0, 2.0),
    ], ids=["fdrlos_pdf", "fdrlos_pdf_real_m", "drlos_pdf_oracle"])
    def test_no_los_density_is_infinite_at_origin(self, law):
        # (2/gbar) K0(2 sqrt(g/gbar)) diverges at 0; it is not integrated there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert law(0.0) == np.inf
            got = law(np.array([0.0, 0.5, np.inf]))
        np.testing.assert_array_equal(got, [np.inf, law(0.5), 0.0])
        assert got[1] == pytest.approx(k0(2.0 * math.sqrt(0.25)), rel=1e-9)

    @pytest.mark.parametrize("law", [
        lambda g, k: fdrlos_pdf(g, FadingParams(k, 3, 2.0)),
        lambda g, k: fdrlos_pdf(g, FadingParams(k, 2.5, 2.0)),
        lambda g, k: drlos_pdf_oracle(g, k, 2.0),
    ], ids=["fdrlos_pdf", "fdrlos_pdf_real_m", "drlos_pdf_oracle"])
    def test_density_takes_an_array_of_k(self, law):
        # the limit at g = 0 is taken per K: +inf where K = 0, else evaluated
        k = np.array([0.0, 1.0, 2.0])
        for g in (0.0, np.array([0.0, 0.5, 1.0])):
            got = law(g, k)
            want = [law(gi, ki) for gi, ki in zip(np.broadcast_to(g, k.shape), k)]
            assert got.shape == (3,) and got[0] == np.inf
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("params", [FadingParams(2.0, 3, 1.5),
                                        FadingParams(0.0, 2, 1.5)],
                             ids=["closed-form", "k0-oracle"])
    def test_empty_snr_gives_empty(self, params):
        for law in (fdrlos_pdf, fdrlos_cdf):
            out = law(np.array([]), params)
            assert isinstance(out, np.ndarray) and out.shape == (0,)

    @pytest.mark.parametrize("m", [2, 2.5])
    def test_snr_grids_keep_their_shape(self, m):
        # a 2 x 2 grid (or a column against a row of K) is one flat vector
        # call, and its values match the scalar calls to the tolerance
        params = FadingParams(1.0, m, 1.0)
        g = np.array([[0.3, 1.0], [2.0, 5.0]])
        for law in (lambda v: fdrlos_pdf(v, params), lambda v: fdrlos_cdf(v, params)):
            got = law(g)
            assert got.shape == (2, 2)
            np.testing.assert_array_equal(got.ravel(), law(g.ravel()))
            np.testing.assert_allclose(got, [[law(v) for v in row] for row in g],
                                       rtol=1e-9, atol=0)
        k = np.array([[0.5, 4.0]])
        got = fdrlos_cdf(g[:, :1], FadingParams(k, m, 1.0))
        assert got.shape == (2, 2)
        np.testing.assert_allclose(
            got, [[fdrlos_cdf(gi, FadingParams(ki, m, 1.0)) for ki in k[0]] for gi in g[:, 0]],
            rtol=1e-9, atol=0)

    @pytest.mark.parametrize("route", [
        lambda g: fdrlos_pdf(g, FadingParams(2.0, 3, 1.5)),
        lambda g: fdrlos_cdf(g, FadingParams(2.0, 3, 1.5)),
        lambda g: fdrlos_pdf(g, FadingParams(2.0, 2.5, 1.5)),
        lambda g: fdrlos_cdf_oracle(g, FadingParams(2.0, 2.5, 1.5)),
        lambda g: rs_cdf(g, 2.0, 2.5, 1.5),
        lambda g: drlos_cdf_oracle(g, 2.0, 1.5),
        lambda g: rician_cdf(g, 2.0, 1.5),
    ], ids=["fdrlos_pdf", "fdrlos_cdf", "fdrlos_pdf_real_m", "fdrlos_cdf_oracle",
            "rs_cdf", "drlos_cdf_oracle", "rician_cdf"])
    def test_nan_snr_rejected_at_entry(self, route):
        with pytest.raises(DomainError, match="gamma must"):
            route(np.array([1.0, np.nan]))


#: every public law of the SNR, as (kind, f(g, k, m)) at gamma_bar = 1.5
SNR_LAWS = {
    "fdrlos_pdf": ("pdf", lambda g, k, m: fdrlos_pdf(g, FadingParams(k, m, 1.5))),
    "fdrlos_cdf": ("cdf", lambda g, k, m: fdrlos_cdf(g, FadingParams(k, m, 1.5))),
    "fdrlos_cdf_oracle": ("cdf", lambda g, k, m: fdrlos_cdf_oracle(g, FadingParams(k, m, 1.5))),
    "rs_pdf": ("pdf", lambda g, k, m: rs_pdf(g, k, m, 1.5)),
    "rs_cdf": ("cdf", lambda g, k, m: rs_cdf(g, k, m, 1.5)),
    "rician_pdf": ("pdf", lambda g, k, m: rician_pdf(g, k, 1.5)),
    "rician_cdf": ("cdf", lambda g, k, m: rician_cdf(g, k, 1.5)),
    "drlos_pdf_oracle": ("pdf", lambda g, k, m: drlos_pdf_oracle(g, k, 1.5)),
    "drlos_cdf_oracle": ("cdf", lambda g, k, m: drlos_cdf_oracle(g, k, 1.5)),
}


@pytest.mark.parametrize("k", [0.0, 2.0])
@pytest.mark.parametrize("m", [3, 150, 2.5])
@pytest.mark.parametrize("law", sorted(SNR_LAWS))
def test_every_law_at_the_snr_boundary(law, m, k):
    # g = 0 and +inf, alone and together, on each route of m, with no
    # warning: a cdf is 0 and 1 there, a density positive (+inf where the
    # double scatter meets K = 0) and 0
    kind, f = SNR_LAWS[law]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_zero, at_inf = f(0.0, k, m), f(np.inf, k, m)
        both = f(np.array([0.0, np.inf]), k, m)
    if kind == "cdf":
        assert (at_zero, at_inf) == (0.0, 1.0)
    else:
        assert at_zero > 0.0 and at_inf == 0.0
    np.testing.assert_array_equal(both, [at_zero, at_inf])


class TestChunkBudget:
    """The values of a chunk share one quadrature and its subdivision budget;
    a chunk that refuses, for whatever reason, is averaged again in halves,
    so only a single value refuses."""

    def test_batch_gives_the_scalar_values(self):
        # the two values share one quadrature; each meets its scalar call
        g, params = np.array([0.5, 2.0]), FadingParams(1.0, 2.5, 1.0)
        np.testing.assert_allclose(fdrlos_cdf(g, params), [fdrlos_cdf(v, params) for v in g],
                                   rtol=1e-10, atol=0)

    @pytest.mark.parametrize("law", [
        lambda g: fdrlos_pdf(g, FadingParams(2.0, 3, 1.0)),
        lambda g: fdrlos_pdf(g, FadingParams(2.0, 2.5, 1.0)),
        lambda g: fdrlos_cdf(g, FadingParams(2.0, 3, 1.0)),
        lambda g: fdrlos_cdf(g, FadingParams(2.0, 2.5, 1.0)),
    ], ids=["fdrlos_pdf-m3", "fdrlos_pdf-m2.5", "fdrlos_cdf-m3", "fdrlos_cdf-m2.5"])
    def test_values_across_chunks_give_the_scalar_values(self, law, quad_calls):
        # two full chunks and a partial one, each one quadrature
        g = np.geomspace(1e-3, 30.0, 2 * analytic._GAMMA_CHUNK + 44)
        scalar = [law(v) for v in g]
        quad_calls.clear()
        np.testing.assert_allclose(law(g), scalar, rtol=1e-10, atol=0)
        assert len(quad_calls) == 3

    def test_a_refusal_is_one_values(self, monkeypatch):
        # and names it: y = (1+K) t = 1 at t = 0.5, K = 1
        monkeypatch.setattr(specfun, "_MAX_SUBDIVISIONS", 0)
        with pytest.raises(AccuracyError, match=r"subdivisions .*; at y = \(1\+K\) "
                           r"gamma/gamma_bar = 1\.0, K = 1\.0$") as info:
            fdrlos_cdf(np.array([0.5, 2.0]), FadingParams(1.0, 2, 1.0))
        assert info.value.err_estimate.shape == (1,)
        assert info.value.value.shape == (1,)

    def test_a_conditional_refusal_is_split_to_one_value(self, quad_calls):
        # the 1F1 refuses m = 1e9 at the kink t = 0.5 alone: the grid is
        # split until that value refuses, and the rest answers in one
        params = FadingParams(1.0, 1e9, 1.0)
        with pytest.raises(AccuracyError, match="1F1 series window"):
            fdrlos_pdf(np.array([0.5, 1.25, 2.0]), params)
        assert len(quad_calls) == 2
        quad_calls.clear()
        fdrlos_pdf(np.array([1.25, 2.0]), params)
        assert len(quad_calls) == 1

    def test_a_refusing_batch_answers_in_halves(self, quad_calls):
        # an integrand that refuses any chunk with values on both sides of 1:
        # the three refuse together, then [0.5] and [2, 3] answer
        def integrand(y_c, k_c):
            def f(x):
                if y_c.min() < 1.0 < y_c.max():
                    raise AccuracyError("values on both sides of 1")
                return np.exp(-x)[:, None] * y_c
            return f

        y = np.array([0.5, 2.0, 3.0])
        np.testing.assert_allclose(analytic._by_chunks(integrand, y, 1.0, 1e-10), y,
                                   rtol=1e-14, atol=0)
        assert len(quad_calls) == 3

    def test_the_split_array_is_one_quadrature(self, quad_calls):
        # t = 1e-12, 0.5 and 30 at (K, m) = (1.5, 0.5): the scatter average of
        # the series refused them together, a failed first quadrature paid in
        # full before the halves answered; the LoS-power average takes them in one
        g, params = np.array([1e-12, 0.5, 30.0]), FadingParams(1.5, 0.5, 1.0)
        scalar = [fdrlos_cdf(v, params) for v in g]
        quad_calls.clear()
        np.testing.assert_allclose(fdrlos_cdf(g, params), scalar, rtol=1e-12, atol=0)
        assert len(quad_calls) == 1


#: every public law as f(g, k, m, gbar, rel_tol), with the parameters it takes
PUBLIC_LAWS = {
    "fdrlos_pdf": ("k m gbar rel_tol", lambda g, k, m, gbar, tol: fdrlos_pdf(
        g, FadingParams(k, m, gbar), rel_tol=tol)),
    "fdrlos_cdf": ("k m gbar rel_tol", lambda g, k, m, gbar, tol: fdrlos_cdf(
        g, FadingParams(k, m, gbar), rel_tol=tol)),
    "fdrlos_cdf_oracle": ("k m gbar rel_tol", lambda g, k, m, gbar, tol: fdrlos_cdf_oracle(
        g, FadingParams(k, m, gbar), rel_tol=tol)),
    # the outage sweep over K: the cdf at the threshold on an array K
    "fdrlos_cdf_array_k": ("k m gbar rel_tol", lambda g, k, m, gbar, tol: fdrlos_cdf(
        g, FadingParams(np.array([k, 1.0]), m, gbar), rel_tol=tol)),
    "asymptotic_op": ("k m gbar", lambda g, k, m, gbar, tol: asymptotic_op(
        g, gbar, k, m, rel_tol=tol)),
    "coding_gain": ("k m", lambda g, k, m, gbar, tol: coding_gain(k, m, rel_tol=tol)),
    "rs_pdf": ("k m gbar", lambda g, k, m, gbar, tol: rs_pdf(g, k, m, gbar)),
    "rs_cdf": ("k m gbar", lambda g, k, m, gbar, tol: rs_cdf(g, k, m, gbar)),
    "rician_pdf": ("k gbar", lambda g, k, m, gbar, tol: rician_pdf(g, k, gbar)),
    "rician_cdf": ("k gbar", lambda g, k, m, gbar, tol: rician_cdf(g, k, gbar)),
    "drlos_pdf_oracle": ("k gbar", lambda g, k, m, gbar, tol: drlos_pdf_oracle(g, k, gbar)),
    "drlos_cdf_oracle": ("k gbar", lambda g, k, m, gbar, tol: drlos_cdf_oracle(g, k, gbar)),
}
#: the bad values of each parameter, and the name its refusal must give
BAD_PARAMETERS = {
    "k": ([-1.0, np.nan, np.inf], r"\bK\b"),
    "m": ([0.0, 1e-310, np.nan, np.inf], r"\bm\b"),
    "gbar": ([0.0, -1.0, np.nan, np.inf], "gamma_bar"),
    "rel_tol": ([np.nan], "rel_tol"),
}


def _bad_parameter_cases():
    for law, (takes, _) in PUBLIC_LAWS.items():
        for param in takes.split():
            values, _ = BAD_PARAMETERS[param]
            for value in values:
                yield pytest.param(law, param, value, id=f"{law}-{param}={value}")


@pytest.mark.parametrize("law, param, value", _bad_parameter_cases())
def test_bad_parameter_is_refused_before_any_quadrature(law, param, value, monkeypatch):
    # rel_tol is tried on a grid of only +inf, which runs no quadrature
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(analytic, "adaptive_quad_vec", refuse)
    monkeypatch.setattr(specfun, "adaptive_quad_vec", refuse)
    args = {"g": 1.0, "k": 1.0, "m": 2, "gbar": 1.0, "tol": 1e-10}
    if param == "rel_tol":
        args.update(g=np.inf, tol=value)
    else:
        args[param] = value
    with pytest.raises(DomainError, match=BAD_PARAMETERS[param][1]):
        PUBLIC_LAWS[law][1](**args)


@pytest.mark.parametrize("call", [
    lambda: FadingParams(1.0, np.array([2.0, 3.0]), 1.0),
    lambda: rs_pdf(1.0, 1.0, np.array([2.0, 3.0]), 1.0),
    lambda: rs_cdf(1.0, 1.0, np.array([2.0, 3.0]), 1.0),
    lambda: coding_gain(np.array([1.0, 2.0]), 2),
    lambda: coding_gain(1.0, np.array([2.0])),
    lambda: asymptotic_op(np.array([1.0, 2.0]), 1.0, 1.0, 2),
], ids=["fading-params-m", "rs-pdf-m", "rs-cdf-m", "coding-gain-k", "coding-gain-m",
        "asymptotic-op-gamma-th"])
def test_non_scalar_shape_or_gain_k_is_refused(call):
    # an array m (or K of the coding gain, or threshold of the asymptote) is
    # refused by name, not by numpy
    with pytest.raises(DomainError,
                       match="m must be finite and > 0|finite K > 0|gamma_th must be"):
        call()


@pytest.mark.parametrize("law", [law for law, (takes, _) in PUBLIC_LAWS.items()
                                 if "gbar" in takes and law != "fdrlos_cdf_array_k"])
@pytest.mark.parametrize("m", [2, 2.5])
def test_array_mean_snr_gives_the_scalar_values(law, m):
    # an array gbar broadcasts as an array K does, each value as its own
    # scalar call gives it (the outage sweep's K is an array already)
    gbars = np.array([1.0, 2.0, 5.0])
    call = PUBLIC_LAWS[law][1]
    want = [call(1.0, 2.0, m, gbar, 1e-10) for gbar in gbars]
    np.testing.assert_allclose(call(1.0, 2.0, m, gbars, 1e-10), want, rtol=1e-10, atol=0)


#: (gamma, gbar) at both ends of t = gamma / gbar: subnormal, and past 1e200
EXTREME_SNR = [(1e-312, 1.0), (1e-12, 1e300), (1e250, 1.0), (1e306, 1.0), (1e6, 1e-300)]


@pytest.mark.parametrize("k, m", [(0.0, 2), (1.0, 2), (1.0, 2.5), (1.0, 0.3), (1e4, 2.5)])
@pytest.mark.parametrize("law", sorted(SNR_LAWS))
def test_every_law_at_both_ends_of_the_unit_mean_snr(law, k, m):
    # no NaN, DomainError or warning but a density's one UnderflowWarning: a
    # value in range, its +inf limit past t = 1e200, a density below the
    # smallest normal double reported as 0, or a refusal
    kind, call = SNR_LAWS[law][0], PUBLIC_LAWS[law][1]
    for g, gbar in EXTREME_SNR:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                got = call(g, k, m, gbar, 1e-10)
            except AccuracyError:
                got = None
        categories = [w.category for w in caught]
        if got is None:
            assert not categories
            continue
        if categories:
            assert kind == "pdf" and got == 0.0 and categories == [UnderflowWarning]
        elif g / gbar > 1e200:
            assert got == (0.0 if kind == "pdf" else 1.0)
        else:
            assert 0.0 <= got <= (np.inf if kind == "pdf" else 1.0)


@pytest.mark.parametrize("law", sorted(SNR_LAWS))
def test_shapes_that_do_not_broadcast_are_refused_by_name(law):
    call = PUBLIC_LAWS[law][1]
    for k, gbar in ((np.ones(2), 1.0), (1.0, np.ones(2))):
        with pytest.raises(DomainError, match=r"shapes \(3,\), .* do not broadcast"):
            call(np.ones(3), k, 2, gbar, 1e-10)


class TestAsymptote:
    def test_coding_gain_m1(self):
        assert coding_gain(1.0, 1) == pytest.approx(A_K1_M1, rel=1e-12, abs=0)

    def test_coding_gain_m3_golden(self):
        assert coding_gain(1.0, 3) == pytest.approx(A_K1_M3, rel=1e-12, abs=0)

    @pytest.mark.parametrize("m", [2.5, 0.7, 0.3, 0.01])
    def test_coding_gain_real_m_golden(self, m):
        # below m = 1 the integrand falls only like x^m towards x = 0: at
        # m = 0.01 the mass reaches past x = e^-745, where x underflows
        assert coding_gain(1.0, m) == pytest.approx(
            CODING_GAIN_GOLDENS[(1.0, m)], rel=1e-12, abs=0)

    def test_diverges_without_los(self):
        # K = 0 diverges; a negative, infinite or NaN K or threshold is
        # refused at entry, by name
        for k in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(DomainError, match="finite K > 0"):
                coding_gain(k, 2)
            with pytest.raises(DomainError, match="finite K > 0"):
                asymptotic_op(2.0, 10.0, k, 2)
        for gamma_th in (0.0, np.inf, np.nan):
            with pytest.raises(DomainError, match="gamma_th"):
                asymptotic_op(gamma_th, 10.0, 1.0, 2)

    def test_exact_inverse_snr_slope(self):
        a, b = asymptotic_op(2.0, 10.0, 1.0, 2), asymptotic_op(2.0, 100.0, 1.0, 2)
        assert a / b == pytest.approx(10.0, rel=1e-13)

    def test_broadcasts_over_mean_snr(self):
        gbars = np.array([10.0, 100.0])
        np.testing.assert_array_equal(
            asymptotic_op(2.0, gbars, 1.0, 2),
            [asymptotic_op(2.0, gb, 1.0, 2) for gb in gbars])
        with pytest.raises(DomainError):
            asymptotic_op(2.0, np.array([10.0, -1.0]), 1.0, 2)

    def test_value_from_coding_gain(self):
        assert asymptotic_op(2.0, 1e5, 1.0, 1) == pytest.approx(
            A_K1_M1 * 2.0 / 1e5, rel=1e-10, abs=0)

    def test_large_m_stabilizes(self):
        # as m -> inf the LoS stops fluctuating and a tends to (1+K) 2 K0(2 sqrt K),
        # gbar times the drlos density at 0, from above by
        # K K2(2 sqrt K) / (2 m K0(2 sqrt K)) < (1+K)/m relative
        for k in (1e-3, 0.1, 1.0, 5.0, 100.0):
            limit = (1.0 + k) * 2.0 * k0(2.0 * math.sqrt(k))
            for m in (1e4, 1e5, 1e6, 1e8):
                assert 0.0 < coding_gain(k, m) / limit - 1.0 < (1.0 + k) / m
            assert coding_gain(k, 1e12) == pytest.approx(limit, rel=1e-9, abs=0)

    def test_drlos_density_is_continuous_at_origin(self):
        # the value at 0 meets the one just above it
        for k in (1e-3, 0.1, 1.0, 5.0, 100.0):
            assert drlos_pdf_oracle(1e-12, k, 2.0) == pytest.approx(
                drlos_pdf_oracle(0.0, k, 2.0), rel=1e-9, abs=0)

    def test_gain_at_tiny_k(self):
        # a grows only like log(m/K) as K -> 0 (DLMF 13.2(iii))
        k, m = 1e-30, 5
        assert coding_gain(k, m) == pytest.approx(
            (1.0 + k) * (math.log(m / k) - digamma(m) - 2.0 * np.euler_gamma),
            rel=1e-12, abs=0)

    def test_gain_near_underflow(self):
        # the integrand peaks near e^(-2 sqrt K): unscaled, every node of
        # the quadrature underflows
        assert coding_gain(1.2e5, 1e4) == pytest.approx(
            CODING_GAIN_GOLDENS[(1.2e5, 1e4)], rel=1e-12, abs=0)

    @pytest.mark.parametrize("k, m", [(1e4, 1e12), (1e4, 1e6)])
    def test_gain_at_large_k_and_m(self, k, m):
        # a rounded log(K/m) in the nodes acts as a change in K/m amplified
        # about sqrt(K)-fold: 1.6e-13 and 4e-14 off
        assert coding_gain(k, m) == pytest.approx(CODING_GAIN_GOLDENS[(k, m)], rel=1e-14, abs=0)

    @pytest.mark.parametrize("k, m", [(5e-324, 2.0), (1e300, 1e-10)])
    def test_k_over_m_outside_double_range_is_refused(self, k, m):
        # K and m are finite and positive, but K/m underflows to 0 or
        # overflows to inf
        with pytest.raises(DomainError, match="K/m"):
            coding_gain(k, m)

    @pytest.mark.parametrize("m", [1e307, 4.4e307, 4.6e307, 1.7e308])
    def test_gain_at_huge_m_meets_its_limit(self, m):
        # z = K/m is tiny: past e^700 e^(s - c) is taken in halves, and the
        # fold point in logs, so neither overflows and nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = coding_gain(1.0, m)
        assert got == pytest.approx(4.0 * k0(2.0), rel=1e-14, abs=0)

    def test_subnormal_m_is_refused(self):
        # as by every law: K/m = 1e307 is in range, but 1/m is not
        with pytest.raises(DomainError, match="not subnormal"):
            coding_gain(1e-16, 1e-323)

    def test_gain_at_huge_k(self):
        # at m = 1, a = (1+K) e^K E1(K) -> 1; the peak's root must not square K
        assert coding_gain(1e300, 1) == pytest.approx(1.0, rel=1e-12, abs=0)

    def test_gain_below_the_quadrature_floor_is_refused(self):
        # at K = 1.3e5 Gamma(m) U is subnormal, and has lost digits; the
        # density at 0 reports the same value as 0 (``UNDERFLOWING_DENSITIES``)
        for m in (1e4, 1e6):
            with pytest.raises(AccuracyError, match="smallest normal double"):
                coding_gain(1.3e5, m)


def drlos_density_by_phase(g, k, gbar):
    """The drlos density as (1+K)/gbar (2/pi) int_0^pi K0(2 |sqrt y - sqrt K e^{it}|) dt:
    I0 in its integral form, with the average over x taken in closed form.
    By ``quad`` on pieces split about the width |sqrt y - sqrt K| / (K y)^(1/4)
    of its log peak at t = 0, and about t = (K y)^(-1/4), where it decays."""
    y = (1.0 + k) * g / gbar
    d2, root = (math.sqrt(y) - math.sqrt(k)) ** 2, math.sqrt(k * y)
    edges = sorted({0.0, math.pi} | {c * 4.0 ** j for c in (math.sqrt(d2 / root), root ** -0.5)
                                     for j in range(-20, 20) if 0.0 < c * 4.0 ** j < math.pi})
    phase = sum(quad(lambda t: k0(2.0 * math.sqrt(d2 + 4.0 * root * math.sin(t / 2) ** 2)),
                     a, b, epsabs=0.0, epsrel=TIGHT, limit=200)[0]
                for a, b in zip(edges, edges[1:]))
    return (1.0 + k) / gbar * 2.0 / math.pi * phase


def rician_cdf_average(t, k):
    """The drlos cdf at gbar = 1 as int_0^inf e^{-x} F_R(y/x; K/x) dx, with
    the Rician cdf F_R from ``chndtr`` and y = (1+K) t; by ``quad`` on pieces
    split at (sqrt y - sqrt K)^2 / 160 times powers of 4, where F_R leaves its
    limit at x = 0."""
    y = (1.0 + k) * t
    start = (math.sqrt(y) - math.sqrt(k)) ** 2 / 160.0
    edges = [0.0] + [start * 4.0 ** j for j in range(40) if start * 4.0 ** j < 1.0] + [1.0]
    pieces = [(a, b) for a, b in zip(edges, edges[1:])] + [(1.0, np.inf)]
    return sum(quad(lambda x: math.exp(-x) * chndtr(2.0 * y / x, 2, 2.0 * k / x),
                    a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0] for a, b in pieces)


def los_power_average(kernel, t, k, m):
    """The fdrlos law in y = (1+K) t at gbar = 1 as int g_m(xi) D(y, K xi) dxi,
    g_m the Gamma(m, 1/m) density of the LoS power xi: given xi the law is
    the drlos one at K xi, whose closed form D is ``kernel``
    (``analytic._drlos_density``, a density in y, or ``_drlos_probability``;
    not the public laws, whose rule of ``TINY`` would refuse some nodes).
    Shares no code with the Binomial mixture, the negative-binomial series,
    the 1F1 or ``gamma_tricomi_u``.  By ``quad`` in s = log xi, split at the
    kink xi = y/K, at the mode 0 and at 1 and 5 widths 1/sqrt(m) about it,
    from below both the weight's left tail and the kink to past its right
    tail."""
    y = (1.0 + k) * t
    kink = math.log(y / k)
    lo = min(-45.0 / m, kink) - 5.0
    hi = math.log1p(40.0 / math.sqrt(m) + 40.0 / m) + 1.0
    w = 1.0 / math.sqrt(m)
    edges = sorted({lo, hi} | {c for c in (kink, 0.0, -w, w, -5.0 * w, 5.0 * w) if lo < c < hi})
    log_norm = m * math.log(m) - math.lgamma(m)

    def f(s):
        return (math.exp(log_norm + m * (s - math.exp(s)))
                * kernel(np.array([y]), np.array([k * math.exp(s)]))[0])

    return sum(quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
               for a, b in zip(edges, edges[1:]))


#: (t, K, m) at gbar = 1, drawn once at seed 7: t log-uniform in [1e-6, 30],
#: K in [0.01, 1e3] and m in [0.3, 1e3], none of them an integer
_RNG = np.random.default_rng(7)
LOS_POWER_POINTS = list(zip(10.0 ** _RNG.uniform(-6.0, math.log10(30.0), 20),
                            10.0 ** _RNG.uniform(-2.0, 3.0, 20),
                            10.0 ** _RNG.uniform(math.log10(0.3), 3.0, 20)))


@pytest.mark.parametrize("law", ["pdf", "cdf"])
def test_real_m_laws_are_the_drlos_laws_averaged_over_the_los_power(law):
    # an independent reference at every real m: one quadrature over xi of
    # the drlos closed form, against the scatter average of the series or 1F1
    kernel = analytic._drlos_density if law == "pdf" else analytic._drlos_probability
    public = fdrlos_pdf if law == "pdf" else fdrlos_cdf
    got = [public(t, FadingParams(k, m, 1.0)) for t, k, m in LOS_POWER_POINTS]
    want = [(1.0 + k if law == "pdf" else 1.0) * los_power_average(kernel, t, k, m)
            for t, k, m in LOS_POWER_POINTS]
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


class TestAncestors:
    def test_rician_pdf_normalizes(self):
        with underflow_ignored():
            val, _ = adaptive_quad_vec(lambda g: rician_pdf(g, 3.0, 2.0), rel_tol=TIGHT)
        assert val[0] == pytest.approx(1.0, rel=1e-10)

    def test_rician_cdf_matches_pdf(self):
        val, _ = quad(rician_pdf, 0.0, 1.5, args=(3.0, 2.0), epsabs=0.0, epsrel=TIGHT)
        assert rician_cdf(1.5, 3.0, 2.0) == pytest.approx(val, rel=1e-9)

    def test_drlos_cdf_matches_pdf(self):
        val, _ = quad(lambda g: drlos_pdf_oracle(g, 5.0, 2.0), 0.0, 1.0,
                      epsabs=0.0, epsrel=TIGHT)
        assert drlos_cdf_oracle(1.0, 5.0, 2.0) == pytest.approx(
            val, rel=1e-8)

    def test_nan_of_chndtr_is_refused(self):
        # chndtr gives NaN at noncentrality 2e11, which the Rician cdf
        # refuses; the drlos cdf calls no chndtr and answers at K = 1e4,
        # where an average of chndtr over x meets a NaN at x ~ 2.6e-7
        with pytest.raises(AccuracyError, match="chndtr returned NaN"):
            rician_cdf(1.0, 1e11, 1.0)
        assert drlos_cdf_oracle(1.0, 1e4, 1.0) == pytest.approx(
            DRLOS_CDF_GOLDENS[(1.0, 1e4, 1.0)], rel=1e-12, abs=0)

    @pytest.mark.parametrize("k", [1.0, 5.0, 1e4])
    @pytest.mark.parametrize("ratio", [1.5, 3.0, 10.0, 100.0, 1e6, 1e100])
    def test_drlos_cdf_deep_inside_its_disc(self, k, ratio):
        # at y >> K every phase of R <= sqrt y - sqrt K lands below y and none
        # past R = sqrt y + sqrt K, so F lies between the two discs' masses
        y = ratio * k
        low, high = (1.0 - 2.0 * r * k1(2.0 * r)
                     for r in (math.sqrt(y) - math.sqrt(k), math.sqrt(y) + math.sqrt(k)))
        got = drlos_cdf_oracle(y, k, 1.0 + k)
        assert low * (1.0 - 1e-10) <= got <= high * (1.0 + 1e-10)

    @pytest.mark.parametrize("args,want", sorted(DRLOS_CDF_GOLDENS.items()))
    def test_drlos_cdf_goldens(self, args, want):
        # where an average of chndtr over x refuses (K = 1e4, and K = 0 at
        # t = 1e-12 and 1e-100), fig3 at 0 and 60 dB, and the kink y = K
        assert drlos_cdf_oracle(*args) == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("k", [0.3, 1.0, 5.0, 30.0])
    def test_drlos_cdf_is_the_exponential_average_of_chndtr(self, k):
        # an independent route where chndtr answers: the Rician cdf averaged
        # over e^{-x} shares no code with the closed form
        for t in (0.02, 0.3, 0.9, 2.0):
            want = rician_cdf_average(t, k)
            assert drlos_cdf_oracle(t, k, 1.0) == pytest.approx(
                want, rel=1e-10, abs=0)

    @pytest.mark.parametrize("k", [0.0, 0.3, 1.0, 5.0, 30.0])
    def test_drlos_pdf_is_the_derivative_of_the_cdf(self, k):
        # central differences of the cdf at steps h and h/2, Richardson-
        # extrapolated to O(h^4), away from the kink y = K: the two closed
        # forms meet only through the Wronskian that integrates the density
        t = np.array([0.02, 0.3, 0.7, 1.5, 2.5])

        def slope(h):
            return (drlos_cdf_oracle(t + h, k, 1.0)
                    - drlos_cdf_oracle(t - h, k, 1.0)) / (2.0 * h)

        h = 1e-3 * t
        np.testing.assert_allclose(drlos_pdf_oracle(t, k, 1.0),
                                   (4.0 * slope(h / 2.0) - slope(h)) / 3.0, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("law", [drlos_pdf_oracle, drlos_cdf_oracle])
    def test_drlos_laws_run_no_quadrature(self, law, quad_calls):
        # both are closed forms: 300 values, across the kink y = K, make none
        law(np.geomspace(1e-6, 30.0, 300), 2.0, 1.0)
        assert not quad_calls

    def test_rician_density_at_huge_k(self):
        # sqrt(K y) would overflow from about K = 1.3e154 at t = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rician_pdf(1.0, 1e200, 1.0)
        assert got == pytest.approx((1.0 + 1e200) / math.sqrt(4.0 * math.pi * 1e200),
                                    rel=1e-12, abs=0)

    @pytest.mark.parametrize("args,want", sorted(DRLOS_PDF_GOLDENS.items()))
    def test_drlos_density_goldens_where_y_meets_k(self, args, want):
        assert drlos_pdf_oracle(*args) == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("k", [0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 100.0, 1e8])
    def test_drlos_density_near_y_equal_k(self, k):
        # near g = gbar K/(1+K) the density has a kink, where the closed form
        # swaps y and K between I0 and K0; the phase integral has a log peak
        gbar = 2.0
        band = np.array([1e-9, 1e-8, 1e-7, 1e-6, 1e-4])
        g = gbar * k / (1.0 + k) * (1.0 + np.concatenate([-band, [0.0], band]))
        want = [drlos_density_by_phase(v, k, gbar) for v in g]
        # alone and in one call, which gives the same values
        np.testing.assert_allclose([drlos_pdf_oracle(v, k, gbar) for v in g], want,
                                   rtol=1e-10, atol=0)
        np.testing.assert_allclose(drlos_pdf_oracle(g, k, gbar), want, rtol=1e-10, atol=0)

    def test_rician_is_infinite_m_limit_of_rs(self):
        for g in (0.4, 1.0, 2.5):
            assert rs_pdf(g, 3.0, 5000, 2.0) == pytest.approx(
                rician_pdf(g, 3.0, 2.0), rel=2e-3)


class TestProductLaw:
    """K = 0, no LoS: every fdrlos law is the product law of the scatter,
    whatever m, and takes it in closed form."""

    @pytest.mark.parametrize("y, want", sorted(PRODUCT_CDF.items()))
    def test_product_cdf_goldens(self, y, want):
        assert analytic._product_cdf(math.sqrt(y)) == pytest.approx(want, rel=1e-15, abs=0)

    def test_product_cdf_at_0_is_0_without_a_warning(self):
        # warnings are errors under pytest: no log(0) may fire
        assert analytic._product_cdf(0.0) == 0.0

    @pytest.mark.parametrize("law", [fdrlos_pdf, fdrlos_cdf, fdrlos_cdf_oracle])
    def test_closed_forms_check_rel_tol(self, law):
        # no quadrature runs at K = 0, yet a bad tolerance is refused
        for k in (0.0, np.zeros(2)):
            with pytest.raises(DomainError):
                law(np.ones(2), FadingParams(k, 2, 1.0), rel_tol=-1.0)

    @pytest.mark.parametrize("m", [0.5, 2, 2.5, 30])
    def test_laws_at_k0_are_the_closed_forms(self, m):
        t = np.array([1e-100, 1e-12, 1e-3, 0.5, 3.0, 30.0])
        pdf, cdf = 2.0 * k0(2.0 * np.sqrt(t)), analytic._product_cdf(np.sqrt(t))
        # K = 0 as a scalar, and in an array K beside a K > 0
        for k, grid in ((0.0, t), (np.append(np.zeros(t.size), 1.5), np.append(t, 0.5))):
            params = FadingParams(k, m, 1.0)
            for law, want in ((fdrlos_pdf, pdf), (fdrlos_cdf, cdf), (fdrlos_cdf_oracle, cdf)):
                np.testing.assert_array_equal(law(grid, params)[:t.size], want)


class TestCurve:
    def test_validation(self):
        with pytest.raises(DomainError):
            Curve([1.0, 2.0], [0.1])
        with pytest.raises(DomainError):
            Curve([1.0, 1.0], [0.1, 0.2])
        with pytest.raises(DomainError):
            Curve([1.0, 2.0], [-0.1, 0.2], "pdf")
        with pytest.raises(DomainError):
            Curve([1.0, 2.0], [0.5, 1.2], "cdf")

    def test_rejects_nan(self):
        for quantity in (None, "pdf", "op"):
            with pytest.raises(DomainError, match="NaN"):
                Curve([1.0, 2.0], [0.5, np.nan], quantity)
            with pytest.raises(DomainError, match="NaN"):
                Curve([np.nan, 2.0], [0.5, 0.6], quantity)

    def test_csv_rows_are_the_17_digit_forms(self):
        # the bytes of one f"{x:.17g},{y:.17g}" line a row, whatever the value
        x = np.array([-1e300, -0.0, 5e-324, 0.1, 1.0, 3.0, 1e22])
        y = np.array([np.inf, 0.0, 2.0 ** -1074, 1.0 / 3.0, 1e-300, 123456789.0, 7.0])
        buf = io.StringIO()
        Curve(x, y).write_csv(buf)
        assert buf.getvalue() == "abscissa,value\n" + "".join(
            f"{a:.17g},{b:.17g}\n" for a, b in zip(x, y))

    def test_csv_round_trip_is_lossless(self):
        x = np.array([1.0 / 3.0, 0.7, 1e-300, 6.02214076e23][:3])
        x = np.sort(x)
        y = np.array([0.1234567890123456789, 2.0 ** -52, 1.0 - 2 ** -53])
        buf = io.StringIO()
        Curve(x, y).write_csv(buf)
        assert buf.getvalue().startswith("abscissa,value\n")
        buf.seek(0)
        back = np.loadtxt(buf, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 0], x)
        assert np.array_equal(back[:, 1], y)
