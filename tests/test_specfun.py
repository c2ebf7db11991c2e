import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import digamma, exp1, hyp1f1, k1

from fdrlos.specfun import (REL_TOL_FLOOR, AccuracyError, DomainError,
                            adaptive_quad_vec, bd0, check_rel_tol,
                            gamma_tricomi_u, log_kummer_1f1, log_negbin_pmf,
                            log_poisson_pmf, stirlerr)

# references from scripts/make_goldens.py: mpmath at 40 and 50 digits,
# agreeing to 20
GIG_NEG2_02_15 = 0.17218473217639857
HYP1F1_3_1_07 = 5.32637591125941
U_2_1_05 = 0.3843659487255957
E1 = {
    0.1: 1.8229239584193906,
    1.0: 0.21938393439552029,
    10.0: 4.156968929685325e-06,
}
UPPER_GAMMA = {
    (-2.0, 0.1): 41.62914579082787,
    (-2.0, 1.0): 0.10969196719776014,
    (-2.0, 5.0): 3.511203571082553e-05,
    (-0.5, 0.1): 3.4017693366916153,
    (-0.5, 1.0): 0.1781477117815607,
    (-0.5, 5.0): 0.0004773964866727085,
    (1.0, 0.1): 0.9048374180359595,
    (1.0, 1.0): 0.36787944117144233,
    (1.0, 5.0): 0.006737946999085467,
    (3.5, 0.1): 3.323267367397231,
    (3.5, 1.0): 3.189886420894198,
    (3.5, 5.0): 0.626695816261539,
}
# 1F1(a; 1; x) and log(e^-x 1F1(a; 1; x)), keyed by (a, x)
HYP1F1_LARGE = {
    (2.5, 80.0): 3.0663507777251483e+37,
    (2.5, 300.0): 7.649563525628979e+133,
    (0.5, 120.0): 6.7310795536494625e+50,
    (3.0, 600.0): 6.83675051548806e+265,
    (5.0, 100.0): 1.3074287634673006e+50,
}
SCALED_LOG_HYP1F1 = {
    (500.0, 50.0): 288.58030390333215,
    (2.5, 5000.0): 12.491556826676929,
    (30.5, 300.0): 97.96605373490995,
    (30.0, 300.0): 96.72478527237098,
    (100.5, 9000.0): 545.5980991350813,
    (140.5, 19000.0): 822.6493394677371,
    (400.5, 100000.0): 2603.4987464712126,
    (1000.5, 500000.0): 7209.1220415971875,
    (10000.5, 50000000.0): 95164.14861323236,
}
# the same at tiny a, past x = 140 where the window about the peak leaves out
# k = 0, and past x = 200 where the large-x expansion's second branch
# e^-x x^-a / Gamma(1-a) is most of the value, from mpmath at 400 and 450
# digits: at 40 and 50 it agrees with itself on -x, at (1e-70, 200) the value
# needs 80, and at (1e-300, 700) 300
SCALED_LOG_HYP1F1_TINY_A = {
    (1e-50, 150.0): -120.13315529018558,
    (1e-70, 150.0): -149.99999990645819,
    (1e-70, 200.0): -166.47423582307337,
    (1e-100, 201.0): -201.0,
    (1e-100, 250.0): -235.77594527067532,
    (1e-200, 500.0): -466.7296206622777,
    (1e-300, 700.0): -697.2585287327363,
}
# the log masses at n and lam (or the NB mean) up to 1e6, where
# n log lam - lam - lgamma(n+1) loses 1e-9; NB keys are (n, m, K) with
# p = m/(m+K)
STIRLERR = {
    0.3: 0.2360649007482156,
    1.0: 0.08106146679532726,
    2.5: 0.03316287351993629,
    9.75: 0.008544020505848588,
    10.0: 0.00833056343336287,
    33.3: 0.002502427296421092,
    1e6: 8.333333333333056e-08,
}
LOG_POISSON_PMF = {
    (0.0, 3.0): -3.0,
    (7.0, 1e-12): -201.94230917256624,
    (40.0, 55.0): -5.027312305458559,
    (10050.0, 10000.0): -5.651402967764934,
    (1e6, 1000000.5): -7.826694020520102,
    (1012000.0, 1e6): -79.5463738370519,
}
LOG_NEGBIN_PMF = {
    (0.0, 2.5, 3.0): -1.9711434009106754,
    (3.0, 2.5, 3.0): -1.90817918370388,
    (40.0, 0.7, 30.0): -4.9394188870118825,
    (10000.0, 2.5, 10000.0): -9.704421399224131,
    (1e6, 2.5, 1e6): -14.309467848750451,
    (1000.0, 1e6, 1000.0): -4.373399256276088,
    (5.0, 1e15, 3.0): -2.294430299441498,
}


def gig_grid(a_values, z, b_values):
    """e^z Gamma(a, z, b) = int_z^inf t^(a-1) e^(z-t-b/t) dt on the grid
    b_values x a_values, one vector quadrature.

    The generalized incomplete gamma is the building block of the paper's
    closed form.  Here it is a test integrand for the engine: a folded
    semi-infinite range (from z, as the integral of f(z + s) over s >= 0),
    components that span many decades, and e^(-b/t), flat to every order at
    a small lower limit.
    """
    a_values = np.asarray(a_values, dtype=float)
    b_values = np.asarray(b_values, dtype=float)

    def f(t):
        with np.errstate(invalid="ignore", over="ignore"):   # z < 0 gives NaN
            pow_a = np.exp((a_values - 1.0) * np.log(t)[:, None])    # (nt, na)
            core = np.exp(z - t[:, None] - b_values / t[:, None])    # (nt, nb)
        return (core[:, :, None] * pow_a[:, None, :]).reshape(len(t), -1)

    vals, _ = adaptive_quad_vec(lambda s: f(z + s))
    return vals.reshape(len(b_values), len(a_values))


def gen_incomplete_gamma(a, z, b):
    """Gamma(a, z, b) at one point."""
    return math.exp(-z) * float(gig_grid([a], z, [b])[0, 0])


class TestAdaptiveQuad:
    def test_unit_exponential(self):
        val, err = adaptive_quad_vec(lambda t: np.exp(-t))
        assert val[0] == pytest.approx(1.0, abs=1e-12)
        assert err[0] < 1e-10

    def test_gamma_two(self):
        val, _ = adaptive_quad_vec(lambda t: t * np.exp(-t))
        assert val[0] == pytest.approx(1.0, abs=1e-12)

    def test_nan_integrand_is_domain_error(self):
        with pytest.raises(DomainError):
            adaptive_quad_vec(lambda t: np.full_like(t, np.nan))

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_integrand_is_refused_at_the_first_call(self, value):
        # an inf value makes the Kronrod-Gauss difference NaN, which no
        # subdivision mends: the first call is refused, as for NaN
        calls = []

        def f(t):
            calls.append(t.size)
            out = np.ones_like(t)
            out[3] = value
            return out

        with pytest.raises(DomainError, match="NaN"):
            adaptive_quad_vec(f)
        assert len(calls) == 1

    def test_subdivision_exhaustion_carries_estimate(self):
        # some 480 periods before e^-t falls to 1e-13, folded towards
        # u = 1, need more than the 400-subdivision budget
        with pytest.raises(AccuracyError, match="400 subdivisions") as info:
            adaptive_quad_vec(lambda t: np.sin(50.0 * t) ** 2 * np.exp(-t), rel_tol=1e-13)
        assert info.value.value.shape == info.value.err_estimate.shape == (1,)
        assert info.value.value[0] == pytest.approx(0.5 - 0.5 / 10001.0, rel=1e-6)
        assert info.value.err_estimate[0] > 1e-13 * info.value.value[0]

    def test_components_across_decades(self):
        # e^(-ct) from c = 1e-3 (mass near u = 1 after folding) to 1e3 (mass
        # near 0), one component 1e-200 smaller: each meets its own tolerance
        c = np.geomspace(1e-3, 1e3, 13)
        scale = np.ones_like(c)
        scale[4] = 1e-200
        vals, _ = adaptive_quad_vec(lambda t: scale * np.exp(-np.outer(t, c)))
        np.testing.assert_allclose(vals, scale / c, rtol=1e-10, atol=0)

    def test_a_round_is_one_integrand_call(self):
        # the 8 seed panels are one call, and every refinement round one more
        calls = []

        def f(t):
            calls.append(t.size)
            return np.exp(-t)

        val, _ = adaptive_quad_vec(f)
        assert val[0] == pytest.approx(1.0, rel=1e-10)
        assert len(calls) <= 3
        assert calls[0] == 8 * 15

    def test_vector_components_controlled_independently(self):
        # second component is 1e12 times smaller; both must be accurate
        def f(x):
            return np.stack([np.exp(-x), 1e-12 * x * np.exp(-x)], axis=1)

        vals, _ = adaptive_quad_vec(f)
        assert vals[0] == pytest.approx(1.0, rel=1e-11)
        assert vals[1] == pytest.approx(1e-12, rel=1e-11)

    def test_config_validation(self):
        for rel_tol in (0.0, 1.0, 5.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="rel_tol"):
                check_rel_tol(rel_tol)
            with pytest.raises(DomainError, match="rel_tol"):
                adaptive_quad_vec(lambda t: np.exp(-t), rel_tol=rel_tol)

    def test_rel_tol_floor(self):
        assert 1e-18 < REL_TOL_FLOOR < 1e-13
        with pytest.raises(DomainError, match="rel_tol"):
            check_rel_tol(1e-18)
        check_rel_tol(REL_TOL_FLOOR)
        check_rel_tol(1e-13)


class TestGenIncompleteGamma:
    """``adaptive_quad_vec`` on the generalized incomplete gamma integrand,
    against classical limits, a Bessel identity and a frozen value."""

    def test_reduces_to_exp_integral(self):
        assert gen_incomplete_gamma(1.0, 1.0, 0.0) == pytest.approx(
            math.exp(-1.0), rel=1e-12)

    def test_bessel_identity_near_zero_cutoff(self):
        # Gamma(1, 0+, b) = 2 sqrt(b) K1(2 sqrt(b))
        got = gen_incomplete_gamma(1.0, 1e-12, 1.0)
        assert got == pytest.approx(2.0 * k1(2.0), rel=1e-9)

    def test_frozen_golden(self):
        assert gen_incomplete_gamma(-2.0, 0.2, 1.5) == pytest.approx(
            GIG_NEG2_02_15, rel=1e-10)

    @pytest.mark.parametrize("a", [-2.0, -0.5, 1.0, 3.5])
    @pytest.mark.parametrize("z", [0.1, 1.0, 5.0])
    def test_b_zero_matches_classical_upper_gamma(self, a, z):
        assert gen_incomplete_gamma(a, z, 0.0) == pytest.approx(
            UPPER_GAMMA[(a, z)], rel=1e-9)

    def test_grid_layout(self):
        # one vector quadrature over the grid gives each component as its own
        # scalar quadrature does: row i, column j holds e^z Gamma(a_j, z, b_i)
        a_values, z, b_values = [-2.0, 1.0, 3.5], 0.5, [0.0, 1.5]
        grid = gig_grid(a_values, z, b_values)
        assert grid.shape == (2, 3)
        for i, b in enumerate(b_values):
            for j, a in enumerate(a_values):
                assert math.exp(-z) * grid[i, j] == pytest.approx(
                    gen_incomplete_gamma(a, z, b), rel=1e-10)

    @given(st.floats(-2.5, 3.0), st.floats(0.05, 4.0), st.floats(0.0, 4.0),
           st.floats(0.05, 2.0))
    def test_monotone_decreasing_in_z(self, a, z, b, dz):
        assert gen_incomplete_gamma(a, z + dz, b) < gen_incomplete_gamma(a, z, b)

    @given(st.floats(-2.5, 3.0), st.floats(0.05, 4.0), st.floats(0.0, 4.0),
           st.floats(0.05, 2.0))
    def test_monotone_decreasing_in_b(self, a, z, b, db):
        assert gen_incomplete_gamma(a, z, b + db) < gen_incomplete_gamma(a, z, b)

    def test_domain_errors(self):
        # the engine refuses what this integral cannot take: z < 0 takes the
        # log of a negative t and a NaN parameter makes a NaN integrand, both
        # at the first panel
        with pytest.raises(DomainError, match="NaN"):
            gig_grid([-1.0], -0.5, [1.0])
        with pytest.raises(DomainError, match="NaN"):
            gig_grid([1.0], 1.0, [0.5, np.nan])

    def test_positive(self):
        assert gen_incomplete_gamma(-5.0, 0.3, 2.0) > 0.0


class TestKummer1F1:
    """The scaled log(e^-x 1F1(a; 1; x)) against the logs of frozen and scipy
    values minus x; the cases reach the series (x <= max(200, a^2)) and the
    large-x expansion (x > max(200, a^2)), at integer and at real a."""

    def test_at_zero(self):
        for a in (3.0, 2.5):
            assert log_kummer_1f1(a, 0.0) == 0.0

    def test_equal_parameters_give_exp(self):
        # 1F1(1; 1; x) = e^x, so the scaled log is 0
        assert log_kummer_1f1(1.0, 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_frozen_golden(self):
        assert log_kummer_1f1(3.0, 0.7) == pytest.approx(
            math.log(HYP1F1_3_1_07) - 0.7, abs=1e-12)

    @pytest.mark.parametrize("args,want", sorted(HYP1F1_LARGE.items()))
    def test_large_argument_paths(self, args, want):
        assert log_kummer_1f1(*args) == pytest.approx(
            math.log(want) - args[1], abs=1e-10)

    @pytest.mark.parametrize("a", [0.5, 2.5, 5.0])
    @pytest.mark.parametrize("x", [0.5, 5.0, 30.0, 49.0])
    def test_against_scipy(self, a, x):
        assert log_kummer_1f1(a, x) == pytest.approx(
            math.log(hyp1f1(a, 1.0, x)) - x, abs=1e-9)

    def test_empty_argument_gives_empty(self):
        out = log_kummer_1f1(2.5, np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    @pytest.mark.parametrize("a", [0.7, 2.5, 30.5, 140.5])
    def test_series_value_does_not_depend_on_its_batch(self, a):
        # each value is summed over its own window, in a fixed order, so
        # summed alone or in a batch of longer windows it is the same; at
        # a = 140.5 most windows start above k = 0, at an anchored term
        rng = np.random.default_rng(7)
        top = max(200.0, a * a)
        # near x = 1e-16 at a = 0.7 the log is about -0.3 x, so small that
        # one term past the last one needed still moves its last bit
        x = np.concatenate([[0.0, 1e-300, top], rng.uniform(0.0, top, 40),
                            10.0 ** rng.uniform(-17.0, 0.0, 200)])
        batch = log_kummer_1f1(a, x)
        np.testing.assert_array_equal(batch, [log_kummer_1f1(a, v) for v in x])

    @given(st.floats(1.2, 30.5), st.floats(0.1, 900.0))
    def test_derivative_contiguous_relation(self, a, x):
        # Gauss's contiguous relation at b = 1,
        # (1-a) M(a-1) + (2a-1+x) M(a) - a M(a+1) = 0, divided by M(a); the
        # e^-x scaling cancels in the ratios
        below = math.exp(log_kummer_1f1(a - 1, x) - log_kummer_1f1(a, x))
        above = math.exp(log_kummer_1f1(a + 1, x) - log_kummer_1f1(a, x))
        assert (1 - a) * below + (2 * a - 1 + x) == pytest.approx(a * above, rel=1e-13)

    def test_log_form_matches_frozen(self):
        # extended-precision references, past double range unscaled; the
        # series runs past x = 200 up to a^2, over windows that start far
        # above k = 0, at a = 1e4 of 155600 terms, summed in one column
        for args, want in SCALED_LOG_HYP1F1.items():
            assert log_kummer_1f1(*args) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("args,want", sorted(
        (args, want) for args, want in SCALED_LOG_HYP1F1_TINY_A.items() if args[1] <= 200.0))
    def test_tiny_a_sums_its_term_at_zero(self, args, want):
        # t_0 = e^-x lies below the window and far above its terms
        assert log_kummer_1f1(*args) == pytest.approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("args,want", sorted(
        (args, want) for args, want in SCALED_LOG_HYP1F1_TINY_A.items() if args[1] > 200.0))
    def test_tiny_a_sums_the_second_branch(self, args, want):
        # past x = 200 at a below about 1e-69 the branch e^-x x^-a / Gamma(1-a)
        # outgrows the expansion's first: at (1e-100, 201) the value is -201,
        # where the first alone gives -235.6
        assert log_kummer_1f1(*args) == pytest.approx(want, rel=1e-15, abs=0)

    def test_tiny_a_keeps_k_over_a_in_double_range(self):
        # k/a = 1.9e309 at a = 1e-307; the value is -x to 1e-225
        assert log_kummer_1f1(1e-307, 190.0) == pytest.approx(-190.0, rel=1e-15, abs=0)

    def test_refuses_a_series_it_cannot_certify(self):
        # x = 1e10 <= a^2 takes the series, over a window of 2.2e6 terms
        with pytest.raises(AccuracyError, match="past the cap"):
            log_kummer_1f1(1e5 + 0.5, np.array([1.0, 1e10]))

    def test_refuses_a_window_that_cannot_bound_its_tail(self, monkeypatch):
        # a window of one sigma about the peak leaves out more than it may
        monkeypatch.setattr("fdrlos.specfun._WINDOW_SIGMAS", 1.0)
        monkeypatch.setattr("fdrlos.specfun._WINDOW_PAD", 0.0)
        with pytest.raises(AccuracyError, match="cannot bound the terms it leaves out"):
            log_kummer_1f1(2.5, np.array([150.0]))

    def test_log_form_vectorized(self):
        x = np.array([0.0, 0.4, 7.0, 90.0])
        got = log_kummer_1f1(3.0, x)
        want = np.log(hyp1f1(3.0, 1.0, x)) - x
        np.testing.assert_allclose(got, want, rtol=1e-10)


class TestLogMasses:
    """Loader's (2000) saddle-point forms of the Poisson and negative-binomial
    log masses, the anchors of the Rician shadowed series."""

    @pytest.mark.parametrize("x,want", sorted(STIRLERR.items()))
    def test_stirlerr(self, x, want):
        assert stirlerr(x) == pytest.approx(want, rel=5e-16, abs=5e-16)

    @pytest.mark.parametrize("args,want", sorted(LOG_POISSON_PMF.items()))
    def test_log_poisson_pmf(self, args, want):
        assert log_poisson_pmf(*args) == pytest.approx(want, rel=5e-16, abs=5e-16)

    @pytest.mark.parametrize("args,want", sorted(LOG_NEGBIN_PMF.items()))
    def test_log_negbin_pmf(self, args, want):
        n, m, k = args
        got = log_negbin_pmf(n, m, m / (m + k), k / (m + k))
        assert got == pytest.approx(want, rel=5e-16, abs=5e-16)

    def test_bd0_is_the_deviance(self):
        x = np.array([0.0, 3.0, 95.0, 100.0, 105.0, 400.0])
        want = np.array([100.0, 3.0 * math.log(0.03) + 97.0,
                         95.0 * math.log(0.95) + 5.0, 0.0,
                         105.0 * math.log(1.05) - 5.0, 400.0 * math.log(4.0) - 300.0])
        np.testing.assert_allclose(bd0(x, 100.0), want, rtol=1e-13, atol=0)

    def test_vectorized_over_arrays(self):
        n = np.array([0.0, 1.0, 7.0, 40.0])
        np.testing.assert_array_equal(
            log_poisson_pmf(n, 3.0), [log_poisson_pmf(v, 3.0) for v in n])
        np.testing.assert_array_equal(
            log_negbin_pmf(n, 2.5, 0.4, 0.6), [log_negbin_pmf(v, 2.5, 0.4, 0.6) for v in n])


class TestTricomiU:
    """Gamma(m) U(m, 1, x), the product the high-SNR offset uses."""

    def test_exponential_integral_identity(self):
        # U(1, 1, x) = e^x E1(x) and Gamma(1) = 1
        assert gamma_tricomi_u(1, 1.0) == pytest.approx(math.e * exp1(1.0), rel=1e-10)

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_u1_times_exp_is_e1(self, x):
        assert gamma_tricomi_u(1, x) * math.exp(-x) == pytest.approx(E1[x], rel=1e-9)

    @pytest.mark.parametrize("m", [1, 2])
    def test_large_x_asymptote(self, m):
        x = 1e6
        assert gamma_tricomi_u(m, x) == pytest.approx(
            math.gamma(m) * x ** (-m), rel=1e-2)

    def test_frozen_golden(self):
        assert gamma_tricomi_u(2, 0.5) == pytest.approx(
            math.gamma(2) * U_2_1_05, rel=1e-10)

    def test_strictly_decreasing_in_x(self):
        xs = [0.2, 0.5, 1.0, 3.0, 9.0]
        vals = [gamma_tricomi_u(3, x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("z", [1e-30, 1e-300])
    @pytest.mark.parametrize("m", [0.3, 1, 5])
    def test_small_z_expansion(self, m, z):
        # the mass lies evenly in log x from about z up to 1; DLMF 13.2(iii):
        # Gamma(m) U(m, 1, z) = -log z - psi(m) - 2 gamma_E + O(z log z)
        assert gamma_tricomi_u(m, z) == pytest.approx(
            -math.log(z) - digamma(m) - 2.0 * np.euler_gamma, rel=1e-12, abs=0)

    def test_gamma_scaled_product_survives_large_order(self):
        # Gamma(m) U(m,1,x) stays O(1) where Gamma(m) alone overflows
        val = gamma_tricomi_u(1000, 1e-3)
        assert 0.0 < val < 1e3
