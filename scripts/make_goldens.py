"""Make the goldens frozen in ``tests/test_analytic.py``,
``tests/test_specfun.py`` and ``tests/test_frontier.py``, with mpmath, and
check them against their frozen copies.

Every value computed at fixed precision is computed at 40 and at 50 digits,
which must agree to 20.

Rician shadowed cdf (``RS_CDF_GOLDENS``, ``RS_CDF_WIDE_GOLDENS`` at m = 1e6
and K = 1e6, and ``RS_CDF_2_4_2_15``): each value integrates the 1F1 form of
the density, so it shares nothing with the Binomial mixture or the series
that ``fdrlos.analytic.rs_cdf`` sums:

    f(t) = m^m (1+K) / ((m+K)^m gbar) exp(-(1+K) t / gbar)
           * 1F1(m; 1; K (1+K) t / ((K+m) gbar)).

Both F(g) = int_0^g f and S(g) = int_g^inf f are integrated (the tail of S
in doubling pieces until one adds below 1e-45); a case is kept only if
F + S = 1 to 25 digits, and the smaller of the two gives the value (F
directly, or 1 - S), so deep-outage values keep their relative accuracy.

The same cdf at large m and K_x, deep in outage, where the terms of the
series peak far past y (``RS_CDF_PEAK_GOLDENS``): the 1F1 density integrated
over [0, g] by Gauss-Legendre on 256 equal panels at 40 digits and on 512 at
50, which must agree to 20 digits, and confirmed to 20 digits by the
negative-binomial sum of Erlang cdfs (Abdi et al.) at 50 digits, summed
from n = 0 until its terms fall below 1e-55 of the largest past y.

Rician shadowed pdf (``RS_PDF_GOLDENS``): the 1F1 density above at both
precisions, at K up to 1e8, where e^-x and 1F1 each leave double range, and
at m = 1e-12 and 1e-20.

Fluctuating double-Rayleigh LoS pdf and cdf at integer m
(``FDRLOS_PDF_GOLDENS``, ``FDRLOS_CDF_GOLDENS``), two ways that must agree to
16 digits:

* the paper's closed form: t = K/m + x substituted in the scatter average
  and (t - K/m)^j expanded into generalized incomplete gammas
  Gamma(a, z, b) = int_z^inf t^(a-1) e^(-t - b/t) dt, which cancel.  Each
  Gamma(a, z, b) is the series sum_n (-b)^n / n! Gamma(a-n, z).  The value is
  taken at the first of the precisions ``GIG_DPS`` that agrees with the next
  to 20 digits, so the cancellation has left at least 20 digits;
* the 1F1 density above averaged over e^(-x) at K_x = K/x,
  gbar_x = gbar (K+x)/(K+1) (for the cdf, integrated over [0, g] as well),
  at 30 digits.

The same pdf at real m (``FDRLOS_PDF_REAL_M_GOLDENS`` and, at m = 140.5 and
1000.5, ``FDRLOS_PDF_M140_GOLDENS`` and ``FDRLOS_PDF_M1000_GOLDENS``), where
the closed form does not apply: the 1F1 average by tanh-sinh at both
precisions, confirmed to 16 digits by Gauss-Legendre at 30 digits.  The cdf
at real m (``FDRLOS_CDF_REAL_M_GOLDENS``): the drlos cdf averaged over the
LoS power xi ~ Gamma(m, 1/m) below, at both precisions, confirmed to 11
digits by the 1F1 density integrated over [0, g] and averaged over e^(-x)
by Gauss-Legendre at 30 (which converges slowly below m = 1).

The fdrlos cdf as the drlos cdf averaged over the LoS power
(``LOS_POWER_CDF_GOLDENS``): given xi the law is the drlos law at K xi, so
F = int g_m(xi) D(y; K xi) dxi, g_m the Gamma(m, 1/m) density and D the
drlos cdf in closed form (below), by tanh-sinh in s = log xi at both
precisions, split at the weight's mode and widths, at the kink y = K xi and
across the step there; its K0 is summed by its series or its asymptotic
expansion, some ten times faster than ``mp.besselk``.  At deep outage at
small K, at the narrow step of K = 1e8, and at m = 1e9, where the cdf lies
1.1e-9 above its drlos limit.

Deterministic-LoS double-Rayleigh pdf (``DRLOS_PDF_GOLDENS``) at and near
g = gbar K/(1+K), where y = (1+K) g/gbar meets K: the Rician density
e^{-(y+K)/x} I0(2 sqrt(K y)/x) / x averaged over e^{-x}, in s = sqrt(x), where
it steps from 0 near s = |sqrt y - sqrt K| to a bounded value, with the
tanh-sinh pieces split at that s times powers of 4, at both precisions.

Deterministic-LoS double-Rayleigh cdf (``DRLOS_CDF_GOLDENS``): with
a = sqrt y and b = sqrt K, R = |G2 G3| of density 4 r K0(2 r) and a uniform
phase, P(R <= a - b) plus int 4 r K0(2 r) arccos(-c(r))/pi dr over the
annulus |a - b| <= r <= a + b, c(r) = (y - K - r^2)/(2 b r), the disc as
r1^2 int_0^1 4 u K0(2 r1 u) du below r1 = a - b = 1, at both precisions.

Every row of both drlos tables is confirmed to 20 digits by the closed
forms that Graf's addition theorem gives, at 50 digits: with a and b the
smaller and the larger of y and K, the density (1+K)/gbar 2 I0(2 sqrt a)
K0(2 sqrt b), and the cdf 2 sqrt y I1(2 sqrt y) K0(2 sqrt K) up to y = K and
1 - 2 sqrt y I0(2 sqrt K) K1(2 sqrt y) past it.  At K = 0 the cdf is the
product law 1 - 2 sqrt y K1(2 sqrt y), taken at 150 digits, which its
cancellation needs at y = 1e-100.

Coding gains (``CODING_GAIN_GOLDENS``), two ways that must agree to 25
digits: (1+K) Gamma(m) U(m, 1, K/m) from mpmath's ``hyperu``, and
(1+K) int_0^inf e^(-x) x^(m-1) (x + K/m)^(-m) dx at 40 digits, taken with
x = s^(1/m), which turns x^(m-1) dx into ds/m (below m = 1, x^(m-1) is
singular at 0, and at m = 0.3 the plain integral agrees to only 13 digits).
At K = 1.2e5, m = 1e4 (a gain near 6e-295), K = 1.17e5, m = 1e6 (near
9e-294) and K = 1e4, m = 1e6 and 1e12 (near 2.5e-84) that quadrature misses
the integrand's narrow peak in s and is off by thousands of decades, so
there the value is ``hyperu`` alone, agreed at 40 and 50 digits.  The gain
at K = 1e-30, m = 5 (``GAIN_TINY_K``, read by the CLI tests) is ``hyperu``
at both precisions, confirmed to 25 digits by its small-K form
(1+K) (log(m/K) - psi(m) - 2 gamma_E) (DLMF 13.2(iii)); the quadrature above
misses it.

Special functions (the goldens of ``tests/test_specfun.py``): mpmath's
``hyp1f1`` at b = 1 (and the scaled log(e^-x 1F1(a; 1; x)), at tiny a
(``SCALED_LOG_HYP1F1_TINY_A``) at 400 and 450 digits, since at 40 and 50
mpmath agrees with itself that log(e^-200 1F1(1e-70; 1; 200)) = -200, where
from 80 digits on it reads -166.474..., and at 100 and 150 that the value
at (1e-200, 500) and (1e-300, 700) is -500 and -700, where it needs 250 and
300 digits), ``hyperu``,
``e1`` and upper ``gammainc``, the generalized incomplete gamma
Gamma(a, z, b) = int_z^inf t^(a-1) e^(-t - b/t) dt by ``mp.quad``, and
Stirling's remainder and the Poisson and negative-binomial log masses from
``loggamma``.

The product law of the scatter alone (``PRODUCT_CDF``), the cdf
1 - 2 sqrt y K1(2 sqrt y) at 150 digits from y = 1e-100 to 900, and on both
sides of y = 1/4, where ``fdrlos.analytic`` turns from its series to the
closed form.

The frontier table (``tests/test_frontier.py``): the m -> 0 limits of the
fdrlos laws at K = 1, (1+K) 2 K0(2 sqrt y) and 1 - 2 sqrt y K1(2 sqrt y) at
y = 2 (``PDF_M_TO_0``, ``CDF_M_TO_0``), at both precisions; the K = 0 cdf
1 - 2 sqrt y K1(2 sqrt y) at y = 1e-10 and 1e-11 (``CDF_K0_AT_1E_10``,
``CDF_K0_AT_1E_11``) at 150 digits, as for the drlos cdf; the K = 0 pdf
2 K0(2 sqrt y) at y = 1e-100 (``PDF_K0_AT_1E_100``); the m -> inf limit of
the coding gain at K = 1, (1+K) 2 K0(2 sqrt K) (``GAIN_M_TO_INF``); and
coding gains at tiny m from ``hyperu`` (``CODING_GAIN_TINY_M``), each at
both precisions.

Each table is one entry of ``GOLDENS``: a title, the law that makes its
values, and its cases.  After printing a table the script compares it with
its frozen copy in the tests (``FROZEN_IN``): the same keys, and each value
equal as a double.  Any difference, or a printed table that no test
freezes, goes to stderr with the mpmath version; the run still finishes,
then exits 1.

Run from the repository root (about 9 minutes on one core; the real-m cdf
table takes about 1.5, the drlos cdf table about 1.5):

    python3 scripts/make_goldens.py

or print and check only the tables named, for example the cheap tiny-m and
huge-m ones (a few seconds):

    python3 scripts/make_goldens.py SCALED_LOG_HYP1F1_TINY_A PDF_M_TO_0 CDF_M_TO_0 \
        GAIN_M_TO_INF CODING_GAIN_TINY_M
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import mpmath as mp

TESTS = Path(__file__).resolve().parents[1] / "tests"
#: the test files that freeze the tables
FROZEN_IN = ("test_analytic.py", "test_specfun.py", "test_frontier.py")
#: a frozen value has more significant digits than any tolerance is written with
MIN_DIGITS = 10

DPS = (40, 50)
#: the precisions of the tiny-a 1F1 goldens
TINY_A_DPS = (400, 450)
GIG_DPS = (40, 100, 160, 220, 280)

#: (name, gamma, k, m, gbar): the inputs are doubles, as the tests pass them
CASES = [
    ("real m", 1.3, 2.0, 2.5, 1.0),
    ("real m", 4.0, 3.0, 2.5, 2.0),
    ("m below 1", 0.5, 10.0, 0.7, 1.0),
    ("m below 1", 3.0, 0.5, 0.7, 2.0),
    ("60 dB deep outage", 10.0 ** 0.3, 6.0, 10, 1e6),
    ("60 dB deep outage", 10.0 ** 0.3, 1.0, 10, 1e6),
    ("K_x = 1e4, y near 1e4", 1.0, 1e4, 2.5, 1.0001),
    ("K_x = 1e4, y near 1e4", 1.02, 1e4, 3, 1.0001),
    ("far tail", 5e5, 3.0, 2.5, 2.0),
    ("far tail", 1e6, 3.0, 2.5, 2.0),
]

#: the same at m = 1e6 and at K_x = 1e6 (``RS_CDF_WIDE_GOLDENS``)
WIDE_CASES = [
    ("m = 1e6", 1.0, 3.0, 1e6, 1.0),
    ("m = 1e6", 0.5, 30.0, 1e6, 2.0),
    ("m = 1e6, NB mass below the window", 1.0, 300.0, 1e6, 1.0),
    ("K_x = 1e6, y near 1e6", 2.0, 1e6, 2.5, 2.0),
    ("K_x = 1e6, y near 1e6", 1.0, 1e6, 0.7, 1.0),
]

#: deep outage at large m and K_x, where the terms NB(n) P(n+1, y) peak near
#: sqrt((m-1) K_x/(m+K_x) y), far past y = (1+K_x) g/gbar
#: (``RS_CDF_PEAK_GOLDENS``)
PEAK_CASES = [
    ("m = 1e5, terms peak near 54, y = 5", 5.0, 600.0, 1e5 + 0.5, 601.0),
    ("m = 1e6, terms peak near 50, y = 4", 4.0, 650.0, 1e6 + 0.5, 651.0),
    ("m = 1e4, terms peak near 40, y = 3", 3.0, 600.0, 1e4 + 0.5, 601.0),
]

_LARGE_M = [(f"m = {m}", 1.0, k, m, gbar)
            for k, gbar in ((1.0, 1.0), (5.0, 2.0)) for m in (20, 30, 40, 60)]

FDRLOS_PDF_CASES = [("fig1 K = 5, m = 3", g, 5.0, 3, 2.0) for g in (0.1, 1.0, 5.0)] \
    + _LARGE_M

FDRLOS_CDF_CASES = [("fig1 K = 5, m = 3", 2.0, 5.0, 3, 2.0)] + _LARGE_M + [
    (f"{db} dB outage", 10.0 ** 0.3, 1.0, m, 10.0 ** (db / 10))
    for m, db in ((10, 60), (10, 80), (10, 100), (10, 120), (40, 120))]

#: (gamma, k, m, gbar) of the Rician shadowed pdf: K_x up to 1e8, where the
#: 1F1 argument is about K_x gamma / gbar, and m = 1e-12 and 1e-20, where
#: m - 1 rounds m away
RS_PDF_CASES = [(3.0, k, m, 1.7) for m in (3, 2.5) for k in (5e4, 1e6, 1e8)] + [
    (g, 1.0, m, 1.0) for m in (1e-12, 1e-20) for g in (30.0, 50.0)]

#: real m past 25, where the 1F1 series and the large-x expansion meet at a^2;
#: the first three are the grid of ``fdrlos pdf --k 1 --m 30.5 --gamma-bar 1
#: --grid 0.5:2:3``
FDRLOS_PDF_REAL_M_CASES = [(g, 1.0, 30.5, 1.0) for g in (0.5, 1.25, 2.0)] + [
    (1.0, 1.0, 50.5, 1.0), (1.0, 5.0, 30.5, 2.0), (1.0, 5.0, 50.5, 2.0)]
#: the grid of the same command at m = 140.5, where a 1F1 series from k = 0
#: needs more than 2e4 terms
FDRLOS_PDF_M140_CASES = [(g, 1.0, 140.5, 1.0) for g in (0.5, 1.25, 2.0)]
#: and at m = 1000.5
FDRLOS_PDF_M1000_CASES = [(g, 1.0, 1000.5, 1.0) for g in (0.5, 1.25, 2.0)]

#: (name, gamma, k, m, gbar) of the fdrlos cdf at real m
FDRLOS_CDF_REAL_M_CASES = [("K = 3, m = 2.5", g, 3.0, 2.5, 2.0) for g in (0.01, 1.0, 20.0)] + [
    ("m below 1", 1.0, 3.0, 0.7, 2.0),
    ("100 dB outage", 10.0 ** 0.3, 1.0, 2.5, 1e10)]

#: (name, gamma, k, m, gbar) of the fdrlos cdf by its LoS-power average alone
LOS_POWER_CDF_CASES = [("deep outage, small K, m below 1", 1e-12, k, 0.3, 1.0)
                       for k in (0.1, 0.001)] + [
    ("a step 1e-4 wide at the kink", 1.0, 1e8, 2.5, 1.0),
    ("1.1e-9 above the drlos limit", 0.001, 1.0, 1e9, 1.0),
    ("m = 1e-7: the weight right of its mode is flat in log xi up to 16", 50.0, 1.0, 1e-7, 1.0)]

#: (gamma, k, gbar) of the drlos pdf: y = K exactly, and 1e-6 and 1e-7 above
DRLOS_PDF_CASES = [(0.5, 1.0, 1.0), (0.5000005, 1.0, 1.0),
                   (5.0 / 3.0, 5.0, 2.0), (5.0 / 3.0 * (1.0 + 1e-7), 5.0, 2.0)]

#: (name, gamma, k, gbar) of the drlos cdf
DRLOS_CDF_CASES = [("chndtr gave NaN at this K", 1.0, 1e4, 1.0),
                   ("K = 0", 1e-12, 0.0, 1.0),
                   ("K = 0", 1e-100, 0.0, 1.0),
                   ("fig3 at 0 dB", 10.0 ** 0.3, 1.0, 1.0),
                   ("fig3 at 60 dB", 10.0 ** 0.3, 1.0, 1e6),
                   ("y = K", 0.5, 1.0, 1.0),
                   ("y = K", 5.0 / 3.0, 5.0, 2.0)]

#: (k, m): integer m, real m down to 0.3, a gain near 6e-295, which
#: underflows unless the integrand is scaled by its peak, one near 9e-294,
#: the fdrlos density at 0 whose unit-mean average lies below 1e-290, and
#: two at large K and m, where a rounded log(K/m) would shift the integrand
CODING_GAIN_CASES = [(1.0, 1), (1.0, 3), (1.0, 2.5), (1.0, 0.7), (1.0, 0.3),
                     (1.0, 0.01), (1.2e5, 1e4), (1.17e5, 1e6), (1e4, 1e12), (1e4, 1e6)]
#: the cases whose s = x^m quadrature cannot confirm ``hyperu``
CODING_GAIN_BY_HYPERU_ONLY = {(1.2e5, 1e4), (1.17e5, 1e6), (1e4, 1e12), (1e4, 1e6)}
#: (k, m) of ``CODING_GAIN_TINY_M``, where the gain grows like (1+K)/m
CODING_GAIN_TINY_M_CASES = [(1.0, 1e-8), (1.0, 1e-200), (1.0, 1e-300), (1e4, 1e-6)]


def gig(a, z, b):
    """Gamma(a, z, b) = int_z^inf t^(a-1) e^(-t - b/t) dt."""
    z = mp.mpf(z)
    breaks = [t for t in (1, 4, 16) if t > z]
    return mp.quad(lambda t: t ** (a - 1) * mp.exp(-t - b / t), [z] + breaks + [mp.inf])


def stirlerr(x):
    """log Gamma(x+1) - (x + 1/2) log x + x - log sqrt(2 pi)."""
    x = mp.mpf(x)
    return mp.loggamma(x + 1) - (x + mp.mpf(1) / 2) * mp.log(x) + x - mp.log(2 * mp.pi) / 2


def log_poisson_pmf(n, lam):
    n, lam = mp.mpf(n), mp.mpf(lam)
    return n * mp.log(lam) - lam - mp.loggamma(n + 1)


def log_negbin_pmf(n, m, k):
    """log NB(n; m, p) with p = m/(m+k) formed from the doubles m, k."""
    n, m, k = mp.mpf(n), mp.mpf(m), mp.mpf(k)
    return (mp.loggamma(n + m) - mp.loggamma(n + 1) - mp.loggamma(m)
            + m * mp.log(m / (m + k)) + n * mp.log(k / (m + k)))


def scaled_log_hyp1f1(a, x):
    """log(e^-x 1F1(a; 1; x))."""
    return mp.log(mp.hyp1f1(a, 1, x)) - x


def product_cdf(y):
    """1 - 2 sqrt y K1(2 sqrt y), the cdf of the product of two unit-mean
    exponentials, at 150 digits, which its cancellation needs at y = 1e-100."""
    with mp.workdps(150):
        root = mp.sqrt(mp.mpf(y))
        return 1 - 2 * root * mp.besselk(1, 2 * root)


def product_pdf(y):
    """2 K0(2 sqrt y), the density of the product of two unit-mean
    exponentials."""
    return 2 * mp.besselk(0, 2 * mp.sqrt(y))


#: the y of ``PRODUCT_CDF``
PRODUCT_CDF_CASES = [(y,) for y in (1e-100, 1e-30, 1e-12, 1e-6, 1e-3, 0.01, 0.1,
                                    0.25 - 1e-7, 0.25, 0.25 + 1e-7, 0.5, 1.0, 2.0,
                                    10.0, 100.0, 900.0)]
#: (a, x) of ``SCALED_LOG_HYP1F1_TINY_A``: the series past x = 140, and the
#: large-x expansion where its second branch e^-x x^-a / Gamma(1-a) is most
#: of the value
TINY_A_CASES = [(1e-50, 150.0), (1e-70, 150.0), (1e-70, 200.0), (1e-100, 201.0),
                (1e-100, 250.0), (1e-200, 500.0), (1e-300, 700.0)]


def at(dps, fn, *args):
    """``fn(*args)`` at ``dps`` digits."""
    with mp.workdps(dps):
        return fn(*args)


def confirmed(what, value, check, digits):
    """``value``, once ``check`` agrees with it to ``digits`` digits."""
    if abs(check - value) > abs(value) * mp.mpf(10) ** -digits:
        raise ArithmeticError(f"{what} = {value}, but the check gives {check}")
    return value


def agreed(fn, dps=DPS):
    """``fn`` at the second of the precisions ``dps``, which the first must
    confirm to 20 digits."""
    def law(*args):
        lo, hi = (at(d, fn, *args) for d in dps)
        return confirmed(f"{fn.__name__}{args}", hi, lo, 20)

    return law


def rs_pdf(t, k, m, gbar):
    k, m, gbar = mp.mpf(k), mp.mpf(m), mp.mpf(gbar)
    # at m = 1000.5 the series of 1F1(m; 1; w) needs more terms than mpmath
    # allows by default
    return (m ** m * (1 + k) / ((m + k) ** m * gbar) * mp.exp(-(1 + k) * t / gbar)
            * mp.hyp1f1(m, 1, k * (1 + k) * t / ((k + m) * gbar), maxterms=10 ** 6))


def rs_cdf(g, k, m, gbar):
    """F(g) from the 1F1 density at the working precision."""
    g = mp.mpf(g)
    # the density lives on the scale of its mean gbar; split there so
    # tanh-sinh sees one smooth piece per panel
    scale = mp.mpf(gbar)
    breaks = [t for t in (scale / 4, scale, 4 * scale, 16 * scale) if t < g]
    below = mp.quad(lambda t: rs_pdf(t, k, m, gbar), [0] + breaks + [g])
    above_breaks = [t for t in (scale, 4 * scale, 16 * scale) if t > g]
    above = mp.quad(lambda t: rs_pdf(t, k, m, gbar), [g] + above_breaks) \
        if above_breaks else mp.mpf(0)
    # past the mode the tail decays at least exponentially: add doubling
    # pieces until one is below 1e-45 of the total (at m = 1e6 the 1F1
    # series cannot reach the far nodes of an integral to infinity)
    lo = max([g] + above_breaks)
    while True:
        piece = mp.quad(lambda t: rs_pdf(t, k, m, gbar), [lo, 2 * lo])
        above += piece
        lo *= 2
        if piece < (below + above) * mp.mpf(10) ** -45:
            break
    if abs(below + above - 1) > mp.mpf(10) ** -25:
        raise ArithmeticError(f"F + S = {below + above} at {(g, k, m, gbar)}")
    return below if below < above else 1 - above


def rs_cdf_by_panels(g, k, m, gbar, dps, panels):
    """F(g) from the 1F1 density by Gauss-Legendre on ``panels`` equal
    pieces of [0, g] at ``dps`` digits."""
    with mp.workdps(dps):
        return mp.quad(lambda t: rs_pdf(t, k, m, gbar), mp.linspace(0, g, panels + 1),
                       method="gauss-legendre")


def rs_cdf_by_nb_sum(g, k, m, gbar, dps):
    """F(g) = sum_n NB(n) P(n+1, y) from n = 0 at ``dps`` digits, until the
    terms past y fall below 1e-55 of the largest."""
    with mp.workdps(dps):
        k, m = mp.mpf(k), mp.mpf(m)
        y = (1 + k) * mp.mpf(g) / gbar
        log_p, log_q = mp.log(m / (m + k)), mp.log(k / (m + k))
        total, peak, n = mp.mpf(0), mp.mpf(0), 0
        while True:
            term = (mp.exp(mp.loggamma(n + m) - mp.loggamma(n + 1) - mp.loggamma(m)
                           + m * log_p + n * log_q)
                    * mp.gammainc(n + 1, 0, y, regularized=True))
            total += term
            peak = max(peak, term)
            n += 1
            if n > y and term < peak * mp.mpf(10) ** -55:
                return total


def rs_cdf_peak(g, k, m, gbar):
    """F(g) by panels at both precisions, confirmed by the NB sum."""
    what = f"rs cdf {(g, k, m, gbar)}"
    lo, hi = rs_cdf_by_panels(g, k, m, gbar, 40, 256), rs_cdf_by_panels(g, k, m, gbar, 50, 512)
    return confirmed(what, confirmed(what, hi, lo, 20), rs_cdf_by_nb_sum(g, k, m, gbar, 50), 20)


# ---------------------------------------------------------------------------
# fluctuating double-Rayleigh LoS: the paper's closed form


def gig_table(orders, z, b):
    """{a: Gamma(a, z, b)} for the integers a in ``orders``, each the series
    sum_n (-b)^n / n! Gamma(a - n, z), summed until its terms fall below
    eps^2 times the largest (they fall factorially once n > b/z)."""
    upper, out = {}, {}
    for a in orders:
        total, peak, weight, n = mp.mpf(0), mp.mpf(0), mp.mpf(1), 0
        while True:
            if a - n not in upper:
                upper[a - n] = mp.gammainc(a - n, z)
            term = weight * upper[a - n]
            total += term
            peak = max(peak, abs(term))
            n += 1
            weight *= -b / n
            if n > b / z + 10 and abs(term) < peak * mp.eps ** 2:
                break
        out[a] = total
    return out


def fdrlos_pdf_gig(g, k, m, gbar):
    """f(g) = sum_{j<m} C(m-1,j) z^(m-j-1) (K+1)^(m-j) e^z g^(m-j-1)
    / (gbar^(m-j) (m-j-1)!) sum_{r<=j} C(j,r) (-z)^(j-r) Gamma(r+j-2m+2, z, b)."""
    g, k, gbar = mp.mpf(g), mp.mpf(k), mp.mpf(gbar)
    z, b = k / m, g * (k + 1) / gbar
    gig = gig_table(range(2 - 2 * m, 1), z, b)
    total = mp.mpf(0)
    for j in range(m):
        outer = (mp.binomial(m - 1, j) * z ** (m - j - 1) * ((k + 1) / gbar) ** (m - j)
                 * mp.exp(z) * g ** (m - j - 1) / mp.factorial(m - j - 1))
        total += outer * mp.fsum(mp.binomial(j, r) * (-z) ** (j - r) * gig[r + j - 2 * m + 2]
                                 for r in range(j + 1))
    return total


def fdrlos_cdf_gig(g, k, m, gbar):
    """F(g) = 1 - sum_{j<m} C(m-1,j) z^(m-j-1) e^z sum_{r<m-j} b^r / r!
    sum_{s<=j} C(j,s) (-z)^(j-s) Gamma(s-m-r+2, z, b)."""
    g, k, gbar = mp.mpf(g), mp.mpf(k), mp.mpf(gbar)
    z, b = k / m, g * (k + 1) / gbar
    gig = gig_table(range(3 - 2 * m, 2), z, b)
    surv = mp.mpf(0)
    for j in range(m):
        cj = mp.binomial(m - 1, j) * z ** (m - j - 1) * mp.exp(z)
        for r in range(m - j):
            surv += cj * b ** r / mp.factorial(r) * mp.fsum(
                mp.binomial(j, s) * (-z) ** (j - s) * gig[s - m - r + 2]
                for s in range(j + 1))
    return 1 - surv


def settled(law, args):
    """``law(*args)`` at the first precision of ``GIG_DPS`` that the next one
    confirms to 20 digits."""
    prev = None
    for dps in GIG_DPS:
        with mp.workdps(dps):
            value = law(*args)
        if prev is not None and abs(prev - value) <= abs(value) * mp.mpf(10) ** -20:
            return prev
        prev = value
    raise ArithmeticError(f"{law.__name__}{args}: no two precisions agree")


# ---------------------------------------------------------------------------
# fluctuating double-Rayleigh LoS: the 1F1 conditional averaged over e^(-x)


def _scatter_average(conditional, k, m, method="tanh-sinh"):
    """The average over e^(-x), split at 1, 4, 16 and at K/m times powers of
    4 below 1: at m = 1000.5 the conditional changes on every scale from
    x = K/m to 1, and Gauss-Legendre agrees with tanh-sinh to 16 digits only
    on such pieces."""
    k = mp.mpf(k)
    breaks, t = {0, 1, 4, 16}, k / m
    breaks.add(t)
    while 0 < 4 * t < 1:
        t *= 4
        breaks.add(t)
    return mp.quad(lambda x: mp.exp(-x) * conditional(k / x, (k + x) / (k + 1)),
                   sorted(breaks) + [mp.inf], method=method)


def fdrlos_pdf_1f1(g, k, m, gbar, method="tanh-sinh"):
    g, gbar = mp.mpf(g), mp.mpf(gbar)
    return _scatter_average(lambda k_x, scale: rs_pdf(g, k_x, m, gbar * scale), k, m,
                            method=method)


def fdrlos_cdf_1f1(g, k, m, gbar, method="gauss-legendre"):
    g, gbar = mp.mpf(g), mp.mpf(gbar)

    def conditional(k_x, scale):
        # split [0, g] on the scale of the conditional mean, as ``rs_cdf`` does
        mean = gbar * scale
        breaks = [t for t in (mean / 4, mean, 4 * mean, 16 * mean) if t < g]
        return mp.quad(lambda t: rs_pdf(t, k_x, m, mean), [0] + breaks + [g],
                       method=method)

    return _scatter_average(conditional, k, m, method=method)


def real_m(average, digits):
    """The law of the 1F1 ``average`` by tanh-sinh at both precisions,
    confirmed to ``digits`` by Gauss-Legendre at 30: below m = 1 the
    conditional density nears t^(m-1) at small x, where Gauss-Legendre
    converges slowly (2e-12 off in the cdf at m = 0.7) and tanh-sinh does
    not."""
    def law(*args):
        value = agreed(lambda *a: average(*a, method="tanh-sinh"))(*args)
        check = at(30, average, *args, "gauss-legendre")
        return confirmed(f"{average.__name__}{args}", value, check, digits)

    return law


def real_m_cdf(*args):
    """The cdf at real m by ``los_power_cdf`` at both precisions, confirmed
    to 11 digits by the 1F1 density integrated and averaged over e^(-x) by
    Gauss-Legendre at 30 (2e-12 off at m = 0.7, where the conditional
    density nears t^(m-1) at small x)."""
    value = agreed(los_power_cdf)(*args)
    check = at(30, fdrlos_cdf_1f1, *args, "gauss-legendre")
    return confirmed(f"fdrlos cdf {args}", value, check, 11)


def fdrlos_golden(closed, averaged):
    """The law of the closed form, confirmed to 16 digits by the 1F1 average
    at 30."""
    def law(*args):
        value = settled(closed, args)
        return confirmed(f"{closed.__name__}{args}", value, at(30, averaged, *args), 16)

    return law


def drlos_pdf(g, k, gbar):
    """(1+K)/gbar 2 int_0^inf e^{-s^2} f(y/s^2; K/s^2) ds/s with the Rician
    density f(Y; K) = e^{-(Y+K)} I0(2 sqrt(K Y)), on pieces split at
    d = |sqrt y - sqrt K| times powers of 4."""
    g, k, gbar = mp.mpf(g), mp.mpf(k), mp.mpf(gbar)
    y = (1 + k) * g / gbar
    d = abs(mp.sqrt(y) - mp.sqrt(k))
    breaks, s = {0, 1, 2, 4, 8}, d
    while 0 < s < 1:
        breaks.add(s)
        s *= 4

    def integrand(s):
        z = 2 * mp.sqrt(k * y) / s ** 2
        # e^{-z} I0(z) is scaled like scipy's i0e; the rest of the exponent
        # is -(sqrt y - sqrt K)^2 / s^2
        return (2 * mp.exp(-s ** 2 - (mp.sqrt(y) - mp.sqrt(k)) ** 2 / s ** 2)
                * mp.besseli(0, z) * mp.exp(-z) / s)

    return (1 + k) / gbar * mp.quad(integrand, sorted(breaks) + [mp.inf])


def _pieces(lo, hi, scale):
    """[lo, hi] split at lo + scale 4^j and at 1, 4, 16 and 64."""
    breaks, s = {lo, hi}, scale
    while s < hi - lo:
        breaks.add(lo + s)
        s *= 4
    return sorted(breaks | {mp.mpf(p) for p in (1, 4, 16, 64) if lo < p < hi})


def drlos_cdf(g, k, gbar):
    """The disc P(R <= a - b) plus the annulus integral (module docstring)."""
    g, k, gbar = mp.mpf(g), mp.mpf(k), mp.mpf(gbar)
    y = (1 + k) * g / gbar
    a, b = mp.sqrt(y), mp.sqrt(k)

    def density(r):
        return 4 * r * mp.besselk(0, 2 * r)

    disc = 0
    if a > b:
        r1 = a - b
        # r = r1 u scales out r1^2, below which mp.quad's absolute error
        # test would pass a disc of 1e-98 unconverged
        disc = (r1 ** 2 * mp.quad(lambda u: 4 * u * mp.besselk(0, 2 * r1 * u), [0, 1])
                if r1 < 1 else 1 - 2 * r1 * mp.besselk(1, 2 * r1))
    if b == 0:
        return disc
    lo = abs(a - b)
    top = min(a + b, lo + 80)      # past it K0(2 r) is below e^-160 of its value at lo

    def annulus(r):
        c = (y - k - r * r) / (2 * b * r)
        return density(r) * mp.acos(max(-1, min(1, -c))) / mp.pi

    return disc + mp.quad(annulus, _pieces(lo, top, max(lo, mp.mpf(10) ** -30)))


def drlos_pdf_closed(g, k, gbar):
    """(1+K)/gbar 2 I0(2 sqrt a) K0(2 sqrt b), a and b the smaller and the
    larger of y and K: Graf's addition theorem averages K0 over the phase."""
    g, k, gbar = mp.mpf(g), mp.mpf(k), mp.mpf(gbar)
    y = (1 + k) * g / gbar
    return (1 + k) / gbar * 2 * (mp.besseli(0, 2 * mp.sqrt(min(y, k)))
                                 * mp.besselk(0, 2 * mp.sqrt(max(y, k))))


def drlos_cdf_closed(g, k, gbar):
    """2 sqrt y I1(2 sqrt y) K0(2 sqrt K) up to y = K, and
    1 - 2 sqrt y I0(2 sqrt K) K1(2 sqrt y) past it: the integral of
    ``drlos_pdf_closed``, by the Wronskian x (I0 K1 + I1 K0)(x) = 1."""
    g, k, gbar = mp.mpf(g), mp.mpf(k), mp.mpf(gbar)
    y = (1 + k) * g / gbar
    a, b = 2 * mp.sqrt(y), 2 * mp.sqrt(k)
    if y <= k:
        return a * mp.besseli(1, a) * mp.besselk(0, b)
    return 1 - a * mp.besseli(0, b) * mp.besselk(1, a)


def bessel_k0(x):
    """K0(x) at the working precision, some ten times faster than
    ``mp.besselk``: the series -(log(x/2) + gamma_E) I0(x) +
    sum_k H_k (x^2/4)^k / k!^2 (DLMF 10.31.2), whose terms near e^x cancel
    to e^-x and so take 0.87 x more digits, up to where the asymptotic
    expansion (DLMF 10.40.2), whose smallest term is near e^-2x, reaches
    the working precision with 10 digits to spare."""
    x = mp.mpf(x)
    if x < 1.2 * (mp.mp.dps + 10):
        with mp.extradps(int(x) + 10):
            q = x * x / 4
            term, harmonic, i0, rest, n = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(0), 0
            while True:
                i0 += term
                rest += harmonic * term
                n += 1
                harmonic += mp.mpf(1) / n
                term *= q / (n * n)
                if n > x and term * harmonic < mp.eps * i0:
                    return -(mp.log(x / 2) + mp.euler) * i0 + rest
    total, term, n = mp.mpf(1), mp.mpf(1), 0
    while True:
        n += 1
        term *= -(2 * n - 1) ** 2 / (8 * n * x)
        if abs(term) < mp.eps * total:
            return mp.sqrt(mp.pi / (2 * x)) * mp.exp(-x) * total
        total += term


def los_power_cdf(g, k, m, gbar):
    """The fdrlos cdf as the drlos cdf averaged over the LoS power xi ~
    Gamma(m, 1/m), int g_m(xi) D(y; K xi) dxi, with D the closed form of
    ``drlos_cdf_closed`` and its factors in y taken once: the module
    docstring's xi average, by tanh-sinh in s = log xi, where the weight is
    exp(log(m/2 pi)/2 - stirlerr(m) - m (e^s - 1 - s)), with
    e^s - 1 - s = s^2 1F1(1; 3; s) / 2, from s = -(1 + 300/m) to
    log(1 + 300/m + 40/sqrt(m)) + 1, past both of which the weight lies below
    e^-250 (a doubly exponential tail in mpmath would not end).  Split at the
    mode 0 and 1, 4 and 16 widths 1/sqrt(m) about it, below m = 1 at -1/m,
    -4/m and -16/m, at the peak p = -2 asinh(sqrt(K)/(2m)) of g_m times
    K0(2 sqrt(K xi)), and at the kink s* = log(y/K) and 4^j steps
    1/sqrt(y) wide on both sides of it out to 1.  The integrand is scaled by
    a first estimate of the integral, since ``mp.quad`` stops on an absolute
    error."""
    g, k, m, gbar = (mp.mpf(v) for v in (g, k, m, gbar))
    y = (1 + k) * g / gbar
    kink = mp.log(y / k)
    width = 1 / mp.sqrt(m)
    # Stirling's remainder at m cancels about log10(m) digits
    with mp.extradps(int(mp.log10(m + 10))):
        log_norm = mp.log(m / (2 * mp.pi)) / 2 - stirlerr(m)
    breaks = {mp.mpf(0), kink, -2 * mp.asinh(mp.sqrt(k) / (2 * m))}
    breaks |= {c * j * width for c in (-1, 1) for j in (1, 4, 16)}
    if m < 1:
        breaks |= {-j / m for j in (1, 4, 16)}
    step = 1 / mp.sqrt(y)
    while step < 1:
        breaks |= {kink - step, kink + step}
        step *= 4
    a = 2 * mp.sqrt(y)
    up, down = a * mp.besseli(1, a), a * mp.besselk(1, a)

    def integrand(s):
        weight = mp.exp(log_norm - m * s * s * mp.hyp1f1(1, 3, s) / 2)
        b = 2 * mp.sqrt(k * mp.exp(s))
        return weight * (up * bessel_k0(b) if s >= kink else 1 - down * mp.besseli(0, b))

    lo, hi = -(1 + 300 / m), mp.log(1 + 300 / m + 40 * width) + 1
    points = [lo] + sorted(b for b in breaks if lo < b < hi) + [hi]
    # mp.quad stops on an absolute error: scaled by a first estimate, a value
    # near 1e-255 is not done at its first step
    scale = mp.quad(integrand, points) or 1
    return scale * mp.quad(lambda s: integrand(s) / scale, points)


def drlos_golden(primary, closed):
    """The law of ``primary`` at both precisions, confirmed to 20 digits by
    ``closed`` at 50, or at 150 where K = 0, as the product law's
    cancellation needs at y = 1e-100."""
    def law(g, k, gbar):
        value = agreed(primary)(g, k, gbar)
        check = at(150 if k == 0 else 50, closed, g, k, gbar)
        return confirmed(f"{primary.__name__}{(g, k, gbar)}", value, check, 20)

    return law


def gain_by_hyperu(k, m):
    """(1+K) Gamma(m) U(m, 1, K/m) at the working precision."""
    k = mp.mpf(k)
    return (1 + k) * mp.gamma(m) * mp.hyperu(m, 1, k / m)


def coding_gain(k, m):
    if (k, m) in CODING_GAIN_BY_HYPERU_ONLY:
        return agreed(gain_by_hyperu)(k, m)
    with mp.workdps(40):
        by_u = gain_by_hyperu(k, m)
        k = mp.mpf(k)
        z = k / m
        r = 1 / mp.mpf(m)
        by_quad = (1 + k) / m * mp.quad(lambda s: mp.exp(-s ** r) * (s ** r + z) ** -m,
                                        sorted([0, z ** m, 1]) + [mp.inf])
        return confirmed(f"coding gain {(k, m)}", by_u, by_quad, 25)


def gain_at_tiny_k(k, m):
    """``gain_by_hyperu`` at both precisions, confirmed to 25 digits by its
    small-K form (1+K) (log(m/K) - psi(m) - 2 gamma_E) (DLMF 13.2(iii)),
    off by about (K/m) log(m/K) relative."""
    value = agreed(gain_by_hyperu)(k, m)
    with mp.workdps(50):
        k = mp.mpf(k)
        check = (1 + k) * (mp.log(m / k) - mp.digamma(m) - 2 * mp.euler)
    return confirmed(f"coding gain {(k, m)}", value, check, 25)


#: (title, law, cases) of every table the script prints, in order, and the
#: comments between them: a list of argument tuples makes a dict of
#: ``law(*args)``, a case that starts with a name carries it as a comment,
#: and a single argument tuple makes a single value
GOLDENS = [
    ("RS_CDF_GOLDENS", agreed(rs_cdf), CASES),
    ("RS_CDF_WIDE_GOLDENS", agreed(rs_cdf), WIDE_CASES),
    ("RS_CDF_PEAK_GOLDENS", rs_cdf_peak, PEAK_CASES),
    ("RS_CDF_2_4_2_15", agreed(rs_cdf), (2.0, 4.0, 2, 1.5)),
    ("RS_PDF_GOLDENS", agreed(rs_pdf), RS_PDF_CASES),
    ("FDRLOS_PDF_GOLDENS", fdrlos_golden(fdrlos_pdf_gig, fdrlos_pdf_1f1), FDRLOS_PDF_CASES),
    ("FDRLOS_CDF_GOLDENS", fdrlos_golden(fdrlos_cdf_gig, fdrlos_cdf_1f1), FDRLOS_CDF_CASES),
    ("FDRLOS_PDF_REAL_M_GOLDENS", real_m(fdrlos_pdf_1f1, 16), FDRLOS_PDF_REAL_M_CASES),
    ("FDRLOS_PDF_M140_GOLDENS", real_m(fdrlos_pdf_1f1, 16), FDRLOS_PDF_M140_CASES),
    ("FDRLOS_PDF_M1000_GOLDENS", real_m(fdrlos_pdf_1f1, 16), FDRLOS_PDF_M1000_CASES),
    ("FDRLOS_CDF_REAL_M_GOLDENS", real_m_cdf, FDRLOS_CDF_REAL_M_CASES),
    ("LOS_POWER_CDF_GOLDENS", agreed(los_power_cdf), LOS_POWER_CDF_CASES),
    ("DRLOS_PDF_GOLDENS", drlos_golden(drlos_pdf, drlos_pdf_closed), DRLOS_PDF_CASES),
    ("DRLOS_CDF_GOLDENS", drlos_golden(drlos_cdf, drlos_cdf_closed), DRLOS_CDF_CASES),
    ("CODING_GAIN_GOLDENS", coding_gain, CODING_GAIN_CASES),
    ("GAIN_TINY_K", gain_at_tiny_k, (1e-30, 5)),
    ("PRODUCT_CDF", product_cdf, PRODUCT_CDF_CASES),
    "# tests/test_specfun.py",
    ("GIG_NEG2_02_15", agreed(gig), (-2.0, 0.2, 1.5)),
    ("HYP1F1_3_1_07", agreed(mp.hyp1f1), (3.0, 1.0, 0.7)),
    ("U_2_1_05", agreed(mp.hyperu), (2.0, 1.0, 0.5)),
    ("E1", agreed(mp.e1), [(0.1,), (1.0,), (10.0,)]),
    ("UPPER_GAMMA", agreed(mp.gammainc),
     [(a, z) for a in (-2.0, -0.5, 1.0, 3.5) for z in (0.1, 1.0, 5.0)]),
    ("HYP1F1_LARGE", agreed(lambda a, x: mp.hyp1f1(a, 1, x)),
     [(2.5, 80.0), (2.5, 300.0), (0.5, 120.0), (3.0, 600.0), (5.0, 100.0)]),
    ("SCALED_LOG_HYP1F1", agreed(scaled_log_hyp1f1),
     [(500.0, 50.0), (2.5, 5000.0), (30.5, 300.0), (30.0, 300.0),
      (100.5, 9000.0), (140.5, 1.9e4), (400.5, 1e5), (1000.5, 5e5),
      (10000.5, 5e7)]),
    ("STIRLERR", agreed(stirlerr),
     [(0.3,), (1.0,), (2.5,), (9.75,), (10.0,), (33.3,), (1e6,)]),
    ("LOG_POISSON_PMF", agreed(log_poisson_pmf),
     [(0.0, 3.0), (7.0, 1e-12), (40.0, 55.0), (10050.0, 1e4), (1e6, 1000000.5),
      (1012000.0, 1e6)]),
    ("LOG_NEGBIN_PMF", agreed(log_negbin_pmf),
     [(0.0, 2.5, 3.0), (3.0, 2.5, 3.0), (40.0, 0.7, 30.0), (1e4, 2.5, 1e4),
      (1e6, 2.5, 1e6), (1000.0, 1e6, 1000.0), (5.0, 1e15, 3.0)]),
    ("SCALED_LOG_HYP1F1_TINY_A", agreed(scaled_log_hyp1f1, TINY_A_DPS), TINY_A_CASES),
    "# tests/test_frontier.py",
    ("PDF_M_TO_0", agreed(lambda y: 2 * product_pdf(y)), (2,)),
    ("CDF_M_TO_0", agreed(product_cdf), (2,)),
    ("CDF_K0_AT_1E_10", product_cdf, (1e-10,)),
    ("CDF_K0_AT_1E_11", product_cdf, (1e-11,)),
    ("PDF_K0_AT_1E_100", agreed(product_pdf), (1e-100,)),
    ("GAIN_M_TO_INF", agreed(lambda k: (1 + k) * product_pdf(k)), (1,)),
    ("CODING_GAIN_TINY_M", agreed(gain_by_hyperu), CODING_GAIN_TINY_M_CASES),
]


def _is_golden(node):
    """A float literal written to ``MIN_DIGITS`` digits or more."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    if not (isinstance(node, ast.Constant) and isinstance(node.value, float)):
        return False
    mantissa = repr(node.value).split("e")[0].replace(".", "").lstrip("0")
    return len(mantissa) >= MIN_DIGITS


def frozen_tables(test_files=FROZEN_IN):
    """The module-level names of ``test_files`` (in ``tests/``) bound to a
    golden, or to a dict of them, and their values."""
    tables = {}
    for test_file in test_files:
        for stmt in ast.parse((TESTS / test_file).read_text()).body:
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)):
                continue
            value = stmt.value
            if _is_golden(value) or (isinstance(value, ast.Dict)
                                     and any(_is_golden(v) for v in value.values)):
                tables[stmt.targets[0].id] = ast.literal_eval(value)
    return tables


def table(title, law, cases):
    """Print ``title = {key: law(*args), ...}``, keyed by the arguments, or by
    the argument alone where there is one; or ``title = law(*cases)`` where
    ``cases`` is one argument tuple.  Return what it printed."""
    if isinstance(cases, tuple):
        value = float(law(*cases))
        print(f"{title} = {value!r}")
        return value
    values = {}
    print(f"{title} = {{")
    for case in cases:
        name, args = (case[0], case[1:]) if isinstance(case[0], str) else (None, case)
        key = args if len(args) > 1 else args[0]
        values[key] = float(law(*args))
        note = f"  # {name}" if name else ""
        print(f"    {key!r}: {values[key]!r},{note}")
    print("}")
    return values


def differences(printed, frozen):
    """(key, printed value, frozen value) wherever a printed table and its
    frozen copy differ: a key in one of them only (its value there None), or
    values unequal as doubles.  A single value has the key None."""
    printed, frozen = (t if isinstance(t, dict) else {None: t} for t in (printed, frozen))
    keys = list(printed) + [key for key in frozen if key not in printed]
    return [(key, printed.get(key), frozen.get(key)) for key in keys
            if key not in printed or key not in frozen
            or float(printed[key]) != float(frozen[key])]


def main(titles):
    """Print every table of ``GOLDENS`` and the comments between them, or,
    where ``titles`` names some, those tables alone; exit 1 after the last if
    any differs from its frozen copy, or has none."""
    known = [entry[0] for entry in GOLDENS if not isinstance(entry, str)]
    unknown = [title for title in titles if title not in known]
    if unknown:
        sys.exit(f"usage: python3 scripts/make_goldens.py [TITLE ...]\n"
                 f"unknown titles {unknown}; the tables are {known}")
    frozen = frozen_tables()
    failed = False
    for entry in GOLDENS:
        if isinstance(entry, str):
            if not titles:
                print(entry)
        elif not titles or entry[0] in titles:
            # a table that no test freezes has every key missing there
            for key, value, copy in differences(table(*entry), frozen.get(entry[0], {})):
                failed = True
                at = "" if key is None else f" at {key!r}"
                print(f"{entry[0]}{at}: prints {value!r}, frozen {copy!r}"
                      f" (mpmath {mp.__version__})", file=sys.stderr)
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv[1:])
