"""Statistics of the fading models: every fdrlos law is one scatter average.

The fluctuating double-Rayleigh LoS SNR law is built by conditioning on the
squared magnitude x of the second scatter factor: given x the SNR is Rician
shadowed with K_x = K/x and mean gamma_bar_x = gamma_bar (K+x)/(K+1), and the
unconditional law follows by averaging against the unit-mean exponential
weight e^{-x}: one vector quadrature over x per chunk of SNR values
(``_scatter_average``).

Every law takes every finite m > 0, and the route follows m
(``_conditional``, the one place that decides): at integer m up to 100 both
the cdf and the density are the finite Binomial mixture of m Gamma laws
(``rs_cdf`` and its density ``rs_pdf``), at every other m the cdf is the
negative-binomial series of Erlang cdfs (``_nb_series``: rows of terms, each
from one ``gammainc`` and two log-mass anchors, by running products and
positive sums) and the density the 1F1 form through the scaled log 1F1.
``fdrlos_cdf_oracle`` always averages the series, so only at integer m up to
100 is it an independent cross-check; ``fdrlos_pdf_oracle`` is
``fdrlos_pdf``.  All these conditionals are positive sums, so deep-outage
values keep their relative accuracy.  This is the paper's
integral before it substitutes t = K/m + x and expands (t - K/m)^j into
generalized incomplete gammas, whose terms cancel; ``scripts/make_goldens.py``
keeps that expansion as an mpmath cross-check.  K = 0 (no LoS; the law no
longer depends on m) is an ordinary input.

The density at g = 0 is the high-SNR outage slope: gbar f(0) is the coding
gain a(K, m) = (1+K) Gamma(m) U(m, 1, K/m), the scatter average of
(1 + K/(m x))^(-m) / x, so ``fdrlos_pdf`` takes it from ``coding_gain`` and
runs no quadrature there.  As m -> inf it tends to (1+K) 2 K0(2 sqrt K),
gbar times the drlos density at 0, which ``drlos_pdf_oracle`` takes in this
closed form; every cdf is 0 there, so no law averages a value at g = 0.

Every SNR law, the Rician shadowed, Rician and drlos ones too, passes one
boundary, ``_law``: it checks a nonnegative SNR and the one domain of
``models.check_params`` (finite K >= 0, m > 0 and gamma_bar > 0) once, at
entry and before any quadrature, broadcasts the SNR against an array K or
gamma_bar, and gives +inf and, where the law has one, g = 0 their limits;
the rest goes to the law's kernel.  ``coding_gain`` needs K > 0.  The
conditionals a quadrature averages run no checks.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import (betainc, betaincc, chndtr, gammainc, i0e, k0,
                           xlogy)

from .models import FadingParams, check_params
from .specfun import (AccuracyError, DomainError, adaptive_quad_vec,
                      check_rel_tol, gamma_tricomi_u, log_kummer_1f1,
                      log_negbin_pmf, log_poisson_pmf)

_GAMMA_CHUNK = 32
_ROW = 64                 # Rician shadowed series terms per anchored row
_ROW_BLOCK = 128          # rows per numpy pass: 8192 terms
_ANCHOR_BLOCK = 4096      # rows per pass of the log-mass kernels, which cost
                          # about 0.4 ms a call whatever its size
_MAX_WINDOW = 2 ** 20     # longest series window one cdf value may sum
_MAX_M = 1e15             # largest m the series and the 1F1 density are checked at
_MIXTURE_MAX_M = 100      # largest integer m of the Binomial mixture: its m orders
                          # cost more than the real-m kernels past about 100


class UnderflowWarning(RuntimeWarning):
    """A density/probability underflowed below 1e-300 and was reported as 0."""


def _law(kernel, at_inf, gamma, k, m=1.0, gbar=1.0, at_zero=None):
    """An SNR law at (K, m, gbar): the one boundary every public law passes.

    It checks the SNR (nonnegative, not NaN) and ``check_params`` once, and
    broadcasts gamma, K and gbar.  +inf takes the limit ``at_inf`` (0 for a
    density, 1 for a cdf), and where ``at_zero(k, gbar)`` is given, 0 takes
    the law's value there, each K and gbar on its own.  The other values go
    to ``kernel(g, k, gbar)`` as flat arrays in one call, made even when
    none are left, so that a quadrature still checks its ``rel_tol``; a
    scalar K or gbar stays a scalar, so the conditionals take K_x and gbar_x
    as (nx, 1) columns.
    Returns a float for scalar input, else the broadcast array.  The
    kernels, and the conditionals a quadrature averages, run no checks.
    """
    gamma = np.asarray(gamma, dtype=float)
    if not np.all(gamma >= 0):
        raise DomainError("gamma must be nonnegative and not NaN")
    k, gbar = check_params(k, m, gbar)
    g, k_b, gbar_b = np.broadcast_arrays(gamma, k, gbar)
    out = np.full(g.shape, float(at_inf))
    zero = (g == 0) & (at_zero is not None)
    todo = (g < np.inf) & ~zero
    out[todo] = kernel(g[todo], k_b[todo] if k.ndim else k,
                       gbar_b[todo] if gbar.ndim else gbar)
    if zero.any():
        out[zero] = at_zero(k_b[zero], gbar_b[zero])
    return float(out) if out.ndim == 0 else out


def _scatter_average(conditional, g, k, gbar, rel_tol):
    """Average a conditional law over the exponential scatter weight e^{-x},
    to relative accuracy ``rel_tol`` in every value, at the flat SNR array
    ``g`` with K and gbar scalars or flat arrays alongside it (``_law``).

    Each chunk of ``_GAMMA_CHUNK`` values is one vector quadrature:
    ``conditional(g, k_x, gbar_x)`` receives the chunk as a (1, ng) row and
    K_x = K/x, gbar_x = gbar (K+x)/(K+1) as (nx, 1) columns, or as (nx, ng)
    arrays where K or gbar are arrays chunked with the SNR, and returns the
    (nx, ng) conditional values.  ``rel_tol`` is checked first, since an
    empty ``g`` runs no quadrature.

    A chunk whose subdivision budget runs out (an AccuracyError with an error
    estimate) is averaged again as two halves with a budget each, so only a
    single value refuses; a conditional's own refusal propagates at once.
    """
    check_rel_tol(rel_tol)
    out = np.empty(g.shape)

    def average(sel):
        g_c = g[sel][None, :]
        k_c = k[sel] if np.ndim(k) else k
        gbar_c = gbar[sel] if np.ndim(gbar) else gbar

        def f(x):
            x = x[:, None]
            gbar_x = gbar_c * (k_c + x) / (k_c + 1.0)
            return conditional(g_c, k_c / x, gbar_x) * np.exp(-x)

        try:
            out[sel], _ = adaptive_quad_vec(f, rel_tol=rel_tol)
        except AccuracyError as exc:
            if exc.err_estimate is None or sel.size == 1:
                raise
            average(sel[:sel.size // 2])
            average(sel[sel.size // 2:])

    for lo in range(0, g.size, _GAMMA_CHUNK):
        average(np.arange(lo, min(lo + _GAMMA_CHUNK, g.size)))
    return out


# ---------------------------------------------------------------------------
# curve container


@dataclass
class Curve:
    """A sampled function (grid, values); a ``quantity`` of "pdf", "cdf" or
    "op" range-checks the values."""

    abscissa: np.ndarray
    ordinate: np.ndarray
    quantity: str | None = None

    def __post_init__(self):
        self.abscissa = np.asarray(self.abscissa, dtype=float)
        self.ordinate = np.asarray(self.ordinate, dtype=float)
        if self.abscissa.shape != self.ordinate.shape or self.abscissa.ndim != 1:
            raise DomainError("abscissa and ordinate must be 1-d and equal length")
        if np.isnan(self.abscissa).any() or np.isnan(self.ordinate).any():
            raise DomainError("abscissa and ordinate must not contain NaN")
        if np.any(np.diff(self.abscissa) <= 0):
            raise DomainError("abscissa must be strictly increasing")
        if self.quantity == "pdf" and np.any(self.ordinate < 0):
            raise DomainError("densities must be nonnegative")
        if self.quantity in ("cdf", "op") and (np.any(self.ordinate < 0)
                                               or np.any(self.ordinate > 1)):
            raise DomainError("probabilities must lie in [0, 1]")

    def write_csv(self, target) -> None:
        """Write `abscissa,value` rows with 17 significant digits (lossless)
        to a path or to an open text stream, which is left open."""
        with (contextlib.nullcontext(target) if hasattr(target, "write")
              else open(target, "w", encoding="utf-8", newline="\n")) as fh:
            fh.write("abscissa,value\n")
            for x, y in zip(self.abscissa, self.ordinate):
                fh.write(f"{x:.17g},{y:.17g}\n")


# ---------------------------------------------------------------------------
# Rician shadowed building blocks


def rs_pdf(gamma, k_x, m, gbar_x):
    """SNR density of the Rician shadowed model for every m > 0: with
    p = m/(m+K_x), u = (1+K_x) p g / gbar_x and w = (1-p)(1+K_x) g / gbar_x,

        f(g) = p^m (1+K_x) / gbar_x * e^{-u} * e^{-w} 1F1(m; 1; w),

    at integer m up to 100 the density of the Binomial mixture that
    ``rs_cdf`` sums, at every other m through the scaled log 1F1 (to
    m = 1e15; past it AccuracyError): no route forms e^{+w}.  Broadcasts over
    all three arrays.
    """
    # the route is picked after ``_law`` has checked m, which may be an array
    return _law(lambda g, k, gbar: _conditional(m, "pdf")(g, k, gbar),
                0.0, gamma, k_x, m, gbar_x)


def _kummer_density(gamma, k_x, m, gbar_x):
    """``rs_pdf`` through the 1F1 on checked arguments; p^m as
    exp(-m log1p(K_x/m)), which keeps its digits at huge m."""
    if m > _MAX_M:
        raise AccuracyError(f"the Rician shadowed density needs m <= {_MAX_M:g}, got {m:g}")
    y, p, q = gamma * (1.0 + k_x) / gbar_x, m / (m + k_x), k_x / (m + k_x)
    return np.exp(-m * np.log1p(k_x / m) + np.log1p(k_x) - np.log(gbar_x) - p * y
                  + log_kummer_1f1(m, q * y))


def _mixture_density(gamma, k_x, m, gbar_x):
    """``rs_pdf`` at integer m on checked arguments: with r = u/g,
    r sum_{n<=m} Bin(m-n; m-1, p) u^(n-1) e^{-u} / (n-1)!, one positive sum.
    With z = (1-p) u / p the log of each term is
    (m-1) log p - u + log C(m-1, n-1) - log (n-1)! + (n-1) log z: one
    product, two sums and one ``exp`` an order, from n = m down."""
    p, q = m / (m + k_x), k_x / (m + k_x)
    r = (1.0 + k_x) * p / gbar_x
    u = gamma * r
    with np.errstate(divide="ignore"):
        # z = 0 (K_x = 0 or g = 0) leaves the n = 1 term: a slope of -max/m
        # keeps (n-1) slope finite, 0 at n = 1, and sends the rest to exp(-huge)
        slope = np.maximum(np.log(q * u / p), -np.finfo(float).max / m)
    base = xlogy(m - 1.0, p) - u
    total = 0.0
    for n in range(m, 0, -1):
        log_c = math.lgamma(m) - math.lgamma(m - n + 1) - 2.0 * math.lgamma(n)
        total = total + np.exp(slope * (n - 1.0) + log_c + base)
    return r * total


def rs_cdf(gamma, k_x, m, gbar_x):
    """Rician shadowed SNR cdf for every m > 0, routed as ``fdrlos_cdf`` routes
    it (``_conditional``): at integer m up to 100 the finite Binomial mixture of
    Gamma laws (the integer-m case of the Poisson-Gamma mixture of Abdi et al.,
    IEEE TWC 2003), at every other m the negative-binomial series ``_nb_series``.

    With W = gbar_x/(1+K_x) and L = 1 + K_x/m the MGF is
    (1 - sW)^(m-1) / (1 - sWL)^m, and 1 - sW = (1 - sWL)/L + (1 - 1/L) gives

        F(g) = sum_{j<m} Bin(j; m-1, 1/L) P(m-j, g/(W L)),

    m positive terms with log-form weights; K_x = 0 puts all the weight on
    j = m-1 (an exponential law).  Broadcasts over all three arrays.
    """
    return _law(lambda g, k, gbar: _conditional(m, "cdf")(g, k, gbar),
                1.0, gamma, k_x, m, gbar_x)


#: the old integer-m name, which ``perfbench/tracing.py`` still wraps
rs_cdf_integer = rs_cdf


def _binomial_mixture(gamma, k_x, m, gbar_x):
    """The mixture of ``rs_cdf`` on checked arguments, m an int.  One
    ``gammainc`` gives P(m, u); the lower orders follow, from n = m down, as
    P(n, u) = P(n+1, u) + u^n e^{-u} / n!: one ``exp`` an order."""
    p, q = m / (m + k_x), k_x / (m + k_x)
    u = gamma * (1.0 + k_x) * p / gbar_x
    with np.errstate(divide="ignore"):
        log_u = np.log(u)
    big_p = gammainc(m, u)
    out = np.zeros(big_p.shape)
    for n in range(m, 0, -1):
        if n < m:
            big_p = big_p + np.exp(n * log_u - u - math.lgamma(n + 1.0))
        log_c = math.lgamma(m) - math.lgamma(m - n + 1) - math.lgamma(n)   # C(m-1, m-n)
        out += np.exp(log_c + xlogy(m - n, p) + xlogy(n - 1, q)) * big_p
    return np.minimum(out, 1.0)


def _nb_series(gamma, k_x, m, gbar_x):
    """Rician shadowed SNR cdf for any real m > 0 on checked arguments: a
    positive series.

    Rician shadowed is a Poisson-Gamma mixture (Abdi et al., IEEE TWC 2003): with
    y = g (1+K_x)/gbar_x and p = m/(m+K_x), F = sum_n NB(n) P(n+1, y), where
    NB(n) = C(n+m-1, n) p^m (1-p)^n and P is the regularized lower incomplete gamma.
    Only n in [lo, hi] = y -/+ (12 sqrt(y) + 30) is summed.  Below it F takes the NB
    mass I_p(m, lo), too large by at most I_p(m, lo) Q(lo, y); above it at most
    P(hi+1, y) is dropped: Poisson tails 12 standard deviations (or 30 terms) from
    y, below 2e-33.  Where I_p(m, lo) P(lo, y) <= F <= I_p(m, hi+1) + P(hi+1, y) is
    within rounding (huge y) no window is built.  Windows over ``_MAX_WINDOW`` terms
    raise AccuracyError.  I_p(m, lo) is taken as 1 - I_{1-p}(lo, m) where p > 1/2,
    so that huge m loses no digits to the rounding of p near 1.

    The window is cut into rows of ``_ROW`` terms from lo up; the last row runs
    past hi, into terms that only shrink the dropped tail.  Each row has one
    anchor of each kind: P(n_t+1, y) from ``gammainc`` at its top n_t, and
    NB(n) and y^n e^-y / n! in Loader's deviance form (``specfun``) where the
    terms peak.  The other masses follow from the ratios
    NB(n)/NB(n-1) = (n-1+m)(1-p)/n and y/n as running products from the
    anchor, and P(n+1, y) = P(n+2, y) + y^(n+1) e^-y/(n+1)! goes down the row:
    positive sums only.  m > 1e15 raises AccuracyError.  Each value is summed
    alone in a fixed order, terms within a row and then rows in increasing n,
    so it does not depend on what it is broadcast with or on the block size.
    """
    if m > _MAX_M:
        raise AccuracyError(f"the Rician shadowed series needs m <= {_MAX_M:g}, got {m:g}")
    # past 1e300 F is 1 unless the NB mass is there too, which the cap refuses
    y, k_x = np.broadcast_arrays(np.minimum(gamma * (1.0 + k_x) / gbar_x, 1e300), k_x)
    shape, y, k_x = y.shape, y.ravel(), k_x.ravel()
    p, q = m / (m + k_x), k_x / (m + k_x)
    # the 1e-12 y term keeps lo below y where sqrt(y) < ulp(y)
    half = 12.0 * np.sqrt(y) + 30.0 + 1e-12 * y
    lo, hi = np.floor(np.maximum(y - half, 0.0)), np.ceil(y + half)
    below, out = np.zeros(y.size), np.zeros(y.size)
    some = lo > 0
    below[some] = _nb_mass_below(lo[some], m, p[some], q[some])
    out[some] = below[some] * gammainc(lo[some], y[some])
    # the bracket needs I_p(m, hi+1) to absolute rounding only: betainc,
    # at a tenth of the cost of betaincc.  Where lo = 0 it could only skip a
    # window whose sum underflows, so it is left out there
    upper = betainc(m, hi[some] + 1.0, p[some]) + gammainc(hi[some] + 1.0, y[some])
    within = np.zeros(y.size, dtype=bool)
    within[some] = upper - out[some] <= np.finfo(float).eps * out[some]
    todo = np.flatnonzero(~within)
    count = np.where(q > 0.0, hi - lo + 1.0, 1.0)[todo]     # K_x = 0: all mass at n = 0
    if np.any(count > _MAX_WINDOW):
        raise AccuracyError(f"Rician shadowed series window of {count.max():.3g} terms")
    # the anchors sit where the terms NB(n) P(n+1, y) peak: a running product
    # is off by one rounding per step from its anchor.  The terms follow NB
    # up to its mode, and past y fall with the ratio
    # (n-1+m)(1-p)/n * y/(n+1), which is 1 at the root of
    # n^2 + (1 - (1-p) y) n - (m-1)(1-p) y; the Poisson masses that P sums
    # there lie at the peak + 1, or at the Poisson mode y
    y, p, q = y[todo], p[todo], q[todo]     # from here on the values to sum
    mq, lin = max(m - 1.0, 0.0) * q, 1.0 - q * y
    past_y = np.floor(0.5 * (np.sqrt(lin * lin + 4.0 * mq * y) - lin))
    peak = np.minimum(np.floor(mq / p), np.maximum(np.floor(y), past_y))
    # one entry per row: its value (in todo) and its bottom n
    rows = np.ceil(count / _ROW).astype(np.int64)
    e_row = np.repeat(np.arange(todo.size), rows)
    b_row = lo[todo][e_row] + _ROW * (np.arange(e_row.size) - (np.cumsum(rows) - rows)[e_row])
    steps = np.arange(_ROW)
    sums = np.zeros(todo.size)
    for chunk in range(0, e_row.size, _ANCHOR_BLOCK):
        e_c, b_c = e_row[chunk:chunk + _ANCHOR_BLOCK], b_row[chunk:chunk + _ANCHOR_BLOCK]
        y_c, q_c, peak_c = y[e_c], q[e_c], peak[e_c]
        peak_pois = np.clip(np.maximum(np.floor(y_c), peak_c + 1.0) - b_c, 0, _ROW - 1)
        peak_nb = np.clip(peak_c - b_c, 0, _ROW - 1)
        pois_at_peak = np.exp(log_poisson_pmf(b_c + peak_pois, y_c))
        nb_at_peak = np.exp(log_negbin_pmf(b_c + peak_nb, m, p[e_c], q_c))
        top_p = gammainc(b_c + _ROW, y_c)
        peak_pois, peak_nb = peak_pois.astype(np.intp), peak_nb.astype(np.intp)
        for blk in range(0, e_c.size, _ROW_BLOCK):
            r = slice(blk, blk + _ROW_BLOCK)
            e, at = e_c[r], np.arange(min(_ROW_BLOCK, e_c.size - blk))
            n = b_c[r, None] + steps
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                # ratios of each mass to the one below it; column 0 is the bottom
                pois = y_c[r, None] / n
                nb = (n + (m - 1.0)) * q_c[r, None] / n
                pois[:, 0] = nb[:, 0] = 1.0
                pois = np.cumprod(pois, axis=1)
                # P(n+1, y) from the top down: P(n_t+1) first, then pois(n_t), ...
                big_p = np.empty_like(pois)
                big_p[:, 0] = top_p[r]
                np.multiply(pois[:, :0:-1], (pois_at_peak[r] / pois[at, peak_pois[r]])[:, None],
                            out=big_p[:, 1:])
                big_p = np.cumsum(big_p, axis=1)[:, ::-1]
                nb = np.cumprod(nb, axis=1)
                row_sums = nb_at_peak[r] / nb[at, peak_nb[r]] * np.einsum("ij,ij->i", nb, big_p)
            # a running product leaves double range only where m (1-p) > 5e4 and
            # n lies below 1e-4 of the NB mean (NB ratios near 6e4, or Poisson
            # ratios y/n below 1e-5 up to a term peak far above y): every mass
            # of such a row underflows, and inf * 0 there is 0
            row_sums[~np.isfinite(row_sums)] = 0.0
            # bincount adds in order; the carried partial sum rides on the first row
            row_sums[0] += sums[e[0]]
            sums[e[0]:e[-1] + 1] = np.bincount(e - e[0], row_sums)
    out[todo] = below[todo] + sums
    return np.minimum(out, 1.0).reshape(shape)


def _nb_mass_below(n, m, p, q):
    """The NB mass below n, I_p(m, n), to relative accuracy from the smaller
    of p and q = 1-p, so that the one near 1 (q at huge K_x, p at huge m)
    loses no digits: where q < p as 1 - I_q(n, m) by ``betaincc``."""
    out = np.empty(n.shape)
    by_p = p <= q
    out[by_p] = betainc(m, n[by_p], p[by_p])
    out[~by_p] = betaincc(n[~by_p], m, q[~by_p])
    return out


# ---------------------------------------------------------------------------
# fluctuating double-Rayleigh LoS


def _flag_underflow(values):
    values = np.atleast_1d(values)
    tiny = (values != 0.0) & (np.abs(values) < 1e-300)
    if np.any(tiny):
        warnings.warn("values below 1e-300 reported as 0", UnderflowWarning)
        values = np.where(tiny, 0.0, values)
    return values


def _conditional(m, law):
    """The conditional Rician shadowed ``law`` ("pdf" or "cdf") at shape m,
    (g, k_x, gbar_x) -> value on checked arguments: the Binomial mixture at
    integer m up to ``_MIXTURE_MAX_M``, else the 1F1 density or the
    negative-binomial series.  The one place the route of a law follows m."""
    if m <= _MIXTURE_MAX_M and m == int(m):
        kernel, m = (_mixture_density if law == "pdf" else _binomial_mixture), int(m)
    else:
        kernel = _kummer_density if law == "pdf" else _nb_series
    return lambda g, k_x, gbar_x: kernel(g, k_x, m, gbar_x)


def _cdf_at_zero(k, gbar):
    """Every cdf is 0 at g = 0, so no law averages a value there."""
    return 0.0


def fdrlos_pdf(gamma, params: FadingParams, *, rel_tol=1e-10):
    """SNR density of the fluctuating double-Rayleigh LoS model for every
    m > 0, to relative accuracy ``rel_tol``.

    The conditional Rician shadowed density ``rs_pdf`` averaged over e^{-x}:

        f(g) = int_0^inf e^{-x} f_RS(g; K/x, m, gbar (K+x)/(K+1)) dx,

    at integer m up to 100 the density of the Binomial mixture that
    ``rs_cdf`` sums, at every other m the scaled 1F1 form; both are
    positive sums.  At g = 0 it is a(K, m) / gbar from ``coding_gain``.  K = 0
    is an ordinary input: the product law, +inf at g = 0.  An array K or
    gbar broadcasts against gamma, each K with its own value at g = 0.
    """
    m, conditional = params.m, _conditional(params.m, "pdf")

    def at_zero(k, gbar):
        # gbar f(0) is the coding gain a(K, m); the product law's pole at K = 0
        return np.array([coding_gain(v, m, rel_tol=rel_tol) if v > 0 else np.inf
                         for v in k.tolist()]) / gbar

    return _law(lambda g, k, gbar: _flag_underflow(
        _scatter_average(conditional, g, k, gbar, rel_tol)),
        0.0, gamma, params.k, m, params.gamma_bar, at_zero)


#: the density has one route for every m, so its oracle is the same function
fdrlos_pdf_oracle = fdrlos_pdf


def fdrlos_cdf(gamma, params: FadingParams, *, rel_tol=1e-10):
    """SNR cdf of the fluctuating double-Rayleigh LoS model for every m > 0,
    to relative accuracy ``rel_tol``.

    The conditional Rician shadowed cdf averaged over e^{-x}: at integer m
    up to 100 the finite Binomial mixture of ``rs_cdf``; with
    b = g (K+1)/gbar and z = K/m,

        F(g) = int_0^inf e^{-x} sum_{j<m} Bin(j; m-1, x/(x+z)) P(m-j, b/(x+z)) dx,

    the paper's integral before t = K/m + x is substituted and (t - K/m)^j
    expanded.  At every other m the negative-binomial series ``_nb_series``.
    Every term is positive, so deep outage keeps its relative accuracy; K = 0
    puts all the weight on one exponential law (the product law).  An array
    K (an outage sweep over K) or gbar broadcasts against gamma.
    """
    conditional = _conditional(params.m, "cdf")
    return _law(lambda g, k, gbar: np.clip(
        _scatter_average(conditional, g, k, gbar, rel_tol), 0.0, 1.0),
        1.0, gamma, params.k, params.m, params.gamma_bar, _cdf_at_zero)


def fdrlos_cdf_oracle(gamma, params: FadingParams, *, rel_tol=1e-10):
    """Ground-truth cdf: the negative-binomial series ``_nb_series`` averaged at
    every m > 0, so only at integer m up to 100 does it share no conditional
    code with ``fdrlos_cdf``."""

    def conditional(g, k_x, gbar_x):
        return _nb_series(g, k_x, params.m, gbar_x)

    return _law(lambda g, k, gbar: np.clip(
        _scatter_average(conditional, g, k, gbar, rel_tol), 0.0, 1.0),
        1.0, gamma, params.k, params.m, params.gamma_bar, _cdf_at_zero)


# ---------------------------------------------------------------------------
# high-SNR asymptote


def coding_gain(k, m, *, rel_tol=1e-10):
    """High-SNR power offset a = (1+K) Gamma(m) U(m, 1, K/m) for finite K > 0
    and every finite m > 0: a = gbar f(0), the density at 0 times the mean
    SNR, so the outage tends to a gamma_th / gbar.

    As m -> inf a tends to (1+K) 2 K0(2 sqrt K), gbar times the drlos
    density at 0, from above by about K K2(2 sqrt K) / (2 m K0(2 sqrt K))
    relative.  Diverges as K -> 0, but only like log(m/K) - psi(m) - 2 gamma_E
    (DLMF 13.2(iii)): the pure product channel has no order-1 asymptote, so
    K = 0 is rejected.
    """
    if not (np.ndim(k) == np.ndim(m) == 0 and 0 < k < math.inf and 0 < m < math.inf):
        raise DomainError("the coding gain needs finite K > 0 (it diverges at K = 0) "
                          f"and finite m > 0, both scalars, got K = {k}, m = {m}")
    return (1.0 + k) * gamma_tricomi_u(m, k / m, rel_tol=rel_tol)


def asymptotic_op(gamma_th, gbar, k, m, *, rel_tol=1e-10):
    """High-SNR outage a * gamma_th / gbar for finite gamma_th > 0, broadcast
    over gbar; exact log-log slope -1 in gbar.  a = gbar f(0) is the coding
    gain, whose m -> inf limit is gbar times the drlos density at 0."""
    if not (np.ndim(gamma_th) == 0 and 0 < gamma_th < math.inf):
        raise DomainError(f"gamma_th must be finite and positive, and a scalar, got {gamma_th}")
    check_params(m=m, gamma_bar=gbar)
    return coding_gain(k, m, rel_tol=rel_tol) * gamma_th / gbar


# ---------------------------------------------------------------------------
# ancestor models (reference laws for comparisons)


def _rician_density(gamma, k, gbar):
    """``rician_pdf`` on checked arguments."""
    c = (1.0 + k) * gamma / gbar
    y = 2.0 * np.sqrt(k * c)
    return (1.0 + k) / gbar * i0e(y) * np.exp(-(np.sqrt(k) - np.sqrt(c)) ** 2)


def _rician_probability(gamma, k, gbar):
    """``rician_cdf`` on checked arguments."""
    return chndtr(2.0 * (1.0 + k) * gamma / gbar, 2, 2.0 * k)


def rician_pdf(gamma, k, gbar):
    """Rician SNR density (deterministic LoS, single-Rayleigh scatter)."""
    return _law(_rician_density, 0.0, gamma, k, gbar=gbar)


def rician_cdf(gamma, k, gbar):
    """Rician SNR cdf via the noncentral chi-square law: ``chndtr`` at
    2 (1+K) g / gbar with 2 degrees of freedom and noncentrality 2K."""
    return _law(_rician_probability, 1.0, gamma, k, gbar=gbar)


def drlos_pdf_oracle(gamma, k, gbar, *, rel_tol=1e-10):
    """Deterministic-LoS double-Rayleigh density: the conditional law is plain
    Rician, averaged over the exponential scatter weight (the m -> inf limit),
    and at g = 0 (1+K) 2 K0(2 sqrt K) / gbar, +inf at K = 0.  K and gbar
    broadcast."""
    return _law(lambda g, k, gbar: _scatter_average(_rician_density, g, k, gbar, rel_tol),
                0.0, gamma, k, gbar=gbar,
                at_zero=lambda ks, gbars: (1.0 + ks) * 2.0 * k0(2.0 * np.sqrt(ks)) / gbars)


def drlos_cdf_oracle(gamma, k, gbar, *, rel_tol=1e-10):
    """Deterministic-LoS double-Rayleigh cdf by exponential averaging."""
    return _law(lambda g, k, gbar: np.clip(
        _scatter_average(_rician_probability, g, k, gbar, rel_tol), 0.0, 1.0),
        1.0, gamma, k, gbar=gbar, at_zero=_cdf_at_zero)
