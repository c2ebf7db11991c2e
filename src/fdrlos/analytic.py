"""Statistics of the fading models: every fdrlos law is one scatter average.

The fluctuating double-Rayleigh LoS SNR law is built by conditioning on the
squared magnitude x of the second scatter factor: given x the SNR is Rician
shadowed with K_x = K/x, a law of y/x alone with y = (1+K) g/gamma_bar, and
the unconditional law follows by averaging against the unit-mean exponential
weight e^{-x}, a cdf over x and a density over s = sqrt(x), where its 1/x
stays bounded; one vector quadrature per chunk of values (``_scatter_average``).

Every law takes every finite m > 0, and the route follows m
(``_conditional``, the one place that decides): at integer m up to 100 both
the cdf and the density are the finite Binomial mixture of m Gamma laws
(``rs_cdf`` and its density ``rs_pdf``), at every other m the cdf is the
negative-binomial series of Erlang cdfs (``_nb_series``: rows of terms, each
from one ``gammainc`` and two log-mass anchors, by running products and
positive sums) and the density the 1F1 form through the scaled log 1F1.
``fdrlos_cdf_oracle`` always averages the series, so only at integer m up to
100 is it an independent cross-check.  The density has one route; the
aliases ``fdrlos_pdf_oracle`` and ``rs_cdf_integer`` remain only for
``perfbench/tracing.py``.  All these conditionals are positive sums, so
deep-outage values keep their relative accuracy.  This is the paper's
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
entry and before any quadrature.  Every law is a scale family,
F(g; gbar) = F(g/gbar; 1) and f(g; gbar) = f(g/gbar; 1)/gbar, so only
``_law`` knows gbar: its kernels see y, and it scales a density by
(1+K)/gbar and gives t = g/gbar = 0 and t > 1e200 their limits; a y past
double range it refuses.  It alone post-processes values: it clips a
probability to [0, 1] and refuses one below ``specfun.TINY``, the smallest
normal double.  ``coding_gain`` checks K > 0 and K/m itself.  The kernels
below check no input and refuse only what they cannot compute.

A quadrature certifies relative accuracy down to ``specfun.TINY``; below it
the one rule stated there holds.
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
from .specfun import (MAX_TERMS, TINY, AccuracyError, DomainError,
                      adaptive_quad_vec, check_rel_tol, gamma_tricomi_u,
                      log_kummer_1f1, log_negbin_pmf, log_poisson_pmf)

_GAMMA_CHUNK = 32
_ROW = 64                 # Rician shadowed series terms per anchored row
_ROW_BLOCK = 128          # rows per numpy pass: 8192 terms
_ANCHOR_BLOCK = 4096      # rows per pass of the log-mass kernels, which cost
                          # about 0.4 ms a call whatever its size
_MAX_M = 1e15             # largest m the series and the 1F1 density are checked at
_MIXTURE_MAX_M = 100      # largest integer m of the Binomial mixture: its m orders
                          # cost more than the real-m kernels past about 100


class UnderflowWarning(RuntimeWarning):
    """A density fell below the smallest normal double (``specfun.TINY``)
    and was reported as 0."""


def _law(kernel, law, gamma, k, m=1.0, gbar=1.0, at_zero=None):
    """An SNR law at (K, m, gbar): the one boundary every public law passes.

    It checks the SNR (nonnegative, not NaN) and ``check_params`` once, and
    broadcasts t = gamma/gbar, K and gbar (a DomainError names shapes that
    do not).  ``kernel(y, k)`` gets y = (1+K) t and their K as flat
    arrays in one call, made even when none are left, so that a quadrature
    still checks its ``rel_tol``; a scalar K stays a scalar, so the
    conditionals take K_x as an (nx, 1) column.  A y past double range
    raises AccuracyError before any kernel runs: the input is in the law's
    domain, but no limit is its value (at t = 2 and K = 1e308 the cdf is
    about 0.91).  A ``law`` "pdf" is scaled by (1+K)/gbar, and t = 0 takes
    the unit-mean ``at_zero(k)`` if given; a "cdf" is 0 at t = 0 and
    clipped to [0, 1]; one below ``TINY`` at t > 0 raises AccuracyError
    (the probability rule of ``specfun.TINY``).  Returns a float for scalar
    input, else the broadcast array.  The kernels run no boundary checks;
    only the real-m conditionals check their cap on m (``_MAX_M``).
    """
    gamma = np.asarray(gamma, dtype=float)
    if not np.all(gamma >= 0):
        raise DomainError("gamma must be nonnegative and not NaN")
    k, gbar = check_params(k, m, gbar)
    try:
        with np.errstate(over="ignore"):    # a t past double range is +inf
            t, k_b, gbar_b = np.broadcast_arrays(gamma / gbar, k, gbar)
    except ValueError:
        raise DomainError(f"gamma, K and gamma_bar of shapes {gamma.shape}, {k.shape} "
                          f"and {gbar.shape} do not broadcast") from None
    pdf = law == "pdf"
    # at unit mean 1 - F(t) <= 1/t (Markov), and a density falling past its
    # mode is below 4/t^2: past 1e200 both are their limits at +inf
    out = np.full(t.shape, 0.0 if pdf else 1.0)
    zero = (t == 0) & (at_zero is not None or not pdf)
    todo = (t <= 1e200) & ~zero
    k_t = k_b[todo] if k.ndim else k
    with np.errstate(over="ignore"):
        y = t[todo] * (1.0 + k_t)
    if np.isinf(y).any():
        raise AccuracyError("(1+K) gamma/gamma_bar overflows a double, and no limit is "
                            f"the law's value there (K up to {np.max(k_t):.3g})")
    values = kernel(y, k_t) * ((1.0 + k_t) if pdf else 1.0)
    if not pdf and np.any(values < TINY):
        raise AccuracyError(f"a probability of {values.min():.3g} lies below the smallest "
                            "normal double", value=values)
    out[todo] = values
    if zero.any():
        out[zero] = at_zero(k_b[zero]) if pdf else 0.0
    out = out / gbar_b if pdf else np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _scatter_average(conditional, law, y, k, rel_tol):
    """Average a conditional ``law`` over the exponential scatter weight,
    to relative accuracy ``rel_tol`` in every value, at the flat array ``y``
    with K a scalar or a flat array alongside it (``_law``): a "cdf" as
    int e^{-x} F(y/x; K/x) dx, a "pdf" as 2 int e^{-s^2} f(y/s^2; K/s^2) ds/s.

    Each chunk of ``_GAMMA_CHUNK`` values is one vector quadrature:
    ``conditional(y/x, k_x)`` gets the chunk as (nx, ng) and K_x = K/x as an
    (nx, 1) column, or (nx, ng) where K is an array chunked with the SNR,
    and returns the (nx, ng) conditional values.  ``rel_tol`` is checked
    first, since an empty ``y`` runs no quadrature.

    A chunk whose subdivision budget runs out (an AccuracyError with an error
    estimate) is averaged again as two halves with a budget each, so only a
    single value refuses; a conditional's own refusal propagates at once.
    The averages are returned as they are: ``_law`` refuses a probability
    below ``TINY``, and a density is left to its law, since the drlos
    density adds a sub-``TINY`` excess to its closed-form part.
    """
    check_rel_tol(rel_tol)
    out = np.empty(y.shape)
    pdf = law == "pdf"

    def average(sel):
        y_c = y[sel][None, :]
        k_c = k[sel] if np.ndim(k) else k

        def f(v):
            v = v[:, None]
            x = v * v if pdf else v
            return conditional(y_c / x, k_c / x) * (np.exp(-x) * (2.0 / v if pdf else 1.0))

        try:
            out[sel], _ = adaptive_quad_vec(f, rel_tol=rel_tol)
        except AccuracyError as exc:
            if exc.err_estimate is None or sel.size == 1:
                raise
            average(sel[:sel.size // 2])
            average(sel[sel.size // 2:])

    for lo in range(0, y.size, _GAMMA_CHUNK):
        average(np.arange(lo, min(lo + _GAMMA_CHUNK, y.size)))
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
    return _law(lambda y, k: _conditional(m, "pdf")(y, k), "pdf", gamma, k_x, m, gbar_x)


def _kummer_density(y, k_x, m):
    """``rs_pdf`` through the 1F1 on checked arguments; p^m as
    exp(-m log1p(K_x/m)), which keeps its digits at huge m."""
    if m > _MAX_M:
        raise AccuracyError(f"the Rician shadowed density needs m <= {_MAX_M:g}, got {m:g}")
    p, q = m / (m + k_x), k_x / (m + k_x)
    return np.exp(-m * np.log1p(k_x / m) - p * y + log_kummer_1f1(m, q * y))


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
    return _law(lambda y, k: _conditional(m, "cdf")(y, k), "cdf", gamma, k_x, m, gbar_x)


#: a second name for ``rs_cdf``; only ``perfbench/tracing.py`` reads it
rs_cdf_integer = rs_cdf


def _binomial_mixture(y, k_x, m, law):
    """The mixture of ``rs_cdf`` or its density on checked arguments, m an
    int, at u = p y: from n = m down, one ``exp`` an order gives the Gamma(n)
    density u^(n-1) e^{-u} / (n-1)!, which p times weights into the density
    and steps the cdf's P(n-1, u) = P(n, u) + u^(n-1) e^{-u} / (n-1)! on
    from one ``gammainc`` P(m, u)."""
    cdf = law == "cdf"
    p, q = m / (m + k_x), k_x / (m + k_x)
    u = p * y
    with np.errstate(divide="ignore"):
        log_u = np.log(u)
    big_p = gammainc(m, u) if cdf else None
    out = 0.0
    for n in range(m, 0, -1):
        # the Gamma(n) density at u; at n = 1 e^{-u}, also where u = 0
        term = np.exp((n - 1) * log_u - u - math.lgamma(n)) if n > 1 else np.exp(-u)
        log_c = math.lgamma(m) - math.lgamma(m - n + 1) - math.lgamma(n)   # C(m-1, m-n)
        out = out + np.exp(log_c + xlogy(m - n, p) + xlogy(n - 1, q)) * (big_p if cdf else term)
        if cdf:
            big_p = big_p + term
    return out if cdf else p * out


def _nb_series(y, k_x, m):
    """Rician shadowed SNR cdf for any real m > 0 on checked arguments: a
    positive series.

    Rician shadowed is a Poisson-Gamma mixture (Abdi et al., IEEE TWC 2003): with
    y = g (1+K_x)/gbar_x and p = m/(m+K_x), F = sum_n NB(n) P(n+1, y), where
    NB(n) = C(n+m-1, n) p^m (1-p)^n and P is the regularized lower incomplete gamma.
    Only n in [lo, hi] = [y - (12 sqrt(y) + 30), top + 12 sqrt(top) + 30] is
    summed, top the larger of y and the peak of the terms NB(n) P(n+1, y),
    which at large m and K_x lies far past y.  Below lo F takes the NB mass
    I_p(m, lo), too large by at most I_p(m, lo) Q(lo, y); past top the terms
    fall at least about as fast as Poisson masses past their mean top: both
    tails lie 12 standard deviations (or 30 terms) out, below 2e-33 of F.
    Where I_p(m, lo) P(lo, y) <= F <= I_p(m, hi+1) + P(hi+1, y) is
    within rounding (huge y) no window is built.  Windows over ``MAX_TERMS`` terms
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
    y, k_x = np.broadcast_arrays(np.minimum(y, 1e300), k_x)
    shape, y, k_x = y.shape, y.ravel(), k_x.ravel()
    p, q = m / (m + k_x), k_x / (m + k_x)
    # the terms NB(n) P(n+1, y) follow NB up to its mode, and past y fall
    # with the ratio (n-1+m)(1-p)/n * y/(n+1), which is 1 at the root of
    # n^2 + (1 - (1-p) y) n - (m-1)(1-p) y (+inf where y is huge)
    mq, lin = max(m - 1.0, 0.0) * q, 1.0 - q * y
    with np.errstate(over="ignore"):
        past_y = np.floor(0.5 * (np.sqrt(lin * lin + 4.0 * mq * y) - lin))
    peak = np.minimum(np.floor(mq / p), np.maximum(np.floor(y), past_y))
    # the 1e-12 terms keep lo below y and hi above top where sqrt < ulp
    top = np.maximum(y, peak)
    lo = np.floor(np.maximum(y - (12.0 * np.sqrt(y) + 30.0 + 1e-12 * y), 0.0))
    hi = np.ceil(top + 12.0 * np.sqrt(top) + 30.0 + 1e-12 * top)
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
    if np.any(count > MAX_TERMS):
        raise AccuracyError(f"Rician shadowed series window of {count.max():.3g} terms")
    # the anchors sit where the terms peak: a running product is off by one
    # rounding per step from its anchor.  The Poisson masses that P sums
    # there lie at the peak + 1, or at the Poisson mode y
    y, p, q, peak = y[todo], p[todo], q[todo], peak[todo]   # the values to sum
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
    return out.reshape(shape)


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
    tiny = values < TINY
    if np.any(tiny):
        warnings.warn("values below the smallest normal double reported as 0",
                      UnderflowWarning)
        values = np.where(tiny, 0.0, values)
    return values


def _conditional(m, law):
    """The conditional Rician shadowed ``law`` ("pdf" or "cdf") at shape m,
    (y, k_x) -> value on checked arguments: the Binomial mixture at
    integer m up to ``_MIXTURE_MAX_M``, else the 1F1 density or the
    negative-binomial series.  The one place the route of a law follows m."""
    if m <= _MIXTURE_MAX_M and m == int(m):
        return lambda y, k_x: _binomial_mixture(y, k_x, int(m), law)
    kernel = _kummer_density if law == "pdf" else _nb_series
    return lambda y, k_x: kernel(y, k_x, m)


def fdrlos_pdf(gamma, params: FadingParams, *, rel_tol=1e-10):
    """SNR density of the fluctuating double-Rayleigh LoS model for every
    m > 0, to relative accuracy ``rel_tol``.

    The density f_y of y = (1+K) g/gbar given x averaged over e^{-x}:

        f(g) = (1+K)/gbar int_0^inf e^{-x} f_y(y/x; K/x, m) dx/x,

    at integer m up to 100 the density of the Binomial mixture that
    ``rs_cdf`` sums, at every other m the scaled 1F1 form; both are
    positive sums.  The UnderflowWarning marks an average below the
    smallest normal double (``specfun.TINY``), reported as 0, not a value
    that (1+K)/gbar makes tiny.  At g = 0 it is a(K, m) / gbar from
    ``coding_gain``.  K = 0 is an ordinary input: the product law, +inf at
    g = 0.  An array K or gbar broadcasts against gamma, each K with its own
    value at g = 0.
    """
    m, conditional = params.m, _conditional(params.m, "pdf")

    def at_zero(k):
        # f(0) at unit mean is the coding gain a(K, m); the product law's pole at K = 0
        return [coding_gain(v, m, rel_tol=rel_tol) if v > 0 else np.inf for v in k.tolist()]

    return _law(lambda y, k: _flag_underflow(_scatter_average(conditional, "pdf", y, k, rel_tol)),
                "pdf", gamma, params.k, m, params.gamma_bar, at_zero)


#: a second name for ``fdrlos_pdf``; only ``perfbench/tracing.py`` reads it
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
    return _law(lambda y, k: _scatter_average(conditional, "cdf", y, k, rel_tol),
                "cdf", gamma, params.k, params.m, params.gamma_bar)


def fdrlos_cdf_oracle(gamma, params: FadingParams, *, rel_tol=1e-10):
    """Ground-truth cdf: the negative-binomial series ``_nb_series`` averaged at
    every m > 0, so only at integer m up to 100 does it share no conditional
    code with ``fdrlos_cdf``."""
    return _law(lambda y, k: _scatter_average(lambda y_x, k_x: _nb_series(y_x, k_x, params.m),
                                              "cdf", y, k, rel_tol),
                "cdf", gamma, params.k, params.m, params.gamma_bar)


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
    if not (np.ndim(k) == np.ndim(m) == 0 and 0 < k < math.inf and 0 < m < math.inf
            and 0 < k / m < math.inf):
        raise DomainError("the coding gain needs finite K > 0 (it diverges at K = 0) "
                          "and finite m > 0, both scalars, with K/m in double range, "
                          f"got K = {k}, m = {m}")
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


def _rician_density(y, k, excess=False):
    """``rician_pdf`` on checked arguments, z = 2 sqrt(K y) as 2 sqrt K sqrt y
    lest K y overflow; ``excess`` takes off i0e's e^{-2/z} / sqrt(2 pi z).
    Past z = 1e3 that difference is formed from the series of
    i0e(z) sqrt(2 pi z) - 1 in w = 1/z (DLMF 10.40.1), not by cancellation."""
    root_k, root_y = np.sqrt(k), np.sqrt(y)
    z = 2.0 * root_k * root_y
    bessel = i0e(z)
    if excess:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            w, gauss = 1.0 / z, np.where(z > 0.0, 1.0 / np.sqrt(2.0 * np.pi * z), 0.0)
            series = w / 8 * (1 + w * 9 / 16 * (1 + w * 25 / 24
                                                * (1 + w * 49 / 32 * (1 + w * 81 / 40))))
            bessel = np.where(z > 1e3, gauss * (series - np.expm1(-2.0 * w)),
                              bessel - gauss * np.exp(-2.0 * w))
    return bessel * np.exp(-(root_k - root_y) ** 2)


def _rician_probability(y, k):
    """``rician_cdf`` on checked arguments; ``chndtr`` gives NaN at some
    noncentralities near 1e11, which are refused."""
    out = chndtr(2.0 * y, 2, 2.0 * k)
    if np.isnan(out).any():
        raise AccuracyError(f"chndtr returned NaN (noncentrality up to {2.0 * np.max(k):.3g})")
    return out


def rician_pdf(gamma, k, gbar):
    """Rician SNR density (deterministic LoS, single-Rayleigh scatter)."""
    return _law(_rician_density, "pdf", gamma, k, gbar=gbar)


def rician_cdf(gamma, k, gbar):
    """Rician SNR cdf via the noncentral chi-square law: ``chndtr`` at
    2 (1+K) g / gbar with 2 degrees of freedom and noncentrality 2K."""
    return _law(_rician_probability, "cdf", gamma, k, gbar=gbar)


def drlos_pdf_oracle(gamma, k, gbar, *, rel_tol=1e-10):
    """Deterministic-LoS double-Rayleigh density: the conditional law is plain
    Rician, averaged over the exponential scatter weight (the m -> inf limit),
    and at g = 0 (1+K) 2 K0(2 sqrt K) / gbar, +inf at K = 0.  K and gbar
    broadcast.

    As x -> 0 the Rician nears its large-z form, whose average over s steps
    from 0 at s = d = |sqrt y - sqrt K|, unseen below every node near y = K.
    That form, damped, averages to e^{-2 d sqrt(1 + 1/sqrt(K y))} /
    (2 sqrt(1 + sqrt(K y))); only the excess, O(x) there, takes quadrature."""

    def kernel(y, k):
        root_k, root_y = np.sqrt(k), np.sqrt(y)
        with np.errstate(divide="ignore", over="ignore"):   # K = 0: no large-z form
            rate = 2.0 * np.abs(root_y - root_k) * np.sqrt(1.0 + 1.0 / (root_k * root_y))
        return np.exp(-rate) / (2.0 * np.sqrt(1.0 + root_k * root_y)) + _scatter_average(
            lambda y_x, k_x: _rician_density(y_x, k_x, True), "pdf", y, k, rel_tol)

    return _law(kernel, "pdf", gamma, k, gbar=gbar,
                at_zero=lambda ks: (1.0 + ks) * 2.0 * k0(2.0 * np.sqrt(ks)))


def drlos_cdf_oracle(gamma, k, gbar, *, rel_tol=1e-10):
    """Deterministic-LoS double-Rayleigh cdf by exponential averaging."""
    return _law(lambda y, k: _scatter_average(_rician_probability, "cdf", y, k, rel_tol),
                "cdf", gamma, k, gbar=gbar)
