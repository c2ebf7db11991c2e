"""Statistics of the fading models: every fdrlos law is one average.

The fluctuating double-Rayleigh LoS SNR law can be built by conditioning on
the squared magnitude x of the second scatter factor: given x the SNR is
Rician shadowed with K_x = K/x, a law of y/x alone with y = (1+K) g/gamma_bar,
and the unconditional law follows by averaging against the unit-mean
exponential weight e^{-x}, a cdf over x and a density over s = sqrt(x),
where its 1/x stays bounded (``_scatter_average``).  The deterministic-LoS
limits (m -> inf) condition instead on the product G2 G3 = sqrt(Z) e^{j theta},
Z of density 2 K0(2 sqrt z) and theta uniform: Graf's addition theorem takes
the phase average, so each is a closed form in I and K Bessel functions
(``drlos_pdf_oracle``, ``drlos_cdf_oracle``).  So the law can be built the
other way too, by conditioning on the LoS power xi ~ Gamma(m, 1/m): given xi
it is the drlos law at K xi, and the cdf is the drlos cdf averaged over xi
(``_los_power_average``), one Bessel product a node.  Either way there is
one vector quadrature per chunk of values (``_fdrlos_kernel``).

Every law takes every finite m > 0, and the route follows m
(``_is_mixture`` decides): at integer m up to 100 both the cdf and the
density are the finite Binomial mixture of m Gamma laws (``rs_cdf`` and its
density ``rs_pdf``) averaged over the scatter; at every other m the density
averages the 1F1 form through the scaled log 1F1 over the scatter, and the
cdf is the LoS-power average, which needs no cap on m.  ``rs_cdf`` at those
m is the negative-binomial series of Erlang cdfs (``_nb_series``: rows of
terms, each from one ``gammainc`` and two log-mass anchors, by running
products and positive sums).  ``fdrlos_cdf_oracle`` is the LoS-power
average at every m, so at integer m up to 100 it shares no conditional with
``fdrlos_cdf`` and is an independent cross-check.  The density has one
route; the aliases ``fdrlos_pdf_oracle`` and ``rs_cdf_integer`` remain only
for ``perfbench/tracing.py``.  The mixture, the 1F1 form and the drlos cdf
below y = K are positive sums, and past it the drlos cdf keeps its relative
accuracy (``_drlos_probability``), so deep-outage values keep theirs.  The
scatter average is the paper's integral before it substitutes t = K/m + x
and expands (t - K/m)^j into generalized incomplete gammas, whose terms
cancel; ``scripts/make_goldens.py`` keeps that expansion as an mpmath
cross-check.  At K = 0 (no LoS) the law no longer depends on m: it is the
product law of the scatter, which every fdrlos law takes in closed form
(``_fdrlos_kernel``).

The density at g = 0 is the high-SNR outage slope: gbar f(0) is the coding
gain a(K, m) = (1+K) Gamma(m) U(m, 1, K/m), and Gamma(m) U(m, 1, K/m), the
scatter average of (1 + K/(m x))^(-m) / x, is the unit-mean density in y at
y = 0, which ``fdrlos_pdf`` takes from the kernel of ``coding_gain``
without a quadrature over x.  As m -> inf it tends to 2 K0(2 sqrt K), the
drlos density in y at 0, the value of its closed form there; every cdf is 0
there, so no law integrates a value at g = 0.

Every SNR law, the Rician shadowed, Rician and drlos ones too, passes one
boundary, ``_law``: it checks a nonnegative SNR and the one domain of
``models.check_params`` (finite K >= 0, m > 0 and gamma_bar > 0) once, at
entry and before any quadrature.  Every law is a scale family,
F(g; gbar) = F(g/gbar; 1) and f(g; gbar) = f(g/gbar; 1)/gbar, so only
``_law`` knows gbar: its kernels see y, and it gives t = g/gbar = 0 and
t > 1e200 their limits; a y past double range it refuses.  It alone
post-processes values: below ``specfun.TINY``, the smallest normal double,
it reports a density as 0 with an UnderflowWarning and refuses a
probability; then it scales a density by (1+K)/gbar and clips a
probability to [0, 1].  ``coding_gain`` checks K > 0, m and K/m itself and
refuses a gain below ``TINY``.  The kernels below check no input and refuse
only what they cannot compute.

A quadrature certifies relative accuracy down to ``specfun.TINY``; below it
the one rule stated there holds.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import (betainc, betaincc, chndtr, digamma, factorial, gammainc,
                           i0, i0e, i1e, k0, k0e, k1, k1e, xlogy)

from .models import FadingParams, check_params
from .specfun import (MAX_TERMS, TINY, AccuracyError, DomainError,
                      adaptive_quad_vec, check_rel_tol, gamma_tricomi_u,
                      log_kummer_1f1, log_negbin_pmf, log_poisson_pmf, stirlerr)

_GAMMA_CHUNK = 128        # values per quadrature (``_by_chunks``), measured below
_ROW = 64                 # Rician shadowed series terms per anchored row
_ROW_BLOCK = 128          # rows per numpy pass: 8192 terms
_ANCHOR_BLOCK = 4096      # rows per pass of the log-mass kernels, which cost
                          # about 0.4 ms a call whatever its size
_MAX_M = 1e15             # largest m the series and the 1F1 density are checked at
_MIXTURE_MAX_M = 100      # largest integer m of the Binomial mixture: its m orders
                          # cost more than the real-m kernels past about 100
#: the product law's series below r = 0.5 (DLMF 10.31.1 at n = 1, x = 2 r):
#: psi(k+1) + psi(k+2) and 1/(k! (k+1)!) for k < 10
_PRODUCT_PSI = digamma(np.arange(1.0, 11.0)) + digamma(np.arange(2.0, 12.0))
_PRODUCT_INV = 1.0 / (factorial(np.arange(10.0)) * factorial(np.arange(1.0, 11.0)))


class UnderflowWarning(RuntimeWarning):
    """A density at unit mean fell below the smallest normal double
    (``specfun.TINY``) and was reported as 0; ``_law`` warns once a call."""


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
    about 0.91).  A "pdf" at t = 0 takes ``at_zero(k)`` if given, the
    unit-mean density in y at y = 0 as a kernel gives it; a "cdf" is 0 there.
    Every value a kernel or ``at_zero`` computed then meets the one rule of
    ``specfun.TINY``: a density below it is reported as 0 with one
    UnderflowWarning per call, a probability below it raises AccuracyError.
    Only then is a density scaled by (1+K)/gbar, and a probability clipped
    to [0, 1].  Returns a float for scalar input, else the broadcast array.
    The kernels run no boundary checks; only the real-m conditionals check
    their cap on m (``_MAX_M``).
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
    out[todo] = kernel(y, k_t)
    if zero.any():
        out[zero] = at_zero(k_b[zero]) if pdf else 0.0
    # the rule of ``specfun.TINY`` on every computed value; a cdf is 0 at t = 0
    tiny = (todo | zero if pdf else todo) & (out < TINY)
    if tiny.any():
        if not pdf:
            raise AccuracyError(f"a probability of {out[tiny].min():.3g} lies below the "
                                "smallest normal double", value=out[todo])
        warnings.warn("densities below the smallest normal double are 0", UnderflowWarning)
        out[tiny] = 0.0
    out = out * (1.0 + k_b) / gbar_b if pdf else np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _by_chunks(integrand, y, k, rel_tol):
    """One ``adaptive_quad_vec`` per chunk of ``_GAMMA_CHUNK`` values of the
    flat array ``y``, with K a scalar or a flat array alongside it
    (``_law``): ``integrand(y_c, k_c)`` gives the vector integrand of a
    chunk, one component a value.  ``rel_tol`` is checked first, since an
    empty ``y`` runs no quadrature.

    Each round of a quadrature costs one integrand call plus bookkeeping,
    whatever its width, so wider chunks mean fewer rounds; its first round
    holds 8 panels x 15 nodes x 128 values = 15,360 entries.  Measured with
    ``perfbench`` (10 s runs, 3 seeds, 2-core Xeon VM), the ``oracle_real_m``
    peak RSS against 59.3 MB at the earlier 32:

        chunk   figures wall_s   oracle_real_m peak RSS
         64     0.141-0.148 s    +1.6%
        128     0.135-0.141 s    +2.9%
        256     0.135-0.141 s    +5.8%

    so 128 is kept: 256 was no faster and doubled the growth in memory.

    A chunk that refuses, by running out of subdivisions or by a refusal of
    its integrand, is integrated again as two halves, down to single values,
    so an array answers wherever each of its values answers alone and a
    refusal is always one value's, whose message names its y and K.  The
    integrals are returned as they are, for ``_law`` to apply the rule of
    ``TINY`` to the law's value.
    """
    check_rel_tol(rel_tol)
    out = np.empty(y.shape)

    def solve(sel):
        try:
            out[sel], _ = adaptive_quad_vec(integrand(y[sel], k[sel] if np.ndim(k) else k),
                                            rel_tol=rel_tol)
        except AccuracyError as exc:
            if sel.size == 1:
                k_1 = float(k[sel[0]] if np.ndim(k) else k)
                raise AccuracyError(f"{exc}; at y = (1+K) gamma/gamma_bar = {float(y[sel[0]])!r}, "
                                    f"K = {k_1!r}", exc.value, exc.err_estimate) from None
            solve(sel[:sel.size // 2])
            solve(sel[sel.size // 2:])

    for lo in range(0, y.size, _GAMMA_CHUNK):
        solve(np.arange(lo, min(lo + _GAMMA_CHUNK, y.size)))
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
        to a path or to an open text stream, which is left open: formatted
        from Python floats and written in one call."""
        rows = ["%.17g,%.17g\n" % row
                for row in zip(self.abscissa.tolist(), self.ordinate.tolist())]
        with (contextlib.nullcontext(target) if hasattr(target, "write")
              else open(target, "w", encoding="utf-8", newline="\n")) as fh:
            fh.write("abscissa,value\n" + "".join(rows))


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
    exp(-m log1p(K_x/m)), which keeps its digits at huge m, and as (m/K_x)^m
    past K_x = 1e300 m, where K_x/m may pass double range."""
    if m > _MAX_M:
        raise AccuracyError(f"the Rician shadowed density needs m <= {_MAX_M:g}, got {m:g}")
    p, q = m / (m + k_x), k_x / (m + k_x)
    with np.errstate(over="ignore"):
        far = 1e300 * m
        log_pm = np.where(k_x > far, m * (math.log(m) - np.log(np.maximum(k_x, far))),
                          -m * np.log1p(k_x / m))
    return np.exp(log_pm - p * y + log_kummer_1f1(m, q * y))


def rs_cdf(gamma, k_x, m, gbar_x):
    """Rician shadowed SNR cdf for every m > 0 (``_conditional``): at integer
    m up to 100 the finite Binomial mixture of Gamma laws (the integer-m case
    of the Poisson-Gamma mixture of Abdi et al., IEEE TWC 2003), which
    ``fdrlos_cdf`` averages there, at every other m the negative-binomial
    series ``_nb_series``.

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
    anchor.  As P(n+1, y) is P(n_t+1, y) plus the Poisson masses of n+1..n_t,
    a row sums to P(n_t+1, y) times its NB mass plus each Poisson mass at j
    times the NB mass below j, from one ``cumsum``: positive sums only.
    m > 1e15 raises AccuracyError.  One ``bincount`` adds each value's rows,
    each summed alone, in increasing n: a value does not depend on what it is
    broadcast with or on the block size.
    """
    if m > _MAX_M:
        raise AccuracyError(f"the Rician shadowed series needs m <= {_MAX_M:g}, got {m:g}")
    # past 1e300 F is 1 unless the NB mass is there too, which the cap refuses
    y, k_x = np.broadcast_arrays(np.minimum(y, 1e300), k_x)
    shape, y, k_x = y.shape, y.ravel(), k_x.ravel()
    # p underflows only where m < 1e-15: floored at the smallest subnormal,
    # p^m moves by less than 4e-16
    p, q = np.maximum(m / (m + k_x), 5e-324), k_x / (m + k_x)
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
    row_sums = np.empty(e_row.size)
    for chunk in range(0, e_row.size, _ANCHOR_BLOCK):
        e_c, b_c, sums_c = (a[chunk:chunk + _ANCHOR_BLOCK] for a in (e_row, b_row, row_sums))
        y_c, q_c, peak_c = y[e_c], q[e_c], peak[e_c]
        peak_pois = np.clip(np.maximum(np.floor(y_c), peak_c + 1.0) - b_c, 0, _ROW - 1)
        peak_nb = np.clip(peak_c - b_c, 0, _ROW - 1)
        pois_at_peak = np.exp(log_poisson_pmf(b_c + peak_pois, y_c))
        nb_at_peak = np.exp(log_negbin_pmf(b_c + peak_nb, m, p[e_c], q_c))
        top_p = gammainc(b_c + _ROW, y_c)
        peak_pois, peak_nb = peak_pois.astype(np.intp), peak_nb.astype(np.intp)
        for blk in range(0, e_c.size, _ROW_BLOCK):
            r = slice(blk, blk + _ROW_BLOCK)
            at = np.arange(min(_ROW_BLOCK, e_c.size - blk))
            n = b_c[r, None] + steps
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                # ratios of each mass to the one below it; column 0 is the bottom
                pois = y_c[r, None] / n
                nb = ((n - 1.0) + m) * q_c[r, None] / n
                pois[:, 0] = nb[:, 0] = 1.0
                pois = np.cumprod(pois, axis=1)
                pois *= (pois_at_peak[r] / pois[at, peak_pois[r]])[:, None]
                nb = np.cumprod(nb, axis=1)
                nb_sum = np.cumsum(nb, axis=1)
                # P(n+1, y) = P(n_t+1, y) + pois(n+1) + ... + pois(n_t), so the row sums
                # to P(n_t+1, y) times its NB mass plus each pois(j) times the NB mass below j
                sums_c[r] = nb_at_peak[r] / nb[at, peak_nb[r]] * (
                    top_p[r] * nb_sum[:, -1] + np.einsum("ij,ij->i", pois[:, 1:], nb_sum[:, :-1]))
    # a running product leaves double range only where m (1-p) > 5e4 and
    # n lies below 1e-4 of the NB mean (NB ratios near 6e4, or Poisson
    # ratios y/n below 1e-5 up to a term peak far above y): every mass
    # of such a row underflows, and inf * 0 there is 0
    row_sums[~np.isfinite(row_sums)] = 0.0
    # bincount adds each value's rows in order, in increasing n
    out[todo] = below[todo] + np.bincount(e_row, row_sums, minlength=todo.size)
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


def _is_mixture(m):
    """Whether m takes the Binomial mixture, an integer up to
    ``_MIXTURE_MAX_M``: the one place the route of a law follows m."""
    return m <= _MIXTURE_MAX_M and m == int(m)


def _conditional(m, law):
    """The conditional Rician shadowed ``law`` ("pdf" or "cdf") at shape m,
    (y, k_x) -> value on checked arguments: the Binomial mixture at
    integer m up to ``_MIXTURE_MAX_M``, else the 1F1 density or the
    negative-binomial series."""
    if _is_mixture(m):
        return lambda y, k_x: _binomial_mixture(y, k_x, int(m), law)
    kernel = _kummer_density if law == "pdf" else _nb_series
    return lambda y, k_x: kernel(y, k_x, m)


def _product_cdf(r):
    """P(|G2 G3| <= r) = 1 - 2 r K1(2 r), the cdf of the product of two
    unit-mean exponentials at r^2, at an array r >= 0.  Below r = 0.5 it is
    the series of DLMF 10.31.1 (x = 2 r),

        sum_{k<10} r^(2k+2) (psi(k+1) + psi(k+2) - 2 log r) / (k! (k+1)!),

    every term positive there, so deep outage keeps its relative accuracy;
    r = 0 gives 0."""
    r = np.asarray(r, dtype=float)
    big = np.maximum(r, 0.5)
    small = np.where((r > 0) & (r < 0.5), r, 0.25)
    z, log_z = small * small, 2.0 * np.log(small)
    series = 0.0
    for psi, inv in zip(_PRODUCT_PSI[::-1], _PRODUCT_INV[::-1]):
        series = z * (inv * (psi - log_z) + series)
    return np.where(r >= 0.5, 1.0 - 2.0 * big * k1(2.0 * big), np.where(r > 0, series, 0.0))


def _scatter_average(conditional, law):
    """The integrand of ``_by_chunks`` that averages ``conditional`` over the
    exponential scatter weight, a "cdf" as int e^{-x} F(y/x; K/x) dx, a "pdf"
    as 2 int e^{-s^2} f(y/s^2; K/s^2) ds/s.  ``conditional(y/x, k_x)`` gets
    a chunk as (nx, ng) and K_x = K/x as an (nx, 1) column, or (nx, ng) for
    an array K, and returns the (nx, ng) conditional values."""
    pdf = law == "pdf"

    def integrand(y_c, k_c):
        y_c = y_c[None, :]

        def f(v):
            v = v[:, None]
            x = v * v if pdf else v
            return conditional(y_c / x, k_c / x) * (np.exp(-x) * (2.0 / v if pdf else 1.0))
        return f
    return integrand


#: 1/(j+2)!, j < 17: the series of (e^s - 1 - s)/s^2, which these terms
#: leave 1e-17 short of at |s| = 1
_EXCESS = 1.0 / factorial(np.arange(2.0, 19.0))
_HUGE = float(np.finfo(float).max)
#: the step of the drlos cdf at its kink is about 1/sqrt(y) wide in s; its
#: breakpoint on the left lies this many widths out, past which F is 1 to
#: within e^-64
_STEP_WIDTHS = 32.0
#: the scales from a breakpoint that its half of a gap spans at least
_REACH = 64.0


def _los_power_average(m):
    """The integrand of ``_by_chunks`` that averages the drlos cdf over the
    LoS power xi ~ Gamma(m, 1/m): given xi the fdrlos law is the drlos law at
    K xi, so F(y) = int g_m(xi) ``_drlos_probability``(y, K xi) dxi.

    The average runs in tau = lam s, s = log xi and lam = min(m, 1).  From
    m = 1 on tau = s, and the weight is exp(log(m/2 pi)/2 - stirlerr(m) -
    m (e^s - 1 - s)), mode 0 and width 1/sqrt(m), with e^s - 1 - s summed as
    a series below |s| = 1, so that no digit is lost at huge m.  Below m = 1
    the weight m^m e^(tau - m e^(tau/m)) / Gamma(m+1) falls like e^tau to
    the left, where s itself would overflow, and right of its mode it is
    flat in s up to a cliff near s = log(1/m).

    Each value has its own breakpoints, each with the scale of what changes
    there: its kink s* = log(y/K), where the drlos cdf steps over about
    1/sqrt(y) in s; where that step is narrower than 1/32 of the weight, its
    edges ``_STEP_WIDTHS`` steps either side, past which the weight alone
    changes; and a centre: the weight's mode 0 where s* >= 0, else the peak
    p = -2 asinh(sqrt(K)/(2m)) of g_m times about K0(2 sqrt(K xi)), the
    cdf's branch past the kink, where p lies past s*, else s*.  A centre
    within the step moves to its edge.  Every piece is mapped from a
    breakpoint, x -> h x / (1 + x h / L) for a piece of length L and scale
    h <= L: the half-lines past the outer breakpoints, both halves of the gap
    between the centre and the nearer step edge, split in the ratio of
    their scales but each at least ``_REACH`` of its own or half the gap,
    and the step on either side of the kink.  So every breakpoint is the
    near end of the pieces it bounds, where the nodes lie closest, and no
    narrow weight or step lies unseen at the far end of a wide piece.
    Below m = 1 the weight also steps by m over the lam left of its mode,
    and F over some 30 in s left of its kink, so a bridge of
    ``_STEP_WIDTHS`` lam at scale lam leads to the left half-line, and no
    scale to the right passes lam.  The pieces of a value are one component
    of the quadrature; a piece empty for every value of a chunk is left
    out.  Where K xi leaves double range the weight or the cdf is 0, and
    K xi is clipped."""
    lam = min(m, 1.0)
    width = 1.0 / math.sqrt(max(m, 1.0))        # the weight's scale in tau
    if m >= 1.0:
        # sqrt(m) joins the scales, so that no log_norm near 350 rounds away digits
        log_norm, root_m = -0.5 * math.log(2.0 * math.pi) - float(stirlerr(m)), math.sqrt(m)

        def log_weight(s):
            small = np.abs(s) < 1.0
            z = np.where(small, s, 0.0)
            series = 0.0
            for c in _EXCESS[::-1]:
                series = c + z * series
            # (m s) s: s^2 would underflow where m is huge
            return log_norm - np.where(small, (m * z) * z * series, m * (np.expm1(s) - s))
    else:
        log_norm, root_m = m * math.log(m) - math.lgamma(m + 1.0), 1.0

        def log_weight(tau):
            return log_norm + tau - m * np.exp(tau / m)

    def integrand(y_c, k_c):
        log_k = np.log(k_c)
        s_kink = np.log(y_c) - log_k
        h_kink = np.minimum(width, lam / np.sqrt(np.maximum(y_c, 1.0)))
        with np.errstate(over="ignore", divide="ignore"):
            root = np.exp(0.5 * log_k) / m          # sqrt(K)/m; inf puts p at -inf
            peak = -2.0 * np.arcsinh(0.5 * root)
            curve = m * np.exp(peak) + 0.25 * np.exp(0.5 * (log_k + peak))
            h_peak = np.minimum(width, lam / np.sqrt(curve))
        # in tau: the kink, the edges of its step (the kink itself where the
        # step is no narrower than 1/32 of the weight) and the centre
        kink = lam * s_kink
        narrow = width > _STEP_WIDTHS * h_kink
        step, edge = np.where(narrow, _STEP_WIDTHS * h_kink, 0.0), np.where(narrow, width, h_kink)
        e_lo, e_hi = kink - step, kink + step
        below = s_kink < 0.0
        centre = lam * np.where(below, np.maximum(peak, s_kink), 0.0)
        h_centre = np.where(below, np.where(peak > s_kink, h_peak, edge), width)
        up = centre >= kink
        h_centre = np.where((centre > e_lo) & (centre < e_hi), edge, h_centre)
        centre = np.where(up, np.maximum(centre, e_hi), np.minimum(centre, e_lo))
        # the pieces as (anchor, direction, scale, length)
        lo, hi = np.where(up, e_hi, centre), np.where(up, centre, e_lo)
        h_lo, h_hi = np.where(up, edge, h_centre), np.where(up, h_centre, edge)
        gap = hi - lo
        near = np.clip(gap * h_lo / (h_lo + h_hi), np.minimum(0.5 * gap, _REACH * h_lo),
                       gap - np.minimum(0.5 * gap, _REACH * h_hi))
        tail = np.full(gap.shape, np.inf)
        first = np.where(up, e_lo, centre)
        bridge = _STEP_WIDTHS * lam if m < 1.0 else 0.0
        pieces = [(first - bridge, -1.0, h_lo, tail), (lo, 1.0, h_lo, near),
                  (hi, -1.0, h_hi, gap - near), (np.where(up, centre, e_hi), 1.0, h_hi, tail),
                  (kink, -1.0, h_kink, step), (kink, 1.0, h_kink, step),
                  (first, -1.0, np.minimum(h_lo, lam), bridge)]
        anchor, sign, h, length = (np.stack(np.broadcast_arrays(gap, *col)[1:])
                                   for col in zip(*pieces))
        keep = np.any(length > 0.0, axis=1)
        anchor, sign, h, length = anchor[keep], sign[keep], h[keep], length[keep]
        h = np.minimum(np.where(sign > 0.0, np.minimum(h, lam), h), length)
        h_norm = h * root_m
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            rate = np.where(length > 0.0, h / length, np.inf)   # inf on an empty piece
        terms = _drlos_y_terms(y_c)

        def f(x):
            x = x[:, None, None]
            # K xi and e^(tau/m) leave double range where the weight is 0, and
            # 2 |y - K xi| past it where the cdf is 0
            with np.errstate(over="ignore"):
                stretch = 1.0 / (1.0 + x * rate)                # 0 on an empty piece
                tau = anchor + sign * (x * h * stretch)
                weight = np.exp(log_weight(tau)) * (h_norm * stretch * stretch)
                k_xi = np.where(weight > 0.0, np.minimum(np.exp(log_k + tau / lam), _HUGE), 1.0)
                return (weight * _drlos_cdf(terms, k_xi)).sum(axis=1)
        return f
    return integrand


def _fdrlos_kernel(integrand, law, rel_tol):
    """The kernel of the fdrlos laws for ``_law``, (y, k) -> values to
    relative accuracy ``rel_tol``: at K = 0 the product law, 2 K0(2 sqrt y)
    or ``_product_cdf(sqrt y)``, which no m changes, elsewhere one
    ``_by_chunks`` quadrature of ``integrand`` (``_scatter_average`` or
    ``_los_power_average``) per chunk.  The average runs even where no value
    is left, so that it checks ``rel_tol``."""
    pdf = law == "pdf"

    def kernel(y, k):
        zero = k == 0
        if not np.any(zero):
            return _by_chunks(integrand, y, k, rel_tol)
        zero = np.broadcast_to(zero, y.shape)
        out = np.empty(y.shape)
        root = np.sqrt(y[zero])
        out[zero] = 2.0 * k0(2.0 * root) if pdf else _product_cdf(root)
        rest = ~zero
        out[rest] = _by_chunks(integrand, y[rest], k[rest] if np.ndim(k) else k, rel_tol)
        return out
    return kernel


def fdrlos_pdf(gamma, params: FadingParams, *, rel_tol=1e-10):
    """SNR density of the fluctuating double-Rayleigh LoS model for every
    m > 0, to relative accuracy ``rel_tol``.

    The density f_y of y = (1+K) g/gbar given x averaged over e^{-x}:

        f(g) = (1+K)/gbar int_0^inf e^{-x} f_y(y/x; K/x, m) dx/x,

    at integer m up to 100 the density of the Binomial mixture that
    ``rs_cdf`` sums, at every other m the scaled 1F1 form; both are
    positive sums.  As for every density, ``_law`` reports an average below
    the smallest normal double (``specfun.TINY``) as 0 with an
    UnderflowWarning, and returns a value that (1+K)/gbar makes tiny.  At
    g = 0 the average is Gamma(m) U(m, 1, K/m), so f(0) = a(K, m) / gbar,
    the coding gain over gbar.  At K = 0 it is the product law
    2 K0(2 sqrt y), +inf at g = 0 (``_fdrlos_kernel``).  An array K or gbar
    broadcasts against gamma, each K with its own value at g = 0.
    """
    m, conditional = params.m, _conditional(params.m, "pdf")

    def at_zero(k):
        # the product law's pole at K = 0
        return [_gamma_u(v, m, rel_tol) if v > 0 else np.inf for v in k.tolist()]

    return _law(_fdrlos_kernel(_scatter_average(conditional, "pdf"), "pdf", rel_tol), "pdf",
                gamma, params.k, m,
                params.gamma_bar, at_zero)


#: a second name for ``fdrlos_pdf``; only ``perfbench/tracing.py`` reads it
fdrlos_pdf_oracle = fdrlos_pdf


def fdrlos_cdf(gamma, params: FadingParams, *, rel_tol=1e-10):
    """SNR cdf of the fluctuating double-Rayleigh LoS model for every m > 0,
    to relative accuracy ``rel_tol``.

    At integer m up to 100 the conditional Rician shadowed cdf, the finite
    Binomial mixture of ``rs_cdf``, averaged over e^{-x}; with
    b = g (K+1)/gbar and z = K/m,

        F(g) = int_0^inf e^{-x} sum_{j<m} Bin(j; m-1, x/(x+z)) P(m-j, b/(x+z)) dx,

    the paper's integral before t = K/m + x is substituted and (t - K/m)^j
    expanded.  At every other m the drlos cdf averaged over the LoS power
    (``_los_power_average``), as ``fdrlos_cdf_oracle`` is; it has no cap on
    m, and past about m = 1e15 it is the drlos limit to within rounding.
    Deep outage keeps its relative accuracy on both routes.  At K = 0 it is
    the product law ``_product_cdf(sqrt y)`` (``_fdrlos_kernel``).  An array
    K (an outage sweep over K) or gbar broadcasts against gamma.
    """
    m = params.m
    integrand = (_scatter_average(_conditional(m, "cdf"), "cdf") if _is_mixture(m)
                 else _los_power_average(m))
    return _law(_fdrlos_kernel(integrand, "cdf", rel_tol), "cdf", gamma, params.k, m,
                params.gamma_bar)


def fdrlos_cdf_oracle(gamma, params: FadingParams, *, rel_tol=1e-10):
    """Ground-truth cdf: the drlos cdf averaged over the LoS power
    (``_los_power_average``) at every m > 0, so at integer m up to 100, where
    ``fdrlos_cdf`` averages the Binomial mixture over the scatter, it shares
    no code with it but the closed forms at K = 0."""
    return _law(_fdrlos_kernel(_los_power_average(params.m), "cdf", rel_tol), "cdf", gamma,
                params.k, params.m, params.gamma_bar)


# ---------------------------------------------------------------------------
# high-SNR asymptote


def coding_gain(k, m, *, rel_tol=1e-10):
    """High-SNR power offset a = (1+K) Gamma(m) U(m, 1, K/m) for finite K > 0
    and every finite normal m > 0: a = gbar f(0), the density at 0 times the mean
    SNR, so the outage tends to a gamma_th / gbar.

    As m -> inf a tends to (1+K) 2 K0(2 sqrt K), gbar times the drlos
    density at 0, from above by about K K2(2 sqrt K) / (2 m K0(2 sqrt K))
    relative.  Diverges as K -> 0, but only like log(m/K) - psi(m) - 2 gamma_E
    (DLMF 13.2(iii)): the pure product channel has no order-1 asymptote, so
    K = 0 is rejected.  A Gamma(m) U below the smallest normal double (from
    about K = 1.25e5 at large m), which has lost digits to underflow,
    raises AccuracyError.  As m -> 0 the gain grows like (1+K)/m; it answers
    from m = 1e-305 (below about 5e-307 it refuses) to the largest double, by
    the left scale and the fold point of ``gamma_tricomi_u``.
    """
    u = _gamma_u(k, m, rel_tol)
    if not u >= TINY:
        raise AccuracyError(f"Gamma(m) U = {u:.3g} is below the smallest normal double", value=u)
    return (1.0 + k) * u


def _gamma_u(k, m, rel_tol):
    """Gamma(m) U(m, 1, K/m) = a/(1+K) once K and K/m are checked."""
    if not (np.ndim(k) == np.ndim(m) == 0 and 0 < k < math.inf and TINY <= m < math.inf
            and 0 < k / m < math.inf):
        raise DomainError("the coding gain needs finite K > 0 (it diverges at K = 0) and "
                          "finite m > 0, not subnormal, both scalars, with K/m in double "
                          f"range, got K = {k}, m = {m}")
    return gamma_tricomi_u(m, k / m, rel_tol=rel_tol)


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


def _rician_density(y, k):
    """``rician_pdf`` on checked arguments, z = 2 sqrt(K y) as 2 sqrt K sqrt y
    lest K y overflow."""
    root_k, root_y = np.sqrt(k), np.sqrt(y)
    return i0e(2.0 * root_k * root_y) * np.exp(-(root_k - root_y) ** 2)


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


def _drlos_density(y, k):
    """``drlos_pdf_oracle`` on checked arguments: 2 I0(2 sqrt a) K0(2 sqrt b),
    a and b the smaller and the larger of y and K, as scaled Bessels times
    e^(-2 gap), gap = sqrt b - sqrt a taken as |y - K| / (sqrt y + sqrt K),
    without cancellation or overflow; +inf at y = K = 0."""
    root_a, root_b = np.sqrt(np.minimum(y, k)), np.sqrt(np.maximum(y, k))
    # the sum of the roots is 0 only at y = K = 0, where the gap is 0 too
    gap = np.abs(y - k) / np.maximum(root_a + root_b, TINY)
    return 2.0 * i0e(2.0 * root_a) * k0e(2.0 * root_b) * np.exp(-2.0 * gap)


def _drlos_probability(y, k):
    """``drlos_cdf_oracle`` on checked arguments, y > 0: up to y = K
    2 sqrt y I1(2 sqrt y) K0(2 sqrt K), past it 1 - 2 sqrt y I0(2 sqrt K)
    K1(2 sqrt y), by the Wronskian x (I0 K1 + I1 K0)(x) = 1, scaled as in
    ``_drlos_density``.  From K = 1 up the difference costs at most a factor
    of 3 of eps, as F >= F(1) = 2 I1(2) K0(2) = 0.362 past y = K; below
    K = 1 F past y = K is F(K) + I0(2 sqrt K) (P(y) - P(K)), P the product
    law ``_product_cdf`` at sqrt y and sqrt K, which no cancellation costs
    relative accuracy, and which is P(y) at K = 0."""
    return _drlos_cdf(_drlos_y_terms(y), k)


def _drlos_y_terms(y):
    """The factors of ``_drlos_probability`` that depend on y alone:
    y, sqrt y, 2 sqrt y I1(2 sqrt y) e^(-2 sqrt y), K1(2 sqrt y) e^(2 sqrt y)
    and P(y), taken once for every K they meet (``_drlos_cdf``)."""
    y = np.asarray(y, dtype=float)
    root = np.sqrt(y)
    return y, root, 2.0 * root * i1e(2.0 * root), k1e(2.0 * root), _product_cdf(root)


def _drlos_cdf(terms, k):
    """``_drlos_probability`` from ``_drlos_y_terms``, broadcast against K:
    each value takes one Bessel function of sqrt K, K0 on its branch up to
    y = K and I0 past it, and the product law below K = 1."""
    y, root_y, up, down, prod_y, k = np.broadcast_arrays(*terms, k)
    root_k = np.sqrt(k)
    shade = np.exp(-2.0 * np.abs(y - k) / (root_y + root_k))
    right = y <= k
    bessel = np.empty(k.shape)
    bessel[right] = k0e(2.0 * root_k[right])
    bessel[~right] = i0e(2.0 * root_k[~right])
    out = np.where(right, up * bessel * shade, 1.0 - 2.0 * root_y * bessel * down * shade)
    low = ~right & (k < 1.0)
    r_k = root_k[low]
    with np.errstate(invalid="ignore"):     # 0 K0(0) at K = 0, where F(K) is 0
        at_k = np.where(r_k > 0.0, 2.0 * r_k * i1e(2.0 * r_k) * k0e(2.0 * r_k), 0.0)
    out[low] = at_k + i0(2.0 * r_k) * (prod_y[low] - _product_cdf(r_k))
    return out


def drlos_pdf_oracle(gamma, k, gbar):
    """Deterministic-LoS double-Rayleigh density (the m -> inf limit) in
    closed form: in y = (1+K) g/gbar, with a and b the smaller and the
    larger of y and K,

        f(y) = 2 I0(2 sqrt a) K0(2 sqrt b).

    The scatter W = G2 G3 has the plane density (2/pi) K0(2 |w|), and
    Y = |sqrt K + W|^2 its integral over the circle |sqrt K + w| = sqrt y,
    which Graf's addition theorem (DLMF 10.23(ii), 10.44(ii)) takes over the
    phase.  At g = 0 it is (1+K) 2 K0(2 sqrt K) / gbar, +inf at K = 0, and
    the kink at y = K is a value like any other.  K and gbar broadcast."""
    return _law(_drlos_density, "pdf", gamma, k, gbar=gbar)


def drlos_cdf_oracle(gamma, k, gbar):
    """Deterministic-LoS double-Rayleigh cdf (the m -> inf limit) in closed
    form, the integral of ``drlos_pdf_oracle``: in y = (1+K) g/gbar,

        F(y) = 2 sqrt y I1(2 sqrt y) K0(2 sqrt K)        for y <= K,
        F(y) = 1 - 2 sqrt y I0(2 sqrt K) K1(2 sqrt y)    for y > K,

    every value to relative accuracy, deep outage included
    (``_drlos_probability``).  K = 0 gives the product law
    1 - 2 sqrt y K1(2 sqrt y).  K and gbar broadcast."""
    return _law(_drlos_probability, "cdf", gamma, k, gbar=gbar)
