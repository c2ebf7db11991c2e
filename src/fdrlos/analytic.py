"""Closed-form and quadrature-oracle statistics of the fading models.

The fluctuating double-Rayleigh LoS SNR law is built by conditioning on the
squared magnitude x of the second scatter factor: given x the SNR is Rician
shadowed with K_x = K/x and mean gamma_bar_x = gamma_bar (K+x)/(K+1), and the
unconditional law follows by averaging against the unit-mean exponential
weight e^{-x}.

Two independent routes are kept for the main model on purpose:

* closed forms (integer m, K > 0) expressed through the generalized
  incomplete gamma Gamma(a, z, b), obtained by substituting
  t = K/m + x in the averaging integral and expanding (t - K/m)^j;
* quadrature oracles: one quadrature over x of the conditional Rician
  shadowed pdf (the 1F1 form, ``rs_pdf``) or cdf (``rs_cdf``, a positive
  negative-binomial series for every real m; no nested quadrature).

The closed-form cdf uses the inner summation limit s = 0..j that the
substitution actually produces; tests certify it against the oracle.
K = 0 removes the LoS term entirely (the law no longer depends on m) and is
served by the oracle path, avoiding 0^0 ambiguity in the closed-form weights.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field
from math import comb, factorial

import numpy as np
from scipy.special import (betainc, chndtr, gammainc, gammaln, i0e, poch,
                           xlog1py)

from .models import FadingParams
from .specfun import (AccuracyError, DomainError, QuadratureConfig,
                      adaptive_quad_vec, check_positive_int, gamma_tricomi_u,
                      gen_incomplete_gamma_scaled, log_kummer_1f1, rel_only_cfg)

_GAMMA_CHUNK = 32
_TERM_BLOCK = 2 ** 13     # Rician shadowed series terms per numpy pass
_MAX_WINDOW = 2 ** 20     # longest series window one cdf value may sum


class UnderflowWarning(RuntimeWarning):
    """A density/probability underflowed below 1e-300 and was reported as 0."""


def _check_snr(gamma):
    """Reject negative SNR values and NaN (which fails every comparison)."""
    if not np.all(gamma >= 0):
        raise DomainError("gamma must be nonnegative and not NaN")


def _over_snr(gamma, evaluate, at_inf, at_zero=np.nan):
    """Evaluate a law on a 1-d SNR grid, ``_GAMMA_CHUNK`` points per
    ``evaluate`` call (one vector quadrature each).  +inf points take the
    limit ``at_inf``, and 0 points ``at_zero`` unless it is NaN, unevaluated."""
    gamma_arr = np.atleast_1d(np.asarray(gamma, dtype=float))
    _check_snr(gamma_arr)
    out = np.where(gamma_arr == 0, at_zero, float(at_inf))
    todo = np.flatnonzero((gamma_arr > 0) & (gamma_arr < np.inf) | np.isnan(out))
    for lo in range(0, len(todo), _GAMMA_CHUNK):
        sel = todo[lo:lo + _GAMMA_CHUNK]
        out[sel] = evaluate(gamma_arr[sel])
    return out


def _scatter_average(conditional, gamma, k, gbar, cfg, at_inf, at_zero=np.nan):
    """Average a conditional law over the exponential scatter weight e^{-x}.

    ``conditional(g, k_x, gbar_x)`` receives the SNR chunk as a (1, ng) row
    and K_x = K/x, gbar_x = gbar (K+x)/(K+1) as (nx, 1) columns, and returns
    the (nx, ng) conditional values; ``at_inf``, ``at_zero`` as in ``_over_snr``.
    """

    def average(g):
        def f(x):
            k_x = (k / x)[:, None]
            gbar_x = (gbar * (k + x) / (k + 1.0))[:, None]
            return conditional(g[None, :], k_x, gbar_x) * np.exp(-x)[:, None]

        vals, _ = adaptive_quad_vec(f, 0.0, np.inf, cfg)
        return vals

    return _over_snr(gamma, average, at_inf, at_zero)


# ---------------------------------------------------------------------------
# curve container


@dataclass
class Curve:
    """A sampled function (grid, values) with provenance metadata."""

    abscissa: np.ndarray
    ordinate: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.abscissa = np.asarray(self.abscissa, dtype=float)
        self.ordinate = np.asarray(self.ordinate, dtype=float)
        if self.abscissa.shape != self.ordinate.shape or self.abscissa.ndim != 1:
            raise DomainError("abscissa and ordinate must be 1-d and equal length")
        if np.isnan(self.abscissa).any() or np.isnan(self.ordinate).any():
            raise DomainError("abscissa and ordinate must not contain NaN")
        if np.any(np.diff(self.abscissa) <= 0):
            raise DomainError("abscissa must be strictly increasing")
        quantity = self.meta.get("quantity")
        if quantity == "pdf" and np.any(self.ordinate < 0):
            raise DomainError("densities must be nonnegative")
        if quantity in ("cdf", "op") and (np.any(self.ordinate < 0)
                                          or np.any(self.ordinate > 1)):
            raise DomainError("probabilities must lie in [0, 1]")

    def write_csv(self, target) -> None:
        """Write `abscissa,value` rows with 17 significant digits (lossless)."""
        if hasattr(target, "write"):
            self._write(target)
        else:
            with open(target, "w", encoding="utf-8", newline="\n") as fh:
                self._write(fh)

    def _write(self, fh) -> None:
        fh.write("abscissa,value\n")
        for x, y in zip(self.abscissa, self.ordinate):
            fh.write(f"{x:.17g},{y:.17g}\n")

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        self._write(buf)
        return buf.getvalue()


def read_curve_csv(source) -> Curve:
    if hasattr(source, "read"):
        rows = list(csv.reader(source))
    else:
        with open(source, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    if not rows or rows[0] != ["abscissa", "value"]:
        raise DomainError("expected header 'abscissa,value'")
    data = np.array([[float(a), float(b)] for a, b in rows[1:]])
    return Curve(data[:, 0], data[:, 1])


# ---------------------------------------------------------------------------
# Rician shadowed building blocks


def _check_rs(gamma, k_x, m, gbar_x):
    """The Rician shadowed arguments as float arrays, after the domain checks."""
    gamma, k_x, gbar_x = (np.asarray(v, dtype=float) for v in (gamma, k_x, gbar_x))
    _check_snr(gamma)
    if not (m > 0) or np.any(k_x < 0) or np.any(gbar_x <= 0):
        raise DomainError("need m > 0, k_x >= 0 and gbar_x > 0")
    return gamma, k_x, gbar_x


def rs_pdf(gamma, k_x, m, gbar_x):
    """SNR density of the Rician shadowed model (any real m > 0).

    f(g) = m^m (1+K_x) / ((m+K_x)^m gbar_x) * exp(-(1+K_x) g / gbar_x)
           * 1F1(m; 1; K_x (1+K_x) g / ((K_x+m) gbar_x))

    Vectorizes over gamma and/or (k_x, gbar_x) by broadcasting; evaluated in
    log space so the huge-argument 1F1 against the tiny exponential prefactor
    stays finite.
    """
    gamma, k_x, gbar_x = _check_rs(gamma, k_x, m, gbar_x)
    w = k_x * (1.0 + k_x) * gamma / ((k_x + m) * gbar_x)
    logf = (m * math.log(m) + np.log1p(k_x) - m * np.log(m + k_x)
            - np.log(gbar_x) - (1.0 + k_x) * gamma / gbar_x
            + log_kummer_1f1(m, 1.0, w))
    out = np.exp(logf)
    return float(out) if out.ndim == 0 else out


def rs_cdf_integer(gamma, k_x, m, gbar_x):
    """``rs_cdf`` with m checked to be a positive integer."""
    return rs_cdf(gamma, k_x, check_positive_int(m, "m"), gbar_x)


def rs_cdf(gamma, k_x, m, gbar_x):
    """Rician shadowed SNR cdf for any real m > 0: a positive series.

    Rician shadowed is a Poisson-Gamma mixture (Abdi et al., IEEE TWC 2003): with
    y = g (1+K_x)/gbar_x and p = m/(m+K_x), F = sum_n NB(n) P(n+1, y), where
    NB(n) = C(n+m-1, n) p^m (1-p)^n and P is the regularized lower incomplete gamma.
    Only n in [lo, hi] = y -/+ (12 sqrt(y) + 30) is summed.  Below it F takes the NB
    mass I_p(m, lo), too large by at most I_p(m, lo) Q(lo, y); above it at most
    P(hi+1, y) is dropped: Poisson tails 12 standard deviations (or 30 terms) from
    y, below 2e-33.  Where I_p(m, lo) P(lo, y) <= F <= I_p(m, hi+1) + P(hi+1, y) is
    within rounding (huge y) no window is built.  Windows over ``_MAX_WINDOW`` terms,
    and m > 1e5 (log-gamma weights off by 1e-10), raise AccuracyError.  Each value is
    summed alone, in increasing n, so it does not depend on what it is broadcast with.
    """
    gamma, k_x, gbar_x = _check_rs(gamma, k_x, m, gbar_x)
    if m > 1e5:
        raise AccuracyError(f"the Rician shadowed series needs m <= 1e5, got {m:g}")
    # past 1e300 F is 1 unless the NB mass is there too, which the cap refuses
    y, k_x = np.broadcast_arrays(np.minimum(gamma * (1.0 + k_x) / gbar_x, 1e300), k_x)
    shape, y, p = y.shape, y.ravel(), (m / (m + k_x)).ravel()
    # the 1e-12 y term keeps lo below y where sqrt(y) < ulp(y)
    half = 12.0 * np.sqrt(y) + 30.0 + 1e-12 * y
    lo, hi = np.floor(np.maximum(y - half, 0.0)), np.ceil(y + half)
    below = betainc(m, lo, p) * (lo > 0)
    out = np.where(lo > 0, below * gammainc(lo, y), 0.0)
    upper = betainc(m, hi + 1.0, p) + gammainc(hi + 1.0, y)
    todo = np.flatnonzero(~(upper - out <= np.finfo(float).eps * out))
    count = np.where(p < 1.0, hi - lo + 1.0, 1.0)[todo]     # p = 1: all mass at n = 0
    if np.any(count > _MAX_WINDOW):
        raise AccuracyError(f"Rician shadowed series window of {count.max():.3g} terms")
    starts = np.concatenate(([0], np.cumsum(count.astype(np.int64))))
    sums = np.zeros(todo.size)
    for block in range(0, starts[-1], _TERM_BLOCK):
        t = np.arange(block, min(block + _TERM_BLOCK, starts[-1]))
        e = np.searchsorted(starts, t, side="right") - 1
        i, n = todo[e], lo[todo[e]] + (t - starts[e])
        log_poch = np.log(poch(n + 1.0, m - 1.0))
        big = np.isinf(log_poch)               # (n+1)^(m-1) past double range
        log_poch[big] = gammaln(n[big] + m) - gammaln(n[big] + 1.0)
        terms = np.exp(log_poch - gammaln(m) + m * np.log(p[i]) + xlog1py(n, -p[i])) \
            * gammainc(n + 1.0, y[i])
        # bincount adds in order; the carried partial sum rides on the first term
        terms[0] += sums[e[0]]
        sums[e[0]:e[-1] + 1] = np.bincount(e - e[0], terms)
    out[todo] = below[todo] + sums
    out = np.minimum(out, 1.0).reshape(shape)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# fluctuating double-Rayleigh LoS: closed forms


def _check_pdf_sign(values):
    values = np.atleast_1d(values)
    scale = float(np.max(np.abs(values), initial=0.0)) or 1.0
    if np.any(values < -1e-12 * scale):
        raise AccuracyError("cancellation produced a significantly negative "
                            "density; tighten the quadrature tolerances",
                            value=values)
    return np.maximum(values, 0.0)


def _flag_underflow(values):
    values = np.atleast_1d(values)
    tiny = (values != 0.0) & (np.abs(values) < 1e-300)
    if np.any(tiny):
        warnings.warn("values below 1e-300 reported as 0", UnderflowWarning)
        values = np.where(tiny, 0.0, values)
    return values


def fdrlos_pdf(gamma, params: FadingParams, cfg: QuadratureConfig | None = None):
    """SNR density of the fluctuating double-Rayleigh LoS model.

    Closed form for integer m and K > 0:

        f(g) = sum_{j<m} C(m-1,j) (K/m)^(m-j-1) (K+1)^(m-j) e^(K/m)
               / (gbar^(m-j) (m-j-1)!) * g^(m-j-1)
               * sum_{r<=j} C(j,r) (-K/m)^(j-r)
                 Gamma(r+j-2m+2, K/m, g (K+1)/gbar)

    evaluated with e^(K/m) folded into the Gamma integrals so large K never
    overflows.  K = 0 is routed to the quadrature oracle (the law is then the
    pure double-Rayleigh product, independent of m).
    """
    if params.k == 0.0:
        return fdrlos_pdf_oracle(gamma, params, cfg)
    m = params.require_integer_m()
    k, gbar = params.k, params.gamma_bar
    z = k / m
    a_values = np.arange(2 - 2 * m, 1)
    a_index = {a: i for i, a in enumerate(a_values)}
    comp_cfg = rel_only_cfg(cfg)

    def density(g):
        gig = gen_incomplete_gamma_scaled(a_values, z, g * (k + 1.0) / gbar, comp_cfg)
        total = np.zeros_like(g)
        for j in range(m):
            outer = (comb(m - 1, j) * z ** (m - j - 1)
                     * ((k + 1.0) / gbar) ** (m - j) / factorial(m - j - 1))
            inner = np.zeros_like(g)
            for r in range(j + 1):
                inner += (comb(j, r) * (-z) ** (j - r)
                          * gig[:, a_index[r + j - 2 * m + 2]])
            total += outer * g ** (m - j - 1) * inner
        return total

    out = _flag_underflow(_check_pdf_sign(_over_snr(gamma, density, 0.0)))
    return float(out[0]) if np.ndim(gamma) == 0 else out


def fdrlos_pdf_oracle(gamma, params: FadingParams,
                      cfg: QuadratureConfig | None = None):
    """Ground-truth density: conditional Rician shadowed pdf averaged over the
    exponential scatter weight, for any real m > 0 and K >= 0 (+inf at 0 if K = 0)."""
    out = _scatter_average(
        lambda g, k_x, gbar_x: rs_pdf(g, k_x, params.m, gbar_x),
        gamma, params.k, params.gamma_bar, rel_only_cfg(cfg), 0.0,
        np.inf if params.k == 0 else np.nan)
    return float(out[0]) if np.ndim(gamma) == 0 else out


def fdrlos_cdf(gamma, params: FadingParams, cfg: QuadratureConfig | None = None):
    """SNR cdf of the fluctuating double-Rayleigh LoS model.

    Closed form for integer m and K > 0 (triple sum; the inner limit is
    s = 0..j, which the binomial expansion of (t - K/m)^j requires):

        F(g) = 1 - sum_{j<m} C(m-1,j) (K/m)^(m-j-1) e^(K/m)
               sum_{r<m-j} b^r / r!
               sum_{s<=j} C(j,s) (-K/m)^(j-s) Gamma(s-m-r+2, K/m, b),

    with b = g (K+1)/gbar.  K = 0 goes through the oracle path.
    """
    if params.k == 0.0:
        return fdrlos_cdf_oracle(gamma, params, cfg)
    m = params.require_integer_m()
    k, gbar = params.k, params.gamma_bar
    z = k / m
    a_values = np.arange(3 - 2 * m, 2)
    a_index = {a: i for i, a in enumerate(a_values)}
    comp_cfg = rel_only_cfg(cfg)

    def distribution(g):
        b = g * (k + 1.0) / gbar
        gig = gen_incomplete_gamma_scaled(a_values, z, b, comp_cfg)
        surv = np.zeros_like(g)
        for j in range(m):
            cj = comb(m - 1, j) * z ** (m - j - 1)
            for r in range(m - j):
                br = cj * b ** r / factorial(r)
                for s in range(j + 1):
                    surv += (br * comb(j, s) * (-z) ** (j - s)
                             * gig[:, a_index[s - m - r + 2]])
        return 1.0 - surv

    out = np.clip(_over_snr(gamma, distribution, 1.0), 0.0, 1.0)
    return float(out[0]) if np.ndim(gamma) == 0 else out


def fdrlos_cdf_oracle(gamma, params: FadingParams,
                      cfg: QuadratureConfig | None = None):
    """Ground-truth cdf: the conditional Rician shadowed cdf (``rs_cdf``, a
    positive series for every real m) averaged over the exponential scatter
    weight, one quadrature over x per chunk of SNR values."""
    out = np.clip(_scatter_average(
        lambda g, k_x, gbar_x: rs_cdf(g, k_x, params.m, gbar_x),
        gamma, params.k, params.gamma_bar, rel_only_cfg(cfg), 1.0), 0.0, 1.0)
    return float(out[0]) if np.ndim(gamma) == 0 else out


# ---------------------------------------------------------------------------
# outage probability


def outage_probability(gamma_th, params: FadingParams,
                       cfg: QuadratureConfig | None = None):
    """P(snr < gamma_th) = F(gamma_th)."""
    if np.any(np.asarray(gamma_th) <= 0):
        raise DomainError("gamma_th must be positive")
    return fdrlos_cdf(gamma_th, params, cfg)


def coding_gain(k, m, cfg: QuadratureConfig | None = None):
    """High-SNR power offset a = (1+K) Gamma(m) U(m, 1, K/m).

    Diverges as K -> 0 (the pure product channel has no order-1 asymptote),
    so K = 0 is rejected.
    """
    if k <= 0:
        raise DomainError("coding gain diverges at K = 0; need K > 0")
    m = check_positive_int(m, "m")
    return (1.0 + k) * gamma_tricomi_u(m, k / m, cfg)


def asymptotic_op(gamma_th, gbar, k, m, cfg: QuadratureConfig | None = None):
    """High-SNR outage a * gamma_th / gbar; exact log-log slope -1 in gbar."""
    if gamma_th <= 0 or gbar <= 0:
        raise DomainError("gamma_th and gbar must be positive")
    return coding_gain(k, m, cfg) * gamma_th / gbar


# ---------------------------------------------------------------------------
# ancestor models (reference laws for comparisons)


def rician_pdf(gamma, k, gbar):
    """Rician SNR density (deterministic LoS, single-Rayleigh scatter)."""
    gamma = np.asarray(gamma, dtype=float)
    _check_snr(gamma)
    c = (1.0 + k) * gamma / gbar
    y = 2.0 * np.sqrt(k * c)
    out = (1.0 + k) / gbar * i0e(y) * np.exp(-(np.sqrt(k) - np.sqrt(c)) ** 2)
    return float(out) if out.ndim == 0 else out


def rician_cdf(gamma, k, gbar):
    """Rician SNR cdf via the noncentral chi-square law: ``chndtr`` at
    2 (1+K) g / gbar with 2 degrees of freedom and noncentrality 2K."""
    gamma = np.asarray(gamma, dtype=float)
    _check_snr(gamma)
    out = chndtr(2.0 * (1.0 + k) * gamma / gbar, 2, 2.0 * k)
    return float(out) if np.ndim(gamma) == 0 else out


def drlos_pdf_oracle(gamma, k, gbar, cfg: QuadratureConfig | None = None):
    """Deterministic-LoS double-Rayleigh density: the conditional law is plain
    Rician, averaged over the exponential scatter weight (the m -> inf limit)."""
    out = _scatter_average(rician_pdf, gamma, k, gbar, rel_only_cfg(cfg),
                           0.0, np.inf if k == 0 else np.nan)
    return float(out[0]) if np.ndim(gamma) == 0 else out


def drlos_cdf_oracle(gamma, k, gbar, cfg: QuadratureConfig | None = None):
    """Deterministic-LoS double-Rayleigh cdf by exponential averaging."""
    out = np.clip(_scatter_average(rician_cdf, gamma, k, gbar,
                                   rel_only_cfg(cfg), 1.0), 0.0, 1.0)
    return float(out[0]) if np.ndim(gamma) == 0 else out
