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
* quadrature oracles that integrate the conditional Rician shadowed
  pdf/cdf directly.

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
from scipy.special import chndtr, gammaincc, gammaln, i0e

from .models import FadingParams
from .specfun import (AccuracyError, DomainError, QuadratureConfig,
                      adaptive_quad_vec, check_positive_int, gamma_tricomi_u,
                      gen_incomplete_gamma_scaled, log_kummer_1f1, rel_only_cfg)

_DEFAULT = QuadratureConfig()
_GAMMA_CHUNK = 32


class UnderflowWarning(RuntimeWarning):
    """A density/probability underflowed below 1e-300 and was reported as 0."""


def _check_snr(gamma):
    """Reject negative SNR values and NaN (which fails every comparison)."""
    if not np.all(gamma >= 0):
        raise DomainError("gamma must be nonnegative and not NaN")


def _over_snr(gamma, evaluate, at_inf):
    """Evaluate a law on a 1-d SNR grid, ``_GAMMA_CHUNK`` finite points per
    ``evaluate`` call (one vector quadrature each); +inf points take the
    limit value ``at_inf`` without being evaluated."""
    gamma_arr = np.atleast_1d(np.asarray(gamma, dtype=float))
    _check_snr(gamma_arr)
    out = np.full(gamma_arr.shape, float(at_inf))
    finite = np.flatnonzero(np.isfinite(gamma_arr))
    for lo in range(0, len(finite), _GAMMA_CHUNK):
        sel = finite[lo:lo + _GAMMA_CHUNK]
        out[sel] = evaluate(gamma_arr[sel])
    return out


def _scatter_average(conditional, gamma, k, gbar, cfg, at_inf):
    """Average a conditional law over the exponential scatter weight e^{-x}.

    ``conditional(g, k_x, gbar_x)`` receives the SNR chunk as a (1, ng) row
    and K_x = K/x, gbar_x = gbar (K+x)/(K+1) as (nx, 1) columns, and returns
    the (nx, ng) conditional values.
    """

    def average(g):
        def f(x):
            k_x = (k / x)[:, None]
            gbar_x = (gbar * (k + x) / (k + 1.0))[:, None]
            return conditional(g[None, :], k_x, gbar_x) * np.exp(-x)[:, None]

        vals, _ = adaptive_quad_vec(f, 0.0, np.inf, cfg)
        return vals

    return _over_snr(gamma, average, at_inf)


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


def rs_pdf(gamma, k_x, m, gbar_x):
    """SNR density of the Rician shadowed model (any real m > 0).

    f(g) = m^m (1+K_x) / ((m+K_x)^m gbar_x) * exp(-(1+K_x) g / gbar_x)
           * 1F1(m; 1; K_x (1+K_x) g / ((K_x+m) gbar_x))

    Vectorizes over gamma and/or (k_x, gbar_x) by broadcasting; evaluated in
    log space so the huge-argument 1F1 against the tiny exponential prefactor
    stays finite.
    """
    gamma = np.asarray(gamma, dtype=float)
    k_x = np.asarray(k_x, dtype=float)
    gbar_x = np.asarray(gbar_x, dtype=float)
    _check_snr(gamma)
    if not (m > 0):
        raise DomainError("m must be positive")
    if np.any(k_x < 0) or np.any(gbar_x <= 0):
        raise DomainError("need k_x >= 0 and gbar_x > 0")
    w = k_x * (1.0 + k_x) * gamma / ((k_x + m) * gbar_x)
    logf = (m * math.log(m) + np.log1p(k_x) - m * np.log(m + k_x)
            - np.log(gbar_x) - (1.0 + k_x) * gamma / gbar_x
            + log_kummer_1f1(m, 1.0, w))
    out = np.exp(logf)
    return float(out) if out.ndim == 0 else out


def rs_cdf_integer(gamma, k_x, m, gbar_x):
    """Rician shadowed SNR cdf for integer m.

    Mixture of Erlang cdfs: F = 1 - sum_j C_j * Q(m-j, g/Omega) with Q the
    regularized upper incomplete gamma (equals the finite exponential sum
    e^-y sum_{r<m-j} y^r/r! at integer shape, but stays stable for large y).
    """
    m = check_positive_int(m, "m")
    gamma = np.asarray(gamma, dtype=float)
    k_x = np.asarray(k_x, dtype=float)
    gbar_x = np.asarray(gbar_x, dtype=float)
    _check_snr(gamma)
    omega = gbar_x * (k_x + m) / (m * (1.0 + k_x))
    y = gamma / omega
    p = m / (m + k_x)
    q = k_x / (k_x + m)
    surv = np.zeros(np.broadcast(gamma, k_x, gbar_x).shape)
    for j in range(m):
        if j == m - 1:
            logc = gammaln(m) - gammaln(j + 1.0) - gammaln(m - j + 0.0) \
                + j * np.log(p)
        else:
            with np.errstate(divide="ignore"):
                logc = np.where(q > 0,
                                gammaln(m) - gammaln(j + 1.0) - gammaln(m - j + 0.0)
                                + j * np.log(p)
                                + (m - 1 - j) * np.log(np.where(q > 0, q, 1.0)),
                                -np.inf)
        surv = surv + np.exp(logc) * gammaincc(m - j, y)
    out = np.clip(1.0 - surv, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def rs_cdf(gamma, k_x, m, gbar_x, cfg: QuadratureConfig | None = None):
    """Rician shadowed cdf; closed form at integer m, else quadrature of rs_pdf.

    Broadcasts gamma against (k_x, gbar_x) at every m, e.g. a (1, ng) SNR
    row against (nx, 1) parameter columns.  At real m each gamma value is
    one vector quadrature of rs_pdf over the (k_x, gbar_x) pairs it meets.
    """
    if m == int(m):
        return rs_cdf_integer(gamma, k_x, int(m), gbar_x)
    gamma = np.asarray(gamma, dtype=float)
    _check_snr(gamma)
    g_all, k_all, gbar_all = np.broadcast_arrays(gamma, k_x, gbar_x)
    which = np.broadcast_to(np.arange(gamma.size).reshape(gamma.shape), g_all.shape)
    out = np.zeros(g_all.shape)
    for i, g in enumerate(gamma.ravel()):
        if g == 0.0:
            continue
        sel = which == i
        k_sel = k_all[sel][None, :]
        gbar_sel = gbar_all[sel][None, :]
        vals, _ = adaptive_quad_vec(lambda u: rs_pdf(u[:, None], k_sel, m, gbar_sel),
                                    0.0, float(g), cfg or _DEFAULT)
        out[sel] = np.clip(vals, 0.0, 1.0)
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
    cfg = cfg or _DEFAULT
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
    exponential scatter weight.  Valid for any real m > 0 and K >= 0."""
    out = _scatter_average(
        lambda g, k_x, gbar_x: rs_pdf(g, k_x, params.m, gbar_x),
        gamma, params.k, params.gamma_bar, rel_only_cfg(cfg or _DEFAULT), 0.0)
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
    cfg = cfg or _DEFAULT
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
    """Ground-truth cdf: conditional Rician shadowed cdf (``rs_cdf``: the
    Erlang mixture at integer m, a quadrature of rs_pdf at real m) averaged
    over the exponential scatter weight."""
    cfg = rel_only_cfg(cfg or _DEFAULT)
    out = np.clip(_scatter_average(
        lambda g, k_x, gbar_x: rs_cdf(g, k_x, params.m, gbar_x, cfg),
        gamma, params.k, params.gamma_bar, cfg, 1.0), 0.0, 1.0)
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
    out = _scatter_average(rician_pdf, gamma, k, gbar,
                           rel_only_cfg(cfg or _DEFAULT), 0.0)
    return float(out[0]) if np.ndim(gamma) == 0 else out


def drlos_cdf_oracle(gamma, k, gbar, cfg: QuadratureConfig | None = None):
    """Deterministic-LoS double-Rayleigh cdf by exponential averaging."""
    out = np.clip(_scatter_average(rician_cdf, gamma, k, gbar,
                                   rel_only_cfg(cfg or _DEFAULT), 1.0), 0.0, 1.0)
    return float(out[0]) if np.ndim(gamma) == 0 else out
