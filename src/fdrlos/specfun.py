"""Special-function kernels: adaptive quadrature, log 1F1(a; 1; x),
Gamma(m) U(m, 1, z) and the Poisson and negative-binomial log masses.

Each job has one kernel, in the one form the statistics in ``analytic``
call: ``adaptive_quad_vec`` for every integral (all on [0, inf)),
``log_kummer_1f1`` (at b = 1, scaled by e^-x) for the Rician shadowed
density at real m, ``gamma_tricomi_u`` (one integrand at every m, in the
log of the scatter variable of ``analytic``, folded about its peak) for the
high-SNR offset, and ``log_poisson_pmf`` and ``log_negbin_pmf`` (Loader's
saddle-point forms, built on ``stirlerr`` and ``bd0``) for the anchors of the
Rician shadowed series and of the 1F1 series, accurate to about 1e-16 where
n ~ 1e6.

Everything here is a pure function of its arguments; no shared mutable state.
The quadrature engine evaluates vector-valued integrands with per-component
error control, which is what the mixture-sum evaluations downstream need
(their components span many orders of magnitude, so a max-norm control would
leave the small components inaccurate), relative down to ``TINY``, the
smallest normal double; below it one rule, stated at ``TINY``, holds for
every caller.  It refines in rounds: every panel
that fails its width's share of the tolerance is halved in the same round, and
all the nodes of a round go to the integrand in one call, so a quadrature
costs a few large integrand calls rather than one small call per panel.  The
real-a series of ``log_kummer_1f1`` sums each value over its own window of
at most 22 sqrt(max(k*, x) + 1) + 21 terms about the terms' peak k*, as running
products on a linear scale (``cumprod``, then ``cumsum``, down the term axis
of one block per band of window lengths), so the large batches a round
hands it cost about the sum of their values' window lengths and no per-term
log, and each value is summed in the same order whatever its batch.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, xlogy


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class AccuracyError(ArithmeticError):
    """Requested accuracy could not be certified.

    Carries the best available estimate so callers can decide whether to
    degrade gracefully.
    """

    def __init__(self, message, value=None, err_estimate=None):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


#: smallest relative tolerance a double-precision Gauss-Kronrod estimate can
#: certify (QUADPACK's 50 machine epsilons, about 1.1e-14)
REL_TOL_FLOOR = 50.0 * float(np.finfo(float).eps)
#: the one underflow floor, the smallest normal double.  Down to it every
#: quadrature certifies relative accuracy, since the components of one
#: integral span many decades; a component whose sum lies below it is done.
#: Below it a double has lost digits, and one rule holds, applied in two
#: places only: ``analytic._law`` reports a density of any law as 0 with an
#: UnderflowWarning and refuses a probability with AccuracyError, and
#: ``analytic.coding_gain`` refuses a gain with AccuracyError
TINY = np.finfo(float).tiny
#: panel splits one quadrature may make before it raises AccuracyError
_MAX_SUBDIVISIONS = 400


def check_rel_tol(rel_tol):
    """A DomainError unless ``rel_tol`` lies in [``REL_TOL_FLOOR``, 1).

    Below the floor rounding in the panel sums exceeds the requested error and
    no subdivision budget helps, and a relative error of 1 or more certifies
    nothing.
    """
    if not (REL_TOL_FLOOR <= rel_tol < 1.0):
        raise DomainError(f"rel_tol must be in [{REL_TOL_FLOOR:.3g}, 1): at "
                          "least 50 machine epsilons and below 1")


# Gauss-Kronrod 7-15 pair on [-1, 1]; the 7-point Gauss nodes are the
# odd-indexed Kronrod nodes.
_K15_NODES = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_K15_WEIGHTS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_G7_WEIGHTS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])
_G7_IDX = np.arange(1, 15, 2)


def adaptive_quad_vec(f, *, rel_tol=1e-10):
    """Adaptive Gauss-Kronrod 7-15 on [0, inf) for a vector-valued
    integrand, refined in rounds.

    ``f(x)`` takes a 1-d array of abscissae x >= 0 and returns either a
    same-length array (scalar integrand) or an (npoints, ncomp) matrix.
    Every component is integrated to ``rel_tol * |component|``, so small
    components keep their relative accuracy; one whose sum lies below
    ``TINY`` is done (its caller applies the rule stated there).  The
    half-line, the range of the scatter averages and the coding gain, is
    folded onto [0, 1) by x = u/(1-u); to integrate from z > 0 on, integrate
    f(z + x).

    [0, 1) starts as 8 equal panels, all in one call of ``f``.  Each round
    then halves every panel [a, b] whose error exceeds its width's share of
    the tolerance of some component not yet met, err_p > tol_c (b - a)
    (Shampine's vectorized rule, as in MATLAB's ``quadgk``), and evaluates
    all the halves in one more call: one call of ``f`` per round, whatever
    the number of panels.  The budget of 400 subdivisions counts halved
    panels, not rounds; a round that would pass it halves only the panels
    worst against their share.

    Returns ``(values, err_estimates)`` as arrays of shape (ncomp,).
    Raises :class:`AccuracyError` (carrying the last values and error
    estimates) once the budget is spent without meeting the tolerance, and
    :class:`DomainError` at the first call whose values include NaN or
    +-inf.
    """
    check_rel_tol(rel_tol)

    def evaluate(a, b):
        """Kronrod sums and error estimates of the panels [a, b], one call of f."""
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        u = (c[:, None] + h[:, None] * _K15_NODES).ravel()
        w = 1.0 - u
        v = np.asarray(f(u / w), dtype=float).reshape(u.size, -1) * (1.0 / (w * w))[:, None]
        v = v.reshape(a.size, _K15_NODES.size, -1)
        if not np.isfinite(v).all():
            raise DomainError("integrand returned NaN or inf")
        ik = h[:, None] * (_K15_WEIGHTS @ v)
        ig = h[:, None] * (_G7_WEIGHTS @ v[:, _G7_IDX])
        return ik, np.abs(ik - ig)

    edges = np.linspace(0.0, 1.0, 9)
    a, b = edges[:-1], edges[1:]
    ik, err = evaluate(a, b)
    budget = _MAX_SUBDIVISIONS
    while True:
        sums, errs = ik.sum(axis=0), err.sum(axis=0)
        tol = rel_tol * np.abs(sums)
        # a NaN estimate stays open; a sum below TINY is done
        open_c = ~(errs <= tol) & ~(np.abs(sums) < TINY)
        if not open_c.any():
            return sums, errs
        if budget == 0:
            raise AccuracyError(
                f"quadrature did not converge within {_MAX_SUBDIVISIONS} subdivisions "
                f"(worst error {float(np.max(errs)):.3e})",
                value=sums, err_estimate=errs)
        # each panel's error against its width's share of every open
        # tolerance: a ratio above 1 fails it.  The shares sum to the whole,
        # so some panel fails unless rounding hides it; then, or where the
        # failures pass the budget, the worst are halved
        share = np.max(err[:, open_c] / tol[open_c], axis=1) * (1.0 / (b - a))
        split = np.flatnonzero(share > 1.0)
        if not 0 < split.size <= budget:
            split = np.argsort(share)[::-1][:max(1, min(split.size, budget))]
        budget -= split.size
        keep = np.ones(a.size, dtype=bool)
        keep[split] = False
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate([a[split], mid])
        new_b = np.concatenate([mid, b[split]])
        new_ik, new_err = evaluate(new_a, new_b)
        a, b = np.concatenate([a[keep], new_a]), np.concatenate([b[keep], new_b])
        ik, err = np.concatenate([ik[keep], new_ik]), np.concatenate([err[keep], new_err])


#: the 1F1 window spans the peak k* of its terms -+ (_WINDOW_SIGMAS
#: sqrt(max(k*, x) + 1) + _WINDOW_PAD) terms.  The terms spread about k* by
#: at most sqrt(max(k*, x)), and for a up to 1e4 these windows leave out at
#: most e^-52 of the sum, against the e^-37 they must certify
_WINDOW_SIGMAS = 11.0
_WINDOW_PAD = 10.0
#: the most terms one value's series may sum: the 1F1 series here and the
#: Rician shadowed series of ``analytic`` refuse a longer window
MAX_TERMS = 2 ** 20
#: terms x values per cumprod/cumsum pass of the 1F1 series: 0.5 MB a
#: temporary, unless one window is longer
_BLOCK_ENTRIES = 2 ** 16
#: the terms outside a 1F1 window must sum below e^-37 (about 1e-16) of it
_SERIES_REL_TAIL = math.exp(-37.0)
#: the large-x 1F1 expansion stops once a term is below this fraction of the sum
_ASYMPTOTIC_REL_GOAL = 1e-13


def log_kummer_1f1(a, x):
    """log(e^-x 1F1(a; 1; x)), the log scaled as ``i0e`` is, for a > 0 and
    x >= 0, vectorized over x.  b = 1 is the one 1F1 the Rician shadowed
    density takes.  An internal kernel: its one caller, the density of
    ``analytic``, checks the arguments.

    Up to x = max(200, a^2) the positive series over each value's own window
    of terms about their peak, summed on a linear scale as running products
    from an anchor at the window's bottom, exact (-x) where the window starts
    at k = 0 and from Loader's saddle-point masses above it, with k = 0 added
    apart; past that the large-x expansion, whose terms fall from the first,
    with its second branch.  Neither forms e^x.  A window whose left-out terms
    cannot be bounded below e^-37 of its sum, or longer than 2^20 terms (x past
    about 2.3e9), raises AccuracyError.
    """
    a = float(a)
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty_like(flat)
    big = flat > max(200.0, a * a)
    out[~big] = _log_1f1_series_vec(a, flat[~big])
    out[big] = _log_1f1_asymptotic_vec(a, flat[big])
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _log_1f1_series_vec(a, x):
    """The series of ``log_kummer_1f1``, elementwise.

    The terms t_k = (a)_k x^k e^-x / k!^2 rise while their ratio
    r_k = (a-1+k) x / k^2 exceeds 1 and peak at k*, the root of
    (a-1+k) x = k^2.  Each value sums its window [lo, hi] =
    k* -+ (11 sqrt(max(k*, x) + 1) + 10), lo clipped at 0, as
    t_lo (1 + sum_j s_j) with s_j = t_{lo+j}/t_lo the running products of
    the ratios (``_window_sums``).  The anchor t_lo is e^-x at lo = 0, and
    above it (a)_lo/lo! times the Poisson mass at lo, both from Loader's
    saddle-point log masses, where t_0/t_lo = e^(-x - log t_lo) is added.
    The sum is certified: the ratios fall from k = 2 on, so the terms above
    hi add at most t_hi r/(1-r) with r = r_{hi+1}, and those from 1 to lo - 1,
    which rise to t_lo, at most (lo - 1) t_lo; the two must stay below e^-37
    of the window's sum.
    """
    if not x.size:
        return x
    peak = np.floor(0.5 * (x + np.sqrt(np.maximum(x * x + 4.0 * (a - 1.0) * x, 0.0))))
    half = _WINDOW_SIGMAS * np.sqrt(np.maximum(peak, x) + 1.0) + _WINDOW_PAD
    lo, hi = np.maximum(np.floor(peak - half), 0.0), np.ceil(peak + half)
    count = hi - lo + 1.0
    if count.max() > MAX_TERMS:
        raise AccuracyError(f"1F1 series window of {count.max():.3g} terms, "
                            f"past the cap of {MAX_TERMS}")
    rest, last = _window_sums(a, x, lo, count.astype(np.intp))
    log_lo = -x
    far = lo > 0
    if far.any():
        log_lo[far] = (_log_rising_over_factorial(lo[far], a)
                       + log_poisson_pmf(lo[far], x[far]))
        rest[far] += np.exp(-x[far] - log_lo[far])
    k = hi + 1.0
    r = ((k - 1.0) + a) * x / (k * k)
    with np.errstate(divide="ignore", invalid="ignore"):
        left_out = last * r / (1.0 - r) + np.maximum(lo - 1.0, 0.0)
        certified = (r < 1.0) & (left_out <= _SERIES_REL_TAIL * (1.0 + rest))
    if not certified.all():
        raise AccuracyError("1F1 series window cannot bound the terms it leaves out")
    return log_lo + np.log1p(rest)


def _log_rising_over_factorial(k, a):
    """log((a)_k / k!) = log C(k+a-1, k) for integers k >= 1: the negative-
    binomial log mass at its own saddle point p = a/(k+a), where its deviance
    terms vanish, less a log p + k log(1-p), with a log1p(k/a) taken as
    a (log k - log a) below a = 1e-300, where k/a may pass double range."""
    pull = a * (np.log(k) - math.log(a)) if a < 1e-300 else a * np.log1p(k / a)
    return log_negbin_pmf(k, a, a / (k + a), k / (k + a)) + pull + k * np.log1p(a / k)


def _window_sums(a, x, lo, count):
    """Per value, the sum of s_1 .. s_{count-1} and s_{count-1}, where s_j is
    t_{lo+j}/t_lo, the running product of the ratios r_{lo+1} .. r_{lo+j}.

    The terms run down axis 0 of one (terms, values) block, first ``cumprod``
    and then ``cumsum``, both sequential, so every value is summed from its
    lo in the same order whatever it is batched with.  Values are grouped in
    quarter-octave bands of window length, each block as long as the longest
    window of its band and of at most ``_BLOCK_ENTRIES`` entries unless one
    window is longer (a column of up to ``MAX_TERMS``, 8 MB), and a value
    reads its own last row.  Where lo = 0 the ratios are x times one shared
    column (a-1+k)/k^2.
    """
    rest, last = np.zeros(x.size), np.ones(x.size)
    shared = lo == 0
    band = 2.0 * np.ceil(4.0 * np.log2(count)) + shared
    order = np.argsort(band, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(band[order])) + 1)
    top = int(count[shared].max()) if shared.any() else 1
    j = np.arange(1.0, top)
    coef = ((j - 1.0) + a) / (j * j)
    for idx in groups:
        length = int(count[idx].max())
        cols = max(1, _BLOCK_ENTRIES // length)
        for c0 in range(0, idx.size, cols):
            sel = idx[c0:c0 + cols]
            x_c = x[sel]
            end = count[sel] - 2, np.arange(sel.size)     # s_{count-1}, in row count - 2
            if shared[sel[0]]:
                s = coef[:length - 1, None] * x_c
            else:
                k = lo[sel] + np.arange(1.0, length)[:, None]
                # (k - 1) + a, so that a tiny a is not rounded away; in place
                s = k - 1.0
                s += a
                s *= x_c
                s /= k * k
            np.cumprod(s, axis=0, out=s)
            last[sel] = s[end]
            np.cumsum(s, axis=0, out=s)
            rest[sel] = s[end]
    return rest, last


def _log_1f1_asymptotic_vec(a, x):
    """log of e^-x times the large-x expansion (DLMF 13.7.2)
    x^(a-1) / Gamma(a) sum_k ((1-a)_k)^2 / (k! x^k) + e^-x x^-a / Gamma(1-a),
    elementwise, at x > max(200, a^2), where each term of the sum is >= 0 and
    the next is below max(1/(k+1), (k+1)/200) times it: the sum meets 1e-13
    within 16 terms.  The second branch, its leading term alone, matters only
    at tiny a (below about 1e-69 just past x = 200), where its own series and
    its Stokes factor cos(pi a) differ from 1 by O(a^2); elsewhere it stays
    below e^-37 of the sum, and at integer a it is 0."""
    if not x.size:
        return x
    log_pref = (a - 1.0) * np.log(x) - gammaln(a)
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(60):
        term = term * (1.0 - a + k) ** 2 / ((k + 1.0) * x)
        total = total + term
        if np.all(term <= _ASYMPTOTIC_REL_GOAL * total):
            break
    return np.logaddexp(log_pref + np.log(total), -x - a * np.log(x) - gammaln(1.0 - a))


#: B_2k / (2k (2k-1)), k = 1..8, of Stirling's series; eight terms leave
#: 3e-17 at x = 10
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400)
#: where the Stirling series starts; below it ``stirlerr`` steps up
_STIRLING_FROM = 10


def stirlerr(x):
    """Stirling's remainder log Gamma(x+1) - (x + 1/2) log x + x - log sqrt(2 pi)
    for x > 0, vectorized, to about 1e-16 absolute (Loader 2000).

    From x = 10 the asymptotic series; below it, integer or not, ten steps of
    s(x) = s(x+1) + (x + 1/2) log1p(1/x) - 1 from s(x + 10).  No step
    subtracts large terms, as lgamma(x+1) - (x + 1/2) log x would.
    """
    x = np.asarray(x, dtype=float)
    small = x < _STIRLING_FROM
    iz = 1.0 / np.where(small, x + _STIRLING_FROM, x)
    z2 = iz * iz
    series = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        series = c + z2 * series
    out = np.asarray(series * iz)
    if np.any(small):
        t = x[small, None] + np.arange(_STIRLING_FROM)
        out[small] += np.sum((t + 0.5) * np.log1p(1.0 / t) - 1.0, axis=-1)
    return out


def bd0(x, lam):
    """The deviance term x log(x/lam) + lam - x >= 0 for x >= 0, lam > 0,
    vectorized, to a few eps relative (Loader 2000): where x is within 10% of
    lam as the series in v = (x - lam)/(x + lam), which cancels nothing."""
    x, lam = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(lam, dtype=float))
    d, s = x - lam, x + lam
    # x/lam past double range (a subnormal lam) makes the deviance +inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = d / s
        far = xlogy(x, x / lam) - d
        near_sum = d * v
        term, v2 = 2.0 * x * v, v * v
        # |v| < 0.1 there, so nine more terms reach 1e-17 relative
        for j in range(1, 10):
            term = term * v2
            near_sum = near_sum + term / (2 * j + 1)
    return np.where(np.abs(d) < 0.1 * s, near_sum, far)


def log_poisson_pmf(n, lam):
    """log(lam^n e^-lam / n!) for integers n >= 0 and lam >= 0, vectorized,
    in Loader's (2000) deviance form -bd0(n, lam) - stirlerr(n) - log(2 pi n)/2:
    about 1e-16 absolute where n ~ lam ~ 1e6, where the plain
    n log lam - lam - lgamma(n+1) loses eps lam."""
    n, lam = np.broadcast_arrays(np.asarray(n, dtype=float), np.asarray(lam, dtype=float))
    pos = np.maximum(n, 1.0)
    out = -bd0(pos, lam) - stirlerr(pos) - 0.5 * np.log(2.0 * np.pi * pos)
    return np.where(n == 0, -lam, out)


def log_negbin_pmf(n, m, p, q):
    """log of the negative-binomial mass C(n+m-1, n) p^m q^n for integers
    n >= 0, real m > 0 and q = 1 - p (passed separately so neither loses
    digits), vectorized over n, p and q.

    n = 0 is m log1p(-q) (m log p for q >= 0.1); above it Loader's saddle
    point form (R's dnbinom), a sum of small terms whatever m and n:
    stirlerr(n+m) - stirlerr(m) - stirlerr(n) - bd0(m, (n+m) p)
    - bd0(n, (n+m) q) + log(m / (2 pi n (n+m)))/2.
    """
    n, p, q = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (n, p, q)))
    pos = np.maximum(n, 1.0)
    total = pos + m
    with np.errstate(divide="ignore"):
        out = (stirlerr(total) - stirlerr(m) - stirlerr(pos) - bd0(m, total * p)
               - bd0(pos, total * q) + 0.5 * np.log(m / (2.0 * np.pi * pos * total)))
        at_zero = m * np.where(q < 0.1, np.log1p(-q), np.log(p))
    return np.where(n == 0, at_zero, out)


def gamma_tricomi_u(m, z, *, rel_tol=1e-10):
    """Gamma(m) * U(m, 1, z) for finite m > 0 and finite z > 0, to relative
    accuracy ``rel_tol``: the high-SNR offset needs exactly this product,
    which stays finite where Gamma(m) alone would overflow.  An internal
    kernel: its one caller in ``analytic`` checks m and z.

    In t = log x, x the scatter variable of ``analytic``, it is

        int_-inf^inf e^(psi(t)) dt,  psi(t) = -e^t - m log(1 + z e^-t),

    one integrand for every m and z, its log by ``logaddexp`` so that no x
    underflows to 0.  e^psi peaks at t* = log x*, x (x + z) = m z, and falls
    like e^(m t) to the left and doubly exponentially to the right.  One
    quadrature folds it about t* into the components e^psi(t* + s) and
    e^psi(t* - s/lam), s >= 0, divided by e^psi(t*), which is multiplied
    back, so no node underflows however low the peak.  The fold point
    c = log z - t* = log r + asinh(r/2), r = sqrt(z/m), forms neither z/m
    nor z + 4m and is rounded once: psi(t* + s) = -z e^(s - c)
    - m log(1 + e^(c - s)), so no rounded log z shifts the two terms apart,
    which would act as a change in z amplified about sqrt(K)-fold at large
    m.  Past s - c = 700 the first term is (z e^(-c/2)) e^(s - c/2), since
    at m near 1e307 e^(s - c) overflows before e^psi nears 0.  The left
    half falls like e^(-m s), so it runs in sigma = lam s, lam = min(1,
    max(1000 m, 1e-300)): it falls like e^(-sigma/1000) with the peak still
    resolved (lam = m leaves an error of about m^2), and lam = 1 from
    m = 1e-3.  The value is returned as computed, below the smallest normal
    double too (from about K = 1.25e5 at large m): ``analytic`` applies the
    rule of ``TINY`` to it.
    """
    log_r = 0.5 * (math.log(z) - math.log(m))
    c = log_r + math.asinh(0.5 * math.exp(log_r))
    lam = min(1.0, max(1000.0 * m, 1e-300))     # unfloored, m = 1e-307 came 1.6e-8 off

    def psi(s):
        with np.errstate(over="ignore"):    # far right, e^(s-c) is inf and e^psi 0
            right = np.where(s - c < 700.0, z * np.exp(s - c),
                             (z * math.exp(-0.5 * c)) * np.exp(s - 0.5 * c))
            return -right - m * np.logaddexp(0.0, c - s)

    psi_peak = float(psi(0.0))

    def f(s):
        with np.errstate(over="ignore"):    # s/lam is inf where e^psi is 0
            return np.exp(psi(np.stack([s, -s / lam], axis=1)) - psi_peak) * [lam, 1.0]

    vals, _ = adaptive_quad_vec(f, rel_tol=rel_tol)
    return float(vals.sum()) / lam * math.exp(psi_peak)
