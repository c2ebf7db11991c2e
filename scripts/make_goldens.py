"""Make the Rician shadowed cdf goldens frozen in ``tests/test_analytic.py``.

Each value integrates the 1F1 form of the Rician shadowed density with
mpmath, so it shares nothing with the negative-binomial series that
``fdrlos.analytic.rs_cdf`` sums:

    f(t) = m^m (1+K) / ((m+K)^m gbar) exp(-(1+K) t / gbar)
           * 1F1(m; 1; K (1+K) t / ((K+m) gbar)).

Both F(g) = int_0^g f and S(g) = int_g^inf f are integrated; a case is kept
only if F + S = 1 to 25 digits, and the smaller of the two gives the value
(F directly, or 1 - S), so deep-outage values keep their relative accuracy.
Every value is computed at 40 and at 50 digits and must agree to 20.

Run from the repository root (about ten seconds on one core):

    python3 scripts/make_goldens.py
"""

from __future__ import annotations

import mpmath as mp

DPS = (40, 50)

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


def rs_pdf(t, k, m, gbar):
    k, m, gbar = mp.mpf(k), mp.mpf(m), mp.mpf(gbar)
    return (m ** m * (1 + k) / ((m + k) ** m * gbar) * mp.exp(-(1 + k) * t / gbar)
            * mp.hyp1f1(m, 1, k * (1 + k) * t / ((k + m) * gbar)))


def rs_cdf(g, k, m, gbar, dps):
    """F(g) from the 1F1 density at ``dps`` digits."""
    with mp.workdps(dps):
        g = mp.mpf(g)
        # the density lives on the scale of its mean gbar; split there so
        # tanh-sinh sees one smooth piece per panel
        scale = mp.mpf(gbar)
        breaks = [t for t in (scale / 4, scale, 4 * scale, 16 * scale) if t < g]
        below = mp.quad(lambda t: rs_pdf(t, k, m, gbar), [0] + breaks + [g])
        above_breaks = [t for t in (scale, 4 * scale, 16 * scale) if t > g]
        above = mp.quad(lambda t: rs_pdf(t, k, m, gbar), [g] + above_breaks + [mp.inf])
        if abs(below + above - 1) > mp.mpf(10) ** -25:
            raise ArithmeticError(f"F + S = {below + above} at {(g, k, m, gbar)}")
        return below if below < above else 1 - above


def main():
    for name, g, k, m, gbar in CASES:
        lo, hi = (rs_cdf(g, k, m, gbar, dps) for dps in DPS)
        if abs(lo - hi) > abs(hi) * mp.mpf(10) ** -20:
            raise ArithmeticError(f"{name}: precisions disagree, {lo} vs {hi}")
        print(f"    ({g!r}, {k!r}, {m!r}, {gbar!r}): {float(hi)!r},  # {name}")


if __name__ == "__main__":
    main()
