"""The frontier table: the points where a law answers only just, or refuses.

``ROWS`` holds one law call per row and what it must give:
- ``REFUSES``: a known gap, which raises AccuracyError and never returns a
  number;
- ``(reference, rel)``: a value from ``scripts/make_goldens.py``, met to
  ``rel``;
- a check of the answer, where no reference is cheap: the call must answer
  and pass it.

A change that mends a gap turns its row into a reference.
``judge`` decides whether a row meets its want; ``scripts/bench.py`` runs it
on the same rows outside pytest and records which answer, which meet their
want and how long each takes.  The table points at ``DRLOS_CDF_GOLDENS``
and does not repeat ``TestUnderflowFloor`` or ``CODING_GAIN_GOLDENS``.
"""

from typing import Callable, NamedTuple

import numpy as np
import pytest

from fdrlos.analytic import (coding_gain, drlos_cdf_oracle, drlos_pdf_oracle, fdrlos_cdf,
                             fdrlos_pdf, rician_cdf)
from fdrlos.models import FadingParams
from fdrlos.specfun import TINY, AccuracyError
from test_analytic import DRLOS_CDF_GOLDENS, LOS_POWER_CDF_GOLDENS

# the m -> 0 limits of the fdrlos laws at K = 1, gamma = gbar = 1: the
# product law of the scatter alone at y = 2, (1+K) 2 K0(2 sqrt y) and
# 1 - 2 sqrt y K1(2 sqrt y); the error of the limit is O(m log m)
PDF_M_TO_0 = 0.16956709599360598
CDF_M_TO_0 = 0.8603325259847069
# the K = 0 cdf, 1 - 2 sqrt y K1(2 sqrt y), at y = 1e-10 and 1e-11 (150
# digits), and the K = 0 pdf 2 K0(2 sqrt y) at y = 1e-100
CDF_K0_AT_1E_10 = 2.2871419601355965e-09
CDF_K0_AT_1E_11 = 2.5174004693264804e-10
PDF_K0_AT_1E_100 = 229.1040779696015
# the m -> inf limit of the coding gain at K = 1, (1+K) 2 K0(2 sqrt K), and
# tiny-m gains (1+K) Gamma(m) U(m, 1, K/m) by mpmath's hyperu, keyed (K, m)
GAIN_M_TO_INF = 0.45557549099813377
CODING_GAIN_TINY_M = {
    (1.0, 1e-08): 199999962.0042108,
    (1.0, 1e-200): 2e+200,
    (1.0, 1e-300): 1.9999999999999998e+300,
    (10000.0, 1e-06): 10000763948.524992,
}

REFUSES = "refuses"


class Row(NamedTuple):
    name: str
    call: Callable[[], object]
    #: ``REFUSES``, a (reference, rel) pair, or a check of the answer
    want: object


#: SNRs that the scatter average of the series refused as one quadrature at
#: (K, m) = (1.5, 0.5), though each answered alone: the nodes placed for
#: t = 1e-12 took the series window of t = 30 past its cap
SPLIT_ARRAY, SPLIT_PARAMS = np.array([1e-12, 0.5, 30.0]), FadingParams(1.5, 0.5, 1.0)


def _is_its_scalar_calls(values):
    scalar = [fdrlos_cdf(t, SPLIT_PARAMS) for t in SPLIT_ARRAY]
    return np.allclose(values, scalar, rtol=1e-12, atol=0)


def _near(want, rel):
    """A check that a value lies within ``rel`` of ``want``, relative."""
    return lambda value: abs(value - want) <= rel * want


def _kink_lies_between_its_neighbours(value):
    # the density at its kink y = K moves toward the drlos limit as m grows
    return (fdrlos_pdf(0.5, FadingParams(1.0, 1e4 + 0.5, 1.0)) < value
            < drlos_pdf_oracle(0.5, 1.0, 1.0))


ROWS = [
    # the density at its kink, K = 1, t = 0.5: past m = 7e4 the 1F1 window
    # passes its cap of 2^20 terms
    Row("pdf-kink-m5e4", lambda: fdrlos_pdf(0.5, FadingParams(1.0, 5e4 + 0.5, 1.0)),
        _kink_lies_between_its_neighbours),
    *(Row(f"pdf-kink-m{m:g}", lambda m=m: fdrlos_pdf(0.5, FadingParams(1.0, m, 1.0)), REFUSES)
      for m in (7e4 + 0.5, 1e5, 1e9)),
    Row("pdf-grid-m1e9", lambda: fdrlos_pdf(np.linspace(0.5, 2.0, 3),
                                            FadingParams(1.0, 1e9, 1.0)), REFUSES),
    # an array answers wherever each of its values does, split down to them
    Row("cdf-array-m0.5", lambda: fdrlos_cdf(SPLIT_ARRAY, SPLIT_PARAMS), _is_its_scalar_calls),
    # K = 0, deep in outage: the product law in closed form, which no m
    # changes; as a scatter average its mass spreads evenly over log x, and
    # a quadrature runs out of splits below t = 1e-10
    Row("cdf-k0-t1e-10", lambda: fdrlos_cdf(1e-10, FadingParams(0.0, 2, 1.0)),
        (CDF_K0_AT_1E_10, 1e-12)),
    Row("cdf-k0-t1e-11", lambda: fdrlos_cdf(1e-11, FadingParams(0.0, 2, 1.0)),
        (CDF_K0_AT_1E_11, 1e-13)),
    *(Row(f"cdf-k0-t{t:g}", lambda t=t: fdrlos_cdf(t, FadingParams(0.0, 2, 1.0)),
          (DRLOS_CDF_GOLDENS[(t, 0.0, 1.0)], 1e-13))
      for t in (1e-12, 1e-100)),
    Row("pdf-k0-t1e-100", lambda: fdrlos_pdf(1e-100, FadingParams(0.0, 2.5, 1.0)),
        (PDF_K0_AT_1E_100, 1e-13)),
    # chndtr gives NaN at noncentrality 2e11; the drlos cdf calls no chndtr
    Row("rician-cdf-k1e11", lambda: rician_cdf(1.0, 1e11, 1.0), REFUSES),
    Row("drlos-cdf-k1e4", lambda: drlos_cdf_oracle(1.0, 1e4, 1.0),
        (DRLOS_CDF_GOLDENS[(1.0, 1e4, 1.0)], 1e-14)),
    # the drlos kink at huge K: y = (1+K) t rounds to K at t = 1, where the
    # cdf is 1/2 - 1/(8 sqrt K) and the density in g (1+K)/(2 sqrt K), both
    # to within 1/K relative
    *(Row(f"drlos-cdf-kink-k{k:g}", lambda k=k: drlos_cdf_oracle(1.0, k, 1.0), _near(0.5, 1e-6))
      for k in (1e17, 1e40)),
    *(Row(f"drlos-pdf-kink-k{k:g}", lambda k=k: drlos_pdf_oracle(1.0, k, 1.0),
          _near((1.0 + k) / (2.0 * np.sqrt(k)), 1e-6))
      for k in (1e24, 1e40)),
    # tiny m: the laws tend to the product law, down to the smallest normal
    # m, where the large-x 1F1 expansion's second branch is most of the value
    *(Row(f"pdf-m{m:g}", lambda m=m: fdrlos_pdf(1.0, FadingParams(1.0, m, 1.0)),
          (PDF_M_TO_0, 1e-13))
      for m in (1e-50, 1e-60, 1e-70, 1e-100, 1e-300, TINY)),
    Row("cdf-m1e-100", lambda: fdrlos_cdf(1.0, FadingParams(1.0, 1e-100, 1.0)),
        (CDF_M_TO_0, 1e-13)),
    # the coding gain, and so the density at t = 0: at tiny m it grows like
    # (1+K)/m, and answers down to m = 5e-307; at huge m z = K/m is tiny and
    # the gain meets its limit up to the largest double; at K = 1e308 the
    # gain of about 1e-308 lies below the smallest normal double
    *(Row(f"gain-k{k:g}-m{m:g}", lambda k=k, m=m: coding_gain(k, m), (want, 1e-13))
      for (k, m), want in CODING_GAIN_TINY_M.items()),
    *(Row(f"gain-k1-m{m:g}", lambda m=m: coding_gain(1.0, m), (GAIN_M_TO_INF, 1e-14))
      for m in (1e307, 1.7e308)),
    *(Row(f"gain-k{k:g}-m{m:g}", lambda k=k, m=m: coding_gain(k, m), REFUSES)
      for k, m in ((1.0, TINY), (1e308, 1.0))),
    # tiny K deep in outage: the LoS-power average answers at real m, where
    # the scatter average of the series ran out of splits at t = 1e-12; at
    # integer m the mixture's scatter average still does, though from
    # t = 1e-10 on it answers
    *(Row(f"cdf-k{k:g}-m{m:g}-t1e-12", lambda k=k, m=m: fdrlos_cdf(1e-12, FadingParams(k, m, 1.0)),
          (LOS_POWER_CDF_GOLDENS[(1e-12, k, m, 1.0)], 1e-13))
      for k, m in ((0.1, 0.3), (1e-3, 0.3))),
    Row("cdf-k1e-12-m2-t1e-12", lambda: fdrlos_cdf(1e-12, FadingParams(1e-12, 2, 1.0)), REFUSES),
    # a subnormal probability, about a t, which no normal double holds
    Row("cdf-t1e-312", lambda: fdrlos_cdf(1e-312, FadingParams(1.0, 2.5, 1.0)), REFUSES),
    # a cost row: the step at the kink narrows as K grows
    Row("cdf-k1e6", lambda: fdrlos_cdf(1.0, FadingParams(1e6, 2.5, 1.0)),
        lambda value: 0.0 < value < 1.0),
    # the step at K = 1e8, 1e-4 wide in log xi: the series window of the
    # scatter average passed its cap (1.04e7 terms)
    Row("cdf-k1e8", lambda: fdrlos_cdf(1.0, FadingParams(1e8, 2.5, 1.0)),
        (LOS_POWER_CDF_GOLDENS[(1.0, 1e8, 2.5, 1.0)], 1e-14)),
]


def judge(row):
    """One call of ``row``: its status, "answers" or "refuses" (AccuracyError),
    and whether that meets its want.  Any other exception propagates."""
    try:
        value = row.call()
    except AccuracyError:
        return "refuses", row.want == REFUSES
    if isinstance(row.want, str):
        return "answers", False
    if isinstance(row.want, tuple):
        want, rel = row.want
        return "answers", bool(abs(value - want) <= rel * abs(want))
    return "answers", bool(row.want(value))


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_frontier(row):
    status, met = judge(row)
    assert met, f"{row.name} {status}, but the row wants {row.want}"


def _refuse():
    raise AccuracyError("a known gap")


JUDGED = [
    (Row("refuses-as-wanted", _refuse, REFUSES), ("refuses", True)),
    (Row("answers-a-gap", lambda: 1.0, REFUSES), ("answers", False)),
    (Row("meets-its-reference", lambda: 1.0 + 1e-14, (1.0, 1e-13)), ("answers", True)),
    (Row("misses-its-reference", lambda: 1.0 + 1e-12, (1.0, 1e-13)), ("answers", False)),
    (Row("refuses-a-reference", _refuse, (1.0, 1e-13)), ("refuses", False)),
    (Row("fails-its-check", lambda: -1.0, lambda value: value > 0), ("answers", False)),
]


@pytest.mark.parametrize("row, verdict", JUDGED, ids=[row.name for row, _ in JUDGED])
def test_judge(row, verdict):
    assert judge(row) == verdict
