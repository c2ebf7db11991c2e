"""Fluctuating double-Rayleigh line-of-sight fading statistics.

The pdf and cdf (outage: the cdf at the threshold, over an array K if
need be) at every positive LoS-fluctuation shape m as one scatter average of
a positive Rician shadowed mixture (finite at integer m up to 100, a series
otherwise); an independent series oracle for the cdf; the high-SNR
asymptote; the three ancestor models (Rician, Rician shadowed,
deterministic-LoS double-Rayleigh); and seed-deterministic Monte-Carlo
samplers.
"""

from .analytic import (Curve, UnderflowWarning, asymptotic_op, coding_gain,
                       drlos_cdf_oracle, drlos_pdf_oracle, fdrlos_cdf,
                       fdrlos_cdf_oracle, fdrlos_pdf, rician_cdf, rician_pdf,
                       rs_cdf, rs_pdf)
from .empirics import (CdfContractError, KsReport, default_ks_threshold,
                       histogram_density, ks_distance, tabulated_cdf)
from .models import FadingParams, ModelKind, SnrSampleSet, sample_snr
from .specfun import AccuracyError, DomainError, adaptive_quad_vec

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "CdfContractError", "Curve", "DomainError",
    "FadingParams", "KsReport", "ModelKind", "SnrSampleSet",
    "UnderflowWarning", "adaptive_quad_vec", "asymptotic_op", "coding_gain",
    "default_ks_threshold", "drlos_cdf_oracle", "drlos_pdf_oracle",
    "fdrlos_cdf", "fdrlos_cdf_oracle", "fdrlos_pdf", "histogram_density",
    "ks_distance", "rician_cdf", "rician_pdf", "rs_cdf", "rs_pdf",
    "sample_snr", "tabulated_cdf",
]
