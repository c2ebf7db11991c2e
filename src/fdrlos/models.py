"""Physical fading models and seed-deterministic Monte-Carlo SNR samplers.

Four models share one parameterization: a LoS power ratio K, a LoS
fluctuation shape m and an average SNR gamma_bar (all linear).  The received
signal is

    rician:           S = w0 e^{j phi}           + w2 G1
    rician-shadowed:  S = w0 sqrt(xi) e^{j phi}  + w2 G1
    drlos:            S = w0 e^{j phi}           + w2 G2 G3
    fdrlos:           S = w0 sqrt(xi) e^{j phi}  + w2 G2 G3

with phi uniform on [0, 2pi), G_i i.i.d. circularly-symmetric standard
complex Gaussians, xi a unit-mean Gamma(m) variate, w0^2 = K/(K+1) and
w2^2 = 1/(K+1) (normalized channel, E|S|^2 = 1), and gamma = gamma_bar |S|^2.
Given |G3|^2 = x, fdrlos is rician-shadowed with K_x = K/x and
gamma_bar_x = gamma_bar (K+x)/(K+1), so one sampler per model covers the
conditional slices too.  The SNR law does not depend on phi.

Sampling is chunked: chunk c draws from its own Philox substream keyed by
(seed, c), so the output is a pure function of (model, params, seed, n) no
matter how many worker threads execute the chunks.
"""

from __future__ import annotations

import enum
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .specfun import DomainError

_CHUNK = 1 << 20
_U64 = (1 << 64) - 1


class ModelKind(enum.Enum):
    RICIAN = "rician"
    RICIAN_SHADOWED = "rician-shadowed"
    DRLOS = "drlos"
    FDRLOS = "fdrlos"

    @classmethod
    def parse(cls, name: str) -> "ModelKind":
        key = name.strip().lower().replace("_", "-")
        for kind in cls:
            if kind.value == key:
                return kind
        raise DomainError(f"unknown model {name!r}; expected one of "
                          f"{[k.value for k in cls]}")

    @property
    def has_double_scatter(self) -> bool:
        return self in (ModelKind.DRLOS, ModelKind.FDRLOS)

    @property
    def has_los_fluctuation(self) -> bool:
        return self in (ModelKind.RICIAN_SHADOWED, ModelKind.FDRLOS)


@dataclass(frozen=True)
class FadingParams:
    """(K, m, gamma_bar) in linear scale.

    K >= 0 is the LoS-to-scatter power ratio, m > 0 the LoS fluctuation
    shape (any positive real for sampling; closed forms need an integer),
    gamma_bar > 0 the mean SNR.  All three must be finite.
    """

    k: float
    m: float
    gamma_bar: float

    def __post_init__(self):
        if not (0.0 <= self.k < np.inf):
            raise DomainError(f"K must be finite and >= 0, got {self.k}")
        if not (0.0 < self.m < np.inf):
            raise DomainError(f"m must be finite and > 0, got {self.m}")
        if not (0.0 < self.gamma_bar < np.inf):
            raise DomainError(f"gamma_bar must be finite and > 0, got {self.gamma_bar}")

    @property
    def omega0(self) -> float:
        """LoS amplitude; omega0^2 = K/(K+1)."""
        return float(np.sqrt(self.k / (self.k + 1.0)))

    @property
    def omega2(self) -> float:
        """Diffuse amplitude; omega2^2 = 1/(K+1), so E|S|^2 = 1."""
        return float(np.sqrt(1.0 / (self.k + 1.0)))

    @property
    def m_is_integer(self) -> bool:
        return float(self.m) == int(self.m)

    def require_integer_m(self) -> int:
        if not self.m_is_integer:
            raise DomainError(
                f"closed forms need integer m (got m={self.m}); "
                "use the quadrature-oracle path for real m")
        return int(self.m)


@dataclass(frozen=True)
class SnrSampleSet:
    """Seeded SNR realizations plus the recipe that regenerates them."""

    model: ModelKind
    params: FadingParams
    seed: int
    count: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values.flags.writeable = False


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed & _U64, spawn_key=(chunk,))
    return np.random.Generator(np.random.Philox(ss))


def sample_gamma_rv(m: float, n: int, stream: np.random.Generator) -> np.ndarray:
    """Unit-mean Gamma(shape m, scale 1/m) samples: mean 1, variance 1/m."""
    if m <= 0:
        raise DomainError(f"m must be > 0, got {m}")
    if n < 1:
        raise DomainError("n must be >= 1")
    return stream.standard_gamma(m, n) / m


def _sample_chunk(model: ModelKind, params: FadingParams, count: int,
                  rng: np.random.Generator) -> np.ndarray:
    w0 = params.omega0
    w2 = params.omega2
    rt2 = np.sqrt(2.0)
    phi = rng.uniform(0.0, 2.0 * np.pi, count)
    g_a = (rng.standard_normal(count) + 1j * rng.standard_normal(count)) / rt2
    if model.has_double_scatter:
        g_b = (rng.standard_normal(count) + 1j * rng.standard_normal(count)) / rt2
        diffuse = g_a * g_b
    else:
        diffuse = g_a
    if model.has_los_fluctuation:
        los_amp = np.sqrt(sample_gamma_rv(params.m, count, rng))
    else:
        los_amp = 1.0  # xi degenerates to 1 for the non-fluctuating models
    s = w0 * los_amp * np.exp(1j * phi) + w2 * diffuse
    return params.gamma_bar * np.abs(s) ** 2


def sample_snr(model: ModelKind, params: FadingParams, n: int, seed: int,
               threads: int = 1) -> SnrSampleSet:
    """Draw n SNR realizations; bit-identical for any thread count."""
    if n < 1:
        raise DomainError("sample count must be >= 1")
    out = np.empty(n)
    nchunks = (n + _CHUNK - 1) // _CHUNK

    def run(c: int) -> None:
        lo = c * _CHUNK
        hi = min(n, lo + _CHUNK)
        rng = _chunk_rng(seed, c)
        out[lo:hi] = _sample_chunk(model, params, hi - lo, rng)

    if threads <= 1 or nchunks == 1:
        for c in range(nchunks):
            run(c)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, range(nchunks)))
    return SnrSampleSet(model=model, params=params, seed=seed, count=n, values=out)

