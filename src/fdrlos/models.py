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
conditional slices too.

The samplers draw gamma_bar |w0 sqrt(xi) + w2 sqrt(E3) G|^2 from real normals,
G = (Gr + j Gi)/sqrt(2), with E3 = |G3|^2 ~ Exp(1) (E3 = 1 or xi = 1 where the
model has no G3 or no LoS fluctuation).  The law is the same: e^{-j phi} S
keeps |S|^2 and a circularly symmetric diffuse term, and given
G3 = r e^{j theta}, G2 G3 = r (G2 e^{j theta}), where G2 e^{j theta} is again
CN(0, 1) and independent of r.
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


def check_params(k=0.0, m=1.0, gamma_bar=1.0):
    """The domain of every law: finite K >= 0, m > 0 and gamma_bar > 0, K and
    gamma_bar scalars or arrays, m a scalar; a law passes what it takes (the
    defaults lie inside).  Returns K and gamma_bar as float arrays."""
    k, gamma_bar = np.asarray(k, dtype=float), np.asarray(gamma_bar, dtype=float)
    if not np.all((k >= 0) & (k < np.inf)):
        raise DomainError(f"K must be finite and >= 0, got {k}")
    if not (np.ndim(m) == 0 and 0 < m < np.inf):
        raise DomainError(f"m must be finite and > 0, and a scalar, got {m}")
    if not np.all((gamma_bar > 0) & (gamma_bar < np.inf)):
        raise DomainError(f"gamma_bar must be finite and > 0, got {gamma_bar}")
    return k, gamma_bar


@dataclass(frozen=True)
class FadingParams:
    """(K, m, gamma_bar) in linear scale.

    K >= 0 is the LoS-to-scatter power ratio, m > 0 the LoS fluctuation
    shape (any positive real, for the samplers and every law), gamma_bar > 0
    the mean SNR.  All three must be finite.  The laws also take an array K
    (a sweep over K, as the outage curves against K are) and an array
    gamma_bar, each broadcast against the SNR; the sampler takes neither.
    """

    k: float
    m: float
    gamma_bar: float

    def __post_init__(self):
        check_params(self.k, self.m, self.gamma_bar)

    @property
    def omega0(self) -> float:
        """LoS amplitude; omega0^2 = K/(K+1)."""
        return float(np.sqrt(self.k / (self.k + 1.0)))

    @property
    def omega2(self) -> float:
        """Diffuse amplitude; omega2^2 = 1/(K+1), so E|S|^2 = 1."""
        return float(np.sqrt(1.0 / (self.k + 1.0)))


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
    """Unit-mean Gamma(shape m, scale 1/m) samples: mean 1, variance 1/m.  An
    internal kernel: its one caller, ``sample_snr``, checks n and takes m
    from a checked ``FadingParams``."""
    return stream.standard_gamma(m, n) / m


def _sample_chunk(model: ModelKind, params: FadingParams,
                  rng: np.random.Generator, out: np.ndarray) -> None:
    a = np.sqrt(params.gamma_bar / 2.0) * params.omega2
    if model.has_double_scatter:
        a = a * np.sqrt(rng.standard_exponential(out.size))
    los = np.sqrt(params.gamma_bar) * params.omega0
    if model.has_los_fluctuation:
        los = los * np.sqrt(sample_gamma_rv(params.m, out.size, rng))
    g = rng.standard_normal((2, out.size))   # (Gr, Gi) of the real form
    g *= a
    g[0] += los
    np.square(g, out=g)
    np.add(g[0], g[1], out=out)


def sample_snr(model: ModelKind, params: FadingParams, n: int, seed: int,
               threads: int = 1) -> SnrSampleSet:
    """Draw n SNR realizations in the module docstring's real form.  Chunk c
    uses Philox stream (seed, c): pure in (model, params, seed, n), any threads."""
    if n < 1:
        raise DomainError("sample count must be >= 1")
    if np.ndim(params.k) or np.ndim(params.gamma_bar):
        raise DomainError("the sampler takes a scalar K and gamma_bar")
    out = np.empty(n)
    nchunks = (n + _CHUNK - 1) // _CHUNK

    def run(c: int) -> None:
        lo = c * _CHUNK
        _sample_chunk(model, params, _chunk_rng(seed, c), out[lo:lo + _CHUNK])

    if threads <= 1 or nchunks == 1:
        for c in range(nchunks):
            run(c)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, range(nchunks)))
    return SnrSampleSet(model=model, params=params, seed=seed, count=n, values=out)

