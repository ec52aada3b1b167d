"""Deterministic workload distributions.

All samplers take an explicit ``random.Random`` so every experiment is
reproducible from its seed.  Sizes follow the paper: fixed op sizes for
the interference grids, log-normal sizes (given mean and σ in bytes)
for the variable-size rows of Fig 4 and the KV workloads of Figs 10-12,
uniform key popularity for the LSM workloads.

Every sampler also offers ``sample_block(rng, n)``, drawing ``n``
values at once.  Uniform variates still come one at a time from the
seeded ``random.Random`` (the repo-wide determinism rule — no ambient
or numpy RNG state), but the transform math is vectorized, and
:class:`BlockStream` amortizes the per-call overhead for hot workload
loops.  Block draws consume the RNG stream differently from repeated
``sample`` calls (e.g. the log-normal transform is inverse-CDF rather
than ``lognormvariate``'s rejection sampling), so they are a new
deterministic stream, not a replay of the scalar one.
"""

from __future__ import annotations

import math
import random
from typing import List

import numpy as np
from scipy.special import ndtri

__all__ = [
    "LogNormalSize",
    "FixedSize",
    "UniformKeys",
    "ExponentialArrivals",
    "Uniform01",
    "BlockStream",
    "align",
]

KIB = 1024


def _uniform_block(rng: random.Random, n: int) -> np.ndarray:
    """``n`` U[0,1) draws from the seeded RNG as a float64 array."""
    return np.fromiter((rng.random() for _ in range(n)), dtype=np.float64, count=n)


def align(value: int, granularity: int) -> int:
    """Round ``value`` up to a multiple of ``granularity`` (min one)."""
    if value <= 0:
        return granularity
    return ((value + granularity - 1) // granularity) * granularity


class FixedSize:
    """Degenerate size distribution: always ``size`` bytes."""

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.size = size
        self.mean = float(size)

    def sample(self, rng: random.Random) -> int:
        return self.size

    def sample_block(self, rng: random.Random, n: int) -> List[int]:
        return [self.size] * n


class LogNormalSize:
    """Log-normal op sizes with a given mean and standard deviation.

    Parameterized the way the paper reports it: ``mean`` and ``sigma``
    are in *bytes* of the resulting distribution (not of the underlying
    normal).  Samples are clamped to [lo, hi] and rounded up to whole
    ``granularity`` units (1 KB by default, matching size-normalized
    requests).
    """

    def __init__(
        self,
        mean: float,
        sigma: float,
        lo: int = 1 * KIB,
        hi: int = 512 * KIB,
        granularity: int = 1 * KIB,
    ):
        if mean <= 0 or sigma < 0:
            raise ValueError(f"invalid log-normal mean={mean} sigma={sigma}")
        if lo > hi:
            raise ValueError(f"lo {lo} > hi {hi}")
        self.mean = float(mean)
        self.sigma = float(sigma)
        self.lo = lo
        self.hi = hi
        self.granularity = granularity
        if sigma == 0:
            self._mu = math.log(mean)
            self._s = 0.0
        else:
            variance = sigma * sigma
            self._s = math.sqrt(math.log(1.0 + variance / (mean * mean)))
            self._mu = math.log(mean) - self._s * self._s / 2.0

    def sample(self, rng: random.Random) -> int:
        if self._s == 0.0:
            raw = self.mean
        else:
            raw = rng.lognormvariate(self._mu, self._s)
        clamped = min(max(int(raw), self.lo), self.hi)
        return align(clamped, self.granularity)

    def sample_block(self, rng: random.Random, n: int) -> List[int]:
        """``n`` sizes at once via the inverse normal CDF.

        ``exp(mu + s * ndtri(u))`` is an exact log-normal transform of
        the uniforms, so the distribution matches ``sample`` — but the
        stream differs (``lognormvariate`` rejection-samples).
        """
        if self._s == 0.0:
            one = align(min(max(int(self.mean), self.lo), self.hi), self.granularity)
            return [one] * n
        u = _uniform_block(rng, n)
        raw = np.exp(self._mu + self._s * ndtri(u))
        # Truncate-then-clamp in float space (ndtri(0) is -inf; a
        # pathological u near 1 could overflow exp) before going int.
        clamped = np.clip(np.trunc(raw), self.lo, self.hi).astype(np.int64)
        g = self.granularity
        return ((clamped + g - 1) // g * g).tolist()


class UniformKeys:
    """Uniform key popularity over ``n`` keys."""

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError(f"key count must be positive, got {n}")
        self.n = n

    def sample(self, rng: random.Random) -> int:
        return rng.randrange(self.n)

    def sample_block(self, rng: random.Random, n: int) -> List[int]:
        # floor(u * n) instead of randrange: one float draw per key and
        # vectorizable; the modulo bias of randrange's rejection loop is
        # traded for float truncation, identical in distribution to
        # double precision.
        count = self.n
        return [min(int(rng.random() * count), count - 1) for _ in range(n)]


class ExponentialArrivals:
    """Exponential inter-arrival gaps (a Poisson arrival process).

    ``rate`` is in arrivals per simulated second; the churn driver's
    open-loop tenants draw their inter-arrival gaps from it.
    """

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        self.rate = float(rate)
        self.mean = 1.0 / self.rate

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(self.rate)

    def sample_block(self, rng: random.Random, n: int) -> List[float]:
        # -log(1-u)/rate: same inverse-CDF transform expovariate uses,
        # applied to a block of uniforms.
        u = _uniform_block(rng, n)
        return (-np.log1p(-u) / self.rate).tolist()


class Uniform01:
    """U[0,1) draws — the op-mix coin the KV drivers flip per request."""

    def sample(self, rng: random.Random) -> float:
        return rng.random()

    def sample_block(self, rng: random.Random, n: int) -> List[float]:
        return [rng.random() for _ in range(n)]


class BlockStream:
    """Pull-one interface over block draws.

    Wraps a distribution and refills a buffer of ``block`` samples at a
    time, so hot workload loops pay the per-call sampling overhead once
    per block instead of once per request.  The stream is as
    deterministic as its RNG: same seed, same ``block``, same values.
    """

    __slots__ = ("dist", "rng", "block", "_buf", "_pos")

    def __init__(self, dist, rng: random.Random, block: int = 256):
        if block <= 0:
            raise ValueError(f"block size must be positive, got {block}")
        self.dist = dist
        self.rng = rng
        self.block = block
        self._buf: List = []
        self._pos = 0

    def next(self):
        pos = self._pos
        if pos >= len(self._buf):
            self._buf = self.dist.sample_block(self.rng, self.block)
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]
