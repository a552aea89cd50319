"""Empirical flow-size distributions and seeded inverse-CDF samplers.

The production-traffic layer needs flow sizes that look like a real data
center, not like the paper's fixed 2-16 MB transfers.  Two empirical
CDFs are shipped as data:

* ``websearch`` — the web-search workload measured in the DCTCP paper
  (Alizadeh et al., SIGCOMM 2010), as tabulated in the pFabric
  simulation suite: mostly short partition-aggregate responses with a
  heavy 1-30 MB tail.
* ``datamining`` — the data-mining workload from VL2 (Greenberg et al.,
  SIGCOMM 2009), same provenance: >80 % of flows under 10 KB while
  >95 % of the *bytes* ride in multi-MB elephants.

Both tables store ``(size_bytes, cumulative_probability)`` knots with
sizes converted from the original packet counts at 1460 B per packet.
Sampling is inverse-transform with linear interpolation between knots,
so the empirical CDF of many draws converges to the piecewise-linear
interpolant exactly (the sampler property tests assert a KS-style bound
at every knot).

Synthetic samplers (``uniform``, ``lognormal``, ``fixed``) cover
controlled experiments; every sampler exposes the same three-method
surface (:meth:`~SizeSampler.sample`, :meth:`~SizeSampler.mean_bytes`,
``name``) so arrival calibration in :mod:`repro.workloads.arrivals`
never special-cases a distribution.

All draws flow through a caller-supplied seeded ``random.Random`` (a
:class:`~repro.sim.random.RandomStreams` stream in experiment code), so
schedules are bit-reproducible per seed; the ``workload-websearch``
golden replays one digest for digest.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Sequence, Tuple

from repro.sim.units import Bytes

#: Packet size used to convert the published packet-count CDFs to bytes.
CDF_PACKET_BYTES = 1460

#: Web-search (DCTCP) flow-size CDF, (packets, cumulative probability).
_WEBSEARCH_PACKETS: Tuple[Tuple[float, float], ...] = (
    (1, 0.0),
    (6, 0.15),
    (13, 0.2),
    (19, 0.3),
    (33, 0.4),
    (53, 0.53),
    (133, 0.6),
    (667, 0.7),
    (1333, 0.8),
    (3333, 0.9),
    (6667, 0.97),
    (20000, 1.0),
)

#: Data-mining (VL2) flow-size CDF, (packets, cumulative probability).
_DATAMINING_PACKETS: Tuple[Tuple[float, float], ...] = (
    (1, 0.0),
    (1, 0.5),
    (2, 0.6),
    (3, 0.7),
    (7, 0.8),
    (267, 0.9),
    (2107, 0.95),
    (66667, 0.99),
    (666667, 1.0),
)


class SizeSampler:
    """Protocol every flow-size sampler implements."""

    #: Registry name ("websearch", "uniform", ...); set by subclasses.
    name: str = ""

    def sample(self, rng: random.Random) -> int:
        """Draw one flow size in bytes (always >= 1)."""
        raise NotImplementedError

    def mean_bytes(self) -> float:
        """Analytic mean of the distribution, for load calibration."""
        raise NotImplementedError


class SizeCDF(SizeSampler):
    """Piecewise-linear empirical CDF with inverse-transform sampling.

    ``points`` are ``(size_bytes, cumulative_probability)`` knots sorted
    by probability; the first knot may carry probability 0 and the last
    must carry probability 1.  Between knots both the CDF and its
    inverse are linear in size.
    """

    def __init__(
        self, name: str, points: Sequence[Tuple[float, float]], scale: float = 1.0
    ) -> None:
        if scale <= 0:
            raise ValueError(f"size scale must be positive, got {scale}")
        if len(points) < 2:
            raise ValueError("a CDF needs at least two points")
        self.name = name
        self.scale = scale
        sizes = [float(size) * scale for size, _ in points]
        probs = [float(p) for _, p in points]
        if any(b < a for a, b in zip(probs, probs[1:])):
            raise ValueError(f"CDF probabilities must be non-decreasing: {name}")
        if any(b < a for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"CDF sizes must be non-decreasing: {name}")
        if probs[-1] != 1.0:
            raise ValueError(f"CDF must end at probability 1.0: {name}")
        if any(size <= 0 for size in sizes):
            raise ValueError(f"CDF sizes must be positive: {name}")
        self._sizes = sizes
        self._probs = probs

    def sample(self, rng: random.Random) -> int:
        u = rng.random()
        probs = self._probs
        sizes = self._sizes
        if u <= probs[0]:
            return max(1, int(round(sizes[0])))
        index = bisect.bisect_left(probs, u)
        lo_p, hi_p = probs[index - 1], probs[index]
        lo_s, hi_s = sizes[index - 1], sizes[index]
        if hi_p == lo_p:
            return max(1, int(round(hi_s)))
        fraction = (u - lo_p) / (hi_p - lo_p)
        return max(1, int(round(lo_s + (hi_s - lo_s) * fraction)))

    def mean_bytes(self) -> float:
        """Trapezoid mean: each linear segment contributes its midpoint."""
        total = 0.0
        for i in range(1, len(self._probs)):
            weight = self._probs[i] - self._probs[i - 1]
            total += weight * (self._sizes[i] + self._sizes[i - 1]) / 2.0
        return total

    def cdf_at(self, size_bytes: float) -> float:
        """Forward evaluation F(size): the interpolant the sampler inverts."""
        sizes = self._sizes
        probs = self._probs
        if size_bytes <= sizes[0]:
            return probs[0] if size_bytes < sizes[0] else self._prob_at_size(sizes[0])
        if size_bytes >= sizes[-1]:
            return 1.0
        index = bisect.bisect_right(sizes, size_bytes)
        lo_s, hi_s = sizes[index - 1], sizes[index]
        lo_p, hi_p = probs[index - 1], probs[index]
        if hi_s == lo_s:
            return hi_p
        return lo_p + (hi_p - lo_p) * (size_bytes - lo_s) / (hi_s - lo_s)

    def _prob_at_size(self, size: float) -> float:
        """Largest knot probability at exactly ``size`` (vertical steps)."""
        prob = 0.0
        for s, p in zip(self._sizes, self._probs):
            if s <= size:
                prob = p
        return prob


class UniformSizes(SizeSampler):
    """Uniform flow sizes in ``[min_bytes, max_bytes]``."""

    def __init__(self, min_bytes: Bytes, max_bytes: Bytes) -> None:
        if min_bytes < 1 or max_bytes < min_bytes:
            raise ValueError(
                f"need 1 <= min <= max, got [{min_bytes}, {max_bytes}]"
            )
        self.name = "uniform"
        self.min_bytes = int(min_bytes)
        self.max_bytes = int(max_bytes)

    def sample(self, rng: random.Random) -> int:
        return rng.randint(self.min_bytes, self.max_bytes)

    def mean_bytes(self) -> float:
        return (self.min_bytes + self.max_bytes) / 2.0


class LognormalSizes(SizeSampler):
    """Lognormal sizes parameterised by their mean and shape ``sigma``.

    ``mu`` is derived so the analytic mean equals ``mean_bytes``:
    ``E[X] = exp(mu + sigma^2/2)``.
    """

    def __init__(self, mean_bytes: Bytes, sigma: float = 1.0) -> None:
        if mean_bytes < 1:
            raise ValueError(f"mean must be >= 1 byte, got {mean_bytes}")
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.name = "lognormal"
        self._mean = float(mean_bytes)
        self.sigma = sigma
        self.mu = math.log(self._mean) - sigma * sigma / 2.0

    def sample(self, rng: random.Random) -> int:
        return max(1, int(round(rng.lognormvariate(self.mu, self.sigma))))

    def mean_bytes(self) -> float:
        return self._mean


class FixedSizes(SizeSampler):
    """Every flow the same size — the degenerate control case."""

    def __init__(self, size_bytes: Bytes) -> None:
        if size_bytes < 1:
            raise ValueError(f"size must be >= 1 byte, got {size_bytes}")
        self.name = "fixed"
        self.size_bytes = int(size_bytes)

    def sample(self, rng: random.Random) -> int:
        return self.size_bytes

    def mean_bytes(self) -> float:
        return float(self.size_bytes)


def _packets_to_bytes(
    table: Sequence[Tuple[float, float]],
) -> Tuple[Tuple[float, float], ...]:
    return tuple((packets * CDF_PACKET_BYTES, prob) for packets, prob in table)


#: The shipped empirical tables in bytes.
WEBSEARCH_POINTS = _packets_to_bytes(_WEBSEARCH_PACKETS)
DATAMINING_POINTS = _packets_to_bytes(_DATAMINING_PACKETS)

#: Names accepted by :func:`make_sampler` (and the workload CLI).
WORKLOAD_NAMES = ("websearch", "datamining", "uniform", "lognormal", "fixed")

#: Defaults for the synthetic samplers, chosen near the websearch mean so
#: load calibration lands in the same regime across workload names.
DEFAULT_UNIFORM_RANGE = (10_000, 4_000_000)
DEFAULT_LOGNORMAL_MEAN = 2_000_000
DEFAULT_LOGNORMAL_SIGMA = 1.5
DEFAULT_FIXED_BYTES = 2_000_000


def make_sampler(workload: str, size_scale: float = 1.0) -> SizeSampler:
    """Build the named flow-size sampler.

    ``size_scale`` multiplies every size (the same scaled-down-testbed
    knob the fat-tree scenarios use for their MB-scale flows).
    """
    if size_scale <= 0:
        raise ValueError(f"size_scale must be positive, got {size_scale}")
    if workload == "websearch":
        return SizeCDF("websearch", WEBSEARCH_POINTS, scale=size_scale)
    if workload == "datamining":
        return SizeCDF("datamining", DATAMINING_POINTS, scale=size_scale)
    if workload == "uniform":
        low, high = DEFAULT_UNIFORM_RANGE
        return UniformSizes(
            max(1, int(low * size_scale)), max(1, int(high * size_scale))
        )
    if workload == "lognormal":
        return LognormalSizes(
            max(1, int(DEFAULT_LOGNORMAL_MEAN * size_scale)), DEFAULT_LOGNORMAL_SIGMA
        )
    if workload == "fixed":
        return FixedSizes(max(1, int(DEFAULT_FIXED_BYTES * size_scale)))
    raise ValueError(
        f"unknown workload {workload!r} (known: {', '.join(WORKLOAD_NAMES)})"
    )


__all__ = [
    "CDF_PACKET_BYTES",
    "WEBSEARCH_POINTS",
    "DATAMINING_POINTS",
    "WORKLOAD_NAMES",
    "SizeSampler",
    "SizeCDF",
    "UniformSizes",
    "LognormalSizes",
    "FixedSizes",
    "make_sampler",
]
