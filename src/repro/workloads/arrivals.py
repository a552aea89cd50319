"""Open-loop arrival processes and target-load calibration.

The standard DCN evaluation knob is *offered load*: the fraction of the
network's deliverable capacity that the arriving flows would consume if
every byte were delivered.  Given a topology capacity ``C`` (bits/s), a
mean flow size ``S`` (bytes) and a target load ``rho`` in (0, 1], the
network-wide flow arrival rate is

    lambda = rho * C / (8 * S)     [flows per second]

Capacity comes from the topology: for the k-ary fat tree the network is
rearrangeably non-blocking, so the aggregate host access bandwidth
equals twice the bisection bandwidth and is the binding capacity for
uniformly-spread traffic (:func:`workload_capacity_bps` prefers the
topology's ``bisection_bandwidth_bps`` when it exposes one and falls
back to summing host access links).

Two interarrival processes are provided; both are *open loop* — arrival
times never depend on completions, which is what makes overload (load
near or above 1) expressible at all:

* :class:`PoissonArrivals` — exponential gaps, the memoryless default
  every FCT study uses;
* :class:`LognormalArrivals` — burstier gaps with the same mean, for
  sensitivity checks (``sigma`` controls burstiness; the mean is
  calibrated so the target load is preserved).
"""

from __future__ import annotations

import math
import random

from repro.net.network import Network
from repro.sim.units import BitsPerSecond, Bytes


def offered_flow_rate(
    load: float, capacity_bps: BitsPerSecond, mean_size_bytes: Bytes
) -> float:
    """Network-wide flow arrival rate (flows/s) hitting ``load``."""
    if not 0.0 < load:
        raise ValueError(f"load must be positive, got {load}")
    if capacity_bps <= 0:
        raise ValueError(f"capacity must be positive, got {capacity_bps}")
    if mean_size_bytes <= 0:
        raise ValueError(f"mean flow size must be positive, got {mean_size_bytes}")
    return load * capacity_bps / (8.0 * mean_size_bytes)


def workload_capacity_bps(net: Network) -> BitsPerSecond:
    """The capacity the load fraction is defined against.

    Prefers the topology's declared bisection bandwidth (doubled: for a
    non-blocking fabric, all-to-all traffic is bounded by the hosts'
    aggregate access bandwidth, which is twice the bisection).  Falls
    back to summing each host's egress link rates on topologies that do
    not declare one.
    """
    bisection = getattr(net, "bisection_bandwidth_bps", None)
    if callable(bisection):
        return 2.0 * bisection()
    total = 0.0
    for host in net.hosts.values():
        for link in net.adjacency.get(host, []):
            total += link.rate_bps
    if total <= 0:
        raise ValueError("network has no host access links to derive capacity from")
    return total


class ArrivalProcess:
    """Protocol: successive interarrival gaps at a configured rate."""

    #: Registry name ("poisson", "lognormal"); set by subclasses.
    name: str = ""

    def __init__(self, rate_per_s: float) -> None:
        if rate_per_s <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate_per_s}")
        self.rate_per_s = rate_per_s

    def next_gap(self, rng: random.Random) -> float:
        """Draw the next interarrival gap in seconds (strictly positive)."""
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Memoryless exponential interarrival gaps."""

    name = "poisson"

    def next_gap(self, rng: random.Random) -> float:
        return rng.expovariate(self.rate_per_s)


class LognormalArrivals(ArrivalProcess):
    """Lognormal gaps with mean 1/rate; ``sigma`` sets the burstiness.

    ``mu`` is solved from ``E[gap] = exp(mu + sigma^2/2) = 1/rate`` so a
    lognormal schedule offers the same long-run load as the Poisson one.
    """

    name = "lognormal"

    def __init__(self, rate_per_s: float, sigma: float = 1.0) -> None:
        super().__init__(rate_per_s)
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.sigma = sigma
        self.mu = math.log(1.0 / rate_per_s) - sigma * sigma / 2.0

    def next_gap(self, rng: random.Random) -> float:
        return rng.lognormvariate(self.mu, self.sigma)


#: Names accepted by :func:`make_arrivals` (and the workload CLI).
ARRIVAL_NAMES = ("poisson", "lognormal")


def make_arrivals(
    arrival: str, rate_per_s: float, sigma: float = 1.0
) -> ArrivalProcess:
    """Build the named arrival process at ``rate_per_s``."""
    if arrival == "poisson":
        return PoissonArrivals(rate_per_s)
    if arrival == "lognormal":
        return LognormalArrivals(rate_per_s, sigma=sigma)
    raise ValueError(
        f"unknown arrival process {arrival!r} (known: {', '.join(ARRIVAL_NAMES)})"
    )


__all__ = [
    "offered_flow_rate",
    "workload_capacity_bps",
    "ArrivalProcess",
    "PoissonArrivals",
    "LognormalArrivals",
    "ARRIVAL_NAMES",
    "make_arrivals",
]
