"""Unit helpers.

The simulator's base units are **seconds**, **bits per second** and
**bytes**.  The paper mixes Gbps links, microsecond delays and packet-count
queues; these helpers keep experiment configs readable and conversion bugs
out of the model code.  The :data:`Seconds` / :data:`BitsPerSecond` /
:data:`Bytes` aliases annotate unit-typed parameters in model
constructors; they are plain ``float``/``int`` and document, not check.
"""

from __future__ import annotations

#: Annotation aliases for unit-typed parameters.
Seconds = float
BitsPerSecond = float
Bytes = int


def seconds(value: float) -> float:
    """Identity; marks a literal as seconds at call sites."""
    return float(value)


def microseconds(value: float) -> float:
    """Convert microseconds to seconds."""
    return value * 1e-6


def gigabits_per_second(value: float) -> float:
    """Convert Gbit/s to bit/s."""
    return value * 1e9


def transmission_delay(size_bytes: int, rate_bps: float) -> float:
    """Serialization time of ``size_bytes`` on a ``rate_bps`` link, seconds."""
    if rate_bps <= 0:
        raise ValueError(f"link rate must be positive, got {rate_bps}")
    return size_bytes * 8.0 / rate_bps


def bandwidth_delay_product_packets(rate_bps: float, rtt_s: float) -> float:
    """BDP expressed in 1500-byte packets, as used throughout the paper
    (e.g. Eq. 1).

    The paper computes e.g. ``1 Gbps x 225 us / (8 x 1500) ~= 19 packets``.
    """
    return rate_bps * rtt_s / (8.0 * 1500)


__all__ = [
    "BitsPerSecond",
    "Bytes",
    "Seconds",
    "seconds",
    "microseconds",
    "gigabits_per_second",
    "transmission_delay",
    "bandwidth_delay_product_packets",
]
