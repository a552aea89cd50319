"""Unit helpers.

The simulator's base units are **seconds**, **bits per second** and
**bytes**.  The paper mixes Gbps links, microsecond delays and packet-count
queues; these helpers keep experiment configs readable and conversion bugs
out of the model code.

Two machine-readable declarations back simlint's unit-arithmetic rule
(SIM012, ``repro.lint.sem``, see LINTING.md):

* :data:`CONSTRUCTOR_DIMENSIONS` maps every conversion here to the
  dimension of its return value (``milliseconds(5)`` *is* seconds);
* the :data:`Seconds` / :data:`BitsPerSecond` / :data:`Bytes` /
  :data:`Packets` aliases annotate unit-typed parameters in model
  constructors — plain ``float``/``int`` at runtime, but the rule reads
  them as dimension declarations (:data:`ANNOTATION_DIMENSIONS`), so
  ``delay + rate_bps`` inside such a function is flagged.
"""

from __future__ import annotations

from typing import Dict

# ---------------------------------------------------------------------------
# Dimension names and annotation aliases
# ---------------------------------------------------------------------------

#: Canonical dimension identifiers used by SIM012.
DIM_SECONDS = "seconds"
DIM_BITS_PER_SECOND = "bits_per_second"
DIM_BYTES = "bytes"
DIM_PACKETS = "packets"

#: Annotation aliases for unit-typed parameters.  Inert at runtime;
#: SIM012 reads an annotated parameter as a value of that dimension
#: (see ANNOTATION_DIMENSIONS).
Seconds = float
BitsPerSecond = float
Bytes = int
Packets = float

#: Annotation name -> dimension, for SIM012.
ANNOTATION_DIMENSIONS: Dict[str, str] = {
    "Seconds": DIM_SECONDS,
    "BitsPerSecond": DIM_BITS_PER_SECOND,
    "Bytes": DIM_BYTES,
    "Packets": DIM_PACKETS,
}

# ---------------------------------------------------------------------------
# Time
# ---------------------------------------------------------------------------

def seconds(value: float) -> float:
    """Identity; marks a literal as seconds at call sites."""
    return float(value)


def milliseconds(value: float) -> float:
    """Convert milliseconds to seconds."""
    return value * 1e-3


def microseconds(value: float) -> float:
    """Convert microseconds to seconds."""
    return value * 1e-6


def nanoseconds(value: float) -> float:
    """Convert nanoseconds to seconds."""
    return value * 1e-9


# ---------------------------------------------------------------------------
# Rates
# ---------------------------------------------------------------------------

def bits_per_second(value: float) -> float:
    """Identity; marks a literal as bits/second at call sites."""
    return float(value)


def kilobits_per_second(value: float) -> float:
    """Convert kbit/s to bit/s."""
    return value * 1e3


def megabits_per_second(value: float) -> float:
    """Convert Mbit/s to bit/s."""
    return value * 1e6


def gigabits_per_second(value: float) -> float:
    """Convert Gbit/s to bit/s."""
    return value * 1e9


# ---------------------------------------------------------------------------
# Sizes
# ---------------------------------------------------------------------------

def bytes_(value: float) -> int:
    """Identity (rounded); marks a literal as bytes at call sites."""
    return int(value)


def kilobytes(value: float) -> int:
    """Convert KB (10^3) to bytes."""
    return int(value * 1e3)


def kibibytes(value: float) -> int:
    """Convert KiB (2^10) to bytes."""
    return int(value * 1024)


def megabytes(value: float) -> int:
    """Convert MB (10^6) to bytes."""
    return int(value * 1e6)


def mebibytes(value: float) -> int:
    """Convert MiB (2^20) to bytes."""
    return int(value * 1024 * 1024)


def gigabytes(value: float) -> int:
    """Convert GB (10^9) to bytes."""
    return int(value * 1e9)


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------

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


#: Constructor name -> dimension of its return value: a call to
#: <name>(...) produces a value of <dimension>, wherever it appears.
CONSTRUCTOR_DIMENSIONS: Dict[str, str] = {
    "seconds": DIM_SECONDS,
    "milliseconds": DIM_SECONDS,
    "microseconds": DIM_SECONDS,
    "nanoseconds": DIM_SECONDS,
    "bits_per_second": DIM_BITS_PER_SECOND,
    "kilobits_per_second": DIM_BITS_PER_SECOND,
    "megabits_per_second": DIM_BITS_PER_SECOND,
    "gigabits_per_second": DIM_BITS_PER_SECOND,
    "bytes_": DIM_BYTES,
    "kilobytes": DIM_BYTES,
    "kibibytes": DIM_BYTES,
    "megabytes": DIM_BYTES,
    "mebibytes": DIM_BYTES,
    "gigabytes": DIM_BYTES,
    "transmission_delay": DIM_SECONDS,
    "bandwidth_delay_product_packets": DIM_PACKETS,
}


__all__ = [
    "ANNOTATION_DIMENSIONS",
    "BitsPerSecond",
    "Bytes",
    "CONSTRUCTOR_DIMENSIONS",
    "DIM_BITS_PER_SECOND",
    "DIM_BYTES",
    "DIM_PACKETS",
    "DIM_SECONDS",
    "Packets",
    "Seconds",
    "seconds",
    "milliseconds",
    "microseconds",
    "nanoseconds",
    "bits_per_second",
    "kilobits_per_second",
    "megabits_per_second",
    "gigabits_per_second",
    "bytes_",
    "kilobytes",
    "kibibytes",
    "megabytes",
    "mebibytes",
    "gigabytes",
    "transmission_delay",
    "bandwidth_delay_product_packets",
]
