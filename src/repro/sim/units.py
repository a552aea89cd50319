"""Unit helpers.

The simulator's base units are **seconds**, **bits per second** and
**bytes**.  The paper mixes Gbps links, microsecond delays and packet-count
queues; these helpers keep experiment configs readable and conversion bugs
out of the model code.

Two machine-readable declarations back the cross-module semantic
analyzer (``repro.lint.sem``, see LINTING.md):

* :data:`CONSTRUCTOR_DIMENSIONS` maps every conversion here to the
  dimension of its return value, seeding the analyzer's unit-dataflow
  facts (``milliseconds(5)`` *is* seconds, wherever it flows);
* the :data:`Seconds` / :data:`BitsPerSecond` / :data:`Bytes` /
  :data:`Packets` aliases annotate unit-typed parameters ("sinks") in
  model constructors — plain ``float``/``int`` at runtime, but the
  analyzer reads them as dimension declarations and checks every value
  that crosses into such a parameter.
"""

from __future__ import annotations

from typing import Dict

# ---------------------------------------------------------------------------
# Dimension names and annotation aliases
# ---------------------------------------------------------------------------

#: Canonical dimension identifiers used by the semantic analyzer.
DIM_SECONDS = "seconds"
DIM_BITS_PER_SECOND = "bits_per_second"
DIM_BYTES = "bytes"
DIM_PACKETS = "packets"

#: Annotation aliases for unit-typed ("sink") parameters.  Inert at
#: runtime; ``repro.lint.sem`` treats an annotated parameter as a
#: declared unit sink (see ANNOTATION_DIMENSIONS).
Seconds = float
BitsPerSecond = float
Bytes = int
Packets = float

#: Annotation name -> dimension, for the semantic analyzer.
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


#: Constructor name -> dimension of its return value.  This is the
#: machine-readable seed for unit-dataflow analysis: every entry here is
#: a fact of the form "a call to <name>(...) produces a value of
#: <dimension>", regardless of which module the call appears in.
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

#: Identity constructor per dimension: wraps a value without changing it,
#: naming its unit at the call site.  Used by ``simlint --fix`` when no
#: named conversion reproduces a literal bit-for-bit.
IDENTITY_CONSTRUCTORS: Dict[str, str] = {
    DIM_SECONDS: "seconds",
    DIM_BITS_PER_SECOND: "bits_per_second",
    DIM_BYTES: "bytes_",
}

#: Scale factor of each *multiplicative* conversion (constructor(x) ==
#: x * factor, up to float rounding).  ``simlint --fix`` consults this to
#: propose ``gigabits_per_second(1)`` for ``1e9`` — and then verifies the
#: rewrite is bit-identical before attaching it, because e.g.
#: ``microseconds(20)`` is NOT the same float as ``20e-6``.
CONVERSION_FACTORS: Dict[str, float] = {
    "seconds": 1.0,
    "milliseconds": 1e-3,
    "microseconds": 1e-6,
    "nanoseconds": 1e-9,
    "bits_per_second": 1.0,
    "kilobits_per_second": 1e3,
    "megabits_per_second": 1e6,
    "gigabits_per_second": 1e9,
    "bytes_": 1.0,
    "kilobytes": 1e3,
    "kibibytes": 1024.0,
    "megabytes": 1e6,
    "mebibytes": 1024.0 * 1024.0,
    "gigabytes": 1e9,
}


__all__ = [
    "ANNOTATION_DIMENSIONS",
    "BitsPerSecond",
    "Bytes",
    "CONSTRUCTOR_DIMENSIONS",
    "CONVERSION_FACTORS",
    "DIM_BITS_PER_SECOND",
    "DIM_BYTES",
    "DIM_PACKETS",
    "DIM_SECONDS",
    "IDENTITY_CONSTRUCTORS",
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
