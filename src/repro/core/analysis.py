"""Closed-form sawtooth analysis of BOS — the paper's §7 future work.

The paper chooses (β, K) from Eq. 1 plus engineering judgement and defers
"a deeper understanding on these impacts" to "further theoretical
analysis".  For a single BOS flow on one marked link that analysis is
tractable in closed form, and this module provides it:

The steady state is a deterministic sawtooth.  The window grows by δ per
round until the standing queue ``w − BDP`` crosses K, which marks a
packet; one round later the sender cuts by 1/β:

* peak window     ``w_max ≈ BDP + K``  (plus the one-round overshoot δ),
* trough window   ``w_min = (1 − 1/β) · w_max``,
* cycle length    ``(w_max − w_min)/δ`` rounds.

From the sawtooth follow the three quantities the paper trades off —
utilization, mean queue (latency) and the marking period in rounds — so
the whole (β, K) plane can be mapped without simulating, and the
simulator can be checked against the map (see
``tests/test_core_analysis.py``).

Accuracy: the model treats the queue as instantaneously ``w − BDP`` and
the cut as acting exactly one round after the threshold crossing.  The
packet system's feedback lag and ACK clocking drain the queue somewhat
deeper after each cut, so near the Eq. 1 boundary the prediction is an
*upper bound* on utilization (measured ≈ 0.92 where the model says 1.00
for β=2 at K just over the bound) and mean queue runs ~2 packets below
the prediction.  Away from the boundary agreement is within a few
percent.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SawtoothPrediction:
    """Closed-form steady state of one BOS flow on one marked link."""

    bdp_packets: float
    threshold: float
    beta: float
    delta: float
    w_max: float
    w_min: float
    cycle_rounds: float
    utilization: float
    mean_queue_packets: float


def predict_sawtooth(
    bdp_packets: float,
    threshold: float,
    beta: float,
    delta: float = 1.0,
) -> SawtoothPrediction:
    """Predict the BOS steady-state sawtooth for one flow on one link."""
    if bdp_packets <= 0:
        raise ValueError(f"BDP must be positive, got {bdp_packets}")
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if beta < 2:
        raise ValueError(f"beta must be >= 2, got {beta}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")

    # The queue first exceeds K when w > BDP + K; the mark is fed back and
    # acted on about one round later, during which the window grew delta.
    w_max = bdp_packets + threshold + delta
    w_min = max((1.0 - 1.0 / beta) * w_max, 2.0)
    cycle = max((w_max - w_min) / delta, 1.0)

    utilization = _sawtooth_utilization(w_min, w_max, bdp_packets)
    mean_queue = _sawtooth_mean_queue(w_min, w_max, bdp_packets)
    return SawtoothPrediction(
        bdp_packets=bdp_packets,
        threshold=threshold,
        beta=beta,
        delta=delta,
        w_max=w_max,
        w_min=w_min,
        cycle_rounds=cycle,
        utilization=utilization,
        mean_queue_packets=mean_queue,
    )


def _sawtooth_utilization(w_min: float, w_max: float, bdp: float) -> float:
    """Average of ``min(w, BDP)/BDP`` over the linear ramp w_min -> w_max."""
    if w_max <= w_min:
        return min(w_max / bdp, 1.0)
    if w_min >= bdp:
        return 1.0
    ramp = w_max - w_min
    if w_max <= bdp:
        # Never reaches capacity: average window over BDP.
        return (w_min + w_max) / (2.0 * bdp)
    below = (bdp - w_min) / ramp  # fraction of the cycle under capacity
    average_below = (w_min + bdp) / (2.0 * bdp)
    return below * average_below + (1.0 - below)


def _sawtooth_mean_queue(w_min: float, w_max: float, bdp: float) -> float:
    """Average of ``max(w - BDP, 0)`` over the linear ramp w_min -> w_max."""
    if w_max <= bdp:
        return 0.0
    if w_max <= w_min:
        return max(w_max - bdp, 0.0)
    ramp = w_max - w_min
    start = max(w_min, bdp)
    above = (w_max - start) / ramp  # fraction of the cycle with a queue
    average_above = (start - bdp + w_max - bdp) / 2.0
    return above * average_above


__all__ = ["SawtoothPrediction", "predict_sawtooth"]
