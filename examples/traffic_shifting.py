#!/usr/bin/env python3
"""Traffic shifting demo — the paper's Fig. 4 experiment, compressed.

An XMP flow with one subflow over each of two 300 Mbps bottlenecks;
background flows perturb the bottlenecks one after the other.  Watch the
flow move its traffic away from whichever path is congested and
compensate on the other — the TraSh algorithm in action.

Run:  python examples/traffic_shifting.py
"""

from repro.experiments.catalog import run
from repro.experiments.fig4_traffic_shifting import Fig4Config

TIME_SCALE = 0.15  # compress the paper's 40 s to 6 s of simulated time


def main() -> None:
    result = run("fig4", Fig4Config(beta=4.0, time_scale=TIME_SCALE))

    print("Flow 2 subflow rates (normalized to the 300 Mbps bottleneck):")
    print(f"{'time':>8}  {'subflow 1 (DN1)':>16}  {'subflow 2 (DN2)':>16}")
    series1 = result.normalized("flow2-1")
    series2 = result.normalized("flow2-2")
    for time, r1, r2 in zip(result.series.times, series1, series2):
        bar1 = "#" * int(r1 * 30)
        bar2 = "*" * int(r2 * 30)
        print(f"{time:8.2f}  {r1:16.3f}  {r2:16.3f}   {bar1}{bar2}")

    phases = result.phases()
    print("\nphase means (subflow 1 / subflow 2):")
    for phase, (start, end) in phases.items():
        m1 = result.mean_normalized("flow2-1", start, end)
        m2 = result.mean_normalized("flow2-2", start, end)
        print(f"  {phase:>10}: {m1:.3f} / {m2:.3f}")
    print(
        "\nExpected shape: subflow 1 sinks while the background flow sits on"
        " DN1,\nsubflow 2 compensates; then the roles swap when the"
        " background moves to DN2."
    )


if __name__ == "__main__":
    main()
