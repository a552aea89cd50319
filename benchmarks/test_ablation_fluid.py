"""Ablation: fluid model (Eq. 2) vs the packet-level simulator.

The paper derives BOS from the window ODE of Eq. 2 and its equilibrium
Eq. 3.  This bench runs the fluid backend and the packet simulator on the
same N-flow dumbbell (1 Gbps, RTT 225 us, K=10) through
:func:`~repro.fluid.crosscheck.crosscheck_bottleneck` and compares
steady-state windows, bottleneck queue and goodput: the strongest
internal-consistency check the reproduction has.  Every comparison must
hold within the crosscheck's own tolerances.
"""

from _bench_common import emit

from repro.fluid.crosscheck import crosscheck_bottleneck

FLOW_COUNTS = (1, 2, 4)


def test_ablation_fluid_vs_packet(once):
    def compare():
        return {n: crosscheck_bottleneck(scheme="xmp", flows=n) for n in FLOW_COUNTS}

    checks = once(compare)
    lines = ["flows   fluid w   packet w   fluid q   packet q"]
    for n, (window, queue, _) in checks.items():
        lines.append(
            f"{n:5d} {window.fluid:9.1f} {window.packet:10.1f} "
            f"{queue.fluid:9.1f} {queue.packet:10.1f}"
        )
    emit("ablation_fluid_vs_packet", "\n".join(lines))

    for rows in checks.values():
        for check in rows:
            assert check.ok, check.format()
