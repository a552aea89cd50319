#!/usr/bin/env python3
"""The paper's fluid model (Eq. 2) against the packet-level simulator.

Runs the fluid backend and the packet simulator on the same dumbbell of
N XMP flows sharing a marked 1 Gbps link, printing steady-state windows
and queue side by side, then checks Eq. 3 on the fluid side: at the
marking probability ``p`` of its own bottleneck queue, the window sits
at the fixed point ``delta*beta*(1-p)/p``.  The internal-consistency
check that the implementation sits where the paper's own analysis says
it should.

Run:  python examples/model_vs_simulator.py
"""

from repro.core.utility import equilibrium_window
from repro.fluid.crosscheck import crosscheck_bottleneck
from repro.fluid.laws import threshold_marking_probability

K = 10
BETA = 4.0


def main() -> None:
    print(f"{'flows':>6} {'fluid w':>9} {'packet w':>9} "
          f"{'fluid q':>9} {'packet q':>9} {'p':>7} {'Eq. 3 w':>9}")
    for n in (1, 2, 4, 8):
        window, queue, _ = crosscheck_bottleneck(
            scheme="xmp", flows=n, marking_threshold=K, beta=BETA
        )
        p = threshold_marking_probability(queue.fluid, K)
        print(f"{n:6d} {window.fluid:9.1f} {window.packet:9.1f} "
              f"{queue.fluid:9.1f} {queue.packet:9.1f} {p:7.4f} "
              f"{equilibrium_window(p, 1.0, BETA):9.1f}")
    print(
        "\nEq. 3 cross-check: p is the marking probability of the fluid"
        "\nbottleneck queue, and the fluid window equals the fixed point"
        f"\ndelta*beta*(1-p)/p at delta=1, beta={BETA:g}."
    )


if __name__ == "__main__":
    main()
