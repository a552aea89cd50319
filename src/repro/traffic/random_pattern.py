"""The Random pattern (paper §5.2.1).

Every host transfers to a random destination, subject to each host being
the destination of at most :data:`MAX_IN_DEGREE` flows; a source that
finishes immediately picks a new destination and starts again.  Flow
sizes follow a bounded Pareto distribution (shape 1.5; the paper's mean
192 MB / bound 768 MB, scaled down by default).
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence

from repro.sim.priorities import MODEL
from repro.sim.random import pareto_bounded
from repro.traffic.factory import TransferFactory

#: Flows one destination may receive at once (the paper's 4).
MAX_IN_DEGREE = 4
#: The bounded Pareto's shape (the paper's 1.5).
PARETO_SHAPE = 1.5


class RandomPattern:
    """Back-to-back random transfers per source host."""

    def __init__(
        self,
        factory: TransferFactory,
        hosts: Sequence[str],
        mean_bytes: float = 6_000_000,
        max_bytes: float = 24_000_000,
        *,
        rng: random.Random,
        exclude_same_rack: bool = False,
        destinations: Optional[Sequence[str]] = None,
    ) -> None:
        self.factory = factory
        self.hosts = list(hosts)
        self.mean_bytes = mean_bytes
        self.max_bytes = max_bytes
        self.rng = rng
        self.exclude_same_rack = exclude_same_rack
        #: Candidate destinations; defaults to the sources themselves.  The
        #: coexistence experiments split *sources* between schemes but let
        #: either half target any host, as the paper's "half of flows" does.
        self.destinations = list(destinations) if destinations else list(hosts)
        self.in_degree: Dict[str, int] = {host: 0 for host in self.destinations}
        self.flows_started = 0
        self._stopped = False

    def start(self) -> None:
        """Issue the first flow from every host."""
        for host in self.hosts:
            self._issue(host)

    def stop(self) -> None:
        """No replacement flows after the running ones finish."""
        self._stopped = True

    # ------------------------------------------------------------------

    def _acceptable(self, src: str, dst: str) -> bool:
        if dst == src:
            return False
        if self.in_degree[dst] >= MAX_IN_DEGREE:
            return False
        if self.exclude_same_rack:
            network = self.factory.network
            same_rack = getattr(network, "same_rack", None)
            if same_rack is not None and same_rack(src, dst):
                return False
        return True

    def _pick_destination(self, src: str) -> Optional[str]:
        candidates = [dst for dst in self.destinations if self._acceptable(src, dst)]
        if not candidates:
            return None
        return self.rng.choice(candidates)

    def _issue(self, src: str) -> None:
        if self._stopped:
            return
        dst = self._pick_destination(src)
        if dst is None:
            # Everyone saturated; retry shortly rather than deadlocking.
            self.factory.network.sim.post(
                0.001, self._issue, src, priority=MODEL
            )
            return
        size = int(pareto_bounded(self.rng, PARETO_SHAPE, self.mean_bytes, self.max_bytes))
        size = max(size, 1)
        self.in_degree[dst] += 1
        self.flows_started += 1

        def done(record, _src=src, _dst=dst) -> None:
            self.in_degree[_dst] -= 1
            self._issue(_src)

        self.factory.launch(src, dst, size, on_complete=done)


__all__ = ["MAX_IN_DEGREE", "RandomPattern"]
