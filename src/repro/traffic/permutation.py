"""The Permutation pattern (paper §5.2.1).

Every host transfers to one other host chosen at random such that each
host is the destination of exactly one flow (a fixed-point-free random
permutation); when *all* flows of a round finish, a new permutation
starts.  Flow sizes are uniform in a configurable range (the paper's
64-512 MB, scaled down by default — see DESIGN.md §4).
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.traffic.factory import TransferFactory


def random_derangement(items: Sequence[str], rng: random.Random) -> List[str]:
    """A uniform-ish random permutation with no fixed points.

    Retry-shuffle until no element maps to itself; for n >= 2 the success
    probability per attempt is ~1/e, so this terminates quickly.
    """
    if len(items) < 2:
        raise ValueError("need at least two items for a derangement")
    targets = list(items)
    while True:
        rng.shuffle(targets)
        if all(a != b for a, b in zip(items, targets)):
            return targets


class PermutationPattern:
    """Drive rounds of host permutations until stopped."""

    def __init__(
        self,
        factory: TransferFactory,
        hosts: Sequence[str],
        size_min_bytes: int = 2_000_000,
        size_max_bytes: int = 16_000_000,
        *,
        rng: random.Random,
    ) -> None:
        if size_min_bytes <= 0 or size_max_bytes < size_min_bytes:
            raise ValueError("invalid size range")
        self.factory = factory
        self.hosts = list(hosts)
        self.size_min = size_min_bytes
        self.size_max = size_max_bytes
        self.rng = rng
        self.rounds_started = 0
        self.flows_started = 0
        self._outstanding = 0
        self._stopped = False

    def start(self) -> None:
        """Launch the first round."""
        self._start_round()

    def stop(self) -> None:
        """No further rounds will start (running flows continue)."""
        self._stopped = True

    def _start_round(self) -> None:
        if self._stopped:
            return
        self.rounds_started += 1
        targets = random_derangement(self.hosts, self.rng)
        self._outstanding = len(self.hosts)
        for src, dst in zip(self.hosts, targets):
            size = self.rng.randint(self.size_min, self.size_max)
            self.flows_started += 1
            self.factory.launch(src, dst, size, on_complete=self._flow_done)

    def _flow_done(self, record) -> None:
        self._outstanding -= 1
        if self._outstanding == 0:
            self._start_round()


__all__ = ["PermutationPattern", "random_derangement"]
