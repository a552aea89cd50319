"""Transfer factory: scheme-configured transfers with records and sampling.

Every workload pattern funnels flow creation through one
:class:`TransferFactory`, which

* picks subflow paths — hash-ECMP for single-path schemes, distinct
  equal-cost paths for multipath ones (the paper's setup);
* builds the :class:`~repro.mptcp.MptcpConnection` with the scheme's
  coupling, beta and RTOmin;
* tags the flow with its category (inner-rack / inter-rack / inter-pod on
  a fat tree) and appends a finished
  :class:`~repro.metrics.goodput.FlowRecord` to the shared list;
* optionally registers each subflow sender with an
  :class:`~repro.metrics.collector.RttSampler` under that category.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.metrics.collector import RttSampler
from repro.metrics.goodput import FlowRecord
from repro.mptcp.connection import MptcpConnection
from repro.mptcp.coupling import scheme_label
from repro.net.network import Network
from repro.net.routing import DistinctPathSelector, EcmpSelector
from repro.topology.fattree import FatTreeNetwork


class TransferFactory:
    """Create transfers of one scheme and account for them."""

    def __init__(
        self,
        network: Network,
        scheme: str,
        subflow_count: int = 1,
        beta: float = 4.0,
        rto_min: float = 0.200,
        rng: Optional[random.Random] = None,
        rtt_sampler: Optional[RttSampler] = None,
        label: Optional[str] = None,
        on_launch: Optional[Callable[[MptcpConnection], None]] = None,
    ) -> None:
        if subflow_count < 1:
            raise ValueError(f"subflow_count must be >= 1, got {subflow_count}")
        self.network = network
        self.scheme = scheme
        self.subflow_count = subflow_count
        self.beta = beta
        self.rto_min = rto_min
        self.rng = rng if rng is not None else random.Random(0)
        self.rtt_sampler = rtt_sampler
        #: Flow-lifecycle hook: called with each connection as it starts
        #: (completion already flows through per-launch ``on_complete``
        #: callbacks and ``self.records``).  Workload patterns use the
        #: pair as the start/completion event seam for FCT accounting.
        self.on_launch = on_launch
        #: Name used in reports: e.g. "XMP-2", "LIA-4", "DCTCP".
        self.label = label if label is not None else scheme_label(scheme, subflow_count)
        self.records: List[FlowRecord] = []
        #: Running transfers by flow id, in launch order.
        self.active: Dict[int, MptcpConnection] = {}
        self._ecmp = EcmpSelector(self.rng)
        self._distinct = DistinctPathSelector(self.rng)

    def category(self, src: str, dst: str) -> str:
        """Flow category; 'any' when the topology has no notion of racks."""
        if isinstance(self.network, FatTreeNetwork):
            return self.network.category(src, dst)
        return "any"

    # ------------------------------------------------------------------

    def launch(
        self,
        src: str,
        dst: str,
        size_bytes: int,
        on_complete: Optional[Callable[[FlowRecord], None]] = None,
    ) -> MptcpConnection:
        """Create and start a transfer now."""
        count = self.subflow_count
        paths = self.network.paths(src, dst)
        if not paths:
            raise ValueError(f"no path between {src} and {dst}")
        selector = self._distinct if count > 1 else self._ecmp
        chosen = selector.select(paths, 0, count)
        category = self.category(src, dst)

        def finished(connection: MptcpConnection, now: float) -> None:
            record = FlowRecord(
                flow_id=connection.flow_id,
                scheme=self.label,
                src=src,
                dst=dst,
                category=category,
                size_bytes=size_bytes,
                start_time=(
                    connection.start_time if connection.start_time is not None else 0.0
                ),
                complete_time=now,
                delivered_bytes=connection.delivered_bytes,
            )
            self.records.append(record)
            del self.active[connection.flow_id]
            if on_complete is not None:
                on_complete(record)

        connection = MptcpConnection(
            self.network,
            src,
            dst,
            chosen,
            scheme=self.scheme,
            size_bytes=size_bytes,
            beta=self.beta,
            rto_min=self.rto_min,
            on_complete=finished,
        )
        if self.rtt_sampler is not None:
            for subflow in connection.subflows:
                self.rtt_sampler.watch(category, subflow.sender)
        self.active[connection.flow_id] = connection
        connection.start()
        if self.on_launch is not None:
            self.on_launch(connection)
        return connection

    # ------------------------------------------------------------------

    def unfinished_records(self, now: float) -> List[FlowRecord]:
        """Records for still-running transfers, measured up to ``now``.

        The paper's goodput averages are over completed flows; including
        the unfinished tail (at its current average rate) is useful for
        short scaled-down runs and is reported separately.
        """
        records = []
        for connection in self.active.values():
            records.append(
                FlowRecord(
                    flow_id=connection.flow_id,
                    scheme=self.label,
                    src=connection.src,
                    dst=connection.dst,
                    category=self.category(connection.src, connection.dst),
                    size_bytes=connection.size_bytes or 0,
                    start_time=(
                        connection.start_time
                        if connection.start_time is not None
                        else now
                    ),
                    complete_time=None,
                    delivered_bytes=connection.delivered_bytes,
                )
            )
        return records

    def all_records(self, now: float) -> List[FlowRecord]:
        """Finished records plus the unfinished tail measured at ``now``."""
        return self.records + self.unfinished_records(now)


__all__ = ["TransferFactory"]
