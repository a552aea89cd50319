"""Parametric partition-aggregate (incast) fan-in jobs.

The paper's incast workload (:mod:`repro.traffic.incast`) is this
pattern pinned to its §5.2.1 constants — 8 servers, 2 KB requests,
64 KB responses, one TCP factory for both directions.  The fan-in
*sweep* the AMP line of work runs needs those knobs open: how does each
scheme's goodput collapse as the number of simultaneous responders into
one access link grows from 2 to ``hosts-1``?

A :class:`PartitionAggregateJob` is one aggregator round: the
aggregator sends ``request_bytes`` to ``fan_in`` workers; each worker
answers with ``response_bytes`` *through the scheme under test* (that
is the difference from the paper workload — here the responses are the
measured traffic, so XMP vs DCTCP vs LIA incast behaviour is
comparable).  The job completes when all responses have arrived; the
pattern immediately starts the next round, keeping
``concurrent_jobs`` aggregators busy.

Per-job metrics feed :func:`repro.metrics.fct.goodput_collapse_ratio`:
the ideal JCT is the time the aggregator's access link would need to
carry ``fan_in * response_bytes`` back to back, and the ratio of ideal
to achieved is the collapse factor (1.0 = no collapse; RTO-dominated
rounds push it toward 0).
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence

from repro.sim.units import Bytes
from repro.traffic.factory import TransferFactory

#: Default request size — the paper's 2 KB query.
DEFAULT_REQUEST_BYTES = 2_000
#: Default response size — the paper's 64 KB answer.
DEFAULT_RESPONSE_BYTES = 64_000


def check_rounds(hosts: int, fan_in: int, concurrent_jobs: int) -> None:
    """``ValueError`` unless ``hosts`` hosts can keep ``concurrent_jobs``
    rounds of ``fan_in`` workers (plus their aggregator) running."""
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    if hosts < fan_in + 1:
        raise ValueError(f"need at least {fan_in + 1} hosts, got {hosts}")
    if concurrent_jobs < 1:
        raise ValueError(f"concurrent_jobs must be >= 1, got {concurrent_jobs}")


class PartitionAggregateJob:
    """One aggregator round at a given fan-in."""

    def __init__(
        self,
        pattern: "PartitionAggregatePattern",
        aggregator: str,
        workers: Sequence[str],
        start_time: float,
    ) -> None:
        self.pattern = pattern
        self.aggregator = aggregator
        self.workers = list(workers)
        self.start_time = start_time
        self.complete_time: Optional[float] = None
        self._responses_pending = len(self.workers)

    def launch(self) -> None:
        """Send every request simultaneously."""
        for worker in self.workers:
            self.pattern.request_factory.launch(
                self.aggregator,
                worker,
                self.pattern.request_bytes,
                on_complete=self._request_done(worker),
            )

    def _request_done(self, worker: str) -> Callable:
        def callback(record) -> None:
            # Request delivered; the worker responds at once, using the
            # scheme under test.
            self.pattern.response_factory.launch(
                worker,
                self.aggregator,
                self.pattern.response_bytes,
                on_complete=self._response_done,
            )

        return callback

    def _response_done(self, record) -> None:
        self._responses_pending -= 1
        if self._responses_pending == 0:
            self.complete_time = self.pattern.network.sim.now
            self.pattern._job_finished(self)


class PartitionAggregatePattern:
    """Keep ``concurrent_jobs`` fan-in rounds running, recording JCTs."""

    def __init__(
        self,
        request_factory: TransferFactory,
        response_factory: TransferFactory,
        hosts: Sequence[str],
        fan_in: int,
        request_bytes: Bytes = DEFAULT_REQUEST_BYTES,
        response_bytes: Bytes = DEFAULT_RESPONSE_BYTES,
        concurrent_jobs: int = 1,
        rng: Optional[random.Random] = None,
    ) -> None:
        check_rounds(len(hosts), fan_in, concurrent_jobs)
        self.request_factory = request_factory
        self.response_factory = response_factory
        self.network = request_factory.network
        self.hosts = list(hosts)
        self.fan_in = fan_in
        self.request_bytes = int(request_bytes)
        self.response_bytes = int(response_bytes)
        self.concurrent_jobs = concurrent_jobs
        self.rng = rng if rng is not None else random.Random(0)
        self.completed_jobs: List[PartitionAggregateJob] = []
        self.active_jobs: List[PartitionAggregateJob] = []
        self.jobs_started = 0
        self._stopped = False

    def start(self) -> None:
        """Launch the initial batch of concurrent aggregator rounds."""
        for _ in range(self.concurrent_jobs):
            self._start_job()

    def stop(self) -> None:
        """Finish running rounds but start no new ones."""
        self._stopped = True

    def completion_times(self) -> List[float]:
        """All recorded JCTs, seconds."""
        return [job.complete_time - job.start_time for job in self.completed_jobs]

    def unfinished_ages(self, now: float) -> List[float]:
        """Ages of rounds still running (finite-horizon accounting)."""
        return [now - job.start_time for job in self.active_jobs]

    # ------------------------------------------------------------------

    def _start_job(self) -> None:
        if self._stopped:
            return
        chosen = self.rng.sample(self.hosts, self.fan_in + 1)
        self.jobs_started += 1
        job = PartitionAggregateJob(
            self, chosen[0], chosen[1:], self.network.sim.now
        )
        self.active_jobs.append(job)
        job.launch()

    def _job_finished(self, job: PartitionAggregateJob) -> None:
        self.active_jobs.remove(job)
        self.completed_jobs.append(job)
        self._start_job()


__all__ = [
    "DEFAULT_REQUEST_BYTES",
    "DEFAULT_RESPONSE_BYTES",
    "PartitionAggregateJob",
    "PartitionAggregatePattern",
    "check_rounds",
]
