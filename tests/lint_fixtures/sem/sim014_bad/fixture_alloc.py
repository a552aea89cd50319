# simlint-path: src/repro/lint/perf/fixture_alloc.py
"""A probe implementation under repro.lint.perf for the SIM014 bad twin.

The virtual path places this file in the allocation sanitizer's package,
which is an observer module like repro.validate: its on_* methods are
protocol too.
"""


class FixtureMonitor:
    def on_event_fired(self, time: float) -> None:
        """Fired by the engine module."""

    def on_sample(self, nbytes: int) -> None:  # EXPECT: SIM014
        """Defined, but no instrumented site ever fires it."""
