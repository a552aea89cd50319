# simlint-path: src/repro/sim/probe.py
"""Probe protocol for the SIM014 good twin: the engine fires every hook."""


class Probe:
    def on_event_fired(self, time: float) -> None:
        """Fired by Engine.step through the ``probe`` slot."""

    def on_event_settled(self) -> None:
        """Fired by Engine.step through a hoisted local alias."""
