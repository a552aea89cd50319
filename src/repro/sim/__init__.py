"""Discrete-event simulation engine.

This package provides the event-driven substrate that everything else in
:mod:`repro` runs on: a calendar-queue scheduler (:class:`~repro.sim.engine.Simulator`),
cancellable timers (:class:`~repro.sim.events.Event`), unit-conversion helpers
(:mod:`repro.sim.units`) and reproducible per-component random streams
(:mod:`repro.sim.random`).
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.random import RandomStreams
from repro.sim import units

__all__ = ["Simulator", "Event", "RandomStreams", "units"]
