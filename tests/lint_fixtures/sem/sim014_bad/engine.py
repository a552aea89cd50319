# simlint-path: src/repro/fixture_sem/s14/engine.py
"""Engine that fires a probe hook nothing defines."""


class Engine:
    def __init__(self, probe: object) -> None:
        self.probe = probe
        self.now = 0.0

    def step(self) -> None:
        probe = self.probe
        probe.on_event_fired(self.now)
        probe.on_event_done()  # EXPECT: SIM014
