# simlint-path: src/repro/fixture_sem/s14/engine.py
"""Engine whose probe calls all match the Probe protocol."""


class Engine:
    def __init__(self, probe: object) -> None:
        self.probe = probe
        self.now = 0.0

    def step(self) -> None:
        probe = self.probe
        self.probe.on_event_fired(self.now)
        probe.on_event_settled()
