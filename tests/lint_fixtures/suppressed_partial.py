# simlint-path: src/repro/experiments/fixture_suppressed_partial.py
"""A suppression only waives the codes it names: the SIM010 waiver below
does not cover the SIM009 hazard on the same line."""


class FixtureConfig:
    keyfn = lambda row: row[0]  # simlint: disable=SIM010  # EXPECT: SIM009
