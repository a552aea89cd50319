# simlint-path: src/repro/experiments/fixture_suppressed.py
"""Suppression corpus: every hazard here is explicitly waived, so the
file must lint clean."""


class FixtureConfig:
    keyfn = lambda row: row[0]  # simlint: disable=SIM009


def flush(sample):
    try:
        sample.flush()
    except Exception:  # simlint: disable=SIM010
        pass


def close(handle):
    try:
        handle.close()
    except:  # simlint: disable=all
        return None


class FixtureResult:
    rank = lambda row: row[1]  # simlint: disable=SIM009,SIM010
