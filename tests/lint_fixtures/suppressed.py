# simlint-path: src/repro/traffic/fixture_suppressed.py
"""Suppression corpus: every hazard here is explicitly waived, so the
file must lint clean."""
import random
import time


def pick(items):
    return random.choice(items)  # simlint: disable=SIM001


def stamp():
    return time.time()  # simlint: disable=SIM002


def chaos(items):
    random.shuffle(items)  # simlint: disable=all


def multi(event, other):
    return event.time == other.time  # simlint: disable=SIM001,SIM003
