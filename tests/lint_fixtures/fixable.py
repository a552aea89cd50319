# simlint-path: src/repro/runner/fixture_fixable.py
"""--fix corpus: every finding in this file carries a mechanically safe
fix, and the fixed file must lint completely clean."""


def read_optional(path):
    try:
        with open(path) as handle:
            return handle.read()
    except:  # EXPECT: SIM010
        return None


def close_quietly(handle):
    try:
        handle.close()
    except:  # EXPECT: SIM010
        return False
    return True
