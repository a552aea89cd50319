"""Properties of the one series type (``repro.metrics.series``).

The reductions are pinned *bit-equal* to the list formulas they
replaced, summed as a plain left fold from 0.0 (CPython 3.11's ``sum``;
3.12's ``sum`` is compensated) — the ledger digests fluid goodputs to
nine significant digits, so "close" would not be the same result — and
equality/pickling are pinned because the determinism tests compare whole
results with ``==`` across jobs=1 / jobs=4 and cache hit / miss.
"""

import ast
import pickle
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import series as series_module
from repro.metrics.series import TimeSeries

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
columns = st.lists(finite, min_size=0, max_size=40)


def fold(values):
    total = 0.0
    for value in values:
        total = total + value
    return total


def one_column(values, times=None):
    series = TimeSeries(["v"])
    for i, value in enumerate(values):
        series.append(float(i) if times is None else times[i], [value])
    return series


@st.composite
def tables(draw):
    """(keys, rows): a rectangular table with distinct string/int keys."""
    keys = draw(
        st.lists(st.one_of(st.text("abcflow-_012", max_size=6), st.integers(0, 50)),
                 unique=True, max_size=5)
    )
    rows = draw(
        st.lists(st.lists(finite, min_size=len(keys), max_size=len(keys)),
                 max_size=12)
    )
    return keys, rows


def build(keys, rows):
    series = TimeSeries(keys)
    for i, row in enumerate(rows):
        series.append(i * 0.5, row)
    return series


class TestReductionsMatchTheListFormulas:
    @given(values=st.lists(finite, min_size=1, max_size=40),
           fraction=st.floats(0.0, 1.0, exclude_min=True))
    def test_tail_mean(self, values, fraction):
        # solver.tail_mean / FluidLinkResult.steady_state_* at the parent.
        start = min(int(len(values) * (1.0 - fraction)), len(values) - 1)
        expected = fold(values[start:]) / (len(values) - start)
        assert one_column(values).tail_mean("v", fraction) == expected

    @given(values=columns, start=st.floats(-1.0, 50.0), width=st.floats(0.0, 50.0))
    def test_window_mean(self, values, start, width):
        # RateSampler.mean_rate / Fig7Result.mean_rate at the parent.
        end = start + width
        times = [0.7 * i for i in range(len(values))]
        window = [v for t, v in zip(times, values) if start <= t <= end]
        expected = fold(window) / len(window) if window else 0.0
        assert one_column(values, times).mean("v", start, end) == expected

    @given(values=st.lists(st.integers(0, 100), min_size=1, max_size=40))
    def test_whole_series_mean_of_integer_samples(self, values):
        # QueueMonitor.mean_occupancy summed ints; doubles hold them exactly.
        assert one_column(values).mean("v") == sum(values) / len(values)

    def test_left_fold_is_not_compensated(self):
        # A compensated sum (math.fsum, CPython >= 3.12's sum) gives 2.0.
        assert series_module.left_sum([1.0, 1e100, 1.0, -1e100]) == 0.0

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
    def test_tail_fraction_validated(self, bad):
        with pytest.raises(ValueError):
            one_column([1.0, 2.0]).tail_mean("v", bad)

    def test_empty_column(self):
        assert one_column([]).mean("v") == 0.0
        with pytest.raises(ValueError):
            one_column([]).tail_mean("v")


class TestValueSemantics:
    @given(table=tables())
    def test_pickle_round_trip(self, table):
        series = build(*table)
        clone = pickle.loads(pickle.dumps(series))
        assert clone == series
        assert list(clone.columns) == list(series.columns)

    @given(table=tables())
    def test_equal_when_built_alike(self, table):
        assert build(*table) == build(*table)

    @given(table=tables())
    def test_unequal_when_a_sample_differs(self, table):
        keys, rows = table
        if not keys or not rows:
            return
        other = [list(row) for row in rows]
        other[-1][0] = 1.0 if rows[-1][0] == 0.0 else 0.0
        assert build(keys, rows) != build(keys, other)

    def test_column_order_is_part_of_the_value(self):
        assert build(["a", "b"], []) != build(["b", "a"], [])
        assert build(["a"], []) != "a"


class TestShape:
    @given(table=tables(), late=st.integers(51, 60))
    def test_add_column_pads_with_zero(self, table, late):
        series = build(*table)
        series.add_column(late)
        assert list(series[late]) == [0.0] * len(series)
        series.append(99.0, [1.0] * len(series.columns))
        assert series[late][-1] == 1.0
        assert all(len(column) == len(series) for column in series.columns.values())

    def test_duplicate_column_rejected(self):
        with pytest.raises(ValueError):
            build(["a"], []).add_column("a")

    @given(table=tables())
    def test_short_row_rejected_and_nothing_recorded(self, table):
        series = build(*table)
        before = len(series)
        with pytest.raises(ValueError):
            series.append(1e9, [0.0] * (len(series.columns) + 1))
        assert len(series) == before


def test_series_module_imports_only_the_standard_library():
    tree = ast.parse(Path(series_module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    assert imported <= set(sys.stdlib_module_names)
