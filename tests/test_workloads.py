"""Statistical and determinism properties of the workload layer.

The satellites the production-traffic issue pins:

* the empirical CDF of many draws matches the source CDF at every knot
  (a KS-style sup bound) and the sample mean matches the analytic mean;
* the mean interarrival gap matches the requested rate;
* identical seeds give byte-identical flow schedules (the schedule is a
  pure function of its inputs — no simulation needed for the proof);
* the streamed schedule is the listed one, and the open-loop pattern
  replays it one pending arrival at a time, each flow launched at its
  arrival time bit for bit.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal images
    HAVE_HYPOTHESIS = False

from repro.sim.engine import SimulationError, Simulator

from repro.topology.fattree import build_fattree
from repro.workloads.arrivals import (
    LognormalArrivals,
    PoissonArrivals,
    make_arrivals,
    offered_flow_rate,
    workload_capacity_bps,
)
from repro.workloads.cdf import (
    CDF_PACKET_BYTES,
    DATAMINING_POINTS,
    WEBSEARCH_POINTS,
    WORKLOAD_NAMES,
    FixedSizes,
    LognormalSizes,
    SizeCDF,
    UniformSizes,
    make_sampler,
)
from repro.validate.golden import load_golden
from repro.validate.scenarios import run_scenario
from repro.workloads import schedule as schedule_module
from repro.workloads.openloop import OpenLoopPattern
from repro.workloads.schedule import FlowArrival, build_schedule, iter_schedule

#: Draws for the distributional checks.  The KS critical value at
#: alpha=0.001 is 1.95/sqrt(N) ~ 0.0062; the seeds are fixed, so the
#: checks are deterministic and the bound below is comfortably loose
#: without being vacuous.
N_DRAWS = 100_000
KS_BOUND = 0.01


def _empirical_cdf_at(draws, x):
    return sum(1 for d in draws if d <= x) / len(draws)


class TestEmpiricalCdfs:
    @pytest.mark.parametrize(
        "name,points",
        [("websearch", WEBSEARCH_POINTS), ("datamining", DATAMINING_POINTS)],
    )
    def test_draws_match_source_cdf_at_every_knot(self, name, points):
        cdf = SizeCDF(name, points)
        rng = random.Random(12345)
        draws = [cdf.sample(rng) for _ in range(N_DRAWS)]
        for size, prob in points:
            gap = abs(_empirical_cdf_at(draws, size) - cdf.cdf_at(size))
            assert gap < KS_BOUND, (
                f"{name}: empirical CDF off by {gap:.4f} at {size:.0f} B "
                f"(knot p={prob})"
            )

    def test_websearch_sample_mean_matches_analytic(self):
        cdf = SizeCDF("websearch", WEBSEARCH_POINTS)
        rng = random.Random(7)
        draws = [cdf.sample(rng) for _ in range(N_DRAWS)]
        sample_mean = sum(draws) / len(draws)
        assert sample_mean == pytest.approx(cdf.mean_bytes(), rel=0.05)

    def test_knots_are_packet_table_times_1460(self):
        assert WEBSEARCH_POINTS[0][0] == CDF_PACKET_BYTES
        assert WEBSEARCH_POINTS[-1] == (20000 * CDF_PACKET_BYTES, 1.0)

    def test_datamining_atom_at_one_packet(self):
        # Half the datamining flows are a single packet: a vertical step
        # in the CDF, which both sampling and forward evaluation honour.
        cdf = SizeCDF("datamining", DATAMINING_POINTS)
        assert cdf.cdf_at(CDF_PACKET_BYTES) == pytest.approx(0.5)
        rng = random.Random(3)
        draws = [cdf.sample(rng) for _ in range(N_DRAWS)]
        single = sum(1 for d in draws if d <= CDF_PACKET_BYTES) / len(draws)
        assert single == pytest.approx(0.5, abs=KS_BOUND)

    def test_cdf_at_is_monotone(self):
        cdf = SizeCDF("websearch", WEBSEARCH_POINTS)
        xs = [1, 1460, 10_000, 100_000, 1_000_000, 10_000_000, 1e9]
        values = [cdf.cdf_at(x) for x in xs]
        assert values == sorted(values)
        assert values[-1] == 1.0

    def test_scale_multiplies_sizes_not_probabilities(self):
        base = SizeCDF("websearch", WEBSEARCH_POINTS)
        scaled = SizeCDF("websearch", WEBSEARCH_POINTS, scale=0.5)
        assert scaled.mean_bytes() == pytest.approx(base.mean_bytes() / 2)
        rng_a, rng_b = random.Random(9), random.Random(9)
        for _ in range(100):
            assert scaled.sample(rng_a) == pytest.approx(
                base.sample(rng_b) / 2, abs=1.0
            )

    def test_rejects_malformed_tables(self):
        with pytest.raises(ValueError):
            SizeCDF("bad", [(100, 0.5)])  # one point
        with pytest.raises(ValueError):
            SizeCDF("bad", [(100, 0.5), (200, 0.4), (300, 1.0)])  # non-monotone p
        with pytest.raises(ValueError):
            SizeCDF("bad", [(100, 0.5), (200, 0.9)])  # doesn't reach 1.0
        with pytest.raises(ValueError):
            SizeCDF("bad", [(0, 0.0), (200, 1.0)])  # non-positive size
        with pytest.raises(ValueError):
            SizeCDF("bad", WEBSEARCH_POINTS, scale=0.0)


class TestSyntheticSamplers:
    def test_uniform_bounds_and_mean(self):
        sampler = UniformSizes(1_000, 3_000)
        rng = random.Random(1)
        draws = [sampler.sample(rng) for _ in range(20_000)]
        assert min(draws) >= 1_000 and max(draws) <= 3_000
        assert sum(draws) / len(draws) == pytest.approx(2_000, rel=0.02)
        assert sampler.mean_bytes() == 2_000

    def test_lognormal_mean_calibration(self):
        sampler = LognormalSizes(50_000, sigma=1.0)
        rng = random.Random(2)
        draws = [sampler.sample(rng) for _ in range(N_DRAWS)]
        assert sum(draws) / len(draws) == pytest.approx(50_000, rel=0.05)

    def test_fixed_is_constant(self):
        sampler = FixedSizes(1234)
        rng = random.Random(0)
        assert {sampler.sample(rng) for _ in range(10)} == {1234}
        assert sampler.mean_bytes() == 1234.0

    def test_sampler_validation(self):
        with pytest.raises(ValueError):
            UniformSizes(10, 5)
        with pytest.raises(ValueError):
            LognormalSizes(0)
        with pytest.raises(ValueError):
            LognormalSizes(100, sigma=0)
        with pytest.raises(ValueError):
            FixedSizes(0)

    def test_make_sampler_every_name(self):
        for name in WORKLOAD_NAMES:
            sampler = make_sampler(name)
            assert sampler.name == name
            assert sampler.mean_bytes() > 0
            assert sampler.sample(random.Random(0)) >= 1

    def test_make_sampler_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown workload"):
            make_sampler("pareto")
        with pytest.raises(ValueError):
            make_sampler("websearch", size_scale=-1)


class TestArrivalProcesses:
    def test_poisson_mean_gap_matches_rate(self):
        process = PoissonArrivals(2_000.0)
        rng = random.Random(11)
        gaps = [process.next_gap(rng) for _ in range(N_DRAWS)]
        assert sum(gaps) / len(gaps) == pytest.approx(
            1.0 / process.rate_per_s, rel=0.02
        )

    def test_lognormal_mean_gap_matches_rate(self):
        # The mu calibration must preserve E[gap] = 1/rate, or the
        # "same load, burstier arrivals" comparison would be meaningless.
        process = LognormalArrivals(2_000.0, sigma=1.0)
        rng = random.Random(13)
        gaps = [process.next_gap(rng) for _ in range(N_DRAWS)]
        assert sum(gaps) / len(gaps) == pytest.approx(
            1.0 / 2_000.0, rel=0.03
        )

    def test_gaps_strictly_positive(self):
        for process in (PoissonArrivals(500.0), LognormalArrivals(500.0)):
            rng = random.Random(4)
            assert all(process.next_gap(rng) > 0 for _ in range(10_000))

    def test_make_arrivals(self):
        assert make_arrivals("poisson", 10.0).name == "poisson"
        assert make_arrivals("lognormal", 10.0, sigma=2.0).sigma == 2.0
        with pytest.raises(ValueError, match="unknown arrival"):
            make_arrivals("weibull", 10.0)
        with pytest.raises(ValueError):
            make_arrivals("poisson", 0.0)
        with pytest.raises(ValueError):
            make_arrivals("lognormal", 10.0, sigma=0.0)


class TestLoadCalibration:
    def test_offered_flow_rate_formula(self):
        # load 0.5 of 16 Gbps at mean 1 MB: 0.5 * 16e9 / 8e6 = 1000/s.
        assert offered_flow_rate(0.5, 16e9, 1_000_000) == pytest.approx(1000.0)

    def test_offered_flow_rate_validation(self):
        with pytest.raises(ValueError):
            offered_flow_rate(0.0, 1e9, 1000)
        with pytest.raises(ValueError):
            offered_flow_rate(0.5, 0.0, 1000)
        with pytest.raises(ValueError):
            offered_flow_rate(0.5, 1e9, 0)

    def test_fattree_capacity_is_aggregate_access_bandwidth(self):
        net = build_fattree(k=4)
        # k=4: bisection (k^3/8)*rate = 8 Gbps; capacity doubles it back
        # to the 16 hosts' aggregate 1 Gbps access bandwidth.
        assert net.bisection_bandwidth_bps() == pytest.approx(8e9)
        assert workload_capacity_bps(net) == pytest.approx(16e9)

    def test_capacity_fallback_sums_host_links(self, two_host_net):
        # A plain Network has no bisection helper; the fallback sums the
        # two hosts' 1 Gbps access links.
        assert workload_capacity_bps(two_host_net) == pytest.approx(2e9)


class TestScheduleDeterminism:
    HOSTS = [f"h{i}" for i in range(8)]

    def _schedule(self, seed: int, duration: float = 0.5):
        return build_schedule(
            self.HOSTS,
            make_sampler("websearch"),
            PoissonArrivals(200.0),
            random.Random(seed),
            duration,
        )

    def test_identical_seeds_identical_schedules(self):
        assert self._schedule(42) == self._schedule(42)

    def test_different_seeds_differ(self):
        assert self._schedule(42) != self._schedule(43)

    def test_schedule_well_formed(self):
        schedule = self._schedule(1)
        assert schedule, "expected a non-empty schedule"
        times = [a.time for a in schedule]
        assert times == sorted(times)
        assert all(0 < a.time < 0.5 for a in schedule)
        assert all(a.src != a.dst for a in schedule)
        assert all(a.size_bytes >= 1 for a in schedule)

    def test_all_hosts_participate(self):
        schedule = self._schedule(5, duration=5.0)
        assert {a.src for a in schedule} == set(self.HOSTS)
        assert {a.dst for a in schedule} == set(self.HOSTS)

    def test_max_flows_backstop(self, monkeypatch):
        monkeypatch.setattr(schedule_module, "MAX_SCHEDULED_FLOWS", 25)
        schedule = build_schedule(
            self.HOSTS,
            FixedSizes(1000),
            PoissonArrivals(1e6),
            random.Random(0),
            10.0,
        )
        assert len(schedule) == 25

    def test_input_validation(self):
        with pytest.raises(ValueError):
            build_schedule(
                ["only-one"], FixedSizes(1), PoissonArrivals(1.0),
                random.Random(0), 1.0,
            )
        with pytest.raises(ValueError):
            build_schedule(
                self.HOSTS, FixedSizes(1), PoissonArrivals(1.0),
                random.Random(0), 0.0,
            )


class TestStreamedArrivals:
    HOSTS = [f"h{i}" for i in range(8)]

    def _both(self, seed, duration, arrival):
        def stream():
            return (
                self.HOSTS, make_sampler("websearch"),
                make_arrivals(arrival, 400.0, sigma=1.5), random.Random(seed), duration,
            )

        return list(iter_schedule(*stream())), build_schedule(*stream())

    def check_stream_equals_list(self, seed, duration, arrival):
        streamed, listed = self._both(seed, duration, arrival)
        assert isinstance(listed, list)
        assert len(streamed) == len(listed)
        for a, b in zip(streamed, listed):
            assert a == b
            assert a.time.hex() == b.time.hex()

    if HAVE_HYPOTHESIS:

        @given(
            st.integers(min_value=0, max_value=2**32 - 1),
            st.floats(min_value=1e-4, max_value=0.2),
            st.sampled_from(["poisson", "lognormal"]),
        )
        @settings(max_examples=60, deadline=None)
        def test_stream_equals_list(self, seed, duration, arrival):
            self.check_stream_equals_list(seed, duration, arrival)

    else:  # pragma: no cover - minimal images only

        def test_stream_equals_list(self):
            rng = random.Random(0x5EED)
            for _ in range(60):
                self.check_stream_equals_list(
                    rng.randrange(2**32), rng.uniform(1e-4, 0.2),
                    rng.choice(["poisson", "lognormal"]),
                )

    @staticmethod
    def _replay(schedule):
        """Run an OpenLoopPattern over ``schedule`` with a recording factory;
        return (launch times, pending records seen at each launch, pattern)."""
        sim = Simulator()
        launches = []
        pending = []

        def launch(src, dst, size):
            launches.append(sim.now)
            pending.append(sim.pending_events)

        factory = SimpleNamespace(network=SimpleNamespace(sim=sim), launch=launch)
        pattern = OpenLoopPattern(factory, schedule)
        pattern.start()
        pending.append(sim.pending_events)
        sim.run()
        return launches, pending, pattern

    def test_each_flow_launches_at_its_arrival_time_bit_for_bit(self):
        # A pair where a relative delay would not land on the arrival:
        # now + (t - now) is one ulp off t.
        now, t = 6.731135254387071e-07, 1.6832368123840407e-06
        assert now + (t - now) != t
        schedule = [FlowArrival(now, "h0", "h1", 1), FlowArrival(t, "h1", "h0", 2)]
        schedule += [
            arrival
            for arrival in iter_schedule(
                self.HOSTS, FixedSizes(1000), PoissonArrivals(2e5), random.Random(3), 0.02,
            )
            if arrival.time > t
        ]
        launches, _, pattern = self._replay(schedule)
        assert [time.hex() for time in launches] == [a.time.hex() for a in schedule]
        assert pattern.launched == pattern.scheduled == len(schedule)
        assert pattern.offered_bytes == sum(a.size_bytes for a in schedule)

    def test_at_most_one_arrival_is_ever_pending(self):
        schedule = iter_schedule(
            self.HOSTS, FixedSizes(1000), PoissonArrivals(1e5), random.Random(9), 0.01,
        )
        launches, pending, pattern = self._replay(schedule)
        assert len(launches) > 500
        # Nothing else is scheduled here, so the pending records are the
        # pattern's own: the next arrival, never more.
        assert max(pending) == 1
        assert pattern.launched == pattern.scheduled == len(launches)

    def test_arrival_in_the_past_is_rejected(self):
        sim = Simulator()
        sim.run(until=1.0)
        factory = SimpleNamespace(network=SimpleNamespace(sim=sim), launch=None)
        pattern = OpenLoopPattern(factory, [FlowArrival(0.5, "h0", "h1", 1)])
        with pytest.raises(SimulationError, match="before now"):
            pattern.start()

    def test_websearch_golden_schedule_totals_unchanged(self):
        digest, _ = run_scenario("workload-websearch")
        golden = load_golden("workload-websearch")
        for key in ("scheduled_flows", "launched_flows", "offered_bytes"):
            assert digest[key] == golden[key]
        assert (digest["scheduled_flows"], digest["offered_bytes"]) == (11, 29441043)
