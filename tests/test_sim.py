"""Event-driven protocol simulator: invariants, determinism, convergence."""

import hashlib
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from csma_sic import (LinkSet, NetworkTopology, Link, Node, PhyConfig,
                      RateParams, SimConfig, Simulator, build_channel_matrix,
                      empirical_throughput, enumerate_feasible,
                      expected_throughput, run, steady_state)
from csma_sic.cli import main as cli_main
from conftest import random_topology, triangle_topology

TRIANGLE_YAML = Path(__file__).resolve().parent.parent / "scenarios" / "triangle.yaml"


def conflict_pair():
    """Two parallel links close enough that only one can run at a time."""
    phy = PhyConfig(noise_power=0.1, sinr_threshold=2.0, cancel_fraction=1.0,
                    radius=100.0)
    nodes = (Node(0, 0.0, 0.0), Node(1, 1.0, 0.0),
             Node(2, 0.0, 0.5), Node(3, 1.0, 0.5))
    links = (Link(0, 0, 1), Link(1, 2, 3))
    topo = NetworkTopology(nodes, links, phy)
    return topo, build_channel_matrix(topo)


class TestBasicRuns:
    def test_zero_horizon(self, triangle):
        topo, channel = triangle
        stats = run(topo, channel, topo.phy, SimConfig(horizon=0.0))
        assert stats.measured_time == 0.0
        assert empirical_throughput(stats).tolist() == [0.0, 0.0, 0.0]

    def test_never_infeasible(self, triangle):
        # check_invariants asserts independence on every activation
        topo, channel = triangle
        run(topo, channel, topo.phy, SimConfig(horizon=2000.0, seed=3),
            check_invariants=True)

    def test_conflict_pair_mutual_exclusion(self):
        topo, channel = conflict_pair()
        sim = Simulator(topo, channel, params=RateParams.uniform(2), seed=1)
        sim.advance(5000.0)
        stats = sim.stats()
        assert 0b11 not in stats.occupancy

    def test_warmup_excluded(self, triangle):
        topo, channel = triangle
        stats = run(topo, channel, topo.phy,
                    SimConfig(horizon=1000.0, warmup=400.0, seed=2))
        assert stats.measured_time == pytest.approx(600.0)
        assert sum(stats.occupancy.values()) == pytest.approx(600.0)


class TestDeterminism:
    def test_same_seed_same_stats(self, triangle):
        topo, channel = triangle
        cfg = SimConfig(horizon=3000.0, seed=42)
        a = run(topo, channel, topo.phy, cfg)
        b = run(topo, channel, topo.phy, cfg)
        assert np.array_equal(a.busy_time, b.busy_time)
        assert np.array_equal(a.completed, b.completed)
        assert a.occupancy == b.occupancy

    def test_different_seed_differs(self, triangle):
        topo, channel = triangle
        a = run(topo, channel, topo.phy, SimConfig(horizon=3000.0, seed=1))
        b = run(topo, channel, topo.phy, SimConfig(horizon=3000.0, seed=2))
        assert not np.array_equal(a.busy_time, b.busy_time)

    def test_advance_in_pieces_matches_one_shot(self, triangle):
        topo, channel = triangle
        one = Simulator(topo, channel, seed=9)
        one.advance(2000.0)
        pieces = Simulator(topo, channel, seed=9)
        for t in np.linspace(100.0, 2000.0, 20):
            pieces.advance(float(t))
        sa, sb = one.stats(), pieces.stats()
        assert np.array_equal(sa.busy_time, sb.busy_time)
        assert sa.occupancy == pytest.approx(sb.occupancy)


class TestPinnedOutputs:
    """Outputs recorded before the simulator derived its local view from the
    active-link mask; a refactor of the event loop must reproduce them."""

    TRIANGLE_CSV_SHA256 = {
        1: "429c372be717e03bd998b53f042a25f71775e56228e0ba5310791a1103b62e12",
        2: "5ab83a27c770d7a971e555b44ba37b422727feee0a16979156a23d5563996033",
    }

    @pytest.mark.parametrize("seed", [1, 2])
    def test_triangle_simulate_csv(self, tmp_path, seed):
        out = tmp_path / "sim.csv"
        assert cli_main(["simulate", str(TRIANGLE_YAML), "--horizon", "2e4",
                         "--seed", str(seed), "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.TRIANGLE_CSV_SHA256[seed]

    def test_random_topology_trajectory(self):
        topo = random_topology(np.random.default_rng(7), 10)
        sim = Simulator(topo, build_channel_matrix(topo), seed=3)
        sim.advance(500.0)
        assert sim.completed_total.tolist() == [
            131, 100, 110, 132, 18, 96, 60, 106, 143, 232]
        assert sorted(sim.occupancy) == [
            0, 1, 2, 3, 4, 8, 9, 10, 11, 12, 16, 20, 32, 33, 34, 35, 36, 64,
            65, 68, 128, 132, 136, 144, 160, 192, 256, 257, 258, 259, 260,
            264, 265, 268, 384, 388, 392, 512, 513, 514, 515, 516, 520, 521,
            524, 544, 545, 546, 547, 548, 576, 577, 580, 640, 648, 672, 704,
            768, 769, 770, 771, 772, 776, 896]


class TestStatsConsistency:
    def test_occupancy_decomposes_busy_time(self, triangle):
        topo, channel = triangle
        stats = run(topo, channel, topo.phy, SimConfig(horizon=5000.0, seed=7))
        k = 3
        recon = np.zeros(k)
        for mask, t in stats.occupancy.items():
            for i in range(k):
                if mask >> i & 1:
                    recon[i] += t
        assert recon == pytest.approx(stats.busy_time, rel=1e-12)
        assert sum(stats.occupancy.values()) == pytest.approx(
            stats.measured_time)

    def test_completions_track_busy_time(self, triangle):
        # each holding period is Exp(mu=1), so busy_time ~ completions
        topo, channel = triangle
        stats = run(topo, channel, topo.phy, SimConfig(horizon=20000.0, seed=5))
        for i in range(3):
            assert stats.busy_time[i] == pytest.approx(
                stats.completed[i], rel=0.1)


class TestAgainstAnalytical:
    def test_triangle_occupancy_matches_steady_state(self, triangle):
        topo, channel = triangle
        fam = enumerate_feasible(topo, channel)
        params = RateParams(r=np.array([0.5, 0.0, -0.5]))
        stats = run(topo, channel, topo.phy,
                    SimConfig(horizon=200_000.0, seed=11, params=params))
        ss = steady_state(fam, params)
        frac = stats.occupancy_fractions()
        tv = 0.5 * sum(abs(frac.get(s.bits, 0.0) - p)
                       for s, p in ss.probs.items())
        assert tv <= 0.02
        tau = expected_throughput(fam, params)
        emp = empirical_throughput(stats)
        assert np.all(np.abs(emp - tau) <= 0.02)

    def test_random_topology_matches(self):
        rng = np.random.default_rng(20)
        topo = random_topology(rng, 4)
        channel = build_channel_matrix(topo)
        fam = enumerate_feasible(topo, channel)
        params = RateParams(r=rng.uniform(-1, 1, size=4))
        stats = run(topo, channel, topo.phy,
                    SimConfig(horizon=200_000.0, seed=13, params=params))
        ss = steady_state(fam, params)
        frac = stats.occupancy_fractions()
        tv = 0.5 * sum(abs(frac.get(s.bits, 0.0) - p)
                       for s, p in ss.probs.items())
        assert tv <= 0.02


class TestTimerMemorylessness:
    def test_counted_backoffs_are_exponential(self):
        # suspend/resume keeps the remaining time, so the total counted
        # backoff before transmission equals the original exponential draw
        topo, channel = conflict_pair()
        lam = np.exp(np.array([0.8, 0.8]))
        sim = Simulator(topo, channel, params=RateParams(r=np.log(lam)),
                        seed=17, record_cycles=True)
        sim.advance(20000.0)
        draws = np.array([c[1] for c in sim.cycles[0]])
        assert len(draws) > 500
        stat, p = scipy.stats.kstest(draws, "expon", args=(0, 1 / lam[0]))
        assert p > 0.01

    def test_holding_times_are_exponential(self):
        topo, channel = conflict_pair()
        sim = Simulator(topo, channel, seed=23, record_cycles=True)
        sim.advance(20000.0)
        durations = np.array([c[2] for c in sim.cycles[1]])
        stat, p = scipy.stats.kstest(durations, "expon", args=(0, 1.0))
        assert p > 0.01


class TestRateChanges:
    def test_set_rates_shifts_throughput(self, triangle):
        topo, channel = triangle
        sim = Simulator(topo, channel, seed=31)
        sim.advance(20000.0)
        base = empirical_throughput(sim.stats())
        sim2 = Simulator(topo, channel, seed=31)
        sim2.advance(10000.0)
        sim2.set_rates([20.0, 1.0, 1.0])
        sim2.advance(30000.0)
        boosted = empirical_throughput(sim2.stats())
        assert boosted[0] > base[0] + 0.1

    def test_set_rates_validates(self, triangle):
        topo, channel = triangle
        sim = Simulator(topo, channel)
        with pytest.raises(ValueError):
            sim.set_rates([1.0, 2.0])
        with pytest.raises(ValueError):
            sim.set_rates([1.0, -1.0, 2.0])


class TestConfigValidation:
    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=-1.0)

    def test_warmup_bounds(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=10.0, warmup=10.0)
        with pytest.raises(ValueError):
            SimConfig(horizon=10.0, warmup=-1.0)
        assert SimConfig(horizon=10.0).warmup == pytest.approx(1.0)

    def test_solo_infeasible_link_rejected(self):
        phy = PhyConfig(noise_power=2.0, sinr_threshold=2.0,
                        cancel_fraction=1.0, radius=100.0)
        nodes = (Node(0, 0.0, 0.0), Node(1, 1.0, 0.0))
        links = (Link(0, 0, 1),)
        topo = NetworkTopology(nodes, links, phy)
        channel = build_channel_matrix(topo)
        with pytest.raises(ValueError):
            Simulator(topo, channel)
