"""Event-driven protocol simulator: invariants, determinism, convergence."""

import hashlib
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from csma_sic import (LinkSet, NetworkTopology, Link, MissingGainError, Node,
                      PhyConfig, RateParams, SimConfig, Simulator, TxTable,
                      build_channel_matrix, check_all_feasible,
                      empirical_throughput, enumerate_feasible,
                      expected_throughput, run, steady_state,
                      warm_coeff_table)
from csma_sic.cli import main as cli_main
from csma_sic.setspace import bit_ids
from csma_sic.sim import _EXPIRY
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


def two_clusters(rng):
    """Two random clusters, each in range of itself only, as one topology."""
    a = random_topology(rng, int(rng.integers(1, 5)))
    b = random_topology(rng, int(rng.integers(1, 5)))
    shift = 3 * a.phy.radius
    nodes = a.nodes + tuple(Node(n.id + a.n_nodes, n.x + shift, n.y)
                            for n in b.nodes)
    links = a.links + tuple(Link(l.id + a.n_links, l.tx + a.n_nodes,
                                 l.rx + a.n_nodes) for l in b.links)
    return NetworkTopology(nodes, links, a.phy)


class TestBasicRuns:
    def test_zero_horizon(self, triangle):
        topo, channel = triangle
        stats = run(topo, channel, topo.phy, SimConfig(horizon=0.0))
        assert stats.measured_time == 0.0
        assert empirical_throughput(stats).tolist() == [0.0, 0.0, 0.0]

    def test_never_infeasible(self, triangle):
        # the simulator asserts independence on every activation
        topo, channel = triangle
        run(topo, channel, topo.phy, SimConfig(horizon=2000.0, seed=3))

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
    """Outputs recorded at earlier commits (the K=25 trajectory while the
    simulator still decided with the table check); a refactor of the event
    loop must reproduce them."""

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

    def test_dense_k25_trajectory(self):
        topo = random_topology(np.random.default_rng(7), 25)
        sim = Simulator(topo, build_channel_matrix(topo), seed=3)
        sim.advance(30.0)
        assert sim.completed_total.tolist() == [
            5, 2, 7, 5, 0, 4, 0, 4, 10, 17, 0, 4, 8, 11, 5, 7, 8, 11, 1, 12,
            11, 1, 0, 2, 11]
        keys = repr(sorted(sim.occupancy)).encode()
        assert len(sim.occupancy) == 257
        assert hashlib.sha256(keys).hexdigest() == (
            "d7cc1f77e6c0090853d36616da2d02d036ede284295abf35c9a5366a0093e2ef")


class TestFrontierAgreement:
    """The simulator's local frontier equals the exact engine's frontier and
    the table check on each transmitter's view."""

    def _assert_agree(self, topo, channel):
        family = enumerate_feasible(topo, channel)
        simulator = Simulator(topo, channel)
        for d in family.sets:
            assert simulator._frontier(d.bits) == family.frontier[d.bits], str(d)

    def test_triangle(self, triangle):
        self._assert_agree(*triangle)

    def test_random_topologies(self):
        rng = np.random.default_rng(909)
        for _ in range(60):
            topo = random_topology(rng, int(rng.integers(2, 7)))
            self._assert_agree(topo, build_channel_matrix(topo))

    def test_table_check_on_partial_views(self):
        # each transmitter hears only its own cluster, so its view is smaller
        # than the active set; the frontier must still equal its table check
        rng = np.random.default_rng(5)
        partial = 0
        for _ in range(30):
            topo = two_clusters(rng)
            channel = build_channel_matrix(topo)
            simulator = Simulator(topo, channel)
            coeffs = {l.tx: warm_coeff_table(topo, channel, l.tx)
                      for l in topo.links}
            for d in enumerate_feasible(topo, channel).sets:
                front = simulator._frontier(d.bits)
                for l in topo.links:
                    txs = TxTable(l.tx)
                    for o in topo.links:
                        if d.contains(o.id) and (topo.in_range(o.tx, l.tx)
                                                 or topo.in_range(o.rx, l.tx)):
                            txs.register(o.tx, o.rx)
                    partial += len(txs) < len(d)
                    verdict = check_all_feasible(l.tx, l.rx, coeffs[l.tx],
                                                 txs, topo.phy)
                    assert bool(front >> l.id & 1) == verdict, (str(d), l.id)
        assert partial > 0


class TestTimerState:
    """Between events the running timers are exactly the frontier of the
    active set, and each has exactly one live expiry on the heap."""

    def _step_and_check(self, topo, channel, seed, step, horizon):
        sim = Simulator(topo, channel, seed=seed)
        for t in np.arange(step, horizon + step / 2, step):
            sim.advance(float(t))
            assert sim.counting == sim._frontier(sim.active), sim.now
            live = sorted(link for _, rank, link, token in sim.heap
                          if rank == _EXPIRY and token == sim.token[link])
            assert live == list(bit_ids(sim.counting)), sim.now

    def test_triangle(self, triangle):
        self._step_and_check(*triangle, seed=1, step=0.05, horizon=200.0)

    def test_random_topologies(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            topo = random_topology(rng, int(rng.integers(2, 9)))
            self._step_and_check(topo, build_channel_matrix(topo), seed,
                                 step=0.1, horizon=50.0)

    def test_two_clusters(self):
        topo = two_clusters(np.random.default_rng(5))
        self._step_and_check(topo, build_channel_matrix(topo), seed=2,
                             step=0.1, horizon=50.0)


class TestSparseRange:
    def test_unknown_cross_gain_raises(self):
        # A transmitter may hear one link's transmitter and another link's
        # receiver, both out of its range, and lack the gain between them.
        # The sparse-network item in ROADMAP.md replaces this test once the
        # semantics of that case are chosen.
        topo = random_topology(np.random.default_rng(7), 25, radius=6.0,
                               area=20.0)
        sim = Simulator(topo, build_channel_matrix(topo))
        with pytest.raises(MissingGainError):
            sim.advance(200.0)


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
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                sim.set_rates([1.0, bad, 2.0])


class TestConfigValidation:
    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=-1.0)

    def test_warmup_bounds(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=10.0, warmup=10.0)
        with pytest.raises(ValueError):
            SimConfig(horizon=10.0, warmup=-1.0)
        with pytest.raises(ValueError):
            SimConfig(horizon=10.0, warmup=float("nan"))
        assert SimConfig(horizon=10.0).warmup == pytest.approx(1.0)

    @pytest.mark.parametrize("warmup", [float("nan"), float("inf"), -5.0])
    def test_simulator_warmup_bounds(self, triangle, warmup):
        with pytest.raises(ValueError):
            Simulator(*triangle, warmup=warmup)

    def test_advance_never_goes_back(self, triangle):
        sim = Simulator(*triangle, seed=4)
        sim.advance(100.0)
        before = sim.stats()
        for bad in (10.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                sim.advance(bad)
        sim.advance(100.0)
        after = sim.stats()
        assert sim.now == after.measured_time == 100.0
        assert after.occupancy == before.occupancy
        assert sum(after.occupancy.values()) == pytest.approx(100.0)

    def test_solo_infeasible_link_rejected(self):
        phy = PhyConfig(noise_power=2.0, sinr_threshold=2.0,
                        cancel_fraction=1.0, radius=100.0)
        nodes = (Node(0, 0.0, 0.0), Node(1, 1.0, 0.0))
        links = (Link(0, 0, 1),)
        topo = NetworkTopology(nodes, links, phy)
        channel = build_channel_matrix(topo)
        with pytest.raises(ValueError):
            Simulator(topo, channel)
