"""Event-driven protocol simulator: invariants, determinism, convergence."""

import bisect
import hashlib
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
import yaml

from csma_sic import (ChannelMatrix, FeasibleFamily, NetworkTopology, Link,
                      LinkSet, Node, PhyConfig, RateParams, SimConfig,
                      Simulator, TxTable, adapt_run, build_channel_matrix,
                      check_feasible, empirical_throughput,
                      enumerate_feasible, expected_throughput, is_independent,
                      load_scenario, run, steady_state, warm_coeff_table)
from csma_sic import sim as sim_module
from csma_sic.cli import main as cli_main
from csma_sic.setspace import ENUMERATION_CAP, bit_ids, compile_network
from csma_sic.sim import ProtocolError
from conftest import random_topology, triangle_topology

ROOT = Path(__file__).resolve().parent.parent
TRIANGLE_YAML = ROOT / "scenarios" / "triangle.yaml"
PERFBENCH_SCENARIOS = ROOT / "perfbench" / "scenarios"


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


def sparse_topology(rng, low, high):
    """Random topology in which not every node is in range of every other."""
    return random_topology(rng, int(rng.integers(low, high)), radius=6.0,
                           area=20.0)


@pytest.fixture
def raw_draws(monkeypatch):
    """The standard exponentials the links draw: one list per link of each
    simulator the test builds, in link order.

    Wraps each link's ``_draws`` stream as the simulator builds it, so the
    first backoff, drawn in ``__init__``, is recorded too.  Per link the
    values alternate backoff and holding time, before scaling by 1/lambda
    or 1/mu.
    """
    streams = []
    exponentials = sim_module._exponentials

    def tee(stream, values):
        for value in stream:
            values.append(value)
            yield value

    def recorded(rng):
        streams.append([])
        return tee(exponentials(rng), streams[-1])

    monkeypatch.setattr(sim_module, "_exponentials", recorded)
    return streams


def per_link_thresholds(rng, topo, **phy):
    """``topo`` with one SINR threshold per link, each drawn from
    [0.8, 3.0], and the other ``PhyConfig`` fields in ``phy``, or None
    when a link no longer passes its own alone."""
    betas = tuple(float(b) for b in rng.uniform(0.8, 3.0, topo.n_links))
    topo = NetworkTopology(topo.nodes, topo.links,
                           replace(topo.phy, sinr_threshold=betas, **phy))
    channel = build_channel_matrix(topo)
    solo = all(is_independent(LinkSet.from_ids([l.id], topo.n_links), topo,
                              channel) for l in topo.links)
    return topo if solo else None


def constant_density(n_links):
    """A partial-range topology of ``n_links`` links at the density of
    ``sparse_topology``'s 16 links: radius 6, area 20 * sqrt(n_links / 16)."""
    return random_topology(np.random.default_rng(1), n_links, radius=6.0,
                           area=20.0 * math.sqrt(n_links / 16))


def oracle_frontier(topo, channel, mask):
    """The links c outside ``mask`` for which ``mask`` plus c is
    independent, judged one link at a time by the compiled oracle, with
    none of a simulator's caches or bounds."""
    independent = compile_network(topo, channel).independent
    return sum(1 << c for c in range(topo.n_links)
               if not mask >> c & 1 and independent(mask | 1 << c))


def has_out_of_range_pair(topo):
    return not all(topo.in_range(a, b) for a in range(topo.n_nodes)
                   for b in range(a))


def receiver_veto(topo, coeffs, active, link):
    """Whether ``link`` may join ``active``, decided locally by receivers.

    A busy endpoint refuses.  Otherwise the candidate's receiver and each
    ongoing receiver in range of the candidate's transmitter judge their own
    decoding with ``check_feasible``, from their own coefficient table and
    the transmissions they hear, the candidate's RTS included; any refusal
    is a veto.  Returns the verdict and the number of ongoing receivers that
    did not hear the candidate.  Each receiver knows the threshold of every
    link it hears, as ``beta_by_pair``.
    """
    betas = {(l.tx, l.rx): topo.phy.beta_for(l.id) for l in topo.links}
    links = [topo.links[i] for i in bit_ids(active)]
    busy = {n for o in links for n in (o.tx, o.rx)}
    if link.tx in busy or link.rx in busy:
        return False, 0
    trial = links + [link]
    judges = [o for o in trial
              if o is link or topo.in_range(link.tx, o.rx)]
    for judge in judges:
        txs = TxTable(judge.rx)
        for o in trial:
            if topo.in_range(o.tx, judge.rx):
                txs.register(o.tx, o.rx)
        if not check_feasible(judge.tx, judge.rx, coeffs[judge.rx], txs,
                              topo.phy, betas):
            return False, len(trial) - len(judges)
    return True, len(trial) - len(judges)


class TestBasicRuns:
    def test_zero_horizon(self, triangle):
        topo, channel = triangle
        stats = run(topo, channel, SimConfig(horizon=0.0))
        assert stats.measured_time == 0.0
        assert empirical_throughput(stats).tolist() == [0.0, 0.0, 0.0]

    def test_phy_must_be_the_topologys(self, triangle):
        """The PHY is read from the topology; a ``phy`` that differs from it,
        in radius or by a threshold tuple too short for the links, is
        refused rather than half applied."""
        topo, channel = triangle
        for other in (replace(topo.phy, radius=0.5),
                      replace(topo.phy, sinr_threshold=(2.0,))):
            with pytest.raises(ValueError, match="topology.phy"):
                Simulator(topo, channel, phy=other)
        sim = Simulator(topo, channel, phy=topo.phy, seed=1)
        sim.advance(100.0)
        assert sim.stats().measured_time == pytest.approx(100.0)

    def test_channel_must_match_node_count(self, triangle):
        """The triangle's gains padded to 8 x 8 for its 6 nodes are
        refused, not run."""
        topo, channel = triangle
        g = np.zeros((8, 8))
        g[:6, :6] = channel.g
        with pytest.raises(ValueError, match="n_nodes x n_nodes"):
            Simulator(topo, ChannelMatrix(g))

    def test_zero_links(self):
        topo = NetworkTopology(((0, 0.0, 0.0),), ())
        sim = Simulator(topo, build_channel_matrix(topo), seed=1)
        sim.advance(100.0)
        assert sim.now == 100.0
        assert sim.occupancy == {0: 100.0}
        assert sim.completed_total.tolist() == []

    @pytest.mark.parametrize("k", [2, 5])
    def test_params_need_one_rate_per_link(self, triangle, k):
        # fewer rates once ran out of timers in ``advance``; more ran
        # silently on the first three
        topo, channel = triangle
        with pytest.raises(ValueError, match="one rate per link"):
            Simulator(topo, channel, params=RateParams.uniform(k), seed=1)

    def test_never_infeasible(self, triangle):
        # the simulator asserts independence on every activation
        topo, channel = triangle
        run(topo, channel, SimConfig(horizon=2000.0, seed=3))

    def test_conflict_pair_mutual_exclusion(self):
        topo, channel = conflict_pair()
        sim = Simulator(topo, channel, params=RateParams.uniform(2), seed=1)
        sim.advance(5000.0)
        stats = sim.stats()
        assert 0b11 not in stats.occupancy

    def test_warmup_excluded(self, triangle):
        topo, channel = triangle
        stats = run(topo, channel,
                    SimConfig(horizon=1000.0, warmup=400.0, seed=2))
        assert stats.measured_time == pytest.approx(600.0)
        assert sum(stats.occupancy.values()) == pytest.approx(600.0)


class TestDeterminism:
    def test_same_seed_same_stats(self, triangle):
        topo, channel = triangle
        cfg = SimConfig(horizon=3000.0, seed=42)
        a = run(topo, channel, cfg)
        b = run(topo, channel, cfg)
        assert np.array_equal(a.busy_time, b.busy_time)
        assert np.array_equal(a.completed, b.completed)
        assert a.occupancy == b.occupancy

    def test_different_seed_differs(self, triangle):
        topo, channel = triangle
        a = run(topo, channel, SimConfig(horizon=3000.0, seed=1))
        b = run(topo, channel, SimConfig(horizon=3000.0, seed=2))
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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPinnedOutputs:
    """Outputs recorded at earlier commits (the K=25 trajectory while the
    simulator still decided with the table check); a refactor of the event
    loop, of the exact engine or of the CLI's writer must reproduce them.  A CLI run pins the
    sha256 of its CSV and of its stdout."""

    TRIANGLE_CSV_SHA256 = {
        1: "429c372be717e03bd998b53f042a25f71775e56228e0ba5310791a1103b62e12",
        2: "5ab83a27c770d7a971e555b44ba37b422727feee0a16979156a23d5563996033",
    }
    TRIANGLE_STDOUT_SHA256 = {
        1: "8f5020792bd0af4ddf0104fab2a896f08722045a0dca9350bb710f47707d0ddf",
        2: "d3e9d744b132601bf87076a7dfb56d92bc7374ba238a0e59baf8849ffbe2ab63",
    }

    @pytest.mark.parametrize("seed", [1, 2])
    def test_triangle_simulate_csv(self, tmp_path, capsys, seed):
        out = tmp_path / "sim.csv"
        assert cli_main(["simulate", str(TRIANGLE_YAML), "--horizon", "2e4",
                         "--seed", str(seed), "--out", str(out)]) == 0
        assert _sha256(out.read_bytes()) == self.TRIANGLE_CSV_SHA256[seed]
        printed = capsys.readouterr().out.encode()
        assert _sha256(printed) == self.TRIANGLE_STDOUT_SHA256[seed]

    # (scenario, command) -> sha256 at seed 1, with the scenario's horizon
    PERFBENCH_CSV_SHA256 = {
        ("spread-k12", "simulate"):
            "0ca20c1c6bec328a3e17e52d6afac7bd6025d5f3525dd607827dda10e867f346",
        ("spread-k12", "adapt"):
            "0191620d0c80ec28fb9856bebb3d126bfde746187a989e6cf8c2f110bbc2371d",
        ("spread-k12", "analyze"):
            "f83ae525e494d9b8d2cf33e046d7458f665fdade2b724282f51ac3e4f9b436be",
        ("spread-k12", "capacity"):
            "e687f17702bca492be509e300c56df5871f40f2b3b80c296d0cd64ad520d20d8",
        ("dense-k25", "simulate"):
            "5d7eb4dfe3c8a3266b88ece8983b8f07d5a9025f973c58c6648c00564e19c8ad",
        ("triangle", "adapt"):
            "a1d6b722988a3fa37db31b1d3787d0984c7684535a4357ff33a1aa363896836f",
    }
    PERFBENCH_STDOUT_SHA256 = {
        ("spread-k12", "simulate"):
            "95093b9cbaf57c85b3875dea7bb357e457de33f8c1df17bd2837af3291ecfb5f",
        ("spread-k12", "adapt"):
            "79aa9c40f23556b1ada2ba8a33186c4f09d2768b202ed1a4d087bed9e504f0be",
        ("spread-k12", "analyze"):
            "9c641d534ca62e7659847c137f18cf1b202da4a515e00cdd908b4128df09752a",
        ("spread-k12", "capacity"):
            "1ccca47ecbb9bf0034312549dc427833ec454ebfc023f0f653c18074e9c25ab5",
        ("dense-k25", "simulate"):
            "5c07c47121aea3e78af31e5b838032c5b5be588bee444d2d810dfc17eee2461d",
        ("triangle", "adapt"):
            "da3a0b6c12f58d6e3769113a21bef93456f96634f8f9f3c5af4f5c83282e5c11",
    }

    @pytest.mark.parametrize("name, command", sorted(PERFBENCH_CSV_SHA256))
    def test_perfbench_csv(self, tmp_path, capsys, name, command):
        out = tmp_path / "out.csv"
        assert cli_main([command, str(PERFBENCH_SCENARIOS / f"{name}.yaml"),
                         "--seed", "1", "--out", str(out)]) == 0
        key = name, command
        assert _sha256(out.read_bytes()) == self.PERFBENCH_CSV_SHA256[key]
        printed = capsys.readouterr().out.encode()
        assert _sha256(printed) == self.PERFBENCH_STDOUT_SHA256[key]

    # (scenario path from the repo root, command, seed) -> sha256: the
    # K > 20 adaptation path, a second dense seed and partial range
    SCENARIO_CSV_SHA256 = {
        ("perfbench/scenarios/dense-k25.yaml", "adapt", 1):
            "cb3a9b26c0153a98de65ea52178aa725d19198c1a6a91a8c470784c3dc6d29c7",
        ("perfbench/scenarios/dense-k25.yaml", "simulate", 2):
            "e6bf98c6a6ca8f1430d9d4ef6ed0e009f9df982e39144b43252c66ba0de49604",
        ("scenarios/sparse-k10.yaml", "simulate", 1):
            "45e5f97cb43e4afa6d4d383a252246d97c6e501e60080d3b3f24250375dc9993",
        ("scenarios/sparse-k10.yaml", "analyze", 1):
            "3df265961be74ed77a73931ef8a61210e209dd546c83cef5c8683f375b6a7ffc",
        ("scenarios/sparse-k10.yaml", "capacity", 1):
            "9860bf8635e6f2fc77e0c43298e83492a031de1dfeaedc1f1121f4943b7f3f30",
    }
    SCENARIO_STDOUT_SHA256 = {
        ("perfbench/scenarios/dense-k25.yaml", "adapt", 1):
            "fc575c357efb3e5be49736f46f30304225d11bd6e01156844479ec7891080c0f",
        ("perfbench/scenarios/dense-k25.yaml", "simulate", 2):
            "dff4840980ec13d7c8931ad8fc0f8a4ce02c89c09fda13dedf9412ed417bd14c",
        ("scenarios/sparse-k10.yaml", "simulate", 1):
            "1c10e7c9298c4a4cd071134aa37468546d49404ea080dc6d1749b209cd14be37",
        ("scenarios/sparse-k10.yaml", "analyze", 1):
            "2280bd213413df5f3b7e0d6200520106fb8e818967e3c5d927d3668f26679a27",
        ("scenarios/sparse-k10.yaml", "capacity", 1):
            "b08f44cff934751da2d92a0732b80decbdcd7bbe614a52158e1718243c5026f2",
    }

    @pytest.mark.parametrize("path, command, seed", sorted(SCENARIO_CSV_SHA256))
    def test_scenario_csv(self, tmp_path, capsys, path, command, seed):
        out = tmp_path / "out.csv"
        assert cli_main([command, str(ROOT / path), "--seed", str(seed),
                         "--out", str(out)]) == 0
        key = path, command, seed
        assert _sha256(out.read_bytes()) == self.SCENARIO_CSV_SHA256[key]
        printed = capsys.readouterr().out.encode()
        assert _sha256(printed) == self.SCENARIO_STDOUT_SHA256[key]

    # command -> sha256 of scenarios/triangle.yaml with unequal r and mu
    # at seed 1: the committed scenarios all have r = 0 and mu = 1, so every
    # state weight there is exactly 0 and its summation order is not seen
    WEIGHTED_TRIANGLE_CSV_SHA256 = {
        "analyze":
            "5b446f0795f6e074b2aa4b74d280dd1dedee4b612a7af88150b12ed030ef236a",
        "simulate":
            "614aa6f7ce022fa920aa49dd4faef17ed7c2198d4a10db070a9e38285965f50d",
    }
    WEIGHTED_TRIANGLE_STDOUT_SHA256 = {
        "analyze":
            "345e23d3d8fe7bdafdece0e4f46162f04bbb16a2cb550a2823e81309ee7e7d87",
        "simulate":
            "fadef776796df2276494056295f6532ab4cfdcd2eb7a54265b89f5d2138180c4",
    }

    @pytest.mark.parametrize("command", sorted(WEIGHTED_TRIANGLE_CSV_SHA256))
    def test_weighted_triangle_csv(self, tmp_path, capsys, command):
        d = yaml.safe_load(TRIANGLE_YAML.read_text())
        d["rates"] = {"r": [0.5, 0.0, -0.5], "mu": [0.7, 1.3, 2.0]}
        path = tmp_path / "triangle-mu.yaml"
        path.write_text(yaml.safe_dump(d))
        out = tmp_path / "out.csv"
        assert cli_main([command, str(path), "--seed", "1",
                         "--out", str(out)]) == 0
        assert (_sha256(out.read_bytes())
                == self.WEIGHTED_TRIANGLE_CSV_SHA256[command])
        printed = capsys.readouterr().out.encode()
        assert (_sha256(printed)
                == self.WEIGHTED_TRIANGLE_STDOUT_SHA256[command])

    # every command on four scenarios at seeds 1-3, each with its own
    # horizon, recorded while the family was still a tuple of ints:
    # (scenario path from the repo root, command, seed) -> sha256, None
    # where the command refuses K = 25 with exit 2 and writes nothing
    ALL_RUNS_CSV_SHA256 = {
        ("perfbench/scenarios/dense-k25.yaml", "adapt", 1):
            "cb3a9b26c0153a98de65ea52178aa725d19198c1a6a91a8c470784c3dc6d29c7",
        ("perfbench/scenarios/dense-k25.yaml", "adapt", 2):
            "fed970c3b743b36d045ab8c65dc5d338fd25d73d58c0f7573b6e39d478b1462f",
        ("perfbench/scenarios/dense-k25.yaml", "adapt", 3):
            "766317e372f4f10942d4913366ae5f6b1f8c976897c225491b09a5bfe8e4d6fa",
        ("perfbench/scenarios/dense-k25.yaml", "analyze", 1): None,
        ("perfbench/scenarios/dense-k25.yaml", "analyze", 2): None,
        ("perfbench/scenarios/dense-k25.yaml", "analyze", 3): None,
        ("perfbench/scenarios/dense-k25.yaml", "capacity", 1): None,
        ("perfbench/scenarios/dense-k25.yaml", "capacity", 2): None,
        ("perfbench/scenarios/dense-k25.yaml", "capacity", 3): None,
        ("perfbench/scenarios/dense-k25.yaml", "simulate", 1):
            "5d7eb4dfe3c8a3266b88ece8983b8f07d5a9025f973c58c6648c00564e19c8ad",
        ("perfbench/scenarios/dense-k25.yaml", "simulate", 2):
            "e6bf98c6a6ca8f1430d9d4ef6ed0e009f9df982e39144b43252c66ba0de49604",
        ("perfbench/scenarios/dense-k25.yaml", "simulate", 3):
            "de081cab41599f8b7a495a620d91c75ccadad9c1ab06fc3d02ab8a9c17b68b31",
        ("perfbench/scenarios/spread-k12.yaml", "adapt", 1):
            "0191620d0c80ec28fb9856bebb3d126bfde746187a989e6cf8c2f110bbc2371d",
        ("perfbench/scenarios/spread-k12.yaml", "adapt", 2):
            "91f4f89678f216791d61c7bb7effdb33187e1d3424789eb7751ab7c6e590848c",
        ("perfbench/scenarios/spread-k12.yaml", "adapt", 3):
            "ad0b1a34e7d2f33f9641ec1b8e6951eb0e3a418922f6ff7bdad44a2baa261998",
        ("perfbench/scenarios/spread-k12.yaml", "analyze", 1):
            "f83ae525e494d9b8d2cf33e046d7458f665fdade2b724282f51ac3e4f9b436be",
        ("perfbench/scenarios/spread-k12.yaml", "analyze", 2):
            "f83ae525e494d9b8d2cf33e046d7458f665fdade2b724282f51ac3e4f9b436be",
        ("perfbench/scenarios/spread-k12.yaml", "analyze", 3):
            "f83ae525e494d9b8d2cf33e046d7458f665fdade2b724282f51ac3e4f9b436be",
        ("perfbench/scenarios/spread-k12.yaml", "capacity", 1):
            "e687f17702bca492be509e300c56df5871f40f2b3b80c296d0cd64ad520d20d8",
        ("perfbench/scenarios/spread-k12.yaml", "capacity", 2):
            "e687f17702bca492be509e300c56df5871f40f2b3b80c296d0cd64ad520d20d8",
        ("perfbench/scenarios/spread-k12.yaml", "capacity", 3):
            "e687f17702bca492be509e300c56df5871f40f2b3b80c296d0cd64ad520d20d8",
        ("perfbench/scenarios/spread-k12.yaml", "simulate", 1):
            "0ca20c1c6bec328a3e17e52d6afac7bd6025d5f3525dd607827dda10e867f346",
        ("perfbench/scenarios/spread-k12.yaml", "simulate", 2):
            "2c273b84bd4d01daddcb168bc36e58993003cc9631fbb6b8b8c4afc6611367d1",
        ("perfbench/scenarios/spread-k12.yaml", "simulate", 3):
            "d677c06ac68a6e40156764e2fafd55b6b5c9400930bc4fe92c0a94da8a2ed33b",
        ("scenarios/sparse-k10.yaml", "adapt", 1):
            "f3b5aaf972dccfc3d435438a208a7631cca6e0d41cd23ab2b3c83c60bd0f22ba",
        ("scenarios/sparse-k10.yaml", "adapt", 2):
            "f198d2d68e925ed1635a614d3ae8ae1df460dc7be0c14d4e756a1fcdb2684ed0",
        ("scenarios/sparse-k10.yaml", "adapt", 3):
            "04368c27c09e0dfa9be202a649d3d673afffd347e310abe4f5728f807f2a86f9",
        ("scenarios/sparse-k10.yaml", "analyze", 1):
            "3df265961be74ed77a73931ef8a61210e209dd546c83cef5c8683f375b6a7ffc",
        ("scenarios/sparse-k10.yaml", "analyze", 2):
            "3df265961be74ed77a73931ef8a61210e209dd546c83cef5c8683f375b6a7ffc",
        ("scenarios/sparse-k10.yaml", "analyze", 3):
            "3df265961be74ed77a73931ef8a61210e209dd546c83cef5c8683f375b6a7ffc",
        ("scenarios/sparse-k10.yaml", "capacity", 1):
            "9860bf8635e6f2fc77e0c43298e83492a031de1dfeaedc1f1121f4943b7f3f30",
        ("scenarios/sparse-k10.yaml", "capacity", 2):
            "9860bf8635e6f2fc77e0c43298e83492a031de1dfeaedc1f1121f4943b7f3f30",
        ("scenarios/sparse-k10.yaml", "capacity", 3):
            "9860bf8635e6f2fc77e0c43298e83492a031de1dfeaedc1f1121f4943b7f3f30",
        ("scenarios/sparse-k10.yaml", "simulate", 1):
            "45e5f97cb43e4afa6d4d383a252246d97c6e501e60080d3b3f24250375dc9993",
        ("scenarios/sparse-k10.yaml", "simulate", 2):
            "f1964155dd22ff3d605953dd9c3df096485041b5480c151a9f73d42b0fe0b274",
        ("scenarios/sparse-k10.yaml", "simulate", 3):
            "a16f4c4994d7b0b9e233d5517df26618e91cc46d74d6dc206f816344d38f2065",
        ("scenarios/triangle.yaml", "adapt", 1):
            "81c733024d1487232ac703ea3bf8482c5bc7d1d763134a7c39b5c5479f349287",
        ("scenarios/triangle.yaml", "adapt", 2):
            "1373215c5f3af53f12b2885ab14aeab3f3dabd5c18ac0579a103ba75b65a6cab",
        ("scenarios/triangle.yaml", "adapt", 3):
            "37907e8bda34b74d70c8cfc0159080311840d3ba6169efc398a7c8dcc19803cf",
        ("scenarios/triangle.yaml", "analyze", 1):
            "d25776a58b2f40e65c589d059df35f00c4bc6deaa082991cb109cfccbbdde139",
        ("scenarios/triangle.yaml", "analyze", 2):
            "d25776a58b2f40e65c589d059df35f00c4bc6deaa082991cb109cfccbbdde139",
        ("scenarios/triangle.yaml", "analyze", 3):
            "d25776a58b2f40e65c589d059df35f00c4bc6deaa082991cb109cfccbbdde139",
        ("scenarios/triangle.yaml", "capacity", 1):
            "c17a683a466d6f2edb0ef6d220344a03e67fa306df1275a07fa9dffe61232cd3",
        ("scenarios/triangle.yaml", "capacity", 2):
            "c17a683a466d6f2edb0ef6d220344a03e67fa306df1275a07fa9dffe61232cd3",
        ("scenarios/triangle.yaml", "capacity", 3):
            "c17a683a466d6f2edb0ef6d220344a03e67fa306df1275a07fa9dffe61232cd3",
        ("scenarios/triangle.yaml", "simulate", 1):
            "240e522be19726979e9517569f741973bc436630d16c2d985045208bc769c080",
        ("scenarios/triangle.yaml", "simulate", 2):
            "f912685a7cf851fbffc06dc145ca971c9f4dbe1075122af371da6db4758785f9",
        ("scenarios/triangle.yaml", "simulate", 3):
            "29154bcdd9ac9dd0153d93aa5772d4c97b8a91037231e8e9c44928489446a541",
    }
    ALL_RUNS_STDOUT_SHA256 = {
        ("perfbench/scenarios/dense-k25.yaml", "adapt", 1):
            "fc575c357efb3e5be49736f46f30304225d11bd6e01156844479ec7891080c0f",
        ("perfbench/scenarios/dense-k25.yaml", "adapt", 2):
            "4af01f9e2c35416f57e852ca7085da310f40a3621df407e9988831961aeda7f5",
        ("perfbench/scenarios/dense-k25.yaml", "adapt", 3):
            "554f55bc1e5db40cdf63951be152863d882fc137db321b9ac8c68ce2b4f4e37c",
        ("perfbench/scenarios/dense-k25.yaml", "analyze", 1): None,
        ("perfbench/scenarios/dense-k25.yaml", "analyze", 2): None,
        ("perfbench/scenarios/dense-k25.yaml", "analyze", 3): None,
        ("perfbench/scenarios/dense-k25.yaml", "capacity", 1): None,
        ("perfbench/scenarios/dense-k25.yaml", "capacity", 2): None,
        ("perfbench/scenarios/dense-k25.yaml", "capacity", 3): None,
        ("perfbench/scenarios/dense-k25.yaml", "simulate", 1):
            "5c07c47121aea3e78af31e5b838032c5b5be588bee444d2d810dfc17eee2461d",
        ("perfbench/scenarios/dense-k25.yaml", "simulate", 2):
            "dff4840980ec13d7c8931ad8fc0f8a4ce02c89c09fda13dedf9412ed417bd14c",
        ("perfbench/scenarios/dense-k25.yaml", "simulate", 3):
            "b3896c1accc6a6a47654fcda331c662df2e5ed4218026d1db1625f93053dbe00",
        ("perfbench/scenarios/spread-k12.yaml", "adapt", 1):
            "79aa9c40f23556b1ada2ba8a33186c4f09d2768b202ed1a4d087bed9e504f0be",
        ("perfbench/scenarios/spread-k12.yaml", "adapt", 2):
            "1814200151d6b6980093e8e74ee9efd88d2cab0e71f8b1c818f5f4507238e1e4",
        ("perfbench/scenarios/spread-k12.yaml", "adapt", 3):
            "78cd81b5d9a71067d514a992411c0590d252701765fd73f6632edc2de0f67d11",
        ("perfbench/scenarios/spread-k12.yaml", "analyze", 1):
            "9c641d534ca62e7659847c137f18cf1b202da4a515e00cdd908b4128df09752a",
        ("perfbench/scenarios/spread-k12.yaml", "analyze", 2):
            "9c641d534ca62e7659847c137f18cf1b202da4a515e00cdd908b4128df09752a",
        ("perfbench/scenarios/spread-k12.yaml", "analyze", 3):
            "9c641d534ca62e7659847c137f18cf1b202da4a515e00cdd908b4128df09752a",
        ("perfbench/scenarios/spread-k12.yaml", "capacity", 1):
            "1ccca47ecbb9bf0034312549dc427833ec454ebfc023f0f653c18074e9c25ab5",
        ("perfbench/scenarios/spread-k12.yaml", "capacity", 2):
            "1ccca47ecbb9bf0034312549dc427833ec454ebfc023f0f653c18074e9c25ab5",
        ("perfbench/scenarios/spread-k12.yaml", "capacity", 3):
            "1ccca47ecbb9bf0034312549dc427833ec454ebfc023f0f653c18074e9c25ab5",
        ("perfbench/scenarios/spread-k12.yaml", "simulate", 1):
            "95093b9cbaf57c85b3875dea7bb357e457de33f8c1df17bd2837af3291ecfb5f",
        ("perfbench/scenarios/spread-k12.yaml", "simulate", 2):
            "539e2d3cb98b25e65b5e914fc03512f09ead3e520d5e5e1781b682c2109c6eb1",
        ("perfbench/scenarios/spread-k12.yaml", "simulate", 3):
            "205663e60dbc5e10cc6fd5c52798cbee89b635d5b45fa14a8db97c0ab49ae4c9",
        ("scenarios/sparse-k10.yaml", "adapt", 1):
            "2b6379a07059f24d76cc7e3ce7f743e32110fd60e75801653020ec16f4b29504",
        ("scenarios/sparse-k10.yaml", "adapt", 2):
            "f8ef50896b7a57f770a3f5bd51d37df245df0af004981cba8e2e20a09aac8b6e",
        ("scenarios/sparse-k10.yaml", "adapt", 3):
            "b9174c1721505842c70443c537279bcfd1bd4de930b981834e4944d262b16c59",
        ("scenarios/sparse-k10.yaml", "analyze", 1):
            "2280bd213413df5f3b7e0d6200520106fb8e818967e3c5d927d3668f26679a27",
        ("scenarios/sparse-k10.yaml", "analyze", 2):
            "2280bd213413df5f3b7e0d6200520106fb8e818967e3c5d927d3668f26679a27",
        ("scenarios/sparse-k10.yaml", "analyze", 3):
            "2280bd213413df5f3b7e0d6200520106fb8e818967e3c5d927d3668f26679a27",
        ("scenarios/sparse-k10.yaml", "capacity", 1):
            "b08f44cff934751da2d92a0732b80decbdcd7bbe614a52158e1718243c5026f2",
        ("scenarios/sparse-k10.yaml", "capacity", 2):
            "b08f44cff934751da2d92a0732b80decbdcd7bbe614a52158e1718243c5026f2",
        ("scenarios/sparse-k10.yaml", "capacity", 3):
            "b08f44cff934751da2d92a0732b80decbdcd7bbe614a52158e1718243c5026f2",
        ("scenarios/sparse-k10.yaml", "simulate", 1):
            "1c10e7c9298c4a4cd071134aa37468546d49404ea080dc6d1749b209cd14be37",
        ("scenarios/sparse-k10.yaml", "simulate", 2):
            "8d1538ba4c020fb722f7925bc25b4ccd07b775572c10c67a04d6c96a2c4bbfba",
        ("scenarios/sparse-k10.yaml", "simulate", 3):
            "55ab4e162d15d70e3d43e4897faca35b457a63324ae41d53a2777176d3255818",
        ("scenarios/triangle.yaml", "adapt", 1):
            "b6b49475c1d1fb5e6840c2fb96d3e9f9f1c0b3befbf97bcabf587c6e5beab689",
        ("scenarios/triangle.yaml", "adapt", 2):
            "6b856384374ea3099dd7d1db12fbeccc1a0f6f24e189a41c1de4f4f85a270efa",
        ("scenarios/triangle.yaml", "adapt", 3):
            "3ea6f644e835730913a9fe2debabbc3ee5743d2c96221da4f1c2a411a7537244",
        ("scenarios/triangle.yaml", "analyze", 1):
            "b6720bb98e4db4cd1136331c41537d94e408060c38eb74fff648e0d65c8eeb4f",
        ("scenarios/triangle.yaml", "analyze", 2):
            "b6720bb98e4db4cd1136331c41537d94e408060c38eb74fff648e0d65c8eeb4f",
        ("scenarios/triangle.yaml", "analyze", 3):
            "b6720bb98e4db4cd1136331c41537d94e408060c38eb74fff648e0d65c8eeb4f",
        ("scenarios/triangle.yaml", "capacity", 1):
            "d9fd37a397ed4e373ebba8f6119ae27b86a26de1e0aa4cb2e76a1cf82b48d205",
        ("scenarios/triangle.yaml", "capacity", 2):
            "d9fd37a397ed4e373ebba8f6119ae27b86a26de1e0aa4cb2e76a1cf82b48d205",
        ("scenarios/triangle.yaml", "capacity", 3):
            "d9fd37a397ed4e373ebba8f6119ae27b86a26de1e0aa4cb2e76a1cf82b48d205",
        ("scenarios/triangle.yaml", "simulate", 1):
            "c4a571756c914eb27924099ad6e1891ac34d6087de2345be5fba6af459abe5da",
        ("scenarios/triangle.yaml", "simulate", 2):
            "8905d06bded2d5e01e8fa0f7d6842ea30b9cf4a202dfc98e6f18aeae0566f4fd",
        ("scenarios/triangle.yaml", "simulate", 3):
            "77fe5a79bc559782a0d06cf8946d7f2a72edb40318002c47181419480fb1fd76",
    }

    @pytest.mark.parametrize("path, command, seed",
                             sorted(ALL_RUNS_STDOUT_SHA256))
    def test_every_command(self, tmp_path, capsys, path, command, seed):
        out = tmp_path / "out.csv"
        rc = cli_main([command, str(ROOT / path), "--seed", str(seed),
                       "--out", str(out)])
        captured = capsys.readouterr()
        key = path, command, seed
        if self.ALL_RUNS_STDOUT_SHA256[key] is None:
            assert rc == 2 and not out.exists() and captured.out == ""
            assert "enumeration cap" in captured.err
            return
        assert rc == 0 and captured.err == ""
        assert _sha256(out.read_bytes()) == self.ALL_RUNS_CSV_SHA256[key]
        assert (_sha256(captured.out.encode())
                == self.ALL_RUNS_STDOUT_SHA256[key])

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
    the receivers' table checks, in every range regime.  A cold
    simulator's ``_frontier`` of each member equals ``family.frontier``,
    which is what lets a family seed the frontier cache."""

    def _assert_agree(self, topo, channel):
        family = enumerate_feasible(topo, channel)
        simulator = Simulator(topo, channel)
        for bits, front in zip(family.sets.tolist(),
                               family.frontier.tolist()):
            assert simulator._frontier(bits) == front, bits

    def test_triangle(self, triangle):
        self._assert_agree(*triangle)

    def test_random_topologies(self):
        rng = np.random.default_rng(909)
        for _ in range(60):
            topo = random_topology(rng, int(rng.integers(2, 7)))
            self._assert_agree(topo, build_channel_matrix(topo))

    def test_partial_range(self):
        rng = np.random.default_rng(919)
        partial = 0
        for _ in range(12):
            topo = sparse_topology(rng, 4, 13)
            partial += has_out_of_range_pair(topo)
            self._assert_agree(topo, build_channel_matrix(topo))
        assert partial > 0

    @pytest.mark.parametrize("path", [
        ROOT / "scenarios" / "sparse-k10.yaml",
        PERFBENCH_SCENARIOS / "spread-k12.yaml"], ids=lambda p: p.stem)
    def test_scenario_families(self, path):
        scn = load_scenario(path)
        self._assert_agree(scn.topology, scn.channel)

    def test_varied_phy(self):
        # per-link thresholds, partial cancellation and far interference,
        # on all-in-range and partial-range topologies
        rng = np.random.default_rng(959)
        topologies = []
        for draw in ([random_topology(rng, int(rng.integers(2, 9)))
                      for _ in range(20)]
                     + [sparse_topology(rng, 4, 13) for _ in range(20)]):
            topo = per_link_thresholds(
                rng, draw, cancel_fraction=float(rng.uniform(0.3, 0.9)),
                far_interference=float(rng.uniform(1e-4, 3e-3)))
            if topo is not None:
                topologies.append(topo)
        partial = sum(map(has_out_of_range_pair, topologies))
        assert 5 < partial < len(topologies) - 5
        for topo in topologies:
            assert topo.phy.cancel_fraction < 1
            assert topo.phy.far_interference > 0
            self._assert_agree(topo, build_channel_matrix(topo))

    def test_static_reachability_is_the_family(self):
        # starting links one at a time from the empty set under the
        # simulator's move rule reaches exactly the independent sets; ending
        # a link only leads to a subset, which downward closure keeps inside
        rng = np.random.default_rng(929)
        topologies = [sparse_topology(rng, 6, 15) for _ in range(8)]
        rng = np.random.default_rng(11)
        topologies.append(sparse_topology(rng, 8, 26))  # a former hidden terminal
        for topo in topologies:
            channel = build_channel_matrix(topo)
            simulator = Simulator(topo, channel)
            seen, todo = {0}, [0]
            while todo:
                mask = todo.pop()
                for i in bit_ids(simulator._frontier(mask)):
                    if mask | 1 << i not in seen:
                        seen.add(mask | 1 << i)
                        todo.append(mask | 1 << i)
            family = enumerate_feasible(topo, channel)
            assert seen == set(family.sets.tolist())

    def test_table_check_on_partial_views(self):
        # receivers that do not hear the candidate do not judge it; the
        # frontier must still equal the verdict of those that do, under one
        # threshold and under per-link thresholds, in range or not
        clusters = np.random.default_rng(5)
        sparse = np.random.default_rng(939)
        topologies = ([two_clusters(clusters) for _ in range(30)]
                      + [sparse_topology(sparse, 4, 11) for _ in range(8)])
        rng = np.random.default_rng(949)
        per_link = []
        for draw in ([random_topology(rng, int(rng.integers(2, 7)))
                      for _ in range(20)]
                     + [sparse_topology(rng, 4, 11) for _ in range(20)]):
            topo = per_link_thresholds(rng, draw)
            if topo is not None:
                per_link.append(topo)
        assert 0 < sum(map(has_out_of_range_pair, per_link)) < len(per_link)
        topologies += per_link
        unheard = 0
        for topo in topologies:
            channel = build_channel_matrix(topo)
            simulator = Simulator(topo, channel)
            coeffs = {l.rx: warm_coeff_table(topo, channel, l.rx)
                      for l in topo.links}
            for bits in enumerate_feasible(topo, channel).sets.tolist():
                front = simulator._frontier(bits)
                for l in topo.links:
                    verdict, silent = receiver_veto(topo, coeffs, bits, l)
                    unheard += silent
                    assert bool(front >> l.id & 1) == verdict, (bits, l.id)
        assert unheard > 0


class TestBoundedMiss:
    """A frontier built on a cache miss equals the frontier judged link by
    link from an empty cache.

    Between events ``counting`` is the frontier of the active set S.  The
    family is downward closed, so when link i starts, the frontier of S + i
    lies within ``counting`` and the pair row of i, the links c with {i, c}
    independent; when link i ends, the frontier of S - i holds ``counting``
    plus i and lies within the pair rows of the members of S - i.  A link
    outside i's interaction mask keeps its verdict either way.  A miss
    judges only the links between the bounds."""

    def _assert_cache_exact(self, topo, channel, seed, horizon):
        sim = Simulator(topo, channel, seed=seed)
        sim.advance(horizon)
        assert len(sim._frontier_cache) > 1
        fresh = Simulator(topo, channel)
        for mask, front in sim._frontier_cache.items():
            fresh._frontier_cache.clear()
            assert fresh._frontier(mask) == front, mask

    def test_random_topologies(self):
        rng = np.random.default_rng(41)
        for seed in range(8):
            topo = random_topology(rng, int(rng.integers(4, 17)))
            self._assert_cache_exact(topo, build_channel_matrix(topo), seed,
                                     horizon=20.0)

    def test_dense_k25(self):
        topo = random_topology(np.random.default_rng(7), 25)
        self._assert_cache_exact(topo, build_channel_matrix(topo), 3,
                                 horizon=30.0)

    @pytest.mark.parametrize("seed", [1, 29])
    def test_dense_k100(self, seed):
        # all in range: most events miss the frontier cache
        topo = random_topology(np.random.default_rng(1), 100)
        self._assert_cache_exact(topo, build_channel_matrix(topo), seed,
                                 horizon=10.0)

    def test_two_clusters(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            topo = two_clusters(rng)
            self._assert_cache_exact(topo, build_channel_matrix(topo), seed,
                                     horizon=50.0)

    def test_spread_k12(self):
        scn = load_scenario(PERFBENCH_SCENARIOS / "spread-k12.yaml")
        self._assert_cache_exact(scn.topology, scn.channel, 1,
                                 horizon=scn.sim.horizon)

    def test_partial_range(self):
        rng = np.random.default_rng(43)
        for seed in range(6):
            topo = sparse_topology(rng, 8, 26)
            assert has_out_of_range_pair(topo)
            self._assert_cache_exact(topo, build_channel_matrix(topo), seed,
                                     horizon=20.0)

    @pytest.mark.parametrize("k, horizon", [(50, 60.0), (100, 15.0)])
    def test_partial_range_at_scale(self, k, horizon):
        """At constant density most links lie outside a link's interaction
        mask, so most verdicts are carried across events, not judged; every
        cached frontier still equals the per-link verdicts."""
        topo = constant_density(k)
        channel = build_channel_matrix(topo)
        sim = Simulator(topo, channel, seed=1)
        sim.advance(horizon)
        assert len(sim._frontier_cache) > 50
        interacts = compile_network(topo, channel).interacts
        assert max(bin(m).count("1") for m in interacts) < k // 2
        for mask, front in sim._frontier_cache.items():
            assert front == oracle_frontier(topo, channel, mask), mask


class TestTimerState:
    """Between events the running timers are exactly the frontier of the
    active set, judged apart from the simulator's caches, and the links with
    a pending event are exactly the counting and the active ones, each due
    after ``now``; a counting link is due when the remaining time counted
    from its last resume runs out."""

    def _step_and_check(self, topo, channel, seed, step, horizon):
        sim = Simulator(topo, channel, seed=seed)
        if topo.n_links <= ENUMERATION_CAP:
            family = enumerate_feasible(topo, channel)
            frontier = dict(zip(family.sets.tolist(),
                                family.frontier.tolist())).__getitem__
        else:
            # judged one link at a time, with no cache and no bound
            def frontier(mask):
                return oracle_frontier(topo, channel, mask)
        for t in np.arange(step, horizon + step / 2, step):
            sim.advance(float(t))
            assert sim.counting == frontier(sim.active), sim.now
            pending = sum(1 << i for i, d in enumerate(sim.due)
                          if d < math.inf)
            assert pending == sim.counting | sim.active, sim.now
            assert all(d > sim.now for d in sim.due), sim.now
            for i in bit_ids(sim.counting):
                assert sim.due[i] == sim._resumed_at[i] + sim.remaining[i]

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

    def test_partial_range(self):
        rng = np.random.default_rng(13)
        sizes = set()
        for seed in range(4):
            topo = sparse_topology(rng, 8, 26)
            assert has_out_of_range_pair(topo)
            sizes.add(topo.n_links > ENUMERATION_CAP)
            self._step_and_check(topo, build_channel_matrix(topo), seed,
                                 step=0.1, horizon=20.0)
        assert sizes == {False, True}  # both references are used

    def test_dense_k25(self):
        topo = random_topology(np.random.default_rng(7), 25)
        self._step_and_check(topo, build_channel_matrix(topo), seed=3,
                             step=0.1, horizon=20.0)

    @pytest.mark.parametrize("k, horizon", [(50, 60.0), (100, 30.0)])
    def test_partial_range_at_scale(self, k, horizon):
        """At constant density, above the enumeration cap."""
        topo = constant_density(k)
        self._step_and_check(topo, build_channel_matrix(topo), seed=2,
                             step=0.1, horizon=horizon)


class TestOneSidedStep:
    """By downward closure an end only widens the frontier and a start only
    narrows it, which lets ``advance`` walk one side per event: after an
    end the running timers hold the old ones plus the ended link, and after
    a start they lie within the old ones minus the started link."""

    def _step(self, topo, channel, seed, horizon):
        sim = Simulator(topo, channel, seed=seed)
        ends = starts = 0
        while (t := min(sim.due)) <= horizon:
            link = sim.due.index(t)
            assert sim.due.count(t) == 1, t
            bit, before = 1 << link, sim.counting
            ended = sim.active & bit
            sim.advance(t)
            if ended:
                assert sim.counting & (before | bit) == before | bit, t
                ends += 1
            else:
                assert sim.counting & ~(before & ~bit) == 0, t
                starts += 1
        assert ends and starts

    def test_triangle(self, triangle):
        self._step(*triangle, seed=1, horizon=200.0)

    def test_dense_k25(self):
        scn = load_scenario(PERFBENCH_SCENARIOS / "dense-k25.yaml")
        self._step(scn.topology, scn.channel, seed=1, horizon=20.0)

    def test_partial_range(self):
        rng = np.random.default_rng(17)
        for seed in range(3):
            topo = sparse_topology(rng, 8, 26)
            assert has_out_of_range_pair(topo)
            self._step(topo, build_channel_matrix(topo), seed, horizon=20.0)


class TestPairRows:
    """``_pairs[j]``, filled on first use, is the frontier of ``{j}``: the
    links c for which {j, c} is independent."""

    def _assert_rows(self, topo, channel):
        family = enumerate_feasible(topo, channel)
        sim = Simulator(topo, channel)
        assert sim._pairs == [None] * topo.n_links
        for j in range(topo.n_links):
            front = family.frontier[family.index(1 << j)]
            assert sim._pair_bound(1 << j) == front, j
            assert sim._pairs[j] == front, j

    def test_triangle(self, triangle):
        self._assert_rows(*triangle)

    def test_random_topologies(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            topo = random_topology(rng, int(rng.integers(2, 9)))
            self._assert_rows(topo, build_channel_matrix(topo))

    def test_partial_range(self):
        rng = np.random.default_rng(67)
        partial = 0
        for _ in range(8):
            topo = sparse_topology(rng, 4, 13)
            partial += has_out_of_range_pair(topo)
            self._assert_rows(topo, build_channel_matrix(topo))
        assert partial > 0

    def test_dense_k25_against_oracle(self):
        scn = load_scenario(PERFBENCH_SCENARIOS / "dense-k25.yaml")
        topo = scn.topology
        oracle = compile_network(topo, scn.channel).independent
        sim = Simulator(topo, scn.channel, seed=1)
        sim.advance(scn.sim.horizon)
        k = topo.n_links
        assert any(row is not None for row in sim._pairs)
        for j in range(k):
            row = sum(1 << c for c in range(k)
                      if c != j and oracle(1 << j | 1 << c))
            assert sim._pair_bound(1 << j) == row, j
            assert sim._pairs[j] == row, j

    def test_pair_bound_is_the_and_of_rows(self):
        topo = random_topology(np.random.default_rng(71), 12)
        sim = Simulator(topo, build_channel_matrix(topo))
        rows = [sim._pair_bound(1 << j) for j in range(12)]
        assert sim._pair_bound(0) == (1 << 12) - 1
        for mask in (0b101, 0b111000, 0b100000000011):
            expected = (1 << 12) - 1
            for j in bit_ids(mask):
                expected &= rows[j]
            assert sim._pair_bound(mask) == expected


def full_state(sim):
    """Everything a run carries from one event to the next, the caches
    aside."""
    return (sim.now, sim.active, sim.counting, sim.busy, sim.completed,
            sim._completed_total, sim.occupancy, sim.due, sim.remaining,
            sim._counted, sim._draw, sim._resumed_at)


def assert_caches_within(sim, cap):
    """No cache holds more than ``cap`` entries, the count of transitions
    is exact, and every noted transition's target has its frontier stored:
    the transition cache is emptied whenever the frontier cache is."""
    for cache in (sim._indep_cache, sim._frontier_cache):
        assert len(cache) <= cap, sim.now
    noted = sum(len(seen) for seen in sim._transitions)
    assert noted == sim._transition_count <= cap, sim.now
    for link, seen in enumerate(sim._transitions):
        for source in seen:
            assert source ^ 1 << link in sim._frontier_cache, sim.now
    assert sim.active in sim._frontier_cache


class TestTransitionReplay:
    """A replayed transition leaves the state a miss leaves, bit for bit:
    a run equals its twin whose transition cache is emptied before every
    epoch, so that the twin replays only what repeats within one epoch.
    Each record holds what judging its event afresh gives."""

    def _assert_twins(self, topo, channel, seed, step, horizon):
        sim = Simulator(topo, channel, seed=seed, warmup=step)
        twin = Simulator(topo, channel, seed=seed, warmup=step)
        for t in np.arange(step, horizon + step / 2, step):
            for seen in twin._transitions:
                seen.clear()
            twin._transition_count = 0
            sim.advance(float(t))
            twin.advance(float(t))
            assert full_state(twin) == full_state(sim), sim.now
        for mine, theirs in zip(sim._draws, twin._draws):
            assert next(mine) == next(theirs)
        records = {(link, source): record
                   for link, seen in enumerate(sim._transitions)
                   for source, record in seen.items() if record}
        assert records
        for (link, source), (target, front, flipped, members) in (
                records.items()):
            bit = 1 << link
            before = oracle_frontier(topo, channel, source)
            assert target == source ^ bit
            assert front == oracle_frontier(topo, channel, target)
            if source & bit:  # an end resumes the links it lets in
                assert sum(1 << i for i in flipped) == front & ~(before | bit)
            else:  # a start suspends the links it shuts out
                assert sum(1 << i for i in flipped) == before & ~(front | bit)
            assert sorted(members) == list(bit_ids(target))
        return len(records)

    def test_triangle(self, triangle):
        assert self._assert_twins(*triangle, seed=1, step=0.5,
                                  horizon=500.0) == 18

    def test_sparse_k10(self):
        scn = load_scenario(ROOT / "scenarios" / "sparse-k10.yaml")
        self._assert_twins(scn.topology, scn.channel, seed=1, step=0.25,
                           horizon=300.0)

    def test_sparse_range_k25(self):
        # TestSparseRange's "k25" topology
        topo = random_topology(np.random.default_rng(7), 25, radius=6.0,
                               area=20.0)
        assert has_out_of_range_pair(topo)
        self._assert_twins(topo, build_channel_matrix(topo), seed=0,
                           step=0.25, horizon=100.0)


class TestCacheCap:
    """Emptying the caches when one fills changes no verdict: the run is
    the same, no cache ends above the cap, and the transition cache is
    emptied with the other two."""

    def test_k100_small_cap(self, monkeypatch):
        topo = random_topology(np.random.default_rng(1), 100)
        channel = build_channel_matrix(topo)
        default = Simulator(topo, channel, seed=1, warmup=5.0)
        default.advance(60.0)
        assert len(default._indep_cache) > 4 * 256
        monkeypatch.setattr(sim_module, "_CACHE_CAP", 256)
        capped = Simulator(topo, channel, seed=1, warmup=5.0)
        noted = 0
        for t in range(1, 61):
            capped.advance(float(t))
            assert_caches_within(capped, 256)
            noted = max(noted, capped._transition_count)
        assert noted > 0
        assert capped.occupancy == default.occupancy
        assert capped.busy == default.busy
        assert capped.completed == default.completed
        assert (capped.completed_total.tolist()
                == default.completed_total.tolist())

    def test_full_transition_cache_empties_all(self, monkeypatch):
        """On a small family the transition cache fills before the other
        two; it then takes no more entries, and the next frontier miss
        empties all three."""
        rng = np.random.default_rng(5)
        topo = random_topology(rng, int(rng.integers(4, 8)))
        channel = build_channel_matrix(topo)
        cap = len(enumerate_feasible(topo, channel)) + 2
        default = Simulator(topo, channel, seed=1)
        default.advance(300.0)
        monkeypatch.setattr(sim_module, "_CACHE_CAP", cap)
        judge = Simulator._frontier
        emptied = []

        def frontier(sim, *args):
            if (sim._transition_count >= cap
                    and len(sim._frontier_cache) < cap
                    and len(sim._indep_cache) < cap):
                emptied.append(sim.now)
            return judge(sim, *args)

        monkeypatch.setattr(Simulator, "_frontier", frontier)
        capped = Simulator(topo, channel, seed=1)
        for t in range(1, 301):
            capped.advance(float(t))
            assert_caches_within(capped, cap)
        assert len(emptied) > 1
        assert full_state(capped) == full_state(default)


class TestInitialCaches:
    @pytest.mark.parametrize("path", [
        TRIANGLE_YAML, ROOT / "scenarios" / "sparse-k10.yaml",
        PERFBENCH_SCENARIOS / "dense-k25.yaml",
        PERFBENCH_SCENARIOS / "spread-k12.yaml"], ids=lambda p: p.stem)
    def test_empty_frontier_stored(self, path):
        """``__init__`` takes the empty set's frontier and its solo verdicts
        from the compiled network, and stores them as judging the empty
        set stores them, so ``advance`` judges no solo set again."""
        scn = load_scenario(path)
        sim = Simulator(scn.topology, scn.channel, seed=1)
        judged = Simulator(scn.topology, scn.channel, seed=1)
        judged._frontier_cache.clear()
        judged._indep_cache.clear()
        assert judged._frontier(0) == sim.counting
        assert judged._frontier_cache == sim._frontier_cache
        assert judged._indep_cache == sim._indep_cache


def advance_to_expiry(sim):
    """Process events until the next one starts a transmission; return the
    time and link of that event."""
    while True:
        t = min(sim.due)
        link = sim.due.index(t)
        if not sim.active >> link & 1:
            return t, link
        sim.advance(t)


class TestProtocolErrors:
    """Each invariant the event loop checks raises ``ProtocolError`` when one
    piece of state is corrupted, and leaves ``now`` at the failing event and
    ``active`` as the event left it."""

    seeded = False

    def simulator(self, topo, channel, seed):
        family = enumerate_feasible(topo, channel) if self.seeded else None
        return Simulator(topo, channel, seed=seed, family=family)

    def test_suspended_link_expires(self):
        topo, channel = conflict_pair()
        sim = self.simulator(topo, channel, 1)
        while not sim.active:
            sim.advance(sim.now + 0.1)
        suspended = sim.due.index(math.inf)
        assert not (sim.counting | sim.active) >> suspended & 1
        active = sim.active
        t = sim.now + 0.5 * (min(sim.due) - sim.now)
        sim.due[suspended] = t
        with pytest.raises(ProtocolError, match="expired while infeasible"):
            sim.advance(t + 10.0)
        assert sim.now == t
        assert sim.active == active

    def test_active_set_leaves_family(self, triangle):
        # two links run, so the third is suspended: the triangle's full set
        # is dependent.  Its timer is made to count and to run out with its
        # backoff counted in full, so only the independence check is left
        # to refuse the start.
        sim = self.simulator(*triangle, 4)
        sim.advance(10.0)
        while bin(sim.active).count("1") < 2:
            sim.advance(min(sim.due))
        link = sim.due.index(math.inf)
        assert not (sim.counting | sim.active) >> link & 1
        t = sim.now + 0.5 * (min(sim.due) - sim.now)
        sim.counting |= 1 << link
        sim.due[link] = t
        sim._resumed_at[link] = t - (sim._draw[link] - sim._counted[link])
        with pytest.raises(ProtocolError,
                           match="left the independent-set family"):
            sim.advance(t + 10.0)
        assert sim.now == t
        assert sim.active == 0b111
        assert not sim.counting >> link & 1

    def test_backoff_loses_time(self, triangle):
        sim = self.simulator(*triangle, 4)
        sim.advance(10.0)
        t, link = advance_to_expiry(sim)
        sim._draw[link] += 1e-3
        with pytest.raises(ProtocolError, match="lost time"):
            sim.advance(t + 10.0)
        assert sim.now == t
        assert sim.active >> link & 1

    def _replayed_expiry(self, triangle):
        """A triangle run long enough that each of its 18 transitions has a
        record, stopped before an expiry, so that the event is replayed."""
        sim = self.simulator(*triangle, 4)
        sim.advance(200.0)
        records = [r for seen in sim._transitions for r in seen.values()]
        assert len(records) == 18 and all(records)
        t, link = advance_to_expiry(sim)
        assert sim._transitions[link][sim.active]
        return sim, t, link

    def test_replayed_expiry_while_infeasible(self, triangle):
        sim, t, link = self._replayed_expiry(triangle)
        active = sim.active
        sim.counting &= ~(1 << link)
        with pytest.raises(ProtocolError, match="expired while infeasible"):
            sim.advance(t + 10.0)
        assert sim.now == t
        assert sim.active == active

    def test_replayed_backoff_loses_time(self, triangle):
        sim, t, link = self._replayed_expiry(triangle)
        sim._draw[link] += 1e-3
        with pytest.raises(ProtocolError, match="lost time"):
            sim.advance(t + 10.0)
        assert sim.now == t
        assert sim.active >> link & 1


class TestSeededProtocolErrors(TestProtocolErrors):
    """The same corruptions raise when a family seeds the frontier cache:
    a seeded run looks up every frontier, yet still checks each expiry and
    each counted backoff, and a set outside the family still misses the
    cache and fails its independence check."""

    seeded = True


SEEDED_SCENARIOS = [TRIANGLE_YAML, ROOT / "scenarios" / "sparse-k10.yaml",
                    PERFBENCH_SCENARIOS / "spread-k12.yaml"]


class TestFamilySeed:
    """A simulator seeded with its network's family starts with every
    member's frontier stored, so it never judges a set, and it runs the
    same process as a cold one, draw for draw."""

    @pytest.mark.parametrize("path, step", [
        (TRIANGLE_YAML, 0.5), (SEEDED_SCENARIOS[1], 0.25),
        (SEEDED_SCENARIOS[2], 0.5)], ids=lambda p: getattr(p, "stem", None))
    def test_same_process(self, raw_draws, path, step):
        scn = load_scenario(path)
        family = enumerate_feasible(scn.topology, scn.channel)
        k = scn.topology.n_links
        cold, seeded = (Simulator(scn.topology, scn.channel,
                                  params=scn.sim.params, seed=1, warmup=step,
                                  family=f) for f in (None, family))
        table = dict(zip(family.sets.tolist(), family.frontier.tolist()))
        assert seeded._frontier_cache == table
        verdicts = dict(seeded._indep_cache)
        for t in np.arange(step, 100.0 + step / 2, step):
            cold.advance(float(t))
            seeded.advance(float(t))
            assert full_state(seeded) == full_state(cold), cold.now
            assert raw_draws[k:] == raw_draws[:k], cold.now
        # the cold run judged sets; the seeded one judged none
        assert len(cold._indep_cache) > len(verdicts)
        assert seeded._indep_cache == verdicts
        assert seeded._pairs == [None] * k
        assert seeded._frontier_cache == table

    @pytest.mark.parametrize("path", SEEDED_SCENARIOS[:2],
                             ids=lambda p: p.stem)
    def test_adapt_trace(self, path):
        scn = load_scenario(path)
        cfg = replace(scn.adapt, max_updates=20)
        family = enumerate_feasible(scn.topology, scn.channel)
        cold, seeded = (adapt_run(scn.topology, scn.channel, cfg,
                                  mu=scn.params.mu, seed=1, family=f)
                        for f in (None, family))
        for name in ("times", "r", "lambda_emp", "tau_emp", "queues"):
            assert np.array_equal(getattr(seeded, name), getattr(cold, name))

    @pytest.mark.parametrize("path", SEEDED_SCENARIOS[1:],
                             ids=lambda p: p.stem)
    def test_family_above_cap_not_seeded(self, monkeypatch, path):
        scn = load_scenario(path)
        family = enumerate_feasible(scn.topology, scn.channel)
        cold = Simulator(scn.topology, scn.channel, seed=1)
        cold.advance(50.0)
        monkeypatch.setattr(sim_module, "_CACHE_CAP", len(family) - 1)
        sim = Simulator(scn.topology, scn.channel, seed=1, family=family)
        assert sim._frontier_cache == {0: sim.counting}
        sim.advance(50.0)
        assert full_state(sim) == full_state(cold)

    def test_wrong_width_refused(self, triangle):
        topo = random_topology(np.random.default_rng(3), 4)
        family = enumerate_feasible(topo, build_channel_matrix(topo))
        with pytest.raises(ValueError, match="one bit per link"):
            Simulator(*triangle, family=family)

    def test_other_network_refused(self, triangle):
        # the same layout with a cross gain at which no two links coexist
        other = triangle_topology(cross_gain=0.45)
        family = enumerate_feasible(other, build_channel_matrix(other))
        own = enumerate_feasible(*triangle)
        singletons = [1, 2, 4]
        assert (family.frontier[family.find(singletons)[0]].tolist()
                != own.frontier[own.find(singletons)[0]].tolist())
        with pytest.raises(ValueError, match="network's independent sets"):
            Simulator(*triangle, family=family)

    def test_family_without_a_singleton_refused(self, triangle):
        with pytest.raises(ValueError, match="network's independent sets"):
            Simulator(*triangle, family=FeasibleFamily([0, 1, 2, 3], 3))


class TestSparseRange:
    """Partial-range runs that failed while each transmitter judged the
    links it heard: 12 lacked a cross-gain (``MissingGainError``) and one
    let a hidden terminal in (``ProtocolError``).  Under the receivers'
    veto each runs clean and visits only independent sets."""

    # rng seed, link count (None: drawn from the rng), simulator seed
    CASES = {str(s): (s, None, s) for s in range(12)}
    CASES["k25"] = (7, 25, 0)

    @pytest.mark.parametrize("case", list(CASES))
    def test_pinned_failures(self, case):
        s, k, seed = self.CASES[case]
        rng = np.random.default_rng(s)
        topo = random_topology(rng, k or int(rng.integers(8, 26)),
                               radius=6.0, area=20.0)
        channel = build_channel_matrix(topo)
        sim = Simulator(topo, channel, seed=seed)
        sim.advance(200.0)
        assert sim.now == 200.0
        oracle = compile_network(topo, channel).independent
        assert len(sim.occupancy) > 1
        assert all(oracle(mask) for mask in sim.occupancy)


class TestStatsConsistency:
    def test_occupancy_decomposes_busy_time(self, triangle):
        topo, channel = triangle
        stats = run(topo, channel, SimConfig(horizon=5000.0, seed=7))
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
        stats = run(topo, channel, SimConfig(horizon=20000.0, seed=5))
        for i in range(3):
            assert stats.busy_time[i] == pytest.approx(
                stats.completed[i], rel=0.1)


class TestAgainstAnalytical:
    def test_triangle_occupancy_matches_steady_state(self, triangle):
        topo, channel = triangle
        fam = enumerate_feasible(topo, channel)
        params = RateParams(r=np.array([0.5, 0.0, -0.5]))
        stats = run(topo, channel,
                    SimConfig(horizon=200_000.0, seed=11, params=params))
        ss = steady_state(fam, params)
        frac = stats.occupancy_fractions()
        tv = 0.5 * sum(abs(frac.get(bits, 0.0) - p)
                       for bits, p in zip(fam.sets, ss.probs))
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
        stats = run(topo, channel,
                    SimConfig(horizon=200_000.0, seed=13, params=params))
        ss = steady_state(fam, params)
        frac = stats.occupancy_fractions()
        tv = 0.5 * sum(abs(frac.get(bits, 0.0) - p)
                       for bits, p in zip(fam.sets, ss.probs))
        assert tv <= 0.02

    # Bounds: mean + 5 sd of 20 runs at seeds 100-119 and this horizon,
    # rounded up to 1e-3.  Per-link thresholds: TV 0.0030 (sd 0.0006),
    # throughput gap 0.0017 (sd 0.0007); the weighted triangle: TV 0.0017
    # (sd 0.0007), gap 0.0013 (sd 0.0006).
    @staticmethod
    def _tv_and_tau_gap(topo, params, seed):
        """The total-variation distance from the exact law, counting any
        occupancy outside the family in full, and the largest per-link
        throughput gap, over a run to 200,000."""
        channel = build_channel_matrix(topo)
        fam = enumerate_feasible(topo, channel)
        stats = run(topo, channel,
                    SimConfig(horizon=200_000.0, seed=seed, params=params))
        frac = stats.occupancy_fractions()
        exact = dict(zip(fam.sets.tolist(),
                         steady_state(fam, params).probs.tolist()))
        tv = 0.5 * sum(abs(frac.get(bits, 0.0) - exact.get(bits, 0.0))
                       for bits in set(frac) | set(exact))
        gap = np.abs(empirical_throughput(stats)
                     - expected_throughput(fam, params))
        return tv, float(gap.max())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_per_link_thresholds(self, seed):
        """Thresholds from 0.8 to 3.0 leave 18 independent sets, where the
        scalar 1.5 leaves 26."""
        topo = random_topology(np.random.default_rng(2), 5)
        phy = replace(topo.phy, sinr_threshold=(0.8, 1.5, 3.0, 1.0, 2.2))
        topo = NetworkTopology(topo.nodes, topo.links, phy)
        params = RateParams(r=np.array([0.5, -0.5, 0.0, 1.0, -1.0]))
        tv, gap = self._tv_and_tau_gap(topo, params, seed)
        assert tv <= 0.006 and gap <= 0.006

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_weighted_triangle(self, seed):
        """Service rates other than 1: the chain weighs a set by the product
        of lambda / mu over its links."""
        params = RateParams(np.array([0.5, 0.0, -0.5]),
                            np.array([0.7, 1.3, 2.0]))
        tv, gap = self._tv_and_tau_gap(triangle_topology(), params, seed)
        assert tv <= 0.005 and gap <= 0.005


def started_cycles(values):
    """Pairs (backoff, holding time) of one link's raw draws, one for each
    transmission started: a last backoff still counting is left out."""
    return list(zip(values[0::2], values[1::2]))


class TestTimerMemorylessness:
    def test_counted_backoffs_are_exponential(self, raw_draws):
        # suspend/resume keeps the remaining time, so the total counted
        # backoff before transmission equals the original exponential draw
        topo, channel = conflict_pair()
        lam = np.exp(np.array([0.8, 0.8]))
        params = RateParams(r=np.log(lam))
        sim = Simulator(topo, channel, params=params, seed=17)
        sim.advance(20000.0)
        scale = 1.0 / params.lam[0]
        draws = np.array([scale * b for b, _ in started_cycles(raw_draws[0])])
        assert len(draws) > 500
        stat, p = scipy.stats.kstest(draws, "expon", args=(0, 1 / lam[0]))
        assert p > 0.01

    def test_holding_times_are_exponential(self, raw_draws):
        topo, channel = conflict_pair()
        sim = Simulator(topo, channel, seed=23)
        sim.advance(20000.0)
        durations = np.array([h for _, h in started_cycles(raw_draws[1])])
        stat, p = scipy.stats.kstest(durations, "expon", args=(0, 1.0))
        assert p > 0.01


class TestDrawStream:
    """Each link's backoffs and holding times are, in order, the values that
    scalar ``Generator.exponential`` draws from the link's own stream."""

    @staticmethod
    def _assert_replayed(raw_draws, seed, rate_log, mu):
        # rate_log: (draws each link had made when the rates were set, the
        # rates from then on), construction first; a backoff is drawn with
        # the rates set before the ``advance`` call that drew it
        for link, values in enumerate(raw_draws):
            assert len(values) > 2 * sim_module._BUFFER, link
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(entropy=seed, spawn_key=(link,))))
            since = [made[link] for made, _ in rate_log]
            for n, value in enumerate(values):
                if n % 2:
                    scale = 1.0 / mu[link]
                else:
                    lam = rate_log[bisect.bisect_right(since, n) - 1][1]
                    scale = 1.0 / lam[link]
                assert scale * value == rng.exponential(scale), (link, n)

    def test_triangle_with_rate_changes(self, triangle, raw_draws):
        topo, channel = triangle
        params = RateParams(r=np.array([0.3, -0.2, 1.1]),
                            mu=np.array([0.7, 1.3, 2.0]))
        sim = Simulator(topo, channel, params=params, seed=12)
        rate_log = [([0] * 3, params.lam)]
        rng = np.random.default_rng(4)
        for t in np.arange(50.0, 801.0, 50.0):
            sim.advance(float(t))
            lam = np.exp(rng.uniform(-2.0, 2.0, size=3))
            sim.set_rates(lam)
            rate_log.append(([len(values) for values in raw_draws], lam))
        sim.advance(900.0)
        self._assert_replayed(raw_draws, 12, rate_log, params.mu)

    def test_suspended_backoffs(self, raw_draws):
        # the conflict pair suspends and resumes timers; the drawn backoff
        # is still the scalar draw, not the time counted piecewise
        topo, channel = conflict_pair()
        params = RateParams(r=np.array([0.8, -0.4]), mu=np.array([1.5, 0.5]))
        sim = Simulator(topo, channel, params=params, seed=29)
        sim.advance(600.0)
        self._assert_replayed(raw_draws, 29, [([0] * 2, params.lam)],
                              params.mu)

    def test_stats_arrays(self, triangle):
        sim = Simulator(*triangle, seed=5, warmup=50.0)
        sim.advance(100.0)
        before = sim.completed_total.copy()
        sim.advance(300.0)
        after = sim.completed_total
        served = after - before
        assert after.dtype == before.dtype == served.dtype == np.int64
        assert after.shape == (3,)
        assert np.all(served > 0)
        assert after.sum() == before.sum() + served.sum()
        stats = sim.stats()
        assert stats.busy_time.dtype == np.float64
        assert stats.busy_time.shape == (3,)
        assert stats.completed.dtype == np.int64
        assert np.all(stats.completed <= after)
        # the arrays are snapshots: advancing leaves them as they were
        kept = after.copy(), stats.busy_time.copy()
        sim.advance(400.0)
        assert np.array_equal(after, kept[0])
        assert np.array_equal(stats.busy_time, kept[1])
        assert np.all(sim.completed_total >= after)
        assert sim.completed_total.sum() > after.sum()


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

    @pytest.mark.parametrize("bad", [["1", 1.0, 2.0], [1.0, True, 2.0],
                                     ["1", True, 2.0], (1.0, 1.0, "2")])
    def test_set_rates_rejects_strings_and_bools(self, triangle, bad):
        # np.asarray(..., dtype=float) read '1' as 1.0 and True as 1.0
        sim = Simulator(triangle[0], triangle[1])
        with pytest.raises(ValueError, match="must be real numbers"):
            sim.set_rates(bad)
        assert sim._backoff_scale == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("r", [800.0, -800.0, -745.0])
    def test_rates_without_finite_backoff_refused(self, triangle, r):
        """``exp(800)`` overflows to inf, which gave zero timers;
        ``exp(-800)`` underflows to 0 and ``exp(-745)`` is 5e-324, whose
        ``1 / lam`` overflows, which gave infinite ones.  ``Simulator`` and
        ``set_rates`` refuse them by one check, and numpy warns of
        nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rates must be finite and "
                                                 "positive, one per link"):
                Simulator(*triangle, params=RateParams([0.0, r, 0.0]))
            sim = Simulator(*triangle)
            with np.errstate(over="ignore"):
                lam = np.exp([0.0, r, 0.0])
            with pytest.raises(ValueError, match="rates must be finite and "
                                                 "positive, one per link"):
                sim.set_rates(lam)
            assert sim._backoff_scale == [1.0, 1.0, 1.0]

    def test_extreme_finite_rates_accepted(self, triangle):
        """``exp(709)`` and ``exp(-709)`` and their inverses are finite."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim = Simulator(*triangle, params=RateParams([709.0, -709.0, 0.0]))
            sim.set_rates(np.exp([-709.0, 709.0, 0.0]))
        assert sim._backoff_scale == (1.0 / np.exp([-709.0, 709.0, 0.0])
                                      ).tolist()

    def test_set_rates_accepts_numpy_arrays(self, triangle):
        sim = Simulator(triangle[0], triangle[1])
        sim.set_rates(np.array([1, 2, 4], dtype=np.int64))
        assert sim._backoff_scale == [1.0, 0.5, 0.25]
        sim.set_rates(np.exp(np.array([0.0, 0.0, 0.0])))
        assert sim._backoff_scale == [1.0, 1.0, 1.0]


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

    @pytest.mark.parametrize("warmup", [True, "1.0"])
    def test_warmup_and_horizon_must_be_real(self, warmup):
        with pytest.raises(ValueError, match="warmup must be finite"):
            SimConfig(horizon=10.0, warmup=warmup)
        with pytest.raises(ValueError, match="horizon must be finite"):
            SimConfig(horizon=warmup)

    @pytest.mark.parametrize("warmup",
                             [float("nan"), float("inf"), -5.0, True, "1.0"])
    def test_simulator_warmup_bounds(self, triangle, warmup):
        with pytest.raises(ValueError, match="warmup must be finite and "
                                             "nonnegative"):
            Simulator(*triangle, warmup=warmup)

    @pytest.mark.parametrize("seed", [-1, 1.7, 1.0, True, "5", None])
    def test_simulator_seed_must_be_nonnegative_integer(self, triangle, seed):
        with pytest.raises(ValueError, match="seed must be a nonnegative "
                                             "integer"):
            Simulator(*triangle, seed=seed)

    def test_simulator_refuses_link_infeasible_alone(self):
        # link 1 is three times as long as link 0: at noise 0.1 and
        # threshold 2 it fails its SINR even with no interferer
        phy = PhyConfig(noise_power=0.1, sinr_threshold=2.0, radius=100.0)
        nodes = (Node(0, 0.0, 0.0), Node(1, 1.0, 0.0),
                 Node(2, 0.0, 50.0), Node(3, 3.0, 50.0))
        topo = NetworkTopology(nodes, (Link(0, 0, 1), Link(1, 2, 3)), phy)
        with pytest.raises(ValueError, match="link 1 is not solo-feasible"):
            Simulator(topo, build_channel_matrix(topo))

    def test_simulator_numpy_integer_seed_accepted(self, triangle):
        a, b = Simulator(*triangle, seed=np.int64(5)), Simulator(*triangle,
                                                                 seed=5)
        a.advance(50.0)
        b.advance(50.0)
        assert a.occupancy == b.occupancy

    @pytest.mark.parametrize("until", [True, "5.0", None])
    def test_advance_needs_a_real_time(self, triangle, until):
        sim = Simulator(*triangle, seed=4)
        with pytest.raises(ValueError, match="advance needs a finite time"):
            sim.advance(until)
        assert sim.now == 0.0 and type(sim.now) is float

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

    @pytest.mark.parametrize("seed", [-1, 1.7, 1.0, True, "5", None])
    def test_seed_must_be_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a nonnegative "
                                             "integer"):
            SimConfig(horizon=10.0, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert SimConfig(horizon=10.0, seed=np.int64(5)).seed == 5

    def test_solo_infeasible_link_rejected(self):
        phy = PhyConfig(noise_power=2.0, sinr_threshold=2.0,
                        cancel_fraction=1.0, radius=100.0)
        nodes = (Node(0, 0.0, 0.0), Node(1, 1.0, 0.0))
        links = (Link(0, 0, 1),)
        topo = NetworkTopology(nodes, links, phy)
        channel = build_channel_matrix(topo)
        with pytest.raises(ValueError):
            Simulator(topo, channel)
