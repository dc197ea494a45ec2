"""Independent-set enumeration and the capacity-region membership test."""

import gc
import math
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csma_sic import (ChannelMatrix, EnumerationCapError, FeasibleFamily,
                      Link, LinkSet, NetworkTopology, Node, PhyConfig,
                      Simulator, build_channel_matrix, capacity_contains,
                      compile_network, enumerate_feasible, eta,
                      independence_oracle, is_independent, load_scenario,
                      reachable_subfamily)
from csma_sic import setspace
from csma_sic.setspace import bit_ids
from csma_sic.phy import D_MIN
from conftest import random_topology, triangle_topology

ROOT = Path(__file__).resolve().parent.parent
COMMITTED_SCENARIOS = sorted(ROOT.glob("scenarios/*.yaml")) + sorted(
    ROOT.glob("perfbench/scenarios/*.yaml"))

class TestLinkSet:
    def test_roundtrip(self):
        d = LinkSet.from_ids([0, 2], 3)
        assert d.ids() == (0, 2) and d.bits == 0b101 and len(d) == 2
        assert str(d) == "{0,2}"
        assert str(LinkSet(0, 3)) == "{}"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            LinkSet.from_ids([3], 3)

    def test_ordering_total(self):
        sets = [LinkSet(b, 3) for b in range(8)]
        assert sorted(sets, reverse=True)[-1] == LinkSet(0, 3)


class TestTriangleFamily:
    def test_seven_states(self, triangle):
        topo, channel = triangle
        fam = enumerate_feasible(topo, channel)
        assert len(fam) == 7
        assert fam.sets == (0, 1, 2, 3, 4, 5, 6)
        assert 0b111 not in fam

    def test_eta(self, triangle):
        topo, channel = triangle
        fam = enumerate_feasible(topo, channel)
        assert eta(0, fam) == (0, 1, 2)
        assert eta(0b001, fam) == (1, 2)
        assert eta(0b011, fam) == ()
        with pytest.raises(ValueError, match="not a member"):
            eta(0b111, fam)

    def test_frontier(self, triangle):
        topo, channel = triangle
        fam = enumerate_feasible(topo, channel)
        assert fam.frontier[0] == 0b111
        assert fam.frontier[0b001] == 0b110
        assert fam.frontier[0b011] == 0
        assert list(fam.frontier) == list(fam.sets)

    def test_reachable_equals_exhaustive(self, triangle):
        topo, channel = triangle
        fam = enumerate_feasible(topo, channel)
        order, unreachable = reachable_subfamily(fam)
        assert unreachable == ()
        assert order == fam.sets


def exhaustive_bits(topo, channel):
    """Reference enumeration: test every one of the 2**K subsets."""
    k = topo.n_links
    return [b for b in range(1 << k) if is_independent(LinkSet(b, k), topo, channel)]


class TestDownwardClosure:
    def test_superset_of_feasible_can_fail(self):
        # the family is not closed upward: a feasible pair plus one more
        # link can break, so it is not simply every subset
        rng = np.random.default_rng(3)
        found = False
        for _ in range(300):
            topo = random_topology(rng, 3)
            channel = build_channel_matrix(topo)
            fam = enumerate_feasible(topo, channel)
            if any(bin(s).count("1") == 2 for s in fam.sets) and 0b111 not in fam:
                found = True
                break
        assert found

    def test_removal_preserves_feasibility(self):
        # dropping a link removes interference at every decode stage, so
        # the family of feasible sets is closed under subsets
        rng = np.random.default_rng(5)
        for _ in range(100):
            topo = random_topology(rng, 3, cancel_fraction=0.7)
            channel = build_channel_matrix(topo)
            fam = enumerate_feasible(topo, channel)
            for s in fam.sets:
                for i in bit_ids(s):
                    assert s & ~(1 << i) in fam

    def test_extension_matches_exhaustive(self):
        # full and partial range, every cancellation regime, per-link
        # thresholds and out-of-range interference
        rng = np.random.default_rng(17)
        largest = 0
        for k in range(2, 10):
            for geometry in ({}, {"radius": 6.0, "area": 20.0}):
                for z in (0.0, 0.3, 0.7, 1.0):
                    topo = random_topology(rng, k, cancel_fraction=z, **geometry)
                    phy = replace(
                        topo.phy,
                        sinr_threshold=tuple(rng.uniform(0.5, 2.0, size=k)),
                        far_interference=float(rng.uniform(0.001, 0.01)),
                    )
                    topo = replace(topo, phy=phy)
                    channel = build_channel_matrix(topo)
                    fam = enumerate_feasible(topo, channel)
                    assert list(fam.sets) == exhaustive_bits(topo, channel)
                    largest = max(largest, max(bin(s).count("1")
                                               for s in fam.sets))
        assert largest >= 4

    def test_family_must_be_downward_closed(self):
        # {0,1} without {0} and {1} is a set no single-link move reaches;
        # the family with no members lacks the empty set
        k = 2
        for sets in ((0, 0b11), ()):
            with pytest.raises(ValueError, match="closed"):
                FeasibleFamily(sets, k)


def with_shared_nodes(topo, rng, extra):
    """``topo`` plus ``extra`` links between its nodes, reusing endpoints."""
    links = list(topo.links)
    while len(links) < topo.n_links + extra:
        a, b = (int(v) for v in rng.choice(topo.n_nodes, size=2, replace=False))
        if topo.distance(a, b) < topo.phy.radius:
            links.append(Link(len(links), a, b))
    return replace(topo, links=tuple(links))


class TestIndependenceOracle:
    """The compiled oracle gives ``is_independent``'s verdict on every mask."""

    @pytest.mark.parametrize("z", [0.0, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("geometry", [{}, {"radius": 6.0, "area": 20.0}],
                             ids=["full-range", "partial-range"])
    def test_matches_is_independent(self, geometry, z):
        rng = np.random.default_rng(29)
        seen = {True: 0, False: 0, "clash": 0, "deaf": 0}
        for k in (2, 4, 7, 11, 16):
            base = with_shared_nodes(
                random_topology(rng, k, cancel_fraction=z, **geometry), rng,
                extra=k // 2 + 1)
            width = base.n_links
            for phy in (
                base.phy,
                replace(base.phy,
                        sinr_threshold=tuple(rng.uniform(0.5, 2.0, size=width)),
                        far_interference=float(rng.uniform(0.001, 0.01))),
                replace(base.phy, noise_power=0.0),
            ):
                topo = replace(base, phy=phy)
                channel = build_channel_matrix(topo)
                oracle = independence_oracle(topo, channel)
                pairs = [1 << i | 1 << j for i in range(width)
                         for j in range(i, width)]
                dense = [int(rng.integers(0, 1 << width)) for _ in range(100)]
                sparse = [int(rng.integers(0, 1 << width)
                              & rng.integers(0, 1 << width)
                              & rng.integers(0, 1 << width))
                          for _ in range(200)]
                for mask in [0] + pairs + dense + sparse:
                    verdict = is_independent(LinkSet(mask, width), topo,
                                             channel)
                    assert oracle(mask) is verdict, (mask, phy)
                    seen[verdict] += 1
                    ids = LinkSet(mask, width).ids()
                    nodes = [v for i in ids for v in (topo.links[i].tx,
                                                      topo.links[i].rx)]
                    seen["clash"] += len(set(nodes)) < len(nodes)
                    seen["deaf"] += any(
                        not topo.in_range(topo.links[i].tx, topo.links[j].rx)
                        for i in ids for j in ids)
        assert seen[True] and seen[False] and seen["clash"]
        assert bool(seen["deaf"]) == bool(geometry)

    @staticmethod
    def _every_mask(topo, channel):
        """Assert the oracle's verdict on all 2^K masks; count the sets of
        two or more links it accepts and refuses."""
        oracle = independence_oracle(topo, channel)
        seen = {True: 0, False: 0}
        for mask in range(1 << topo.n_links):
            verdict = is_independent(LinkSet(mask, topo.n_links), topo,
                                     channel)
            assert oracle(mask) is verdict, (mask, topo.phy)
            if mask & mask - 1:
                seen[verdict] += 1
        return seen

    @staticmethod
    def _phys(rng, width, beta):
        """Noise-free variants: threshold ``beta`` and per-link thresholds
        around it, three cancellation fractions."""
        for z in (0.0, 0.5, 1.0):
            yield PhyConfig(noise_power=0.0, sinr_threshold=beta,
                            cancel_fraction=z)
            yield PhyConfig(noise_power=0.0, cancel_fraction=z,
                            sinr_threshold=tuple(
                                rng.uniform(beta / 2, 2 * beta, size=width)))

    @pytest.mark.parametrize("radius", [100.0, 4.0],
                             ids=["full-range", "partial-range"])
    def test_equal_gains_tie_by_transmitter_id(self, radius):
        """Nodes packed closer than ``D_MIN`` all see the same clamped gain,
        so the decode order among them falls to the transmitter id."""
        rng = np.random.default_rng(41)
        for k in (6, 10):
            nodes, links = [], []
            for j in range(k):
                if j <= k // 2:  # packed into a disk of radius 0.4
                    pair = [(6.0, 6.0) + 0.4 * math.sqrt(rng.uniform())
                            * np.array([math.cos(a), math.sin(a)])
                            for a in rng.uniform(0.0, 2 * math.pi, size=2)]
                else:
                    tx = rng.uniform(0.0, 12.0, size=2)
                    a = rng.uniform(0.0, 2 * math.pi)
                    pair = [tx, tx + rng.uniform(1.0, 2.0)
                            * np.array([math.cos(a), math.sin(a)])]
                for xy in pair:
                    nodes.append(Node(len(nodes), *map(float, xy)))
                links.append(Link(j, 2 * j, 2 * j + 1))
            for phy in self._phys(rng, k, 0.4):
                topo = NetworkTopology(tuple(nodes), tuple(links),
                                       replace(phy, radius=radius))
                channel = build_channel_matrix(topo)
                # links 0 and 1 are packed: each receiver hears both at once
                assert (channel.g[0, 3] == channel.g[2, 1]
                        == D_MIN ** -phy.path_loss_exponent)
                seen = self._every_mask(topo, channel)
                assert seen[True] and seen[False]
            deaf = not all(topo.in_range(l.tx, m.rx) for l in links
                           for m in links)
            assert deaf == (radius < 100.0)

    @pytest.mark.parametrize("geometry", [{}, {"radius": 6.0, "area": 20.0}],
                             ids=["full-range", "partial-range"])
    def test_link_ids_opposite_to_transmitter_ids(self, geometry):
        """Link order is the reverse of transmitter order and no node is
        shared, so each call sorts its members by transmitter rank."""
        rng = np.random.default_rng(43)
        seen, deaf = {True: 0, False: 0}, False
        for k in (5, 8, 10):
            base = random_topology(rng, k, **geometry)
            links = tuple(Link(j, l.tx, l.rx)
                          for j, l in enumerate(reversed(base.links)))
            assert [l.tx for l in links] == sorted(
                (l.tx for l in links), reverse=True)
            for phy in self._phys(rng, k, 1.5):
                topo = replace(base, links=links,
                               phy=replace(phy, radius=base.phy.radius))
                for verdict, n in self._every_mask(
                        topo, build_channel_matrix(topo)).items():
                    seen[verdict] += n
            deaf |= not all(topo.in_range(l.tx, m.rx) for l in links
                            for m in links)
        assert seen[True] and seen[False]
        assert deaf == bool(geometry)

    def test_interference_summed_in_transmitter_order(self):
        """Float addition does not associate: at link 2's receiver the sum
        in transmitter order rounds the two 2**-53 interferers away, leaving
        no interference and so no finite threshold to miss; in link order
        they remain and the 2**60 threshold refuses the set."""
        tiny = 2.0 ** -53
        nodes = tuple(Node(v, float(v), 0.0) for v in range(6))
        links = (Link(0, 4, 5), Link(1, 2, 3), Link(2, 0, 1))
        phy = PhyConfig(noise_power=0.0, radius=100.0,
                        sinr_threshold=(1.0, 1.0, 2.0 ** 60))
        topo = NetworkTopology(nodes, links, phy)
        g = np.full((6, 6), tiny)
        for l in links:
            g[l.tx, l.rx] = g[l.rx, l.tx] = 1.0
        channel = ChannelMatrix(g)
        assert (1.0 + tiny) + tiny == 1.0 < (tiny + tiny) + 1.0
        assert is_independent(LinkSet(0b111, 3), topo, channel)
        assert independence_oracle(topo, channel)(0b111)


def judged_masks(topo, channel, rng, n_random=200):
    """Masks to judge: the empty set, every pair, random dense and sparse
    masks, and the growth of random maximal independent sets, so that
    large accepted sets are judged too."""
    k = topo.n_links
    masks = [0] + [1 << i | 1 << j for i in range(k) for j in range(i, k)]
    masks += [int(rng.integers(0, 1 << k)) for _ in range(n_random)]
    masks += [int(rng.integers(0, 1 << k) & rng.integers(0, 1 << k)
                  & rng.integers(0, 1 << k)) for _ in range(n_random)]
    for _ in range(10):
        grown = 0
        for i in rng.permutation(k).tolist():
            if is_independent(LinkSet(grown | 1 << i, k), topo, channel):
                grown |= 1 << i
                masks.append(grown)
    return masks


class TestCompiledNetwork:
    """``compile_network``: its solo verdicts and its oracle are
    ``is_independent``'s, and one (topology, channel) pair compiles once."""

    @staticmethod
    def assert_matches(topo, channel, masks):
        """Solo verdicts and verdicts on ``masks`` equal is_independent's;
        returns how many of the masks are independent."""
        k = topo.n_links
        network = compile_network(topo, channel)
        solo = sum(1 << i for i in range(k)
                   if is_independent(LinkSet(1 << i, k), topo, channel))
        assert network.solo == solo
        accepted = 0
        for mask in masks:
            verdict = is_independent(LinkSet(mask, k), topo, channel)
            assert network.independent(mask) is verdict, mask
            accepted += verdict
        return accepted

    @pytest.mark.parametrize("path", COMMITTED_SCENARIOS,
                             ids=lambda p: str(p.relative_to(ROOT)))
    def test_committed_scenarios(self, path):
        scn = load_scenario(path)
        rng = np.random.default_rng(61)
        masks = judged_masks(scn.topology, scn.channel, rng)
        accepted = self.assert_matches(scn.topology, scn.channel, masks)
        assert 0 < accepted < len(masks)
        assert compile_network(scn.topology, scn.channel).solo == (
            (1 << scn.topology.n_links) - 1)

    @pytest.mark.parametrize("geometry", [{}, {"radius": 6.0, "area": 20.0}],
                             ids=["full-range", "partial-range"])
    def test_random_topologies(self, geometry):
        """All in range and partial range, uniform and per-link thresholds;
        the per-link thresholds reach up to 40, so some links fail alone."""
        rng = np.random.default_rng(67)
        unfit = 0
        for k in (3, 8, 14):
            for z in (0.0, 0.6, 1.0):
                topo = random_topology(rng, k, cancel_fraction=z, **geometry)
                for phy in (topo.phy,
                            replace(topo.phy, sinr_threshold=tuple(
                                rng.uniform(0.5, 40.0, size=k)))):
                    t = replace(topo, phy=phy)
                    channel = build_channel_matrix(t)
                    self.assert_matches(t, channel,
                                        judged_masks(t, channel, rng, 100))
                    unfit += compile_network(t, channel).solo != (1 << k) - 1
        assert unfit

    @pytest.mark.parametrize("radius", [5.0, math.nextafter(5.0, 0.0)],
                             ids=["at-radius", "one-ulp-less"])
    def test_nodes_exactly_radius_apart(self, radius):
        """Link 1's transmitter is exactly 5 from link 0's receiver
        (``math.hypot(3, 4)``): in range at radius 5, so its interference
        breaks link 0's threshold of 200, and out of range one ulp below."""
        nodes = (Node(0, 0.0, 0.0), Node(1, 1.0, 0.0), Node(2, 4.0, 4.0),
                 Node(3, 4.0, 5.0))
        phy = PhyConfig(noise_power=0.0, sinr_threshold=(200.0, 1.5),
                        radius=radius)
        topo = NetworkTopology(nodes, (Link(0, 0, 1), Link(1, 2, 3)), phy)
        assert topo.distance(2, 1) == 5.0
        assert topo.in_range(2, 1) is (radius == 5.0)
        channel = build_channel_matrix(topo)
        self.assert_matches(topo, channel, range(4))
        assert compile_network(topo, channel).independent(0b11) is (
            radius != 5.0)

    @pytest.mark.parametrize("z", [0.0, 0.5, 1.0])
    def test_tie_in_gains(self, z):
        """Links 1 and 2 transmit from 5 away from link 0's receiver, at
        (3, 4) and (4, 3): equal gains, stronger than link 0's own from 7
        away, so the decode order between them falls to the transmitter
        id, each stage with its own link's threshold.  With full
        cancellation the first stage passes a threshold up to about 0.73
        and the second one up to about 2.7, so the order decides."""
        nodes = (Node(0, 7.0, 0.0), Node(1, 0.0, 0.0), Node(2, 3.0, 4.0),
                 Node(3, 3.0, 5.0), Node(4, 4.0, 3.0), Node(5, 5.0, 3.0))
        links = (Link(0, 0, 1), Link(1, 2, 3), Link(2, 4, 5))
        verdicts = {}
        for betas in ((0.1, 0.5, 2.0), (0.1, 2.0, 0.5), (0.1, 0.5, 0.6)):
            phy = PhyConfig(noise_power=0.0, sinr_threshold=betas,
                            cancel_fraction=z, radius=100.0)
            topo = NetworkTopology(nodes, links, phy)
            channel = build_channel_matrix(topo)
            assert channel.g[2, 1] == channel.g[4, 1] > channel.g[0, 1]
            self.assert_matches(topo, channel, range(8))
            verdicts[betas[1:]] = compile_network(topo, channel).independent(
                0b111)
        if z == 1.0:
            assert verdicts == {(0.5, 2.0): True, (2.0, 0.5): False,
                                (0.5, 0.6): True}

    def test_scenario_compiles_once(self, monkeypatch):
        """``load_scenario`` and a ``Simulator`` on its topology and channel
        share one compile; a new channel object, or a new topology object,
        compiles again."""
        compiled = []
        real = setspace._compile
        monkeypatch.setattr(setspace, "_compile",
                            lambda t, c: compiled.append(c) or real(t, c))
        scn = load_scenario(ROOT / "scenarios" / "sparse-k10.yaml")
        assert compiled == [scn.channel]
        Simulator(scn.topology, scn.channel, phy=scn.topology.phy,
                  params=scn.sim.params, seed=1).advance(50.0)
        assert independence_oracle(scn.topology, scn.channel) is (
            compile_network(scn.topology, scn.channel).independent)
        assert compiled == [scn.channel]
        channel = build_channel_matrix(scn.topology)
        Simulator(scn.topology, channel, seed=1).advance(50.0)
        Simulator(scn.topology, channel, seed=2)
        assert compiled == [scn.channel, channel]
        topo = replace(scn.topology)
        network = compile_network(topo, channel)
        assert network.topology is topo
        assert len(compiled) == 3

    def test_network_lives_with_its_channel(self, triangle):
        """Nothing but the channel holds a compiled network."""
        topo, _ = triangle
        channel = build_channel_matrix(topo)
        network = weakref.ref(compile_network(topo, channel))
        gc.collect()
        assert network() is not None
        del channel
        gc.collect()
        assert network() is None


class TestChannelShape:
    @pytest.mark.parametrize("n", [4, 8])
    def test_channel_must_match_node_count(self, triangle, n):
        """The triangle has 6 nodes: its gains cut to 4 x 4 would be indexed
        past their end and padded to 8 x 8 would go unnoticed; both are
        refused."""
        topo, full = triangle
        g = np.zeros((n, n))
        m = min(n, topo.n_nodes)
        g[:m, :m] = full.g[:m, :m]
        channel = ChannelMatrix(g)
        with pytest.raises(ValueError, match="n_nodes x n_nodes"):
            is_independent(LinkSet(0b1, 3), topo, channel)
        with pytest.raises(ValueError, match="n_nodes x n_nodes"):
            independence_oracle(topo, channel)
        with pytest.raises(ValueError, match="n_nodes x n_nodes"):
            enumerate_feasible(topo, channel)


class TestLinkSetWidth:
    @pytest.mark.parametrize("d", [LinkSet(0b1, 7), LinkSet(0b1000, 4),
                                   LinkSet(0b1, 2)])
    def test_width_must_match_link_count(self, triangle, d):
        """The triangle has 3 links: a wider set was judged on its low bits
        or indexed past the links, a narrower one on the links it names;
        each is refused."""
        with pytest.raises(ValueError, match="n_links"):
            is_independent(d, *triangle)


class TestFamilyConstruction:
    def test_member_width_must_match(self):
        for sets in ((0, 0b100), (-1, 0)):
            with pytest.raises(ValueError, match="within the family's width"):
                FeasibleFamily(sets, 2)

    def test_duplicate_members_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            FeasibleFamily((0, 1, 1), 2)


class TestEnumerationCap:
    def test_cap_enforced(self, triangle, monkeypatch):
        topo, channel = triangle
        monkeypatch.setattr(setspace, "ENUMERATION_CAP", 2)
        with pytest.raises(EnumerationCapError, match="cap of 2"):
            enumerate_feasible(topo, channel)


def grid_certificate(x, vectors, step=0.01):
    """Search a coarse simplex grid for a dominating mixture.

    Independent of the LP: for small families, walk mixtures of up to three
    set vectors with weights on a 0.01 grid.
    """
    m = len(vectors)
    x = np.asarray(x)
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    for i in range(m):
        for j in range(i, m):
            for w in ticks:
                mix = w * vectors[i] + (1 - w) * vectors[j]
                if np.all(mix >= x - 1e-12):
                    return True
    # three-vector combinations, coarser grid
    ticks = np.arange(0.0, 1.0 + 0.05 / 2, 0.05)
    for i in range(m):
        for j in range(i, m):
            for l in range(j, m):
                for w1 in ticks:
                    for w2 in ticks:
                        if w1 + w2 > 1 + 1e-12:
                            continue
                        mix = (w1 * vectors[i] + w2 * vectors[j]
                               + (1 - w1 - w2) * vectors[l])
                        if np.all(mix >= x - 1e-12):
                            return True
    return False


def separating_functional(x, vectors):
    """A hyperplane certificate that x lies outside the convex hull.

    Returns weights w with w @ x > max_v w @ v, or None.
    """
    from scipy.optimize import linprog
    # maximize w@x - t  s.t.  w@v <= t for all v, |w| <= 1
    k = len(x)
    m = len(vectors)
    c = np.concatenate([-np.asarray(x, dtype=float), [1.0]])
    a_ub = np.hstack([vectors, -np.ones((m, 1))])
    b_ub = np.zeros(m)
    bounds = [(-1, 1)] * k + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        return None
    w, t = res.x[:k], res.x[k]
    if w @ np.asarray(x) > t + 1e-9:
        return w
    return None


class TestCapacityRegion:
    def test_triangle_inside(self, triangle):
        topo, channel = triangle
        fam = enumerate_feasible(topo, channel)
        ok, alpha = capacity_contains([2 / 3] * 3, fam)
        assert ok
        v = fam.vectors()
        assert np.all(v.T @ alpha >= np.array([2 / 3] * 3) - 1e-9)
        assert abs(alpha.sum() - 1) <= 1e-9

    def test_triangle_outside(self, triangle):
        topo, channel = triangle
        fam = enumerate_feasible(topo, channel)
        ok, alpha = capacity_contains([0.7] * 3, fam)
        assert not ok and alpha is None

    def test_vertices_and_origin(self, triangle):
        topo, channel = triangle
        fam = enumerate_feasible(topo, channel)
        assert capacity_contains([0.0] * 3, fam)[0]
        for s in fam.sets:
            x = np.zeros(3)
            for i in bit_ids(s):
                x[i] = 1.0
            assert capacity_contains(x, fam)[0]

    def test_rejects_bad_input(self, triangle):
        topo, channel = triangle
        fam = enumerate_feasible(topo, channel)
        with pytest.raises(ValueError):
            capacity_contains([0.5, 0.5], fam)
        with pytest.raises(ValueError):
            capacity_contains([-0.1, 0.5, 0.5], fam)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="must be finite"):
                capacity_contains([bad, 0.0, 0.0], fam)

    def test_lp_agrees_with_independent_certificates(self):
        rng = np.random.default_rng(11)
        agree = 0
        while agree < 60:
            k = int(rng.integers(2, 5))
            topo = random_topology(rng, k)
            channel = build_channel_matrix(topo)
            fam = enumerate_feasible(topo, channel)
            x = rng.uniform(0, 1.2, size=k)
            ok, alpha = capacity_contains(x, fam)
            v = fam.vectors()
            if ok:
                # the LP's own witness is already a certificate; confirm the
                # grid search agrees when the point is clearly interior
                assert np.all(v.T @ alpha >= x - 1e-9)
                if np.all(v.T @ alpha >= x + 0.02):
                    assert grid_certificate(x - 0.01, v)
            else:
                w = separating_functional(x, v)
                assert w is not None
            agree += 1


class TestFamilyInvariants:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_empty_set_always_feasible(self, seed):
        rng = np.random.default_rng(seed)
        topo = random_topology(rng, int(rng.integers(1, 5)))
        channel = build_channel_matrix(topo)
        fam = enumerate_feasible(topo, channel)
        assert 0 in fam
        # every singleton is feasible by construction of the topology
        for i in range(topo.n_links):
            assert 1 << i in fam
