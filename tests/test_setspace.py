"""Independent-set enumeration and the capacity-region membership test."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csma_sic import (EnumerationCapError, FeasibleFamily, LinkSet,
                      build_channel_matrix, capacity_contains,
                      enumerate_feasible, eta, is_independent,
                      reachable_subfamily)
from conftest import random_topology, triangle_topology


class TestLinkSet:
    def test_roundtrip(self):
        d = LinkSet.from_ids([0, 2], 3)
        assert d.ids() == (0, 2)
        assert d.contains(2) and not d.contains(1)
        assert str(d) == "{0,2}"
        assert str(LinkSet(0, 3)) == "{}"

    def test_add_remove(self):
        d = LinkSet.from_ids([1], 3)
        assert d.add(0).ids() == (0, 1)
        assert d.add(0).remove(1).ids() == (0,)
        assert len(d.add(2)) == 2

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
        sizes = sorted(len(s) for s in fam.sets)
        assert sizes == [0, 1, 1, 1, 2, 2, 2]
        assert LinkSet.from_ids([0, 1, 2], 3) not in fam

    def test_eta(self, triangle):
        topo, channel = triangle
        fam = enumerate_feasible(topo, channel)
        assert eta(LinkSet(0, 3), fam) == (0, 1, 2)
        assert eta(LinkSet.from_ids([0], 3), fam) == (1, 2)
        assert eta(LinkSet.from_ids([0, 1], 3), fam) == ()

    def test_frontier(self, triangle):
        topo, channel = triangle
        fam = enumerate_feasible(topo, channel)
        assert fam.frontier[0] == 0b111
        assert fam.frontier[0b001] == 0b110
        assert fam.frontier[0b011] == 0
        assert set(fam.frontier) == {s.bits for s in fam.sets}

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
            full = LinkSet.from_ids(range(3), 3)
            if any(len(s) == 2 for s in fam.sets) and full not in fam:
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
                for i in s.ids():
                    assert s.remove(i) in fam

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
                    assert [s.bits for s in fam.sets] == exhaustive_bits(topo, channel)
                    largest = max(largest, max(len(s) for s in fam.sets))
        assert largest >= 4

    def test_family_must_be_downward_closed(self):
        # {0,1} without {0} and {1} is a set no single-link move reaches;
        # the family with no members lacks the empty set
        k = 2
        for sets in ((LinkSet(0, k), LinkSet.from_ids([0, 1], k)), ()):
            with pytest.raises(ValueError, match="closed"):
                FeasibleFamily(sets, k)


class TestFamilyConstruction:
    def test_member_width_must_match(self):
        with pytest.raises(ValueError):
            FeasibleFamily((LinkSet(0, 2), LinkSet(0b100, 3)), 2)

    def test_duplicate_members_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            FeasibleFamily((LinkSet(0, 2), LinkSet(1, 2), LinkSet(1, 2)), 2)


class TestEnumerationCap:
    def test_cap_enforced(self, triangle):
        topo, channel = triangle
        with pytest.raises(EnumerationCapError):
            enumerate_feasible(topo, channel, cap=2)


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
            for i in s.ids():
                x[i] = 1.0
            assert capacity_contains(x, fam)[0]

    def test_strict_mode(self, triangle):
        topo, channel = triangle
        fam = enumerate_feasible(topo, channel)
        # (2/3, 2/3, 2/3) is an exact mixture of the three pair states
        assert capacity_contains([2 / 3] * 3, fam, strict=True)[0]
        # strictly interior points need idling; without dominance they fail
        # only if no exact mixture exists, but the empty set allows scaling
        assert capacity_contains([0.1] * 3, fam, strict=True)[0]

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
        assert LinkSet(0, topo.n_links) in fam
        # every singleton is feasible by construction of the topology
        for i in range(topo.n_links):
            assert LinkSet.from_ids([i], topo.n_links) in fam
