"""Steady-state distribution of the set-valued jump process."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csma_sic import (FeasibleFamily, LinkSet, RateParams, build_channel_matrix,
                      detailed_balance_residual, enumerate_feasible,
                      expected_throughput, global_balance_residual,
                      steady_state, transition_rates)
from conftest import random_topology


def chain_family(k):
    """Family of the empty set and all singletons."""
    sets = [LinkSet(0, k)] + [LinkSet.from_ids([i], k) for i in range(k)]
    return FeasibleFamily(tuple(sets), k)


class TestRateParams:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            RateParams(r=np.array([0.0, bad]))
        with pytest.raises(ValueError):
            RateParams(r=np.zeros(2), mu=np.array([1.0, bad]))


class TestTriangleSteadyState:
    def test_uniform_at_zero_rates(self, triangle):
        topo, channel = triangle
        fam = enumerate_feasible(topo, channel)
        ss = steady_state(fam, RateParams.uniform(3))
        for s in fam.sets:
            assert ss.prob(s) == pytest.approx(1 / 7, abs=1e-12)

    def test_throughput_three_sevenths(self, triangle):
        topo, channel = triangle
        fam = enumerate_feasible(topo, channel)
        tau = expected_throughput(fam, RateParams.uniform(3))
        assert tau == pytest.approx([3 / 7] * 3, abs=1e-12)

    def test_balance_residuals(self, triangle):
        topo, channel = triangle
        fam = enumerate_feasible(topo, channel)
        params = RateParams(r=np.array([0.3, -0.2, 1.1]))
        ss = steady_state(fam, params)
        assert global_balance_residual(fam, params, ss) <= 1e-12
        assert detailed_balance_residual(fam, params, ss) <= 1e-13


class TestClosedForm:
    def test_two_state_chain(self):
        # single link: p(on) / p(off) = lambda / mu
        fam = chain_family(1)
        params = RateParams(r=np.array([0.7]), mu=np.array([2.0]))
        ss = steady_state(fam, params)
        lam = math.exp(0.7)
        assert ss.prob(LinkSet.from_ids([0], 1)) == pytest.approx(
            lam / (lam + 2.0), abs=1e-12)

    def test_star_of_mutually_excluded_links(self):
        # k links that conflict pairwise: p({i}) proportional to lambda_i/mu_i
        k = 4
        fam = chain_family(k)
        r = np.array([0.1, -0.5, 1.3, 0.0])
        mu = np.array([1.0, 2.0, 0.5, 1.5])
        params = RateParams(r=r, mu=mu)
        ss = steady_state(fam, params)
        w = np.exp(r) / mu
        z = 1.0 + w.sum()
        for i in range(k):
            assert ss.prob(LinkSet.from_ids([i], k)) == pytest.approx(
                w[i] / z, abs=1e-12)
        tau = expected_throughput(fam, params)
        assert tau == pytest.approx(w / z, abs=1e-12)

    def test_independent_links_factorize(self):
        # two links that never conflict: joint distribution is a product
        k = 2
        sets = tuple(LinkSet(b, k) for b in range(4))
        fam = FeasibleFamily(sets, k)
        params = RateParams(r=np.array([0.4, -1.0]), mu=np.array([1.0, 3.0]))
        ss = steady_state(fam, params)
        w = np.exp(params.r) / params.mu
        p_on = w / (1 + w)
        assert ss.prob(LinkSet.from_ids([0, 1], k)) == pytest.approx(
            p_on[0] * p_on[1], abs=1e-12)
        assert ss.prob(LinkSet(0, k)) == pytest.approx(
            (1 - p_on[0]) * (1 - p_on[1]), abs=1e-12)


class TestTransitionRates:
    def test_structure(self, triangle):
        topo, channel = triangle
        fam = enumerate_feasible(topo, channel)
        params = RateParams.uniform(3)
        q = transition_rates(fam, params)
        # activations from empty plus deactivations back, and pair moves
        empty = fam.ordinal(LinkSet(0, 3))
        ups = [pair for pair in q if pair[0] == empty]
        assert len(ups) == 3
        for (a, b), rate in q.items():
            assert rate > 0
            # single-link difference between the endpoint sets
            diff = fam.sets[a].bits ^ fam.sets[b].bits
            assert diff and diff & (diff - 1) == 0


class TestNumericalStability:
    def test_extreme_rates_stay_normalized(self, triangle):
        topo, channel = triangle
        fam = enumerate_feasible(topo, channel)
        params = RateParams(r=np.array([700.0, -700.0, 0.0]))
        ss = steady_state(fam, params)
        total = sum(ss.probs.values())
        assert total == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0 for p in ss.probs.values())

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_families_balance(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        topo = random_topology(rng, k)
        channel = build_channel_matrix(topo)
        fam = enumerate_feasible(topo, channel)
        params = RateParams(r=rng.uniform(-3, 3, size=k),
                            mu=rng.uniform(0.5, 2.0, size=k))
        ss = steady_state(fam, params)
        assert global_balance_residual(fam, params, ss) <= 1e-10
        assert detailed_balance_residual(fam, params, ss) <= 1e-12


class TestUnreachableMass:
    def test_isolated_set_gets_zero_probability(self):
        k = 2
        sets = (LinkSet(0, k), LinkSet.from_ids([0, 1], k))
        fam = FeasibleFamily(sets, k)
        ss = steady_state(fam, RateParams.uniform(k))
        assert ss.prob(LinkSet(0, k)) == pytest.approx(1.0)
        assert ss.prob(LinkSet.from_ids([0, 1], k)) == 0.0
        assert LinkSet.from_ids([0, 1], k) in ss.unreachable
