"""Steady-state distribution of the set-valued jump process."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csma_sic import (FeasibleFamily, RateParams, build_channel_matrix,
                      SteadyState, detailed_balance_residual,
                      enumerate_feasible, expected_throughput,
                      global_balance_residual, load_scenario,
                      reachable_subfamily, steady_state)
from csma_sic.setspace import bit_ids
from conftest import random_topology
import scalar_reference as ref

ROOT = Path(__file__).resolve().parent.parent


def chain_family(k):
    """Family of the empty set and all singletons."""
    return FeasibleFamily((0,) + tuple(1 << i for i in range(k)), k)


def prob(ss, bits):
    """Stationary probability of the member ``bits``."""
    return ss.probs[ss.family.index(bits)]


class TestRateParams:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            RateParams(r=np.array([0.0, bad]))
        with pytest.raises(ValueError):
            RateParams(r=np.zeros(2), mu=np.array([1.0, bad]))

    @pytest.mark.parametrize("r, mu", [
        (["0.5", 0.0], None),
        ([0.5, True], None),  # np.asarray makes this float64 [0.5, 1.0]
        (np.array([True, False]), None),
        (np.array(["0.5", "1"]), None),
        ("0.5", None),
        (True, None),
        ([0.0, 0.0], [1.0, "2"]),
        ([0.0, 0.0], (1.0, False)),
    ])
    def test_strings_and_bools_rejected(self, r, mu):
        with pytest.raises(ValueError, match="must be real numbers"):
            RateParams(r=r, mu=mu)

    @pytest.mark.parametrize("mu", [1.0e-320, 5.0e-324, 5.0e-309])
    def test_mu_without_finite_mean_refused(self, mu):
        """A positive mu below about 5.6e-309 has an infinite mean holding
        time 1 / mu, which gave an infinite first holding time; it is
        refused, and numpy warns of nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="service rates must have "
                                                 "finite mean holding times"):
                RateParams(r=np.zeros(2), mu=[1.0, mu])

    def test_smallest_mu_with_finite_mean_accepted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = RateParams(r=np.zeros(2), mu=[1.0, 1.0e-308])
        assert np.all(np.isfinite(1.0 / params.mu))

    def test_real_numbers_accepted(self):
        params = RateParams(r=[0, np.float64(0.5), np.int64(1)],
                            mu=np.array([1, 2, 3]))
        assert params.r.tolist() == [0.0, 0.5, 1.0]
        assert params.r.dtype == params.mu.dtype == np.float64


class TestRateLength:
    """On the 3-link triangle, 5 rates were cut to the first 3 and 2 rates
    raised ``IndexError``; each is refused."""

    @pytest.mark.parametrize("k", [2, 5, 0])
    def test_rates_for_another_width_refused(self, triangle, k):
        fam = enumerate_feasible(*triangle)
        ss = steady_state(fam, RateParams.uniform(3))
        params = RateParams.uniform(k)
        message = f"the rates are for {k} links, the family's width is 3"
        with pytest.raises(ValueError, match=message):
            steady_state(fam, params)
        with pytest.raises(ValueError, match=message):
            expected_throughput(fam, params)
        for residual in (global_balance_residual, detailed_balance_residual):
            with pytest.raises(ValueError, match=message):
                residual(fam, params, ss)


class TestTriangleSteadyState:
    def test_uniform_at_zero_rates(self, triangle):
        topo, channel = triangle
        fam = enumerate_feasible(topo, channel)
        ss = steady_state(fam, RateParams.uniform(3))
        assert ss.family is fam
        assert ss.probs.tolist() == pytest.approx([1 / 7] * 7, abs=1e-12)

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
        assert prob(ss, 0b1) == pytest.approx(
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
            assert prob(ss, 1 << i) == pytest.approx(
                w[i] / z, abs=1e-12)
        tau = expected_throughput(fam, params)
        assert tau == pytest.approx(w / z, abs=1e-12)

    def test_independent_links_factorize(self):
        # two links that never conflict: joint distribution is a product
        k = 2
        fam = FeasibleFamily(tuple(range(4)), k)
        params = RateParams(r=np.array([0.4, -1.0]), mu=np.array([1.0, 3.0]))
        ss = steady_state(fam, params)
        w = np.exp(params.r) / params.mu
        p_on = w / (1 + w)
        assert prob(ss, 0b11) == pytest.approx(
            p_on[0] * p_on[1], abs=1e-12)
        assert prob(ss, 0) == pytest.approx(
            (1 - p_on[0]) * (1 - p_on[1]), abs=1e-12)


class TestNumericalStability:
    def test_log_weights_are_a_left_fold(self):
        """A state's log weight adds its links' weights ``r_i - log(mu_i)``
        one at a time in ascending link order, from 0.0.  Python 3.12's
        ``sum`` of floats is compensated and rounds some of these sums
        otherwise; so does ``math.fsum``, which some states here show."""
        k = 6
        fam = FeasibleFamily(tuple(range(1 << k)), k)
        rng = np.random.default_rng(11)
        params = RateParams(r=rng.uniform(-3, 3, size=k),
                            mu=rng.uniform(0.2, 5.0, size=k))
        w = (params.r - np.log(params.mu)).tolist()
        logw = ref.log_weights(fam, params).tolist()
        assert any(total != math.fsum(w[i] for i in range(k) if bits >> i & 1)
                   for bits, total in zip(fam.sets.tolist(), logw))
        assert np.array_equal(steady_state(fam, params).probs,
                              ref.steady_probs(fam, params))

    def test_extreme_rates_stay_normalized(self, triangle):
        topo, channel = triangle
        fam = enumerate_feasible(topo, channel)
        params = RateParams(r=np.array([700.0, -700.0, 0.0]))
        ss = steady_state(fam, params)
        total = sum(ss.probs.tolist())
        assert total == pytest.approx(1.0, abs=1e-12)
        assert np.all(ss.probs >= 0)

    def test_total_checked_with_exact_sum(self):
        # 10^5 equal probabilities sum to 1 + 1.1e-16 exactly, but a naive
        # running sum drifts by 1.9e-12, past the 1e-12 tolerance
        n = 100_000
        fam = FeasibleFamily(tuple(range(n)), 17)
        probs = np.full(n, 1.0 / n)
        assert abs(sum(probs.tolist()) - 1.0) > 1e-12
        SteadyState(fam, probs)
        probs[0] += 1e-11
        with pytest.raises(ValueError, match="probabilities sum to"):
            SteadyState(fam, probs)

    def test_one_probability_per_member(self):
        fam = chain_family(2)
        with pytest.raises(ValueError, match="one probability per member"):
            SteadyState(fam, [0.5, 0.5])
        with pytest.raises(ValueError, match="negative probability"):
            SteadyState(fam, [0.5, 0.75, -0.25])

    def test_residuals_refuse_a_law_over_another_family(self):
        params = RateParams.uniform(2)
        ss = steady_state(chain_family(2), params)
        other = FeasibleFamily(tuple(range(4)), 2)
        for residual in (global_balance_residual, detailed_balance_residual):
            with pytest.raises(ValueError, match="another family"):
                residual(other, params, ss)

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



@pytest.fixture(scope="module")
def rng8_family():
    """The partial-range rng 8 topology of ``TestSparseRange``: K = 20 and
    105,648 independent sets, enumerated with the compiled ``joins``."""
    rng = np.random.default_rng(8)
    topo = random_topology(rng, int(rng.integers(8, 26)), radius=6.0,
                           area=20.0)
    return ref.enumerate_by_joins(topo, build_channel_matrix(topo))


class TestFamilyAtScale:
    """The exact engine's array steps on a family of 10^5 sets equal the
    scalar folds of ``scalar_reference`` bit for bit."""

    def test_joins_enumeration_matches_the_package(self):
        scn = load_scenario(ROOT / "scenarios" / "sparse-k10.yaml")
        assert (ref.enumerate_by_joins(scn.topology, scn.channel)
                == enumerate_feasible(scn.topology, scn.channel))

    def test_closed_under_dropping_a_link(self, rng8_family):
        fam = rng8_family
        assert (len(fam), fam.width) == (105_648, 20)
        members = fam.sets.tolist()
        inside = set(members)
        assert all(bits ^ 1 << i in inside
                   for bits in members for i in bit_ids(bits))
        assert reachable_subfamily(fam)[1].size == 0

    def test_frontier_and_vectors(self, rng8_family):
        fam = rng8_family
        assert fam.frontier.tolist() == ref.frontier(fam)
        assert np.array_equal(fam.vectors(), ref.vectors(fam))

    def test_law_and_throughput(self, rng8_family):
        fam = rng8_family
        rng = np.random.default_rng(3)
        params = RateParams(r=rng.uniform(-1.0, 1.5, size=fam.width),
                            mu=rng.uniform(0.5, 2.0, size=fam.width))
        ss = steady_state(fam, params)
        assert np.array_equal(ss.probs, ref.steady_probs(fam, params))
        assert np.array_equal(ss.throughput(),
                              ref.throughput(fam, ss.probs))
        assert global_balance_residual(fam, params, ss) <= 1e-10
        assert detailed_balance_residual(fam, params, ss) <= 1e-12
