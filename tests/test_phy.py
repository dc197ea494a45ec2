"""Channel construction and the staged SIC decode oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csma_sic import (NetworkTopology, PhyConfig, build_channel_matrix,
                      sic_decodable)
from conftest import gain_matrix


def two_node_topology(distance, phy=None):
    phy = phy or PhyConfig(radius=10.0)
    return NetworkTopology(((0, 0.0, 0.0), (1, distance, 0.0)), ((0, 0, 1),), phy)


class TestChannelMatrix:
    def test_unit_distance(self):
        ch = build_channel_matrix(two_node_topology(1.0))
        assert ch.gain(0, 1) == 1.0

    def test_inverse_cube(self):
        ch = build_channel_matrix(two_node_topology(2.0))
        assert ch.gain(0, 1) == pytest.approx(0.125)

    def test_near_field_clamp(self):
        ch = build_channel_matrix(two_node_topology(0.5))
        assert ch.gain(0, 1) == 1.0

    def test_symmetric_zero_diagonal(self):
        topo = two_node_topology(3.0)
        ch = build_channel_matrix(topo)
        assert np.allclose(ch.g, ch.g.T)
        assert np.all(np.diag(ch.g) == 0.0)


    def test_no_nodes(self):
        # np.array([]) has shape (0,), which cannot be indexed as (n, 2)
        ch = build_channel_matrix(NetworkTopology((), ()))
        assert ch.g.shape == (0, 0)


class TestSicDecodable:
    def test_single_signal_above_threshold(self):
        # P*g/n0 = 2*beta: comfortably decodable alone
        phy = PhyConfig(noise_power=0.25, sinr_threshold=2.0)
        ch = gain_matrix(2, {(0, 1): 1.0})
        assert sic_decodable(0, 1, {0}, ch, phy)

    def test_equal_gains_block_each_other(self):
        phy = PhyConfig(noise_power=0.01, sinr_threshold=1.0)
        ch = gain_matrix(3, {(0, 2): 0.5, (1, 2): 0.5})
        assert not sic_decodable(0, 2, {0, 1}, ch, phy)
        assert not sic_decodable(1, 2, {0, 1}, ch, phy)

    def test_staged_cancellation(self):
        # gains [4, 1] at the receiver, n0/P = 0.1, z = 1, beta = 2:
        # stage 1: 4 / 1.1 = 3.64 >= 2, stage 2: 1 / 0.1 = 10 >= 2
        phy = PhyConfig(noise_power=0.1, sinr_threshold=2.0, cancel_fraction=1.0)
        ch = gain_matrix(3, {(0, 2): 4.0, (1, 2): 1.0})
        assert sic_decodable(1, 2, {0, 1}, ch, phy)
        assert sic_decodable(0, 2, {0, 1}, ch, phy)

    def test_partial_cancellation_can_block(self):
        # same numbers but z = 0.5: stage 2 sees 1 / (0.1 + 2) < 2
        phy = PhyConfig(noise_power=0.1, sinr_threshold=2.0, cancel_fraction=0.5)
        ch = gain_matrix(3, {(0, 2): 4.0, (1, 2): 1.0})
        assert not sic_decodable(1, 2, {0, 1}, ch, phy)

    def test_caller_bug_rejected(self):
        phy = PhyConfig(noise_power=0.1)
        ch = gain_matrix(2, {(0, 1): 1.0})
        with pytest.raises(ValueError):
            sic_decodable(0, 1, set(), ch, phy)

    def test_equal_gain_tie_break_deterministic(self):
        # two equal-gain signals, decodable with beta < 1: both orders work,
        # but the verdict must be reproducible
        phy = PhyConfig(noise_power=0.01, sinr_threshold=0.5)
        ch = gain_matrix(3, {(0, 2): 0.5, (1, 2): 0.5})
        results = {sic_decodable(0, 2, {0, 1}, ch, phy) for _ in range(10)}
        assert len(results) == 1

    def test_per_link_thresholds_need_a_mapping(self):
        # link 1 alone has SINR 10: enough for link 0's threshold, not its own
        phy = PhyConfig(noise_power=0.1, sinr_threshold=(0.5, 200.0))
        ch = gain_matrix(4, {(0, 1): 1.0, (2, 3): 1.0})
        with pytest.raises(ValueError):
            sic_decodable(2, 3, {2}, ch, phy)
        assert not sic_decodable(2, 3, {2}, ch, phy, {2: 200.0})


def _random_receiver_case(rng, n_signals):
    gains = rng.uniform(0.01, 5.0, size=n_signals)
    phy = PhyConfig(
        noise_power=float(rng.uniform(0.0, 0.5)),
        sinr_threshold=float(rng.uniform(0.3, 3.0)),
        cancel_fraction=float(rng.uniform(0.0, 1.0)),
        far_interference=float(rng.choice([0.0, 0.1])),
    )
    rx = n_signals
    ch = gain_matrix(n_signals + 1, {(i, rx): g for i, g in enumerate(gains)})
    return gains, phy, ch, rx


class TestProperties:
    def test_ordering_monotonicity(self):
        # whenever a signal decodes, every stronger signal decodes too
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            gains, phy, ch, rx = _random_receiver_case(rng, n)
            active = set(range(n))
            decodable = {i: sic_decodable(i, rx, active, ch, phy) for i in active}
            for i in active:
                if decodable[i]:
                    for j in active:
                        if gains[j] >= gains[i]:
                            assert decodable[j]

    def test_interference_monotonicity_restricted(self):
        # an extra transmitter never flips false -> true when z < 1
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            gains, phy, ch, rx = _random_receiver_case(rng, n)
            if phy.cancel_fraction >= 1.0:
                phy = PhyConfig(
                    noise_power=phy.noise_power,
                    sinr_threshold=phy.sinr_threshold,
                    cancel_fraction=0.9,
                    far_interference=phy.far_interference,
                )
            active = set(range(n - 1))
            target = int(rng.integers(0, n - 1))
            before = sic_decodable(target, rx, active, ch, phy)
            after = sic_decodable(target, rx, active | {n - 1}, ch, phy)
            if not before:
                assert not after

    def test_far_interference_conservative(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            gains, phy, ch, rx = _random_receiver_case(rng, n)
            raised = PhyConfig(
                noise_power=phy.noise_power,
                sinr_threshold=phy.sinr_threshold,
                cancel_fraction=phy.cancel_fraction,
                far_interference=phy.far_interference + 0.2,
            )
            target = int(rng.integers(0, n))
            if not sic_decodable(target, rx, set(range(n)), ch, phy):
                assert not sic_decodable(target, rx, set(range(n)), ch, raised)

    @given(scale=st.floats(min_value=1e-6, max_value=1e6),
           noise=st.floats(min_value=0.0, max_value=1.0),
           beta=st.floats(min_value=0.1, max_value=5.0),
           seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, scale, noise, beta, seed):
        # only n0 / P enters the decode decision
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        gains = rng.uniform(0.01, 5.0, size=n)
        ch = gain_matrix(n + 1, {(i, n): g for i, g in enumerate(gains)})
        base = PhyConfig(tx_power=1.0, noise_power=noise, sinr_threshold=beta)
        scaled = PhyConfig(tx_power=scale, noise_power=noise * scale,
                           sinr_threshold=beta)
        target = int(rng.integers(0, n))
        assert (sic_decodable(target, n, set(range(n)), ch, base)
                == sic_decodable(target, n, set(range(n)), ch, scaled))


class TestValidation:
    def test_phy_invariants(self):
        with pytest.raises(ValueError):
            PhyConfig(tx_power=0.0)
        with pytest.raises(ValueError):
            PhyConfig(cancel_fraction=1.5)
        with pytest.raises(ValueError):
            PhyConfig(sinr_threshold=-1.0)
        with pytest.raises(ValueError):
            PhyConfig(radius=0.0)

    @pytest.mark.parametrize("field", ["tx_power", "noise_power",
                                       "sinr_threshold", "far_interference",
                                       "radius", "path_loss_exponent"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_phy_non_finite_rejected(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            PhyConfig(**{field: bad})

    def test_phy_non_finite_per_link_threshold_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PhyConfig(sinr_threshold=(1.0, math.nan))

    @pytest.mark.parametrize("field", ["tx_power", "noise_power",
                                       "sinr_threshold", "cancel_fraction",
                                       "radius", "far_interference",
                                       "path_loss_exponent"])
    @pytest.mark.parametrize("bad", ["2.0", True, False])
    def test_phy_str_and_bool_rejected(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be"):
            PhyConfig(**{field: bad})

    @pytest.mark.parametrize("betas", [("2", 1.0), [2.0, True],
                                       np.array(["2", "1"])])
    def test_phy_per_link_threshold_must_be_real(self, betas):
        with pytest.raises(ValueError, match="sinr_threshold must be real"):
            PhyConfig(sinr_threshold=betas)

    def test_phy_per_link_threshold_must_be_flat(self):
        with pytest.raises(ValueError, match="flat sequence"):
            PhyConfig(sinr_threshold=np.array([[2.0, 1.5]]))

    @pytest.mark.parametrize("betas", [(2, 1.5), [2, 1.5],
                                       np.array([2, 1.5]),
                                       np.array([2, 3], dtype=np.int64)])
    def test_phy_per_link_threshold_stored_as_float_tuple(self, betas):
        stored = PhyConfig(sinr_threshold=betas).sinr_threshold
        assert stored == tuple(float(b) for b in betas)
        assert all(type(b) is float for b in stored)

    @pytest.mark.parametrize("exponent", [0.0, -1.0])
    def test_phy_path_loss_must_decrease(self, exponent):
        # in_range_gain assumes gain strictly decreases with distance
        with pytest.raises(ValueError, match="path_loss_exponent"):
            PhyConfig(path_loss_exponent=exponent)

    @pytest.mark.parametrize("pos", [(math.nan, 0.0), (0.0, math.inf),
                                     (-math.inf, 0.0)])
    def test_topology_non_finite_position_rejected(self, pos):
        phy = PhyConfig(radius=10.0)
        nodes = ((0, 0.0, 0.0), (1, 1.0, 0.0), (2, *pos))
        with pytest.raises(ValueError, match="finite"):
            NetworkTopology(nodes, ((0, 0, 1),), phy)

    def test_topology_invariants(self):
        phy = PhyConfig(radius=10.0)
        with pytest.raises(ValueError):  # self loop
            NetworkTopology(((0, 0.0, 0.0), (1, 1.0, 0.0)), ((0, 0, 0),), phy)
        with pytest.raises(ValueError):  # link longer than the radius
            NetworkTopology(((0, 0.0, 0.0), (1, 20.0, 0.0)), ((0, 0, 1),), phy)
        with pytest.raises(ValueError):  # duplicate position
            NetworkTopology(((0, 0.0, 0.0), (1, 0.0, 0.0)), ((0, 0, 1),), phy)
        with pytest.raises(ValueError):  # non-dense link ids
            NetworkTopology(((0, 0.0, 0.0), (1, 1.0, 0.0)), ((1, 0, 1),), phy)

    @pytest.mark.parametrize("tx, rx", [(1, -1), (0, 7), (-3, 1), (2, 1)])
    def test_topology_endpoint_must_be_a_node(self, tx, rx):
        # a negative index would alias the last node; a large one would
        # escape as an IndexError
        phy = PhyConfig(radius=10.0)
        nodes = ((0, 0.0, 0.0), (1, 1.0, 0.0))
        with pytest.raises(ValueError,
                           match="link 0: endpoints must be node ids"):
            NetworkTopology(nodes, ((0, tx, rx),), phy)
