"""Rate adaptation: the update rule, the loop, and convergence diagnostics."""

import numpy as np
import pytest

from csma_sic import AdaptConfig, SimConfig, adapt_run, update_rates


class TestUpdateRule:
    def test_basic_step(self):
        r = update_rates([1.0, 2.0], 0.5, [0.8, 0.2], [0.5, 0.6])
        assert r == pytest.approx([1.15, 1.8])

    def test_projection_at_zero(self):
        r = update_rates([0.1], 1.0, [0.0], [0.9])
        assert r == pytest.approx([0.0])

    def test_cap(self):
        r = update_rates([24.9], 1.0, [1.0], [0.0], r_cap=25.0)
        assert r == pytest.approx([25.0])

    def test_bad_step(self):
        with pytest.raises(ValueError):
            update_rates([0.0], 0.0, [1.0], [1.0])

    @pytest.mark.parametrize("r_cap", [0.0, -1.0, float("nan")])
    def test_cap_must_be_positive(self, r_cap):
        # np.clip(step, 0, -1) would pin every exponent to -1
        with pytest.raises(ValueError, match="r_cap must be positive"):
            update_rates([0.5], 1.0, [1.0], [0.0], r_cap=r_cap)


class TestConfig:
    def test_step_schedule(self):
        cfg = AdaptConfig(target_rates=[0.5], step_a0=1.0, step_i0=10.0)
        assert cfg.step_size(0) == pytest.approx(1.0)
        assert cfg.step_size(10) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptConfig(target_rates=[-0.1])
        with pytest.raises(ValueError):
            AdaptConfig(target_rates=[0.5], update_period=0.0)
        with pytest.raises(ValueError):
            AdaptConfig(target_rates=[0.5], arrivals="bursty")

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    @pytest.mark.parametrize("name", ["update_period", "max_updates",
                                      "step_a0", "step_i0", "r_cap"])
    def test_non_finite_rejected(self, name, bad):
        with pytest.raises(ValueError):
            AdaptConfig(target_rates=[0.5], **{name: bad})

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, False, "5", None])
    def test_max_updates_must_be_integer(self, bad):
        # int(float(...)) used to turn 2.5 into 2 and True into 1
        with pytest.raises(ValueError, match="max_updates must be an integer"):
            AdaptConfig(target_rates=[0.5], max_updates=bad)

    def test_numpy_integer_max_updates_accepted(self):
        cfg = AdaptConfig(target_rates=[0.5], max_updates=np.int64(3))
        assert cfg.max_updates == 3 and type(cfg.max_updates) is int

    @pytest.mark.parametrize("r_cap", [0.0, -1.0])
    def test_r_cap_must_be_positive(self, r_cap):
        with pytest.raises(ValueError, match="r_cap must be positive"):
            AdaptConfig(target_rates=[0.5], r_cap=r_cap)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_target_rejected(self, bad):
        with pytest.raises(ValueError):
            AdaptConfig(target_rates=[0.5, bad])


class TestLoop:
    def test_target_inside_region_is_served(self, triangle):
        topo, channel = triangle
        cfg = AdaptConfig(target_rates=[0.4, 0.4, 0.4], update_period=100.0,
                          max_updates=150, step_a0=5.0, step_i0=1e18)
        trace = adapt_run(topo, channel, topo.phy, cfg,
                          SimConfig(horizon=1.0, seed=1, warmup=0.0))
        n = len(trace.times)
        tail = slice(3 * n // 4, n)
        service = trace.tau_emp[tail].mean(axis=0)
        assert np.all(service >= 0.37)
        # queues stay bounded: trailing-half slope is flat
        assert np.all(np.abs(trace.queue_slopes()) <= 5e-4)

    def test_target_outside_region_builds_queues(self, triangle):
        topo, channel = triangle
        cfg = AdaptConfig(target_rates=[0.9, 0.9, 0.9], update_period=100.0,
                          max_updates=100, step_a0=5.0, step_i0=1e18)
        trace = adapt_run(topo, channel, topo.phy, cfg,
                          SimConfig(horizon=1.0, seed=1, warmup=0.0))
        assert np.any(trace.queue_slopes() > 0.05)
        # the exponents hit the cap rather than blowing up
        assert np.all(trace.r <= 25.0)

    def test_deterministic_reproducible(self, triangle):
        topo, channel = triangle
        cfg = AdaptConfig(target_rates=[0.3, 0.3, 0.3], max_updates=20)
        sc = SimConfig(horizon=1.0, seed=4, warmup=0.0)
        a = adapt_run(topo, channel, topo.phy, cfg, sc)
        b = adapt_run(topo, channel, topo.phy, cfg, sc)
        assert np.array_equal(a.queues, b.queues)
        assert np.array_equal(a.r, b.r)

    def test_poisson_arrivals(self, triangle):
        topo, channel = triangle
        cfg = AdaptConfig(target_rates=[0.3, 0.3, 0.3], max_updates=50,
                          arrivals="poisson")
        trace = adapt_run(topo, channel, topo.phy, cfg,
                          SimConfig(horizon=1.0, seed=4, warmup=0.0))
        # arrival counts average out near the target
        assert trace.lambda_emp.mean(axis=0) == pytest.approx(
            [0.3, 0.3, 0.3], abs=0.05)

    def test_trace_shapes(self, triangle):
        topo, channel = triangle
        cfg = AdaptConfig(target_rates=[0.2, 0.2, 0.2], max_updates=10)
        trace = adapt_run(topo, channel, topo.phy, cfg,
                          SimConfig(horizon=1.0, seed=0, warmup=0.0))
        assert trace.times.shape == (10,)
        assert trace.r.shape == (10, 3)
        assert trace.queues.shape == (10, 3)
        assert np.all(np.diff(trace.times) > 0)
        assert np.all(trace.r >= 0)
