"""Rate adaptation: the update rule, the loop, and convergence diagnostics."""

import numpy as np
import pytest

from csma_sic import (AdaptConfig, RateParams, SimConfig, adapt_run,
                      update_rates)


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

    @pytest.mark.parametrize("alpha", [-1.0, float("nan"), float("inf")])
    def test_step_must_be_positive_and_finite(self, alpha):
        # a NaN or infinite step turned every exponent into NaN
        with pytest.raises(ValueError, match="step size must be positive"):
            update_rates([0.5], alpha, [1.0], [1.0])

    @pytest.mark.parametrize("r_cap", [0.0, -1.0, float("nan")])
    def test_cap_must_be_positive(self, r_cap):
        # np.clip(step, 0, -1) would pin every exponent to -1
        with pytest.raises(ValueError, match="r_cap must be positive"):
            update_rates([0.5], 1.0, [1.0], [0.0], r_cap=r_cap)


    @pytest.mark.parametrize("args", [
        (["0.5"], 1.0, [1.0], [0.0]),
        ([0.5], 1.0, [True], [0.0]),
        ([0.5], 1.0, [1.0], ["0"]),
        ([False], 1.0, [1.0], [0.0]),
        (["0.5"], 1.0, [True], ["0"]),
    ])
    def test_strings_and_bools_rejected(self, args):
        # np.asarray(..., dtype=float) read '0.5' as 0.5 and True as 1.0
        with pytest.raises(ValueError, match="must be real numbers"):
            update_rates(*args)

    def test_numpy_arrays_accepted(self):
        r = update_rates(np.array([1.0, 2.0]), 0.5, np.array([0.8, 0.2]),
                         np.array([1, 0], dtype=np.int64))
        assert r == pytest.approx([0.9, 2.1])

    @pytest.mark.parametrize("args", [
        ([0.5], 1.0, [1.0, 2.0], [0.0, 0.0]),
        ([0.5, 0.5], 1.0, [1.0], [0.0]),
        ([0.5, 0.5], 1.0, [1.0, 2.0], [0.0]),
        (0.5, 1.0, 1.0, 0.0),
        (np.array([[0.5]]), 1.0, np.array([[1.0]]), np.array([[0.0]])),
    ])
    def test_vectors_must_share_one_1d_shape(self, args):
        # broadcasting turned one link's exponent into two, or two into one
        with pytest.raises(ValueError, match="1-D with one entry per link"):
            update_rates(*args)

    @pytest.mark.parametrize("kwargs", [
        {"alpha": True}, {"alpha": "1.0"}, {"alpha": np.bool_(True)},
        {"r_cap": True}, {"r_cap": "25"},
    ])
    def test_scalars_must_be_real_numbers(self, kwargs):
        # alpha=True stepped by 1 and r_cap=True capped every exponent at 1
        args = {"r_prev": [0.5], "alpha": 1.0, "lambda_emp": [1.0],
                "tau_emp": [0.0], **kwargs}
        with pytest.raises(ValueError, match="must be a real number"):
            update_rates(**args)

    def test_numpy_scalars_accepted(self):
        r = update_rates([0.5], np.float64(0.5), [1.0], [0.0],
                         r_cap=np.int64(1))
        assert r == pytest.approx([1.0])


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

    @pytest.mark.parametrize("kwargs", [
        {"target_rates": ["0.3", "0.3"]},
        {"target_rates": [0.3, True]},
        {"target_rates": np.array([True])},
        {"target_rates": [0.3], "update_period": "100"},
        {"target_rates": [0.3], "step_a0": True},
        {"target_rates": [0.3], "step_i0": "1e3"},
        {"target_rates": [0.3], "r_cap": False},
    ])
    def test_strings_and_bools_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be (a )?real number"):
            AdaptConfig(**kwargs)

    def test_numpy_scalars_accepted(self):
        cfg = AdaptConfig(target_rates=np.array([0.3]),
                          update_period=np.float64(50), step_a0=np.int64(2))
        assert (cfg.update_period, cfg.step_a0) == (50.0, 2.0)
        assert type(cfg.step_a0) is float


class TestLoop:
    def test_target_inside_region_is_served(self, triangle):
        topo, channel = triangle
        cfg = AdaptConfig(target_rates=[0.4, 0.4, 0.4], update_period=100.0,
                          max_updates=150, step_a0=5.0, step_i0=1e18)
        trace = adapt_run(topo, channel, cfg,
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
        trace = adapt_run(topo, channel, cfg,
                          SimConfig(horizon=1.0, seed=1, warmup=0.0))
        assert np.any(trace.queue_slopes() > 0.05)
        # the exponents hit the cap rather than blowing up
        assert np.all(trace.r <= 25.0)

    def test_deterministic_reproducible(self, triangle):
        topo, channel = triangle
        cfg = AdaptConfig(target_rates=[0.3, 0.3, 0.3], max_updates=20)
        sc = SimConfig(horizon=1.0, seed=4, warmup=0.0)
        a = adapt_run(topo, channel, cfg, sc)
        b = adapt_run(topo, channel, cfg, sc)
        assert np.array_equal(a.queues, b.queues)
        assert np.array_equal(a.r, b.r)

    def test_poisson_arrivals(self, triangle):
        topo, channel = triangle
        cfg = AdaptConfig(target_rates=[0.3, 0.3, 0.3], max_updates=50,
                          arrivals="poisson")
        trace = adapt_run(topo, channel, cfg,
                          SimConfig(horizon=1.0, seed=4, warmup=0.0))
        # arrival counts average out near the target
        assert trace.lambda_emp.mean(axis=0) == pytest.approx(
            [0.3, 0.3, 0.3], abs=0.05)

    def test_service_rates_honoured(self, triangle):
        # a link holds the channel for 1 / mu, so at mu = 2 it serves the
        # same packets in half the busy time and the exponents move less
        topo, channel = triangle
        cfg = AdaptConfig(target_rates=[0.4, 0.4, 0.4], max_updates=20,
                          step_a0=5.0, step_i0=1e18)
        runs = {}
        for mu in (1.0, 2.0):
            params = RateParams(np.zeros(3), np.full(3, mu))
            runs[mu] = adapt_run(topo, channel, cfg,
                                 SimConfig(horizon=1.0, seed=1, warmup=0.0,
                                           params=params))
        unit = adapt_run(topo, channel, cfg,
                         SimConfig(horizon=1.0, seed=1, warmup=0.0))
        assert np.array_equal(runs[1.0].r, unit.r)
        assert not np.array_equal(runs[2.0].r, runs[1.0].r)
        assert runs[2.0].r[-1].mean() < runs[1.0].r[-1].mean()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_service_rates_converge_to_own_target(self, triangle, seed):
        """At mu = 2 a packet keeps a link busy for 1/2, so one packet per
        unit time is the busy-time point 0.5 of the committed triangle
        scenario at mu = 1.  (Half a packet, busy 0.25, lies below the
        r = 0 throughput of 0.615 packets, which the projection onto
        r >= 0 cannot go under.)  The served count moves twice as fast in
        r as at mu = 1, so the step is halved with it: at 5.0 the exponents
        swing between 0 and about 4 and the service overshoots by 2.6-8.9%
        (seeds 100-119).  Band:
        over seeds 100-119 the final-quarter mean service of each link lay
        within 0.0045 of the target (sd 0.0017)."""
        topo, channel = triangle
        cfg = AdaptConfig(target_rates=[1.0, 1.0, 1.0], update_period=100.0,
                          max_updates=300, step_a0=2.5, step_i0=1e18)
        params = RateParams(np.zeros(3), np.full(3, 2.0))
        trace = adapt_run(topo, channel, cfg,
                          SimConfig(horizon=1.0, seed=seed, warmup=0.0,
                                    params=params))
        n = len(trace.times)
        service = trace.tau_emp[3 * n // 4:].mean(axis=0)
        assert np.all(np.abs(service - 1.0) <= 0.01)

    def test_trace_shapes(self, triangle):
        topo, channel = triangle
        cfg = AdaptConfig(target_rates=[0.2, 0.2, 0.2], max_updates=10)
        trace = adapt_run(topo, channel, cfg,
                          SimConfig(horizon=1.0, seed=0, warmup=0.0))
        assert trace.times.shape == (10,)
        assert trace.r.shape == (10, 3)
        assert trace.queues.shape == (10, 3)
        assert np.all(np.diff(trace.times) > 0)
        assert np.all(trace.r >= 0)
