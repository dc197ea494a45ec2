"""Gradient adaptation of the per-link aggressiveness exponents.

Between updates the protocol runs with fixed rates; each update nudges
r_k by the step size times the measured arrival/service rate mismatch,
projected to stay nonnegative (and clamped above for numeric safety).
Driving r this way steers the stationary throughput toward any target
inside the capacity region.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .ctmc import RateParams
from .phy import ChannelMatrix, NetworkTopology, PhyConfig
from .sim import SimConfig, Simulator


@dataclass(frozen=True)
class AdaptConfig:
    """Target rates and update schedule for the adaptation loop."""

    target_rates: np.ndarray
    update_period: float = 100.0
    max_updates: int = 500
    step_a0: float = 0.1
    step_i0: float = 100.0
    r_cap: float = 25.0
    arrivals: str = "deterministic"  # or "poisson"

    def __post_init__(self):
        x = np.asarray(self.target_rates, dtype=float)
        if not np.all(np.isfinite(x)) or np.any(x < 0):
            raise ValueError("target rates must be finite and nonnegative")
        object.__setattr__(self, "target_rates", x)
        for name in ("update_period", "step_a0", "step_i0", "r_cap"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if (not isinstance(self.max_updates, numbers.Integral)
                or isinstance(self.max_updates, bool)):
            raise ValueError("max_updates must be an integer")
        object.__setattr__(self, "max_updates", int(self.max_updates))
        if self.update_period <= 0 or self.max_updates <= 0:
            raise ValueError("update_period and max_updates must be positive")
        if self.step_a0 <= 0 or self.step_i0 <= 0:
            raise ValueError("step schedule parameters must be positive")
        if self.r_cap <= 0:
            raise ValueError("r_cap must be positive")
        if self.arrivals not in ("deterministic", "poisson"):
            raise ValueError("arrivals must be 'deterministic' or 'poisson'")

    def step_size(self, i: int) -> float:
        """Diminishing step schedule a0 / (1 + i / i0)."""
        return self.step_a0 / (1.0 + i / self.step_i0)


@dataclass(frozen=True)
class AdaptTrace:
    """Per-update history of one adaptation run."""

    times: np.ndarray          # t_i, end of each epoch
    r: np.ndarray              # (updates, K) exponents after each update
    lambda_emp: np.ndarray     # (updates, K) measured arrival rates
    tau_emp: np.ndarray        # (updates, K) measured service rates
    queues: np.ndarray         # (updates, K) virtual queue lengths

    def queue_slopes(self, tail_fraction: float = 0.5) -> np.ndarray:
        """Least-squares slope of each virtual queue over the trailing window."""
        n = len(self.times)
        start = max(0, int(n * (1.0 - tail_fraction)))
        t = self.times[start:]
        if len(t) < 2:
            return np.zeros(self.r.shape[1])
        a = np.vstack([t, np.ones_like(t)]).T
        coef, *_ = np.linalg.lstsq(a, self.queues[start:], rcond=None)
        return coef[0]


def update_rates(r_prev, alpha: float, lambda_emp, tau_emp,
                 r_cap: float = 25.0) -> np.ndarray:
    """One projected-gradient step on the aggressiveness exponents."""
    if alpha <= 0:
        raise ValueError("step size must be positive")
    if not r_cap > 0:
        raise ValueError("r_cap must be positive")
    r_prev = np.asarray(r_prev, dtype=float)
    step = r_prev + alpha * (np.asarray(lambda_emp, float) - np.asarray(tau_emp, float))
    return np.clip(step, 0.0, r_cap)


def adapt_run(topology: NetworkTopology, channel: ChannelMatrix, phy: PhyConfig,
              cfg: AdaptConfig, sim_cfg: SimConfig) -> AdaptTrace:
    """Alternate simulation epochs with rate updates; divergence is data.

    Arrivals are virtual: a deterministic (or Poisson) counter per link at
    the target rate.  Service is the count of packets completed in each
    epoch.  Virtual queues accumulate arrivals minus services, floored at
    zero.
    """
    k = topology.n_links
    x = cfg.target_rates
    if x.shape != (k,):
        raise ValueError("target_rates must have one entry per link")
    r = np.zeros(k)
    sim = Simulator(topology, channel, phy=phy, params=RateParams(r),
                    seed=sim_cfg.seed, warmup=0.0)
    arr_rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=sim_cfg.seed, spawn_key=(0xA881,))))
    queues = np.zeros(k)
    arrears = np.zeros(k)  # fractional arrivals carried across epochs
    served_before = sim.completed_total.copy()

    times, rs, lams, taus, qs = [], [], [], [], []
    for i in range(1, cfg.max_updates + 1):
        t_end = i * cfg.update_period
        sim.advance(t_end)
        served = sim.completed_total - served_before
        served_before = sim.completed_total.copy()
        if cfg.arrivals == "deterministic":
            arrears += x * cfg.update_period
            arrivals = np.floor(arrears)
            arrears -= arrivals
        else:
            arrivals = arr_rng.poisson(x * cfg.update_period).astype(float)
        lam_emp = arrivals / cfg.update_period
        tau_emp = served / cfg.update_period
        queues = np.maximum(0.0, queues + arrivals - served)
        r = update_rates(r, cfg.step_size(i), lam_emp, tau_emp, cfg.r_cap)
        sim.set_rates(np.exp(r))
        times.append(t_end)
        rs.append(r.copy())
        lams.append(lam_emp)
        taus.append(tau_emp)
        qs.append(queues.copy())

    return AdaptTrace(
        times=np.array(times),
        r=np.array(rs),
        lambda_emp=np.array(lams),
        tau_emp=np.array(taus),
        queues=np.array(qs),
    )
