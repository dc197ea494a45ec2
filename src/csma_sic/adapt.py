"""Gradient adaptation of the per-link aggressiveness exponents.

Between updates the protocol runs with fixed rates; each update nudges
r_k by the step size times the measured arrival/service rate mismatch,
projected to stay nonnegative (and clamped at ``R_CAP`` for numeric
safety).  The mismatch is taken in busy time, packets per unit time over
``mu``: the units of the capacity region, in which it estimates the dual
gradient ``x - tau(r)``, so one step schedule serves every ``mu``.
Driving r this way steers the stationary throughput toward any target
inside the capacity region.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .ctmc import RateParams
from .phy import ChannelMatrix, NetworkTopology, real_array
from .setspace import FeasibleFamily
from .sim import Simulator

R_CAP = 25.0  # upper clamp on every exponent r


@dataclass(frozen=True)
class AdaptConfig:
    """Target rates and update schedule for the adaptation loop."""

    target_rates: np.ndarray
    update_period: float = 100.0
    max_updates: int = 500
    step_a0: float = 0.1
    step_i0: float = 100.0

    def __post_init__(self):
        x = real_array("target_rates", self.target_rates)
        if not np.all(np.isfinite(x)) or np.any(x < 0):
            raise ValueError("target rates must be finite and nonnegative")
        object.__setattr__(self, "target_rates", x)
        for name in ("update_period", "step_a0", "step_i0"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number")
            value = float(value)
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

    def queue_slopes(self) -> np.ndarray:
        """Least-squares slope of each virtual queue over the later half."""
        start = len(self.times) // 2
        t = self.times[start:]
        if len(t) < 2:
            return np.zeros(self.r.shape[1])
        a = np.vstack([t, np.ones_like(t)]).T
        coef, *_ = np.linalg.lstsq(a, self.queues[start:], rcond=None)
        return coef[0]


def update_rates(r_prev, alpha: float, lambda_emp, tau_emp) -> np.ndarray:
    """One projected-gradient step on the aggressiveness exponents.

    ``r_prev + alpha * (lambda_emp - tau_emp)``, clipped to ``[0, R_CAP]``.
    ``r_prev``, ``lambda_emp`` and ``tau_emp`` hold one entry per link each,
    so they must share one 1-D shape; ``alpha`` is a real number, not a
    bool, and a NaN or infinite step is refused.
    """
    if not isinstance(alpha, numbers.Real) or isinstance(alpha, bool):
        raise ValueError("alpha must be a real number")
    if not 0 < alpha < np.inf:
        raise ValueError("step size must be positive and finite")
    r_prev = real_array("r_prev", r_prev)
    lambda_emp = real_array("lambda_emp", lambda_emp)
    tau_emp = real_array("tau_emp", tau_emp)
    if (r_prev.ndim != 1 or lambda_emp.shape != r_prev.shape
            or tau_emp.shape != r_prev.shape):
        raise ValueError("r_prev, lambda_emp and tau_emp must be 1-D "
                         "with one entry per link each")
    return np.clip(r_prev + alpha * (lambda_emp - tau_emp), 0.0, R_CAP)


def adapt_run(topology: NetworkTopology, channel: ChannelMatrix,
              cfg: AdaptConfig, mu=None, seed: int = 0,
              family: FeasibleFamily = None) -> AdaptTrace:
    """Alternate simulation epochs with rate updates; divergence is data.

    Every exponent starts at r = 0.  Arrivals are virtual: a deterministic
    counter per link at the target rate.  Service is the count of packets
    completed in each epoch.  Virtual queues accumulate arrivals minus
    services, floored at zero.  The links hold the channel for the service
    rates ``mu``, or for unit time when it is None.  The update takes the
    arrival and service rates in busy time, divided by ``mu``; the trace
    keeps them in packets.  ``seed`` seeds the simulator, and ``family``,
    the network's ``enumerate_feasible``, its frontier cache (see
    ``Simulator``), which changes no value of the trace.  The PHY is
    ``topology.phy``.
    """
    k = topology.n_links
    x = cfg.target_rates
    if x.shape != (k,):
        raise ValueError("target_rates must have one entry per link")
    r = np.zeros(k)
    params = RateParams(r, mu)
    sim = Simulator(topology, channel, params=params, seed=seed,
                    family=family)
    queues = np.zeros(k)
    arrears = np.zeros(k)  # fractional arrivals carried across epochs
    served_before = sim.completed_total  # a fresh array on each read

    times, rs, lams, taus, qs = [], [], [], [], []
    for i in range(1, cfg.max_updates + 1):
        t_end = i * cfg.update_period
        sim.advance(t_end)
        served_total = sim.completed_total
        served = served_total - served_before
        served_before = served_total
        arrears += x * cfg.update_period
        arrivals = np.floor(arrears)
        arrears -= arrivals
        lam_emp = arrivals / cfg.update_period
        tau_emp = served / cfg.update_period
        queues = np.maximum(0.0, queues + arrivals - served)
        r = update_rates(r, cfg.step_size(i), lam_emp / params.mu,
                         tau_emp / params.mu)
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
