"""Continuous-time Markov chain over independent sets.

Activation of link i occurs at rate lambda_i = exp(r_i) whenever the
augmented set stays independent; an active link completes at rate mu_i.
The chain is reversible with a product-form stationary law: the weight of
a state is the product of lambda_i / mu_i over its active links.  The
states are the family's int bitmasks, and the law is an array aligned with
them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .phy import real_array
# ``eta`` and ``reachable_subfamily`` are not called here; perfbench/run.py
# wraps ``ctmc.eta`` and ``ctmc.reachable_subfamily`` to count calls.
from .setspace import (FeasibleFamily, bit_ids, eta,  # noqa: F401
                       reachable_subfamily)


def mean_times(rates: np.ndarray, message: str) -> list:
    """The mean times ``1 / rates`` as a list, refusing with ``message`` a
    rate that is not finite and positive or whose mean time is not finite.

    A positive rate below about 5.6e-309 has an infinite mean time.  The
    quotients are Python's, which are numpy's bit for bit and warn of
    nothing.
    """
    values = rates.tolist()
    if not all(0.0 < x < math.inf for x in values):
        raise ValueError(message)
    scale = [1.0 / x for x in values]
    if math.inf in scale:
        raise ValueError(message)
    return scale


@dataclass(frozen=True)
class RateParams:
    """Per-link aggressiveness exponents r (lambda = exp(r)) and service rates mu.

    Each mu must have a finite mean holding time 1 / mu.
    """

    r: np.ndarray
    mu: np.ndarray = None

    def __post_init__(self):
        r = real_array("r", self.r)
        mu = np.ones_like(r) if self.mu is None else real_array("mu", self.mu)
        if mu.shape != r.shape:
            raise ValueError("r and mu must have the same length")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(mu))):
            raise ValueError("r and mu must be finite")
        if np.any(mu <= 0):
            raise ValueError("service rates must be positive")
        mean_times(mu, "service rates must have finite mean holding times "
                       "1/mu")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "mu", mu)

    @property
    def lam(self) -> np.ndarray:
        return np.exp(self.r)

    @classmethod
    def uniform(cls, k: int) -> "RateParams":
        return cls(np.zeros(k))


@dataclass(frozen=True)
class SteadyState:
    """Stationary probabilities over the feasible sets, the chain's states.

    ``probs[n]`` is the probability of the member ``family.sets[n]``.
    """

    family: FeasibleFamily
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.shape != (len(self.family),):
            raise ValueError("need one probability per member of the family")
        # exactly rounded: a naive sum over 10^5 sets drifts past 1e-12
        total = math.fsum(probs.tolist())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if np.any(probs < 0):
            raise ValueError("negative probability")

    def throughput(self) -> np.ndarray:
        """Per-link stationary activity probability (long-run throughput)."""
        tau = [0.0] * self.family.width
        for bits, p in zip(self.family.sets, self.probs.tolist()):
            for i in bit_ids(bits):
                tau[i] += p
        return np.array(tau)


def steady_state(family: FeasibleFamily, params: RateParams) -> SteadyState:
    """Product-form stationary distribution, normalized in log space.

    The chain's state space is the family itself: a family is downward
    closed, so every member is reachable from the empty set by single-link
    additions, and every member carries mass.  A state's log weight sums
    the per-link weights ``r_i - log(mu_i)`` over its members in ascending
    link order, as a left fold from 0.0: the sum of the state without its
    top link, plus that link's weight.  (Python 3.12's ``sum`` of floats is
    compensated, so it is not that fold.)  scipy's ``logsumexp`` is
    imported on the first call, not with the package.
    """
    # imported here: about 48 MB and 0.5 s that K > 20 runs never use
    from scipy.special import logsumexp

    w = (params.r - np.log(params.mu)).tolist()
    # ascending members: a state's prefix, itself a member, comes first
    fold = {0: 0.0}
    for bits in family.sets[1:]:
        top = bits.bit_length() - 1
        fold[bits] = fold[bits ^ 1 << top] + w[top]
    logw = np.array(list(fold.values()))
    if not np.all(np.isfinite(logw)):
        raise ValueError("non-finite state weight; |r| too large")
    return SteadyState(family, np.exp(logw - logsumexp(logw)))


def _law(family: FeasibleFamily, q: SteadyState) -> dict:
    """Member bits -> stationary probability of ``q``, a law over ``family``."""
    if q.family != family:
        raise ValueError("the law is over another family")
    return dict(zip(family.sets, q.probs.tolist()))


def global_balance_residual(family: FeasibleFamily, params: RateParams,
                            q: SteadyState) -> float:
    """Max absolute violation of the global balance equations."""
    lam = params.lam
    prob = _law(family, q)
    worst = 0.0
    for bits, qd in prob.items():
        ids = tuple(bit_ids(bits))
        up = tuple(bit_ids(family.frontier[bits]))
        out_rate = sum(params.mu[i] for i in ids)
        out_rate += sum(lam[j] for j in up)
        inflow = sum(lam[i] * prob[bits & ~(1 << i)] for i in ids)
        inflow += sum(params.mu[j] * prob[bits | 1 << j] for j in up)
        worst = max(worst, abs(out_rate * qd - inflow))
    return worst


def detailed_balance_residual(family: FeasibleFamily, params: RateParams,
                              q: SteadyState) -> float:
    """Max absolute violation of pairwise detailed balance over chain edges."""
    lam = params.lam
    prob = _law(family, q)
    worst = 0.0
    for bits, qd in prob.items():
        for j in bit_ids(family.frontier[bits]):
            worst = max(worst, abs(params.mu[j] * prob[bits | 1 << j]
                                   - lam[j] * qd))
    return worst


def expected_throughput(family: FeasibleFamily, params: RateParams) -> np.ndarray:
    """Per-link stationary activity probability (long-run throughput)."""
    return steady_state(family, params).throughput()
