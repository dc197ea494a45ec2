"""Continuous-time Markov chain over independent sets.

Activation of link i occurs at rate lambda_i = exp(r_i) whenever the
augmented set stays independent; an active link completes at rate mu_i.
The chain is reversible with a product-form stationary law: the weight of
a state is the product of lambda_i / mu_i over its active links.  The
states are the family's int bitmasks, and the law is an array aligned with
them.  Each step over the states is a fixed number of array operations on
the family's (K, m) link matrix, whatever K and m are.  The log weights
and the throughput are left folds from 0.0 in the order a loop over links
and sets would add them (one vector add per link, and ``cumsum`` along the
set axis), where each absent link adds an exact ``+0.0``; so the law and
the throughput are bit for bit those of that loop.  The balance residuals are
diagnostics and sum in numpy's order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .phy import real_array
# ``eta`` and ``reachable_subfamily`` are not called here; perfbench/run.py
# wraps ``ctmc.eta`` and ``ctmc.reachable_subfamily`` to count calls.
from .setspace import FeasibleFamily, eta, reachable_subfamily  # noqa: F401


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
        """Per-link stationary activity probability (long-run throughput).

        Link i's entry adds the probabilities of the members holding it in
        ascending member order, a left fold from 0.0 over the whole family
        in which each member without i adds an exact ``+0.0``.
        """
        held = np.where(self.family.links(), self.probs, 0.0)
        return _left_fold(held, axis=1)


def _left_fold(terms: np.ndarray, axis: int) -> np.ndarray:
    """``terms`` summed along ``axis``, each sum a left fold in index order.

    ``cumsum`` adds one term at a time, and ``x + 0.0`` is ``x``, so the
    last partial sum is the scalar fold from 0.0 bit for bit (up to the
    sign of a zero sum).  An empty axis sums to zeros.
    """
    if not terms.shape[axis]:
        return terms.sum(axis=axis)
    return terms.cumsum(axis=axis).take(-1, axis=axis)


def _check_rates(family: FeasibleFamily, params: RateParams) -> None:
    """Refuse rate parameters without one entry per link of ``family``."""
    if params.r.shape != (family.width,):
        raise ValueError(f"the rates are for {params.r.size} links, the "
                         f"family's width is {family.width}")


def steady_state(family: FeasibleFamily, params: RateParams) -> SteadyState:
    """Product-form stationary distribution, normalized in log space.

    The chain's state space is the family itself: a family is downward
    closed, so every member is reachable from the empty set by single-link
    additions, and every member carries mass.  A state's log weight sums
    the per-link weights ``r_i - log(mu_i)`` over its members in ascending
    link order, as a left fold from 0.0: one vector add per link, where
    each link outside the state adds an exact ``+0.0``.  (Python 3.12's
    ``sum`` of floats is compensated, so it is not that fold.)  scipy's
    ``logsumexp`` is imported on the first call, not with the package.
    """
    # imported here: about 48 MB and 0.5 s that K > 20 runs never use
    from scipy.special import logsumexp

    _check_rates(family, params)
    w = params.r - np.log(params.mu)
    logw = np.zeros(len(family))
    for held, w_i in zip(family.links(), w.tolist()):
        logw = logw + np.where(held, w_i, 0.0)
    if not np.isfinite(logw).all():
        raise ValueError("non-finite state weight; |r| too large")
    return SteadyState(family, np.exp(logw - logsumexp(logw)))


def _law(family: FeasibleFamily, params: RateParams, q: SteadyState):
    """The probabilities of ``q``, a law over ``family``, and per link and
    member: whether the member holds the link, whether the link can join
    it, and the probability of the member with the link flipped (0.0
    where that set is not a member)."""
    _check_rates(family, params)
    if q.family != family:
        raise ValueError("the law is over another family")
    held = family.links()
    at, found = family.find(family.flipped())
    flipped = np.where(found, q.probs.take(at, mode="clip"), 0.0)
    return q.probs, held, found & ~held, flipped


def global_balance_residual(family: FeasibleFamily, params: RateParams,
                            q: SteadyState) -> float:
    """Max absolute violation of the global balance equations."""
    lam, mu = params.lam[:, None], params.mu[:, None]
    prob, held, up, flipped = _law(family, params, q)
    out_rate = np.where(held, mu, 0.0).sum(axis=0)
    out_rate += np.where(up, lam, 0.0).sum(axis=0)
    inflow = np.where(held, lam * flipped, 0.0).sum(axis=0)
    inflow += np.where(up, mu * flipped, 0.0).sum(axis=0)
    return float(np.max(np.abs(out_rate * prob - inflow)))


def expected_throughput(family: FeasibleFamily, params: RateParams) -> np.ndarray:
    """Per-link stationary activity probability (long-run throughput)."""
    return steady_state(family, params).throughput()
