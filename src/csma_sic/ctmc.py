"""Continuous-time Markov chain over independent sets.

Activation of link i occurs at rate lambda_i = exp(r_i) whenever the
augmented set stays independent; an active link completes at rate mu_i.
The chain is reversible with a product-form stationary law: the weight of
a state is the product of lambda_i / mu_i over its active links.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

# ``eta`` and ``reachable_subfamily`` are not called here; perfbench/run.py
# wraps ``ctmc.eta`` and ``ctmc.reachable_subfamily`` to count calls.
from .setspace import (FeasibleFamily, LinkSet, bit_ids, eta,  # noqa: F401
                       reachable_subfamily)


def reals_only(items) -> bool:
    """Whether every item is a real number and none a bool.

    Checked once per distinct type: an ABC ``isinstance`` per element costs
    about 0.8 us, a visible share of loading a K = 25 scenario.
    """
    return all(issubclass(t, numbers.Real) and not issubclass(t, bool)
               for t in set(map(type, items)))


def real_array(name: str, value) -> np.ndarray:
    """``value`` as a float array, refusing str and bool entries.

    ``np.asarray`` alone would read ``'0.5'`` as 0.5, and ``[0.5, True]`` is
    a float64 array with ``True`` already turned into 1.0, so a list or tuple
    is checked with ``reals_only`` and an array by its dtype.
    """
    if isinstance(value, np.ndarray):
        ok = value.dtype.kind in "iuf"
    else:
        ok = reals_only(value if isinstance(value, (list, tuple)) else (value,))
    if not ok:
        raise ValueError(f"{name} must be real numbers, not {value!r}")
    return np.asarray(value, dtype=float)


@dataclass(frozen=True)
class RateParams:
    """Per-link aggressiveness exponents r (lambda = exp(r)) and service rates mu."""

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
    """Stationary probabilities over the feasible sets, the chain's states."""

    probs: dict  # LinkSet -> probability

    def __post_init__(self):
        # exactly rounded: a naive sum over 10^5 sets drifts past 1e-12
        total = math.fsum(self.probs.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if any(p < 0 for p in self.probs.values()):
            raise ValueError("negative probability")

    def prob(self, d: LinkSet) -> float:
        return self.probs.get(d, 0.0)

    def throughput(self) -> np.ndarray:
        """Per-link stationary activity probability (long-run throughput)."""
        tau = np.zeros(next(iter(self.probs)).width)
        for d, p in self.probs.items():
            for i in d.ids():
                tau[i] += p
        return tau


def transition_rates(family: FeasibleFamily, params: RateParams) -> dict:
    """Directed transition rates keyed by (from_ordinal, to_ordinal)."""
    lam = params.lam
    rates = {}
    for a, d in enumerate(family.sets):
        for i in bit_ids(family.frontier[d.bits]):
            b = family.ordinal(d.bits | 1 << i)
            rates[(a, b)] = lam[i]
            rates[(b, a)] = params.mu[i]
    return rates


def steady_state(family: FeasibleFamily, params: RateParams) -> SteadyState:
    """Product-form stationary distribution, normalized in log space.

    The chain's state space is the family itself: a family is downward
    closed, so every member is reachable from the empty set by single-link
    additions, and every member carries mass.  scipy's ``logsumexp`` is
    imported on the first call, not with the package.
    """
    # imported here: about 48 MB and 0.5 s that K > 20 runs never use
    from scipy.special import logsumexp

    logw = np.array([
        sum(params.r[i] - np.log(params.mu[i]) for i in d.ids())
        for d in family.sets
    ])
    if not np.all(np.isfinite(logw)):
        raise ValueError("non-finite state weight; |r| too large")
    probs = np.exp(logw - logsumexp(logw))
    return SteadyState(probs={d: float(p) for d, p in zip(family.sets, probs)})


def global_balance_residual(family: FeasibleFamily, params: RateParams,
                            q: SteadyState) -> float:
    """Max absolute violation of the global balance equations."""
    lam = params.lam
    prob = {d.bits: p for d, p in q.probs.items()}
    worst = 0.0
    for d, qd in q.probs.items():
        bits = d.bits
        up = tuple(bit_ids(family.frontier[bits]))
        out_rate = sum(params.mu[i] for i in d.ids())
        out_rate += sum(lam[j] for j in up)
        inflow = sum(lam[i] * prob.get(bits & ~(1 << i), 0.0) for i in d.ids())
        inflow += sum(params.mu[j] * prob.get(bits | 1 << j, 0.0) for j in up)
        worst = max(worst, abs(out_rate * qd - inflow))
    return worst


def detailed_balance_residual(family: FeasibleFamily, params: RateParams,
                              q: SteadyState) -> float:
    """Max absolute violation of pairwise detailed balance over chain edges."""
    lam = params.lam
    prob = {d.bits: p for d, p in q.probs.items()}
    worst = 0.0
    for d, qd in q.probs.items():
        for j in bit_ids(family.frontier[d.bits]):
            worst = max(worst, abs(params.mu[j] * prob.get(d.bits | 1 << j, 0.0)
                                   - lam[j] * qd))
    return worst


def expected_throughput(family: FeasibleFamily, params: RateParams) -> np.ndarray:
    """Per-link stationary activity probability (long-run throughput)."""
    return steady_state(family, params).throughput()
