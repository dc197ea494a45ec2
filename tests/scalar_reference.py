"""Scalar references for the exact engine's array steps.

Each function walks the feasible family one set and one link at a time, in
the order the engine's floats must follow: a state's log weight and each
link's throughput are ascending left folds from ``0.0``.  The tests compare
the array engine with these bit for bit.
"""

import numpy as np

from csma_sic import FeasibleFamily, compile_network
from csma_sic.setspace import bit_ids


def enumerate_by_joins(topology, channel) -> FeasibleFamily:
    """The feasible family, grown from the empty set with the compiled
    ``joins``: each set is extended by the links above its top link that
    also extend the set without that link, as ``enumerate_feasible`` does
    with ``is_independent``."""
    joins = compile_network(topology, channel).joins
    k = topology.n_links
    sets = [0]
    todo = [(0, (1 << k) - 1)]
    while todo:
        bits, later = todo.pop()
        rest = joins(bits, later, {})
        while rest:
            low = rest & -rest
            rest ^= low
            sets.append(bits | low)
            todo.append((bits | low, rest))
    return FeasibleFamily(sets, k)


def frontier(family) -> list:
    """Per member, the bitmask of the links outside it that can join it."""
    members = family.sets.tolist()
    inside = set(members)
    everything = (1 << family.width) - 1
    return [sum(1 << i for i in bit_ids(everything & ~bits)
                if bits | 1 << i in inside)
            for bits in members]


def vectors(family) -> np.ndarray:
    """The family as a (m, K) 0/1 matrix, set by set and link by link."""
    v = np.zeros((len(family), family.width))
    for n, bits in enumerate(family.sets.tolist()):
        for i in bit_ids(bits):
            v[n, i] = 1.0
    return v


def log_weights(family, params) -> np.ndarray:
    """Each state's log weight: its links' ``r_i - log(mu_i)`` added one at
    a time in ascending link order, from 0.0."""
    w = (params.r - np.log(params.mu)).tolist()
    out = []
    for bits in family.sets.tolist():
        total = 0.0
        for i in bit_ids(bits):
            total += w[i]
        out.append(total)
    return np.array(out)


def steady_probs(family, params) -> np.ndarray:
    """The product-form law from the scalar log weights."""
    from scipy.special import logsumexp

    logw = log_weights(family, params)
    return np.exp(logw - logsumexp(logw))


def throughput(family, probs) -> np.ndarray:
    """Per link, the probabilities of the members holding it, added in
    ascending member order from 0.0."""
    tau = [0.0] * family.width
    for bits, p in zip(family.sets.tolist(), probs.tolist()):
        for i in bit_ids(bits):
            tau[i] += p
    return np.array(tau)
