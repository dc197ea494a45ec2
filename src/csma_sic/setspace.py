"""Global independent-set semantics over link subsets.

A subset of links is independent when no node is reused across its links
and every receiver can decode its own signal under staged SIC given all
in-range active transmitters.  SIC feasibility is not monotone (a strong
added signal can rescue a weak one), so enumeration is always exhaustive
rather than pruned.  A family caches one frontier per member, the bitmask
of links that can join it, and the chain's moves are read from it.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linprog

from .phy import ChannelMatrix, NetworkTopology, PhyConfig, sic_decodable

#: Default upper bound on link count for exhaustive enumeration.
ENUMERATION_CAP = 20

#: Feasibility tolerance for the capacity-region linear program.
LP_TOL = 1e-9


class EnumerationCapError(ValueError):
    """Link count exceeds the exhaustive-enumeration cap."""


def bit_ids(bits: int):
    """Set-bit positions of ``bits`` in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@dataclass(frozen=True, order=True)
class LinkSet:
    """A subset of links as a fixed-width bit vector."""

    bits: int
    width: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << self.width):
            raise ValueError("bit pattern exceeds the declared width")

    @classmethod
    def from_ids(cls, ids, width: int) -> "LinkSet":
        bits = 0
        for i in ids:
            if not 0 <= i < width:
                raise ValueError(f"link id {i} out of range for width {width}")
            bits |= 1 << i
        return cls(bits, width)

    def ids(self) -> tuple:
        return tuple(bit_ids(self.bits))

    def contains(self, link_id: int) -> bool:
        return bool(self.bits >> link_id & 1)

    def add(self, link_id: int) -> "LinkSet":
        return LinkSet(self.bits | (1 << link_id), self.width)

    def remove(self, link_id: int) -> "LinkSet":
        return LinkSet(self.bits & ~(1 << link_id), self.width)

    def __len__(self) -> int:
        return bin(self.bits).count("1")

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.ids()) + "}"


@dataclass(frozen=True)
class FeasibleFamily:
    """All independent sets of a topology, sorted by bit pattern."""

    sets: tuple
    width: int

    def __post_init__(self):
        ordered = tuple(sorted(self.sets))
        object.__setattr__(self, "sets", ordered)
        object.__setattr__(self, "_index", {s.bits: k for k, s in enumerate(ordered)})
        if not ordered or ordered[0].bits != 0:
            raise ValueError("a feasible family must contain the empty set")
        if any(s.width != self.width for s in ordered):
            raise ValueError("every member must have the family's width")

    def __len__(self) -> int:
        return len(self.sets)

    def __contains__(self, d) -> bool:
        bits = d.bits if isinstance(d, LinkSet) else int(d)
        return bits in self._index

    def ordinal(self, d) -> int:
        bits = d.bits if isinstance(d, LinkSet) else int(d)
        return self._index[bits]

    @cached_property
    def frontier(self) -> dict:
        """Member bits -> bitmask of the links outside it that can join it."""
        return {
            bits: sum(1 << i for i in range(self.width)
                      if not bits >> i & 1 and bits | 1 << i in self._index)
            for bits in self._index
        }

    def vectors(self) -> np.ndarray:
        """Family as a (m, K) 0/1 matrix, one row per set."""
        v = np.zeros((len(self.sets), self.width))
        for k, s in enumerate(self.sets):
            for i in s.ids():
                v[k, i] = 1.0
        return v


def is_independent(d: LinkSet, topology: NetworkTopology, channel: ChannelMatrix,
                   phy: PhyConfig = None) -> bool:
    """Global feasibility indicator for a set of simultaneously active links."""
    phy = phy or topology.phy
    links = [topology.links[i] for i in d.ids()]
    used = set()
    for l in links:
        if l.tx in used or l.rx in used:
            return False
        used.update((l.tx, l.rx))
    beta_by_tx = {l.tx: phy.beta_for(l.id) for l in links}
    for l in links:
        active = {k.tx for k in links if topology.in_range(k.tx, l.rx)}
        if l.tx not in active:
            return False
        if not sic_decodable(l.tx, l.rx, active, channel, phy, beta_by_tx):
            return False
    return True


def eta(d: LinkSet, family: FeasibleFamily) -> tuple:
    """Links that can be added to ``d`` keeping the result in the family."""
    if d not in family:
        raise ValueError("set is not a member of the family")
    return tuple(bit_ids(family.frontier[d.bits]))


def enumerate_feasible(topology: NetworkTopology, channel: ChannelMatrix,
                       phy: PhyConfig = None,
                       cap: int = ENUMERATION_CAP) -> FeasibleFamily:
    """Enumerate all independent sets by testing every one of the 2**K subsets.

    Feasibility is not hereditary, so no pruning is sound.  The sets the
    protocol's Markov chain can visit are split off by ``reachable_subfamily``.
    """
    k = topology.n_links
    if k > cap:
        raise EnumerationCapError(
            f"{k} links exceeds the enumeration cap of {cap}; use the simulator"
        )
    phy = phy or topology.phy
    sets = [
        LinkSet(bits, k) for bits in range(1 << k)
        if is_independent(LinkSet(bits, k), topology, channel, phy)
    ]
    return FeasibleFamily(tuple(sets), k)


def reachable_subfamily(family: FeasibleFamily) -> tuple:
    """Split a family into (reachable-from-empty sets, unreachable sets)."""
    frontier = family.frontier
    seen = {0}
    todo = [0]
    while todo:
        bits = todo.pop()
        for i in bit_ids(frontier[bits]):
            nxt = bits | 1 << i
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    reachable = tuple(s for s in family.sets if s.bits in seen)
    unreachable = tuple(s for s in family.sets if s.bits not in seen)
    return reachable, unreachable


def capacity_contains(x, family: FeasibleFamily, strict: bool = False):
    """Capacity-region membership of a per-link rate vector.

    Solves the small LP for weights alpha >= 0 with sum(alpha) = 1 whose
    mixture of set vectors dominates ``x`` componentwise (time sharing plus
    idling).  With ``strict=True`` the mixture must equal ``x`` exactly.
    Returns ``(verdict, alpha)`` where ``alpha`` aligns with
    ``family.sets`` on success and is None on rejection.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (family.width,) or np.any(x < 0):
        raise ValueError("rate vector must have one nonnegative entry per link")
    if not np.all(np.isfinite(x)):
        raise ValueError("rate vector entries must be finite")
    v = family.vectors()  # (m, K)
    m = len(family)
    a_eq = [np.ones((1, m))]
    b_eq = [np.array([1.0])]
    if strict:
        a_eq.append(v.T)
        b_eq.append(x)
        a_ub, b_ub = None, None
    else:
        a_ub = -v.T
        b_ub = -x
    res = linprog(
        c=np.zeros(m),
        A_ub=a_ub, b_ub=b_ub,
        A_eq=np.vstack(a_eq), b_eq=np.concatenate(b_eq),
        bounds=(0, None), method="highs",
    )
    if res.status != 0:
        return False, None
    alpha = res.x
    if abs(alpha.sum() - 1.0) > LP_TOL or np.any(alpha < -1e-12):
        return False, None
    if np.any(v.T @ alpha < x - LP_TOL):
        return False, None
    return True, alpha
