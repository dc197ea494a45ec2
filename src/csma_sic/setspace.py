"""Global independent-set semantics over link subsets.

A subset of links is independent when no node is reused across its links
and every receiver can decode its own signal under staged SIC given all
in-range active transmitters.  Dropping a link removes one decode stage and
can only lower the interference at the stages left, the half-duplex rule is
pairwise and the range rule per link, so every subset of an independent set
is independent.  Enumeration therefore grows the family from the empty set,
and a family must be downward closed.  It caches one frontier per member,
the bitmask of links that can join it, and the chain's moves are read from
it.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linprog

from .phy import ChannelMatrix, NetworkTopology, PhyConfig, sic_decodable

#: Default upper bound on link count for enumeration.
ENUMERATION_CAP = 20

#: Feasibility tolerance for the capacity-region linear program.
LP_TOL = 1e-9


class EnumerationCapError(ValueError):
    """Link count exceeds the enumeration cap."""


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
    """All independent sets of a topology, sorted by bit pattern.

    The members are distinct and downward closed: the empty set is one,
    and dropping any link from a member gives a member.  So every member is
    reachable from the empty set one link at a time.
    """

    sets: tuple
    width: int

    def __post_init__(self):
        ordered = tuple(sorted(self.sets))
        index = {s.bits: k for k, s in enumerate(ordered)}
        object.__setattr__(self, "sets", ordered)
        object.__setattr__(self, "_index", index)
        if len(index) != len(ordered):
            raise ValueError("a family's members must be distinct")
        if any(s.width != self.width for s in ordered):
            raise ValueError("every member must have the family's width")
        if not index or any(bits & ~(1 << i) not in index
                            for bits in index for i in bit_ids(bits)):
            raise ValueError("a feasible family must be nonempty and closed "
                             "under dropping a link")

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


def independence_oracle(topology: NetworkTopology, channel: ChannelMatrix,
                        phy: PhyConfig = None):
    """``is_independent`` compiled for one topology, as a test on a bitmask.

    What the definition looks up on every call is fixed by the topology:
    for each link, the other links that share a node with it (the
    half-duplex rule), and at its receiver the gains of the links whose
    transmitter is in range, once in ascending transmitter-id order (the
    interference sum) and once in decode order up to the link itself
    (strongest first, ties by transmitter id), each with its link's
    threshold.  A link's own transmitter is always in range of its
    receiver, since ``NetworkTopology`` requires it.  The returned function
    makes the same float operations in the same order as ``sic_decodable``,
    so its verdict equals ``is_independent`` bit for bit.
    """
    phy = phy or topology.phy
    links = topology.links
    noise_plus_far, cancel = phy.noise_plus_far, phy.cancel_fraction
    at_node = {}
    for l in links:
        for v in (l.tx, l.rx):
            at_node[v] = at_node.get(v, 0) | 1 << l.id
    tx_order = sorted(links, key=lambda k: (k.tx, k.id))
    betas = [phy.beta_for(k.id) for k in links]
    clash, by_tx, stages = [], [], []
    for l in links:
        clash.append((at_node[l.tx] | at_node[l.rx]) & ~(1 << l.id))
        gains = channel.g[:, l.rx].tolist()  # the floats channel.gain returns
        heard = [(1 << k.id, gains[k.tx], betas[k.id]) for k in tx_order
                 if topology.in_range(k.tx, l.rx)]
        by_tx.append(tuple(h[:2] for h in heard))
        # a stable sort keeps transmitter-id order among equal gains
        order = sorted(heard, key=lambda h: -h[1])
        end = [bit for bit, _, _ in order].index(1 << l.id) + 1
        stages.append(tuple(order[:end]))

    def independent(mask: int) -> bool:
        for i in bit_ids(mask):
            if mask & clash[i]:
                return False
            nu = noise_plus_far
            for bit, g in by_tx[i]:
                if mask & bit:
                    nu += g
            for bit, g, beta in stages[i]:
                if mask & bit:
                    if g < beta * (nu - g):
                        return False
                    nu -= cancel * g
        return True

    return independent


def eta(d: LinkSet, family: FeasibleFamily) -> tuple:
    """Links that can be added to ``d`` keeping the result in the family."""
    if d not in family:
        raise ValueError("set is not a member of the family")
    return tuple(bit_ids(family.frontier[d.bits]))


def enumerate_feasible(topology: NetworkTopology, channel: ChannelMatrix,
                       phy: PhyConfig = None,
                       cap: int = ENUMERATION_CAP) -> FeasibleFamily:
    """Enumerate all independent sets by extension from the empty set.

    Dropping a link removes one decode stage and can only lower the
    interference at the stages left, the half-duplex rule is pairwise and
    the range rule per link, so every subset of an independent set is
    independent.  Hence S + j, for j above S's highest link i, is tested
    only if j also extends S - i.
    """
    k = topology.n_links
    if k > cap:
        raise EnumerationCapError(
            f"{k} links exceeds the enumeration cap of {cap}; use the simulator"
        )
    phy = phy or topology.phy
    sets = [LinkSet(0, k)]
    todo = [(0, range(k))]
    while todo:
        bits, later = todo.pop()
        children = [i for i in later
                    if is_independent(LinkSet(bits | 1 << i, k), topology,
                                      channel, phy)]
        for n, i in enumerate(children):
            sets.append(LinkSet(bits | 1 << i, k))
            todo.append((bits | 1 << i, children[n + 1:]))
    return FeasibleFamily(tuple(sets), k)


def reachable_subfamily(family: FeasibleFamily) -> tuple:
    """Split a family into (reachable-from-empty sets, unreachable sets).

    A family is downward closed, so the second part is always empty.
    """
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
