"""Global independent-set semantics over link subsets.

A subset of links is independent when no node is reused across its links
and every receiver can decode its own signal under staged SIC given all
in-range active transmitters.  Dropping a link removes one decode stage and
can only lower the interference at the stages left, the half-duplex rule is
pairwise and the range rule per link, so every subset of an independent set
is independent.  Enumeration therefore grows the family from the empty set,
and a family must be downward closed.  A set is an int bitmask, bit i for
link i, in the family, the frontier and the capacity LP alike; ``LinkSet``
is the argument of ``is_independent`` and the printer of a mask.  The
family caches one frontier per member, the bitmask of links that can join
it, and the chain's moves are read from it.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .phy import ChannelMatrix, NetworkTopology, sic_decodable

#: Upper bound on link count for enumeration, read at each call.
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

    def __len__(self) -> int:
        return bin(self.bits).count("1")

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.ids()) + "}"


@dataclass(frozen=True)
class FeasibleFamily:
    """All independent sets of a topology as link bitmasks, in ascending order.

    The members are distinct ints in ``[0, 2**width)`` and downward closed:
    the empty set ``0`` is one, and dropping any link from a member gives a
    member.  So every member is reachable from the empty set one link at a
    time.
    """

    sets: tuple
    width: int

    def __post_init__(self):
        ordered = tuple(sorted(self.sets))
        members = frozenset(ordered)
        object.__setattr__(self, "sets", ordered)
        object.__setattr__(self, "_members", members)
        if len(members) != len(ordered):
            raise ValueError("a family's members must be distinct")
        if ordered and not 0 <= ordered[0] <= ordered[-1] < 1 << self.width:
            raise ValueError("every member must lie within the family's width")
        if not members or any(bits & ~(1 << i) not in members
                              for bits in ordered for i in bit_ids(bits)):
            raise ValueError("a feasible family must be nonempty and closed "
                             "under dropping a link")

    def __len__(self) -> int:
        return len(self.sets)

    def __contains__(self, bits) -> bool:
        return bits in self._members

    @cached_property
    def frontier(self) -> dict:
        """Member bits -> bitmask of the links outside it that can join it."""
        return {
            bits: sum(1 << i for i in range(self.width)
                      if not bits >> i & 1 and bits | 1 << i in self._members)
            for bits in self.sets
        }

    def vectors(self) -> np.ndarray:
        """Family as a (m, K) 0/1 matrix, one row per set."""
        v = np.zeros((len(self.sets), self.width))
        for k, bits in enumerate(self.sets):
            for i in bit_ids(bits):
                v[k, i] = 1.0
        return v


def _check_channel(topology: NetworkTopology, channel: ChannelMatrix) -> None:
    """Refuse a channel without one row and one column per node."""
    if channel.g.shape != (topology.n_nodes,) * 2:
        raise ValueError("the channel matrix must be n_nodes x n_nodes")


def is_independent(d: LinkSet, topology: NetworkTopology,
                   channel: ChannelMatrix) -> bool:
    """Whether the link set ``d`` is independent under ``topology.phy``."""
    _check_channel(topology, channel)
    if d.width != topology.n_links:
        raise ValueError("the link set's width must be topology.n_links")
    phy = topology.phy
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


@dataclass(frozen=True, eq=False)
class CompiledNetwork:
    """One topology and channel compiled for judging link sets.

    ``independent(mask)`` is ``is_independent`` on a bitmask, bit for bit
    (see ``compile_network``); ``solo`` is the bitmask of the links that
    are independent on their own; ``topology`` is the object it was
    compiled for.
    """

    topology: NetworkTopology
    independent: Callable[[int], bool]
    solo: int


def compile_network(topology: NetworkTopology,
                    channel: ChannelMatrix) -> CompiledNetwork:
    """The compiled network of ``topology`` and ``channel``, built once.

    It is kept on ``channel`` and returned again while ``topology`` is the
    same object, so ``load_scenario`` and a ``Simulator`` built from the
    scenario's topology and channel share one compile; another channel
    object, or another topology, gets its own.  Nothing else holds it, so
    it lives as long as its channel.
    """
    network = getattr(channel, "_network", None)
    if network is None or network.topology is not topology:
        network = _compile(topology, channel)
        object.__setattr__(channel, "_network", network)
    return network


def _compile(topology: NetworkTopology,
             channel: ChannelMatrix) -> CompiledNetwork:
    """``is_independent`` compiled for one topology, as a test on a bitmask,
    with each link's verdict alone.

    What the definition looks up on every call is fixed by the topology:
    for each link, the other links that share a node with it (the
    half-duplex rule), and at its receiver the gain of every link's
    transmitter, ``0.0`` where it is out of range, and the decode order up
    to the link itself (strongest first, ties by transmitter id), each
    stage with its link's threshold under ``topology.phy``.  One pass over
    the receivers finds both: it judges range with ``math.hypot`` on the
    same differences as ``topology.in_range``, so the same pairs are in
    range.  A link's own transmitter is always in range of its receiver,
    since ``NetworkTopology`` requires it.

    A call walks the mask's members, not each receiver's whole in-range
    list.  It runs every clash check first; then at each member's receiver
    it sums the members' gains in ascending transmitter order (link order
    when the ids follow it, else the members are sorted once by their
    transmitter rank).  ``sic_decodable`` sums only the in-range ones in
    that order, and adding ``0.0`` to a nonnegative float returns it
    unchanged, so the sums agree bit for bit.  The member's decode stages
    are scanned only when another member is decoded before it (a bitmask
    test); otherwise its own stage is the only one.  So the returned
    function makes the same float comparisons as ``sic_decodable`` on the
    same values, and its verdict equals ``is_independent`` bit for bit.
    """
    _check_channel(topology, channel)
    phy = topology.phy
    links = topology.links
    noise_plus_far, cancel = phy.noise_plus_far, phy.cancel_fraction
    at_node = {}
    for l in links:
        for v in (l.tx, l.rx):
            at_node[v] = at_node.get(v, 0) | 1 << l.id
    tx_order = sorted(links, key=lambda k: (k.tx, k.id))
    rank = [0] * len(links)
    for r, k in enumerate(tx_order):
        rank[k.id] = r
    in_tx_order = rank == list(range(len(links)))
    betas = [phy.beta_for(k.id) for k in links]
    xs = [n.x for n in topology.nodes]
    ys = [n.y for n in topology.nodes]
    senders = [(k.id, xs[k.tx], ys[k.tx]) for k in tx_order]
    # at_rx[i][n]: the gain at link i's receiver of the n-th transmitter in
    # transmitter order, the float channel.gain returns
    at_rx = channel.g[np.ix_([k.tx for k in tx_order],
                             [l.rx for l in links])].T.tolist()
    radius, hypot = phy.radius, math.hypot
    clash, rows, before, stages, own = [], [], [], [], []
    for l, gains in zip(links, at_rx):
        clash.append((at_node[l.tx] | at_node[l.rx]) & ~(1 << l.id))
        x, y = xs[l.rx], ys[l.rx]
        row = [0.0] * len(links)
        heard = []
        for (j, tx_x, tx_y), g in zip(senders, gains):
            if hypot(tx_x - x, tx_y - y) <= radius:  # topology.in_range
                row[j] = g
                heard.append(j)
        rows.append(row)
        # a stable sort, reversed or not, keeps transmitter-id order among
        # equal gains
        order = sorted(heard, key=row.__getitem__, reverse=True)
        up_to = order[:order.index(l.id) + 1]
        stages.append(tuple((1 << j, row[j], betas[j]) for j in up_to))
        before.append(sum(1 << j for j in up_to[:-1]))
        own.append((row[l.id], betas[l.id]))

    def independent(mask: int) -> bool:
        members = []
        rest = mask
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            if mask & clash[i]:
                return False
            members.append(i)
            rest ^= low
        summed = members if in_tx_order else sorted(members,
                                                     key=rank.__getitem__)
        for i in members:
            row = rows[i]
            nu = noise_plus_far
            for j in summed:
                nu += row[j]
            if mask & before[i]:
                for bit, g, beta in stages[i]:
                    if mask & bit:
                        if g < beta * (nu - g):
                            return False
                        nu -= cancel * g
            else:
                g, beta = own[i]
                if g < beta * (nu - g):
                    return False
        return True

    solo = sum(1 << l.id for l in links if independent(1 << l.id))
    return CompiledNetwork(topology, independent, solo)


def independence_oracle(topology: NetworkTopology, channel: ChannelMatrix):
    """``is_independent`` as a test on a bitmask: the compiled network's."""
    return compile_network(topology, channel).independent


def eta(bits: int, family: FeasibleFamily) -> tuple:
    """Links that can be added to ``bits`` keeping the result in the family."""
    if bits not in family:
        raise ValueError("set is not a member of the family")
    return tuple(bit_ids(family.frontier[bits]))


def enumerate_feasible(topology: NetworkTopology,
                       channel: ChannelMatrix) -> FeasibleFamily:
    """Enumerate all independent sets by extension from the empty set.

    Dropping a link removes one decode stage and can only lower the
    interference at the stages left, the half-duplex rule is pairwise and
    the range rule per link, so every subset of an independent set is
    independent.  Hence S + j, for j above S's highest link i, is tested
    only if j also extends S - i.  More than ``ENUMERATION_CAP`` links
    raise ``EnumerationCapError``.
    """
    k = topology.n_links
    if k > ENUMERATION_CAP:
        raise EnumerationCapError(f"{k} links exceeds the enumeration cap of "
                                  f"{ENUMERATION_CAP}; use the simulator")
    _check_channel(topology, channel)
    sets = [0]
    todo = [(0, range(k))]
    while todo:
        bits, later = todo.pop()
        children = [i for i in later
                    if is_independent(LinkSet(bits | 1 << i, k), topology,
                                      channel)]
        for n, i in enumerate(children):
            sets.append(bits | 1 << i)
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
    reachable = tuple(bits for bits in family.sets if bits in seen)
    unreachable = tuple(bits for bits in family.sets if bits not in seen)
    return reachable, unreachable


def capacity_contains(x, family: FeasibleFamily):
    """Capacity-region membership of a per-link rate vector.

    Solves the small LP for weights alpha >= 0 with sum(alpha) = 1 whose
    mixture of set vectors dominates ``x`` componentwise (time sharing plus
    idling).  Returns ``(verdict, alpha)`` where ``alpha`` aligns with
    ``family.sets`` on success and is None on rejection.  scipy's LP
    solver is imported on the first call, not with the package.
    """
    # imported here: about 48 MB and 0.5 s that K > 20 runs never use
    from scipy.optimize import linprog

    x = np.asarray(x, dtype=float)
    if x.shape != (family.width,) or np.any(x < 0):
        raise ValueError("rate vector must have one nonnegative entry per link")
    if not np.all(np.isfinite(x)):
        raise ValueError("rate vector entries must be finite")
    v = family.vectors()  # (m, K)
    m = len(family)
    res = linprog(
        c=np.zeros(m),
        A_ub=-v.T, b_ub=-x,
        A_eq=np.ones((1, m)), b_eq=np.array([1.0]),
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
