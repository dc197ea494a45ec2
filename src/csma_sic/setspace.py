"""Global independent-set semantics over link subsets.

A subset of links is independent when no node is reused across its links
and every receiver can decode its own signal under staged SIC given all
in-range active transmitters.  Dropping a link removes one decode stage and
can only lower the interference at the stages left, the half-duplex rule is
pairwise and the range rule per link, so every subset of an independent set
is independent.  Enumeration therefore grows the family from the empty set,
and a family must be downward closed.  A set is an int bitmask, bit i for
link i, in the family, the frontier and the capacity LP alike; ``LinkSet``
is the argument of ``is_independent`` and the printer of a mask.  A
family holds its members as one sorted int64 array (K <= 62) and derives
everything per set from it in array operations whose number does not
grow with K: its own validation, the 0/1 matrix of the capacity LP, and
the frontier, the bitmask of links that can join each member, found by
``searchsorted`` and cached aligned with the members.  The chain's moves
are read from the frontier.

``compile_network`` compiles a topology and channel once into the tables
``is_independent`` reads.  Its ``joins`` judges a set plus each of some
candidate links in one pass over the set, ``independent`` is ``joins`` on
a set's top link, and ``interacts`` holds, per link, the links whose
verdicts its start or end can change.  The scenario loader, the
simulator and the tests' bitmask oracle judge sets with it; enumeration
still calls ``is_independent``.
"""

import math
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass, field
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


#: Widest family: every member, and ``1 << width``, fits an int64.
MAX_WIDTH = 62


def _masks(sets) -> np.ndarray:
    """``sets`` as a new int64 array, refusing members that are not ints.

    An integer array is copied as int64; any other iterable is checked by
    the types of its members first, since numpy would read ``True`` as 1
    and cast ``1.5`` to 1.  A member past int64 is out of any width.
    """
    if not (isinstance(sets, np.ndarray) and sets.dtype.kind in "iu"):
        sets = list(sets)
        if not all(issubclass(t, (int, np.integer)) and t is not bool
                   for t in set(map(type, sets))):
            raise ValueError("a family's members must be int bitmasks")
    try:
        masks = np.array(sets, dtype=np.int64)
    except OverflowError:
        raise ValueError("every member must lie within the family's "
                         "width") from None
    if masks.ndim != 1:
        raise ValueError("a family's members must be int bitmasks")
    return masks


@dataclass(frozen=True, eq=False)
class FeasibleFamily:
    """All independent sets of a topology as link bitmasks, in ascending order.

    ``sets`` is one sorted, read-only int64 array, bit i for link i, and
    ``width`` an int in ``[0, 62]``.  The members are distinct, lie in
    ``[0, 2**width)`` and are downward closed: the empty set ``0`` is one,
    and dropping any link from a member gives a member.  So every member
    is reachable from the empty set one link at a time.  Every per-set
    array (``frontier``, ``links()``, ``vectors()``, a law over the
    family) is aligned with ``sets`` and derived from it with a number of
    numpy calls that does not grow with ``width``.  Two families are equal
    when their widths and members are.
    """

    sets: np.ndarray
    width: int

    def __post_init__(self):
        width = self.width
        if (not isinstance(width, (int, np.integer)) or isinstance(width, bool)
                or not 0 <= width <= MAX_WIDTH):
            raise ValueError(f"a family's width must be an int in "
                             f"[0, {MAX_WIDTH}]")
        sets = _masks(self.sets)
        sets.sort()
        sets.setflags(write=False)
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "width", int(width))
        if (sets[1:] == sets[:-1]).any():
            raise ValueError("a family's members must be distinct")
        if sets.size and not 0 <= sets[0] <= sets[-1] < 1 << width:
            raise ValueError("every member must lie within the family's width")
        # each member with one of its links dropped
        drops = self.flipped()[self.links()]
        if not sets.size or not self.find(drops)[1].all():
            raise ValueError("a feasible family must be nonempty and closed "
                             "under dropping a link")

    def __len__(self) -> int:
        return len(self.sets)

    def __eq__(self, other):
        if not isinstance(other, FeasibleFamily):
            return NotImplemented
        return (self.width == other.width
                and np.array_equal(self.sets, other.sets))

    def __hash__(self) -> int:
        return hash((self.width, self.sets.tobytes()))

    def __contains__(self, bits) -> bool:
        try:
            self.index(bits)
        except ValueError:
            return False
        return True

    def index(self, bits) -> int:
        """Position of the member ``bits`` in ``sets``."""
        if (isinstance(bits, (int, np.integer)) and not isinstance(bits, bool)
                and 0 <= bits < 1 << self.width):
            n, found = self.find(bits)
            if found:
                return int(n)
        raise ValueError("set is not a member of the family")

    def find(self, masks):
        """Per int64 mask in ``masks``: where it sorts into ``sets`` (its
        position if it is a member), and whether it is one."""
        at = self.sets.searchsorted(masks)
        return at, self.sets.take(at, mode="clip") == masks

    def _bits(self) -> np.ndarray:
        """``1 << i`` for each link i, as an int64 column."""
        return np.left_shift(1, np.arange(self.width, dtype=np.int64))[:, None]

    def links(self) -> np.ndarray:
        """(K, m) bool matrix: entry [i, n] is whether member n holds link i."""
        return (self.sets & self._bits()).astype(bool)

    def flipped(self) -> np.ndarray:
        """(K, m) int64 matrix: entry [i, n] is member n with link i
        dropped if it holds i, else added."""
        return self.sets ^ self._bits()

    @cached_property
    def frontier(self) -> np.ndarray:
        """Per member, aligned with ``sets``: the bitmask of the links
        outside it that can join it."""
        bits = self._bits()
        _, joins = self.find(self.sets | bits)
        return np.where(joins & ~self.links(), bits, 0).sum(axis=0)

    def vectors(self) -> np.ndarray:
        """Family as a (m, K) 0/1 matrix, one row per set."""
        return self.links().T.astype(float)


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
        if not sic_decodable(l.tx, l.rx, active, channel, phy, beta_by_tx):
            return False
    return True


@dataclass(frozen=True, eq=False)
class CompiledNetwork:
    """One topology and channel compiled for judging link sets.

    ``joins(mask, cands, verdicts)`` is the bitmask of the links c in
    ``cands`` outside ``mask`` for which ``mask`` plus c is independent.
    Each verdict is read from the dict ``verdicts``, keyed by the mask
    plus c, or judged and stored there; a ``mask`` whose own members
    clash gives 0 at once.  ``independent(mask)`` is ``joins`` applied to
    the top link of ``mask``, so one routine judges every set, and both
    equal ``is_independent`` bit for bit (see ``_compile``).  ``solo`` is
    the bitmask of the links that are independent on their own, and
    ``topology`` is the object the network was compiled for.

    ``interacts[c]``, built on first use, is the bitmask of the links that
    interact with link c, c included: j interacts with c when some
    receiver, c's or j's among them, hears both transmitters.  That covers
    a shared node, which is in range of both links' ends, and either
    link's receiver hearing the other's transmitter.  If S plus c is
    independent and j lies outside ``interacts[c]``, then S plus c plus j
    is independent exactly when S plus j is: j shares no node with c, and
    each receiver adds an exact ``0.0`` for c or for j, or for both, to
    the terms it sees in S plus j or in S plus c.
    """

    topology: NetworkTopology
    independent: Callable[[int], bool]
    joins: Callable[[int, int, dict], int]
    solo: int
    # per link, the links whose transmitters its receiver hears
    _heard: list = field(repr=False)

    @cached_property
    def interacts(self) -> tuple:
        """Per link c, the bitmask of the links that interact with c."""
        heard = [sum(1 << j for j in h) for h in self._heard]
        interacts = [0] * len(heard)
        for near, h in zip(heard, self._heard):
            for c in h:
                interacts[c] |= near
        return tuple(interacts)


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
    """``is_independent`` compiled for one topology, as a test of a set
    plus each of some candidate links, with each link's verdict alone.

    What the definition looks up on every call is fixed by the topology:
    for each link, the other links that share a node with it (the
    half-duplex rule), and at its receiver the gain of every link's
    transmitter, ``0.0`` where it is out of range, and the decode order up
    to the link itself (strongest first, ties by transmitter id), each
    stage with its link's threshold under ``topology.phy``.  One pass over
    the receivers finds both: it judges range with ``math.hypot`` on the
    same differences as ``topology.in_range``, so the same pairs are in
    range.  A link's own transmitter is always in range of its receiver,
    since ``NetworkTopology`` requires it.  The pass keeps each receiver's
    in-range list, from which ``interacts`` is built when first read.

    ``joins(mask, cands, verdicts)`` walks ``mask``'s members once, returns
    0 if two of them clash, and puts them in ascending transmitter order
    (link order when the ids follow it, else sorted once by transmitter
    rank).  A candidate c without a stored verdict is refused if it
    clashes with a member.  Otherwise c is put in its place in that order,
    and at each receiver of the set the set's gains are summed in that
    order, as ``sic_decodable`` sums the in-range ones; adding ``0.0`` to a
    nonnegative float returns it unchanged, so the sums agree bit for bit.  A receiver's decode stages are scanned only
    when another link of the set is decoded before its own (a bitmask
    test); otherwise its own stage is the only one.  So each verdict makes
    the same float comparisons as ``sic_decodable`` on the same values,
    and equals ``is_independent`` bit for bit.
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
    # per link: the links sharing a node with it, the links whose
    # transmitters its receiver hears, and at its receiver the gain row,
    # the bitmask of the links decoded before its own, its decode stages
    # and its own gain and threshold
    clash, heard_by, receivers = [], [], []
    for l, gains in zip(links, at_rx):
        clash.append((at_node[l.tx] | at_node[l.rx]) & ~(1 << l.id))
        x, y = xs[l.rx], ys[l.rx]
        row = [0.0] * len(links)
        heard = []
        for (j, tx_x, tx_y), g in zip(senders, gains):
            if hypot(tx_x - x, tx_y - y) <= radius:  # topology.in_range
                row[j] = g
                heard.append(j)
        heard_by.append(heard)
        # a stable sort, reversed or not, keeps transmitter-id order among
        # equal gains
        order = sorted(heard, key=row.__getitem__, reverse=True)
        up_to = order[:order.index(l.id) + 1]
        receivers.append((row, sum(1 << j for j in up_to[:-1]),
                          tuple((1 << j, row[j], betas[j]) for j in up_to),
                          row[l.id], betas[l.id]))

    def joins(mask: int, cands: int, verdicts: dict) -> int:
        members = []
        rest = mask
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            if mask & clash[i]:
                return 0
            members.append(i)
            rest ^= low
        if in_tx_order:
            summed = members
        else:
            summed = sorted(members, key=rank.__getitem__)
            ranks = [rank[j] for j in summed]
        out = 0
        rest = cands & ~mask
        while rest:
            low = rest & -rest
            rest ^= low
            trial = mask | low
            ok = verdicts.get(trial)
            if ok is None:
                c = low.bit_length() - 1
                if mask & clash[c]:
                    ok = verdicts[trial] = False
                    continue
                # the set in transmitter order, c in its place
                p = ((mask & low - 1).bit_count() if in_tx_order
                     else bisect_left(ranks, rank[c]))
                order = summed.copy()
                order.insert(p, c)
                # every receiver of the set decodes: the loop ends without
                # a break
                ok = False
                for i in order:
                    row, earlier, steps, g, beta = receivers[i]
                    nu = noise_plus_far
                    for j in order:
                        nu += row[j]
                    if trial & earlier:
                        for bit, g, beta in steps:
                            if trial & bit:
                                if g < beta * (nu - g):
                                    break
                                nu -= cancel * g
                        else:
                            continue
                        break
                    if g < beta * (nu - g):
                        break
                else:
                    ok = True
                verdicts[trial] = ok
            if ok:
                out |= low
        return out

    def independent(mask: int) -> bool:
        if not mask:
            return True
        top = 1 << mask.bit_length() - 1
        return joins(mask ^ top, top, {}) != 0

    solo = joins(0, (1 << len(links)) - 1, {})
    return CompiledNetwork(topology, independent, joins, solo, heard_by)


def eta(bits: int, family: FeasibleFamily) -> tuple:
    """Links that can be added to ``bits`` keeping the result in the family."""
    return tuple(bit_ids(int(family.frontier[family.index(bits)])))


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
    return FeasibleFamily(sets, k)


def reachable_subfamily(family: FeasibleFamily) -> tuple:
    """Split a family into (reachable-from-empty sets, unreachable sets),
    each a sorted int64 array, by a breadth-first walk of the frontier.

    A family is downward closed, so the second part is always empty.
    """
    sets, bits = family.sets, family._bits()
    seen = sets == 0
    level = np.flatnonzero(seen)
    while level.size:
        up = (sets[level] | bits)[family.frontier[level] & bits != 0]
        at, _ = family.find(up)
        level = np.unique(at[~seen[at]])
        seen[level] = True
    return sets[seen], sets[~seen]


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
