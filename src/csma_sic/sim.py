"""Continuous-time event-driven simulation of the CSMA-SIC protocol.

Every backlogged link counts down an exponential backoff timer that is
suspended whenever the transmission would be infeasible and resumed (with
its remaining time preserved) once it becomes feasible again.  Control
signaling is instantaneous.  A link may start when the active set plus it
is independent: the candidate's receiver and each ongoing receiver in range
of the candidate's transmitter judge their own decoding (``localstate``'s
table check), and a refusal or a busy endpoint is a veto.  A receiver that
does not hear the candidate sees no change, so this is independence in
every range regime, and the chain is the product-form chain of Boorstyn et
al., "Throughput analysis in multihop CSMA packet radio networks" (IEEE
Trans. Commun., 1987), which hidden terminals break if the transmitter
judges only the links it hears.  Sets are judged by
``setspace.compile_network``, which a scenario's topology and channel
compile once for the loader and the simulator alike.  Each set the run
reaches has one record in a state table: its frontier, as a bitmask, and
the time it has been occupied, so an event finds both in one lookup.  Each
start or end of a transmission suspends or resumes only the links whose
verdict it flipped.  A new frontier is judged in one ``joins`` call, over
only the links the event can affect: under the veto rule a link that does
not interact with the one that started or ended keeps its verdict
exactly.  A run given the network's family, as ``enumerate_feasible``
finds it, starts with a record for every member, its frontier
``FeasibleFamily.frontier`` by the same definition, and so never judges a
set: a fresh run on spread-k12 (seed 1001, horizon 50) otherwise judges
one on 76% of its events.  Every event takes one path, through the state
table and, when it judges a set, the verdict cache.
The event queue is one due time per link; the earliest goes next, the
lowest link id among equal ones.  The run is deterministic given the
seed, with one random stream per link, so the order of simultaneous
events changes no draw.  Each link draws its
backoffs and holding times from a buffer of standard exponentials
refilled from its own stream, scaled by 1/lambda or 1/mu; the values are
bit-identical to scalar ``Generator.exponential`` draws.
"""

import math
import numbers
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .ctmc import RateParams, mean_times
# perfbench/run.py wraps ``sim.check_all_feasible``, which is not called here.
from .localstate import check_all_feasible  # noqa: F401
from .phy import ChannelMatrix, NetworkTopology, PhyConfig, real_array
from .setspace import FeasibleFamily, bit_ids, compile_network
# perfbench/run.py wraps ``sim.is_independent``, which is not called here.
from .setspace import is_independent  # noqa: F401


# Standard exponentials drawn per refill of a link's buffer: large enough
# that the refill call is a small share of a draw, small enough that filling
# every link's buffer in ``Simulator.__init__`` stays cheap.
_BUFFER = 64

# Entries the verdict cache may hold before it is emptied, and the most
# members a seeding family may have.  A benchmark run stays far below it
# (about 3k verdicts on dense-k25); at K = 100 all in range the verdicts
# would otherwise grow by about 140k per second of wall time, and most are
# never read again.  The state table is not bounded by it: it holds one
# record per set reached, as the occupied times need.
_CACHE_CAP = 1 << 17


def _exponentials(rng: np.random.Generator):
    """Endless standard exponentials from ``rng``, drawn ``_BUFFER`` at a time.

    A C iterator (``chain`` over ``iter(refill, None)``), so a draw resumes
    no Python frame.  ``scale * next(...)`` is bit-identical to
    ``rng.exponential(scale)`` on the same stream, which computes the same
    product in C.
    """
    return chain.from_iterable(
        iter(lambda: rng.standard_exponential(_BUFFER).tolist(), None))


class ProtocolError(RuntimeError):
    """The event loop reached a state the protocol forbids."""


def _check_seed(seed) -> None:
    """Refuse a seed that is not a nonnegative integer, bools included."""
    if (not isinstance(seed, numbers.Integral) or isinstance(seed, bool)
            or seed < 0):
        raise ValueError("seed must be a nonnegative integer")


def _backoff_scale(lam: np.ndarray) -> list:
    """The mean backoffs ``1 / lam``, refusing a rate without a finite one.

    A rate must be finite and positive, and so must its mean backoff: an
    ``exp(r)`` that overflows would give zero timers, and one that
    underflows, or lies below about 5.6e-309, infinite ones.
    ``RateParams`` makes the same check, ``ctmc.mean_times``, on the mean
    holding times ``1 / mu``.
    """
    return mean_times(lam, "rates must be finite and positive, one per link")


def _finite(value) -> bool:
    """Whether ``value`` is a finite real number and not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class SimConfig:
    """Run length, seed, rate parameters, and measurement warmup."""

    horizon: float
    seed: int = 0
    params: RateParams = None
    warmup: float = None

    def __post_init__(self):
        _check_seed(self.seed)
        if not _finite(self.horizon) or self.horizon < 0:
            raise ValueError("horizon must be finite and nonnegative")
        warmup = 0.1 * self.horizon if self.warmup is None else self.warmup
        if (not _finite(warmup) or warmup < 0
                or (warmup >= self.horizon and self.horizon > 0)):
            raise ValueError("warmup must be finite and lie in [0, horizon)")
        object.__setattr__(self, "warmup", warmup)


@dataclass(frozen=True)
class SimStats:
    """Accumulated statistics of a completed run (post-warmup window)."""

    busy_time: np.ndarray
    completed: np.ndarray
    occupancy: dict  # active-set bitmask -> occupied duration
    measured_time: float

    def occupancy_fractions(self) -> dict:
        """Time fraction spent in each active set, keyed by bitmask."""
        if self.measured_time <= 0:
            return {}
        return {m: t / self.measured_time for m, t in self.occupancy.items()}


def empirical_throughput(stats: SimStats) -> np.ndarray:
    """Per-link busy-time fraction over the measured window."""
    if stats.measured_time <= 0:
        return np.zeros_like(stats.busy_time)
    return stats.busy_time / stats.measured_time


class Simulator:
    """Steppable CSMA-SIC event loop.

    ``advance(until)`` processes all events up to the given time, so callers
    can interleave simulation epochs with parameter changes (``set_rates``).
    The protocol state is the ``active`` bitmask plus the timers: ``due[i]``
    is link i's next event time, its completion if it is active, its expiry
    if its timer counts, else ``math.inf``.  Between events ``counting``,
    the links whose timers run, is ``_frontier(active)``, the links c for
    which ``active`` plus c is independent (Boorstyn et al., 1987); on the
    family it equals ``FeasibleFamily.frontier``.

    ``family``, if given, is the network's family of independent sets, as
    ``enumerate_feasible`` finds it.  ``ValueError`` refuses a family of
    another width, one whose pair rows (the frontiers of its singletons)
    differ from the network's, one with a dependent member, and one that
    lacks an independent set.  Only its maximal members are judged for
    independence, as every member lies within one and independence is
    downward closed.  A missing set is found, if there is one, among the
    sets M + c with M a member and c above M's top link, outside M's
    stored frontier but inside the pair rows of M's links: a smallest
    missing set is M + c for its top link c.  Those candidates are judged
    with one verdict dict, which the run does not keep.  With at most
    ``_CACHE_CAP`` members, the family seeds the state table with a record
    for every member.  A run can reach only members, so a seeded run never
    judges a set: it never calls ``joins``, fills no pair row, and makes no
    independence check.  The frontiers are the ones judging would store,
    so the run is the same, draw for draw, with or without ``family``.

    ``_states`` maps each set reached to its record ``[frontier, time]``:
    the frontier, and the time occupied after ``warmup``.  It holds the
    empty set from the start, a record is added when a set's frontier is
    first judged, and it is never emptied.  ``occupancy`` reads the times
    from it.  ``_indep_cache`` keeps the verdict per mask, and is emptied
    when it reaches ``_CACHE_CAP`` entries.  When an event enters a set
    without a record, the new frontier is bounded by ``counting``, by the
    pair rows ``_pairs[j]``, the frontier of ``{j}`` judged the first
    time a judgement needs it, and by the compiled network's interaction
    masks: when c starts, the counting links outside ``interacts[c]`` keep
    counting unjudged, and when l ends, only links inside ``interacts[l]``
    may resume.  The links left between the bounds are judged by one
    ``joins`` call, which reads and fills ``_indep_cache``.

    Each event checks that an expiring timer was counting, that a started
    set without a record is independent, by its cached verdict or the
    compiled ``independent`` (every record, judged or seeded, belongs to a
    set proven independent), and that the counted backoff equals its draw
    to 1e-6; every event of a seeded run makes the first and the last
    check too.  A failed check raises ``ProtocolError`` with ``now`` at the
    event.  The PHY is ``topology.phy``; a ``phy`` given must equal it.
    """

    def __init__(self, topology: NetworkTopology, channel: ChannelMatrix,
                 phy: PhyConfig = None, params: RateParams = None, seed: int = 0,
                 warmup: float = 0.0, family: FeasibleFamily = None):
        if phy is not None and phy != topology.phy:
            raise ValueError("phy must equal topology.phy")
        k = topology.n_links
        params = params or RateParams.uniform(k)
        if params.r.shape != (k,):
            raise ValueError("params must hold one rate per link")
        with np.errstate(over="ignore"):  # an infinite exp(r) is refused
            self._backoff_scale = _backoff_scale(params.lam)
        # finite: ``RateParams`` refuses a mu without a finite mean
        self._hold_scale = (1.0 / params.mu).tolist()
        _check_seed(seed)
        if not _finite(warmup) or warmup < 0:
            raise ValueError("warmup must be finite and nonnegative")
        self.warmup = warmup

        self._all = (1 << k) - 1
        self._pairs = [None] * k
        network = self._network = compile_network(topology, channel)
        # every timer counts from time 0, so every link must run alone
        unfit = self._all & ~network.solo
        if unfit:
            link = (unfit & -unfit).bit_length() - 1
            raise ValueError(f"link {link} is not solo-feasible")
        # the empty set's frontier and the solo verdicts it rests on, as
        # judging it would store them
        self.counting = network.solo
        self._states = {0: [network.solo, 0.0]}
        if family is not None:
            self._seed_states(family, k)
        self._indep_cache = dict.fromkeys((1 << i for i in range(k)), True)

        self._draws = [
            _exponentials(np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(entropy=seed, spawn_key=(lid,)))))
            for lid in range(k)
        ]

        self.now = 0.0
        self.active = 0
        self._draw = [scale * next(stream) for scale, stream
                      in zip(self._backoff_scale, self._draws)]
        self._counted = [0.0] * k
        self.remaining = list(self._draw)
        self._resumed_at = [0.0] * k
        self.due = list(self._draw)

        self.busy = [0.0] * k
        self.completed = [0] * k
        self._completed_total = [0] * k

    def _seed_states(self, family: FeasibleFamily, k: int) -> None:
        """Start ``_states`` with a record for each member of ``family``,
        after checking it against the ``k``-link network (see
        ``Simulator``); a family of more than ``_CACHE_CAP`` members is
        checked only."""
        if family.width != k:
            raise ValueError("family must have one bit per link")
        singletons = np.left_shift(1, np.arange(k, dtype=np.int64))
        at, found = family.find(singletons)
        network = self._network
        rows = [network.joins(1 << j, self._all, {}) for j in range(k)]
        if not (found.all() and family.frontier[at].tolist() == rows):
            raise ValueError("family is not the network's independent sets")
        if not all(map(network.independent,
                       family.sets[family.frontier == 0].tolist())):
            raise ValueError("family holds a set that is not independent")
        # per member, the links above its top link that may join it by the
        # pair rows but not by the family; one of them that joins is a
        # missing set
        above = [row & -(2 << j) for j, row in enumerate(rows)]
        bound = np.bitwise_and.reduce(
            np.where(family.links(), np.array(above, dtype=np.int64)[:, None],
                     self._all), axis=0, initial=self._all)
        cands = bound & ~family.frontier
        some = cands != 0
        verdicts = {}
        for mask, c in zip(family.sets[some].tolist(), cands[some].tolist()):
            if network.joins(mask, c, verdicts):
                raise ValueError("family lacks some of the network's "
                                 "independent sets")
        if len(family) <= _CACHE_CAP:
            self._states = {mask: [front, 0.0] for mask, front in zip(
                family.sets.tolist(), family.frontier.tolist())}

    @property
    def occupancy(self) -> dict:
        """Occupied time after ``warmup`` per set, keyed by bitmask.

        A new dict on each read, built from the state table's records with
        a positive time: it is read-only, and writing to it changes no run.
        """
        return {mask: rec[1] for mask, rec in self._states.items()
                if rec[1] > 0.0}

    # -- protocol mechanics -------------------------------------------------

    @property
    def completed_total(self) -> np.ndarray:
        """Transmissions completed per link since time 0, warmup included."""
        return np.array(self._completed_total, dtype=np.int64)

    def set_rates(self, lam) -> None:
        """Change activation rates; applies to subsequently drawn backoffs."""
        lam = real_array("rates", lam)
        if lam.shape != (len(self._backoff_scale),):
            raise ValueError("rates must be finite and positive, one per link")
        self._backoff_scale = _backoff_scale(lam)

    def _frontier(self, mask: int, front: int = 0, maybe: int = None) -> int:
        """Bitmask of the links outside ``mask`` that may start transmitting.

        ``front`` and ``maybe`` bound the answer: the links in ``front`` are
        taken as in, those outside ``maybe`` as out, and only the rest are
        judged, by one ``joins`` call through ``_indep_cache``, which is
        then emptied if it has reached ``_CACHE_CAP`` entries; in place, as
        ``advance`` holds its bound ``get``.  Unbounded, every link outside
        ``mask`` is judged.  A set without a record gets one, with the
        frontier and no time; a set with one keeps it, time and all, as its
        stored frontier is the same.
        """
        if maybe is None:
            maybe = self._all
        verdicts = self._indep_cache
        front |= self._network.joins(mask, maybe & ~front, verdicts)
        if len(verdicts) >= _CACHE_CAP:
            verdicts.clear()
        if mask not in self._states:
            self._states[mask] = [front, 0.0]
        return front

    def _pair_bound(self, mask: int) -> int:
        """The links that may run alongside each member of ``mask`` alone.

        That is the AND of the pair rows ``_pairs[j]`` over the members, and
        by downward closure it holds the frontier of ``mask``.  A row is the
        unbounded frontier of ``{j}``, judged the first time it is needed.
        """
        pairs, bound = self._pairs, self._all
        while mask:
            low = mask & -mask
            mask ^= low
            j = low.bit_length() - 1
            row = pairs[j]
            if row is None:
                row = pairs[j] = self._frontier(low)
            bound &= row
        return bound

    # -- driving ------------------------------------------------------------

    def advance(self, until: float) -> None:
        """Process all events up to the given simulation time.

        One pass of the loop is one event: credit the time since the last
        event to the active set's record and the active links, end or start
        the transmission of the link due first, then resume or suspend the
        timers whose verdict that flipped.  The next set's record, found in
        one lookup, gives its frontier and takes its time at the next
        event.  The family is downward closed, so an end only widens the
        frontier: it resumes the ended link's fresh backoff at once and
        walks only the links it let in.  A start only narrows it and walks
        only the links it shut out.  A lookup misses, and a frontier is
        judged, only for a set without a record: never in a run seeded with
        its family (see ``Simulator``).  The state lives in locals, the
        active links also as the list ``members``; ``now``, ``active`` and
        ``counting`` are written back on the way out, also when a
        ``ProtocolError`` ends it.
        """
        if not _finite(until) or until < self.now:
            raise ValueError("advance needs a finite time no earlier than now")
        now, active, counting = self.now, self.active, self.counting
        members = list(bit_ids(active))
        warmup, due, remaining = self.warmup, self.due, self.remaining
        drawn, counted, resumed = self._draw, self._counted, self._resumed_at
        busy = self.busy
        completed, completed_total = self.completed, self._completed_total
        draws, hold_scale = self._draws, self._hold_scale
        backoff_scale = self._backoff_scale
        states = self._states
        record_of = states.get
        independent_of = self._indep_cache.get
        judge, pairs, pair_bound = self._frontier, self._pairs, self._pair_bound
        independent = self._network.independent
        interacts = self._network.interacts
        inf = math.inf
        rec = states[active]
        try:
            while due and (t := min(due)) <= until:
                link = due.index(t)
                lo = now if now >= warmup else warmup
                if t > lo:
                    dt = t - lo
                    rec[1] += dt
                    for i in members:
                        busy[i] += dt
                now = t
                bit = 1 << link
                if active & bit:
                    # completion: the link counts a fresh backoff at once
                    completed_total[link] += 1
                    if now >= warmup:
                        completed[link] += 1
                    b = drawn[link] = remaining[link] = (
                        backoff_scale[link] * next(draws[link]))
                    counted[link] = 0.0
                    due[link] = now + b
                    resumed[link] = now
                    active ^= bit
                    members.remove(link)
                    rec = record_of(active)
                    if rec is None:
                        # it holds the old frontier plus the ended link,
                        # lies within the members' pair rows, and a link
                        # that does not interact with the ended one keeps
                        # its verdict
                        bound = interacts[link]
                        for j in members:
                            row = pairs[j]
                            if row is None:
                                row = pair_bound(1 << j)
                            bound &= row
                        judge(active, counting | bit, bound)
                        rec = states[active]
                    front = rec[0]
                    started = front & ~(counting | bit)
                    while started:
                        low = started & -started
                        started ^= low
                        i = low.bit_length() - 1
                        due[i] = now + remaining[i]
                        resumed[i] = now
                else:
                    # expiry: the link starts transmitting
                    if not counting & bit:
                        raise ProtocolError(
                            f"timer of link {link} expired while infeasible")
                    active |= bit
                    counting ^= bit
                    c = counted[link] = counted[link] + (now - resumed[link])
                    if abs(c - drawn[link]) > 1e-6:
                        raise ProtocolError("backoff bookkeeping lost time "
                                            "across suspend/resume")
                    members.append(link)
                    rec = record_of(active)
                    if rec is None:
                        # only a set proven independent has a record; the
                        # new frontier lies within the old one and the
                        # link's pair row, and holds the old links that do
                        # not interact with the started one
                        ok = independent_of(active)
                        if ok is None:
                            ok = independent(active)
                        if not ok:
                            raise ProtocolError(
                                "active set left the independent-set family")
                        row = pairs[link]
                        if row is None:
                            row = pair_bound(bit)
                        judge(active, counting & ~interacts[link],
                              counting & row)
                        rec = states[active]
                    front = rec[0]
                    due[link] = now + hold_scale[link] * next(draws[link])
                    stopped = counting & ~front
                    while stopped:
                        low = stopped & -stopped
                        stopped ^= low
                        i = low.bit_length() - 1
                        remaining[i] = due[i] - now
                        due[i] = inf
                        counted[i] += now - resumed[i]
                counting = front
            lo = now if now >= warmup else warmup
            if until > lo:
                dt = until - lo
                rec[1] += dt
                for i in members:
                    busy[i] += dt
            now = until
        finally:
            self.now, self.active, self.counting = now, active, counting

    def stats(self) -> SimStats:
        measured = max(0.0, self.now - self.warmup)
        return SimStats(
            busy_time=np.array(self.busy, dtype=np.float64),
            completed=np.array(self.completed, dtype=np.int64),
            occupancy=self.occupancy,
            measured_time=measured,
        )


def run(topology: NetworkTopology, channel: ChannelMatrix,
        cfg: SimConfig, family: FeasibleFamily = None) -> SimStats:
    """Run the protocol for the configured horizon and return its statistics.

    ``family``, the network's ``enumerate_feasible``, seeds the simulator's
    state table (see ``Simulator``); the statistics are the same with or
    without it.
    """
    sim = Simulator(topology, channel, params=cfg.params,
                    seed=cfg.seed, warmup=cfg.warmup, family=family)
    if cfg.horizon > 0:
        sim.advance(cfg.horizon)
    return sim.stats()
