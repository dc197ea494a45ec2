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
compile once for the loader and the simulator alike.  The verdicts for
one active set are cached as a bitmask, its frontier, and each start or
end of a transmission suspends or resumes only the links whose verdict it
flipped.  A new frontier is judged in one ``joins`` call, over only the
links the event can affect: under the veto rule a link that does not
interact with the one that started or ended keeps its verdict exactly.
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

import numpy as np

from .ctmc import RateParams, mean_times
# perfbench/run.py wraps ``sim.check_all_feasible``, which is not called here.
from .localstate import check_all_feasible  # noqa: F401
from .phy import ChannelMatrix, NetworkTopology, PhyConfig, real_array
# perfbench/run.py wraps ``sim.is_independent``, which is not called here.
from .setspace import bit_ids, compile_network, is_independent  # noqa: F401


# Standard exponentials drawn per refill of a link's buffer: large enough
# that the refill call is a small share of a draw, small enough that filling
# every link's buffer in ``Simulator.__init__`` stays cheap.
_BUFFER = 64

# Entries one verdict cache may hold before both are emptied.  A
# benchmark run stays far below it (about 3k verdicts on dense-k25); at
# K = 100 all in range the caches would otherwise grow by about 140k
# verdicts per second of wall time, and most are never read again.
_CACHE_CAP = 1 << 17


def _exponentials(rng: np.random.Generator):
    """Endless standard exponentials from ``rng``, drawn ``_BUFFER`` at a time.

    ``scale * next(...)`` is bit-identical to ``rng.exponential(scale)``
    on the same stream, which computes the same product in C.
    """
    while True:
        yield from rng.standard_exponential(_BUFFER).tolist()


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

    Two caches, emptied together when one reaches ``_CACHE_CAP`` entries,
    keep the verdicts: ``_indep_cache`` the verdict per mask and
    ``_frontier_cache`` the frontier per active set.  On a frontier miss
    the new frontier is bounded by ``counting``, by the pair rows
    ``_pairs[j]``, the frontier of ``{j}`` judged the first time a miss
    needs it, and by the compiled network's interaction masks: when c
    starts, the counting links outside ``interacts[c]`` keep counting
    unjudged, and when l ends, only links inside ``interacts[l]`` may
    resume.  The links left between the bounds are judged by one
    ``joins`` call, which reads and fills ``_indep_cache``.

    Each event checks that an expiring timer was counting, that a started
    set without a stored frontier is independent, by its cached verdict
    or the compiled ``independent`` (every stored frontier belongs to a
    set proven independent), and that the counted backoff equals its draw
    to 1e-6.  A failed check raises ``ProtocolError`` with ``now`` at the
    event.  The PHY is ``topology.phy``; a ``phy`` given
    must equal it.
    """

    def __init__(self, topology: NetworkTopology, channel: ChannelMatrix,
                 phy: PhyConfig = None, params: RateParams = None, seed: int = 0,
                 warmup: float = 0.0):
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
        self._frontier_cache = {0: network.solo}
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
        self.occupancy = {}

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
        judged, by one ``joins`` call through ``_indep_cache``.  Unbounded,
        every link outside ``mask`` is judged.  The frontier is stored in
        ``_frontier_cache`` after both caches are emptied if either has
        reached ``_CACHE_CAP`` entries; they are emptied in place, as
        ``advance`` holds their bound ``get``.
        """
        if maybe is None:
            maybe = self._all
        verdicts, fronts = self._indep_cache, self._frontier_cache
        front |= self._network.joins(mask, maybe & ~front, verdicts)
        if len(fronts) >= _CACHE_CAP or len(verdicts) >= _CACHE_CAP:
            verdicts.clear()
            fronts.clear()
        fronts[mask] = front
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
        event to the active links, end or start the transmission of the
        link due first, then resume or suspend the timers whose verdict
        that flipped.  The family is downward closed, so an end only widens
        the frontier: it resumes the ended link's fresh backoff at once and
        walks only the links it let in.  A start only narrows it and walks
        only the links it shut out.  The state lives in locals, the active
        links also as a list; ``now``, ``active`` and ``counting`` are
        written back on the way out, also when a ``ProtocolError`` ends it.
        """
        if not _finite(until) or until < self.now:
            raise ValueError("advance needs a finite time no earlier than now")
        now, active, counting = self.now, self.active, self.counting
        members = list(bit_ids(active))
        warmup, due, remaining = self.warmup, self.due, self.remaining
        drawn, counted, resumed = self._draw, self._counted, self._resumed_at
        busy, occupancy = self.busy, self.occupancy
        completed, completed_total = self.completed, self._completed_total
        draws, hold_scale = self._draws, self._hold_scale
        backoff_scale = self._backoff_scale
        frontier_of = self._frontier_cache.get
        independent_of = self._indep_cache.get
        inf = math.inf
        try:
            while due and (t := min(due)) <= until:
                link = due.index(t)
                lo = now if now >= warmup else warmup
                if t > lo:
                    dt = t - lo
                    occupancy[active] = occupancy.get(active, 0.0) + dt
                    for i in members:
                        busy[i] += dt
                now = t
                bit = 1 << link
                if active & bit:
                    # completion: the link counts a fresh backoff at once
                    active &= ~bit
                    members.remove(link)
                    completed_total[link] += 1
                    if now >= warmup:
                        completed[link] += 1
                    b = drawn[link] = remaining[link] = (
                        backoff_scale[link] * next(draws[link]))
                    counted[link] = 0.0
                    due[link] = now + b
                    resumed[link] = now
                    front = frontier_of(active)
                    if front is None:
                        # it holds the old frontier plus the ended link,
                        # and a link that does not interact with the ended
                        # one keeps its verdict
                        front = self._frontier(
                            active, counting | bit,
                            self._network.interacts[link]
                            & self._pair_bound(active))
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
                    counting &= ~bit
                    front = frontier_of(active)
                    if front is None:
                        # only a set proven independent has a stored
                        # frontier; the new one lies within the old one
                        # and the link's pair row, and holds the old links
                        # that do not interact with the started one
                        ok = independent_of(active)
                        if ok is None:
                            ok = self._network.independent(active)
                        if not ok:
                            raise ProtocolError(
                                "active set left the independent-set family")
                        front = self._frontier(
                            active,
                            counting & ~self._network.interacts[link],
                            counting & self._pair_bound(bit))
                    counted[link] += now - resumed[link]
                    if abs(counted[link] - drawn[link]) > 1e-6:
                        raise ProtocolError("backoff bookkeeping lost time "
                                            "across suspend/resume")
                    members.append(link)
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
                occupancy[active] = occupancy.get(active, 0.0) + dt
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
            occupancy=dict(self.occupancy),
            measured_time=measured,
        )


def run(topology: NetworkTopology, channel: ChannelMatrix,
        cfg: SimConfig) -> SimStats:
    """Run the protocol for the configured horizon and return its statistics."""
    sim = Simulator(topology, channel, params=cfg.params,
                    seed=cfg.seed, warmup=cfg.warmup)
    if cfg.horizon > 0:
        sim.advance(cfg.horizon)
    return sim.stats()
